import hashlib

import pytest

from streammatch.seeds import derive_seed


@pytest.mark.parametrize("master, path", [
    (0, ()),
    (7, (3,)),
    (2**64 - 1, (12, 4095, -3)),  # a 64-bit master, as the dynamic bank's
    (12345, ("trial", 7, "stream")),  # the labels of trials.run_trials
    (9, ("gen", "dynamic", 60, 3, 5, 200, 0.1, True)),  # streams.gen_planted's path
])
def test_derive_seed_hashes_the_joined_path(master, path):
    # The child seed is the first 8 bytes, big endian, of sha256 over
    # "<master>/p1/p2/...", so seeds stay what they were for every stored stream.
    message = "/".join(str(part) for part in (master, *path))
    expect = int.from_bytes(hashlib.sha256(message.encode()).digest()[:8], "big")
    assert derive_seed(master, *path) == expect
