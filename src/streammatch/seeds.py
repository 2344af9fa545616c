"""Deterministic seed splitting.

Every randomized component takes its own ``random.Random`` built from the
master seed and a label path, so the whole pipeline is a pure function of
(stream bytes, master seed).

Splitting scheme: the child seed for path ``(p1, p2, ...)`` is the first
8 bytes (big endian) of ``sha256("<master>/p1/p2/...")``.  Distinct paths
give independent-looking streams, and the derivation is order-free: it
does not matter in which order children are created.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master: int, *path) -> int:
    try:  # one message, one hash: "%s" formats each part as str() does
        message = str(master) + "/%s" * len(path) % path
    except ValueError:  # an int with more digits than PYTHONINTMAXSTRDIGITS lets str() make
        from .streams import int_digits
        message = "/".join(int_digits(p) if isinstance(p, int) else str(p) for p in (master, *path))
    return int.from_bytes(hashlib.sha256(message.encode()).digest()[:8], "big")


def spawn_rng(master: int, *path) -> random.Random:
    """A fresh ``random.Random`` for the component named by ``path``."""
    return random.Random(derive_seed(master, *path))
