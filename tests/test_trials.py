import os
import random
import re
import subprocess
import sys

import pytest

from checks import measure

from streammatch.errors import ParameterError
from streammatch.trials import MODELS, TrialConfig, make_matcher, run_trials


def test_config_validation():
    with pytest.raises(ParameterError):
        TrialConfig(model="bogus", n=20, k=2, weights=4, m=50)
    with pytest.raises(ParameterError):
        TrialConfig(model="dynamic-approx", n=20, k=2, weights=4, m=50)
    for model in ("insert-only", "dynamic-aprox"):
        with pytest.raises(ParameterError, match=re.escape(str(MODELS))):
            make_matcher(model, 20, 2, random.Random(1), 0.1, 0.5)


def test_same_seed_identical_report():
    config = TrialConfig(model="dynamic", n=20, k=2, weights=4, m=60, del_rate=0.3)
    a = run_trials(config, 5, seed=11)
    b = run_trials(config, 5, seed=11)
    assert a == b
    assert a.successes <= a.trials
    assert a.one_sided_violations == 0


def test_insert_trials_run_clean():
    config = TrialConfig(model="insert", n=30, k=2, weights=4, m=150, delta=0.5)
    report = run_trials(config, 8, seed=4)
    assert report.trials == 8
    assert report.one_sided_violations == 0
    assert report.successes >= 1


def test_infeasible_trials_have_zero_violations():
    config = TrialConfig(model="dynamic", n=20, k=2, weights=4, m=40,
                         del_rate=0.2, feasible=False)
    report = run_trials(config, 10, seed=7)
    assert report.with_matching == 0
    assert report.returned == 0
    assert report.one_sided_violations == 0


def test_approx_trials_track_within_eps():
    config = TrialConfig(model="dynamic-approx", n=20, k=2, weights=4, m=60, eps=0.1)
    report = run_trials(config, 5, seed=3)
    assert report.one_sided_violations == 0
    assert report.within_eps <= report.returned


def test_measure_insert_profile():
    config = TrialConfig(model="insert", n=40, k=1, weights=4, m=600, delta=0.5)
    profile = measure(config, (200, 600), seed=2)
    assert set(profile["per_length"]) == {200, 600}
    assert profile["update_ops_ratio"] <= 1.1
    for entry in profile["per_length"].values():
        assert entry["max_stored_edges_per_copy"] <= entry["stored_bound_5q"]


def test_measure_dynamic_profile():
    config = TrialConfig(model="dynamic", n=24, k=2, weights=4, m=100)
    profile = measure(config, (100,), seed=2)
    entry = profile["per_length"][100]
    assert entry["touched_per_update"] == [entry["pairs_per_update"]]
    assert entry["bank_size"] <= entry["bank_bound"]
    assert entry["abstract_words"] > 0


def test_success_rates_script_runs_clean():
    # The script the README's success rates come from: one trial per row, 8
    # dynamic rows and 6 insert-only rows, and no one-sided violation.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    script = os.path.join(root, "scripts", "success_rates.py")
    proc = subprocess.run([sys.executable, script, "--trials", "1"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["model", "k", "copies", "success", "returned", "violations"]
    assert len(rows) == 14
    assert [row.split()[0] for row in rows] == ["dynamic", "dynamic-approx"] * 4 + ["insert"] * 6
    assert [row.split()[-1] for row in rows] == ["0"] * 14
