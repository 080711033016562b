"""Tests of the benchmark itself: trace counts and output checks.

Run from the repository root with ``python3 -m pytest perfbench``.  They use
small inputs, so they take a few seconds.
"""

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import BLAS_THREAD_VARS, SRC, run_repetition  # noqa: E402

SIMULATE = ["simulate", "--n", "50", "--t-max", "300", "--out", "simulate.csv"]
SWEEP = ["mixing-sweep", "--n-range", "20:40:20", "--t-max", "3000",
         "--epsilon", "1e-2", "--epsilon", "1e-3", "--out", "sweep.csv"]
ISOTHERMS = ["isotherms", "--n", "20", "--grid", "9x7", "--out", "isotherms.csv"]
MARKOV = ["markov", "--theta", repr(math.pi / 8), "--gamma", "0", "--t-max", "60",
          "--out", "markov.csv"]
SELFTEST = ["selftest", "--seed", "3"]
ALL = [SIMULATE, SWEEP, ISOTHERMS, MARKOV, SELFTEST]


@pytest.fixture(scope="module")
def env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, env):
    rep = run_repetition(ALL, True, tmp_path_factory.mktemp("rep"), env)
    assert [c["error"] for c in rep["calls"]] == [None] * len(ALL)
    return {argv[0]: c["output"].decode() for argv, c in zip(ALL, rep["calls"])}


def test_traced_counts_repeat_exactly(tmp_path, env):
    first, second = (run_repetition(ALL, True, tmp_path / str(i), env) for i in range(2))
    for key in ("calls", "work"):
        assert first["spans"][key] == second["spans"][key]


def test_counts_match_inputs(tmp_path, env):
    spans = run_repetition([SIMULATE, SWEEP], True, tmp_path, env)["spans"]
    calls, work = spans["calls"], spans["work"]
    n_values, t_max = (20, 40), 3000
    # simulate steps once per row; each decompose adds one step of its own
    assert calls["walk.step"] == 301 + calls["spectral.decompose"]
    assert calls["thermo.coin_density"] == 301
    assert calls["spectral.decompose"] == 2 * len(n_values)
    assert calls["times.convergence_sweep"] == len(n_values)
    assert work["spectral.decompose.sites"] == 2 * sum(n_values)
    assert work["thermo.averaged_trajectory_closed.time_points"] == len(n_values) * t_max
    assert work["thermo.averaged_trajectory_closed.mode_exps"] == sum(n_values) * t_max


def test_checks_accept_real_outputs(outputs):
    for argv in ALL:
        assert checks.check(argv, 0, outputs[argv[0]]) == []
    assert checks.check(SWEEP, 2, outputs["mixing-sweep"]) == ["exit code 2"]


def _replace_cell(text: str, column: str, row: int, edit) -> str:
    """Apply ``edit`` to one cell (data row ``row``) of a CLI CSV dataset."""
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[first].split(",").index(column)
    cells = lines[first + 1 + row].split(",")
    cells[col] = edit(cells[col])
    lines[first + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("row", [0, 1, 3])
def test_checks_reject_tau_off_by_one(outputs, shift, row):
    bad = _replace_cell(outputs["mixing-sweep"], "tau_mix", row, lambda v: str(int(v) + shift))
    assert checks.check(SWEEP, 0, bad)


@pytest.mark.parametrize("argv", [SIMULATE, MARKOV], ids=lambda a: a[0])
def test_checks_reject_trace_off_by_1e_6(outputs, argv):
    bad = _replace_cell(outputs[argv[0]], "p_left", 17, lambda v: repr(float(v) + 1e-6))
    assert any("trace" in p for p in checks.check(argv, 0, bad))


def test_checks_reject_wrong_isotherm(outputs):
    last_row = 9 * 7 - 1  # a gamma = pi cell
    bad = _replace_cell(outputs["isotherms"], "t_over_t0", last_row, lambda v: "1.000001")
    assert checks.check(ISOTHERMS, 0, bad)
    sampled = int(np.random.default_rng(0).integers(0, 9 * 7, checks.SAMPLED_CELLS)[0])
    bad = _replace_cell(outputs["isotherms"], "chi", sampled, lambda v: repr(float(v) * (1 + 1e-9)))
    assert checks.check(ISOTHERMS, 0, bad)


def test_checks_reject_wrong_inputs_and_failed_selftest(outputs):
    other_n = [a if a != "50" else "51" for a in SIMULATE]
    assert checks.check(other_n, 0, outputs["simulate"])
    failed = outputs["selftest"].replace("PASS", "FAIL", 1)
    assert checks.check(SELFTEST, 0, failed)
    assert checks.check(SIMULATE, 0, "not a dataset\n")


def test_bloch_start_draw():
    assert workloads.bloch_start(0) == (math.pi / 3, math.pi / 6)
    for seed in range(1, 6):
        gamma, phi = workloads.bloch_start(seed)
        assert workloads.bloch_start(seed) == (gamma, phi)
        assert 0.0 <= gamma <= math.pi and 0.0 <= phi < 2 * math.pi
    assert workloads.calls("closed_forms", 1) == workloads.calls("closed_forms", 2)
