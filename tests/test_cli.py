import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import (
    CoinDensity,
    MarkovState,
    WalkParams,
    chi_isotherm,
    chi_of_density,
    chi_reference,
    entanglement_entropy,
    localized_initial_state,
    markov_beta,
    markov_solution,
)
from cyclewalk import __version__, _oracle, _spell, cli
from cyclewalk.spectral import coin_trajectory
from cyclewalk.thermo import beta_of_chi, running_chi
from cyclewalk.times import _asymptotics
from cyclewalk.cli import (
    EXIT_OK,
    EXIT_UNSATISFIED,
    EXIT_VALIDATION,
    main,
)

from conftest import count_spectral_calls, direct_densities, reference_parser

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


class TestSimulate:
    def test_row_count(self, capsys):
        code, out, _ = run(["simulate", "--n", "3", "--t-max", "20"], capsys)
        assert code == EXIT_OK
        rows = data_lines(out)
        assert rows[0].startswith("t,")
        assert len(rows) - 1 == 21

    def test_t_max_zero_single_row(self, capsys):
        _, out, _ = run(["simulate", "--n", "3", "--t-max", "0"], capsys)
        assert len(data_lines(out)) == 2

    def test_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                ["simulate", "--n", "4", "--t-max", "50", "--out", str(p)]
            )
            assert code == EXIT_OK
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_carries_config(self, capsys):
        _, out, _ = run(["simulate", "--n", "5", "--t-max", "1"], capsys)
        header = [l for l in out.splitlines() if l.startswith("# config:")][0]
        cfg = json.loads(header.removeprefix("# config: "))
        assert cfg["n"] == 5 and cfg["t_max"] == 1

    def test_json_format(self, capsys):
        _, out, _ = run(
            ["simulate", "--n", "3", "--t-max", "3", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert len(payload["records"]) == 4
        assert payload["config"]["n"] == 3
        assert "version" in payload

    def test_invalid_n_exits_one(self, capsys):
        code, _, err = run(["simulate", "--n", "2", "--t-max", "1"], capsys)
        assert code == EXIT_VALIDATION
        assert "n_sites" in err

    def test_columns_match_direct_iteration(self, capsys):
        code, out, _ = run(["simulate", "--n", "5", "--t-max", "2000"], capsys)
        assert code == EXIT_OK
        lines = data_lines(out)
        columns = lines[0].split(",")
        rows = [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows) == 2001
        # the same eight columns from the densities of the direct walk
        params = WalkParams(5, math.pi / 4, math.pi / 3, math.pi / 6)
        beta_ref = math.atanh(2 * math.sqrt(chi_reference(5, math.pi / 4)))
        densities = direct_densities([localized_initial_state(params)], math.pi / 4, 2000)
        p_left, p_right, q = (x[:, 0].tolist() for x in densities)
        acc_l = acc_r = 0.0
        acc_q = 0.0j
        for t, row in enumerate(rows):
            rho = CoinDensity(p_left[t], p_right[t], q[t])
            acc_l, acc_r, acc_q = acc_l + rho.p_left, acc_r + rho.p_right, acc_q + rho.q
            chi = chi_of_density(CoinDensity(acc_l / (t + 1), acc_r / (t + 1), acc_q / (t + 1)))
            split = min(2 * math.sqrt(chi), 1.0)
            want = {
                "t": t,
                "p_left": rho.p_left,
                "p_right": rho.p_right,
                "re_q": rho.q.real,
                "im_q": rho.q.imag,
                "entropy": entanglement_entropy(rho),
                "lambda_plus_avg": 0.5 + math.sqrt(chi),
                "t_over_t0": 0.0 if split == 1.0 else beta_ref / math.atanh(split),
            }
            for key, value in want.items():
                assert abs(row[key] - value) <= 1e-12 * max(1.0, abs(value)), (t, key)
            assert abs(row["p_left"] + row["p_right"] - 1.0) <= 1e-12

    def test_undefined_t0_fails_before_the_series(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "coin_trajectory", lambda *args: calls.append(args))
        code, out, err = run(["simulate", "--theta", "0", "--t-max", "1000000"], capsys)
        assert code == EXIT_VALIDATION
        assert err.startswith("error: T/T0 is undefined")
        assert out == ""
        assert calls == []

    def test_converges_to_known_ratios(self, capsys):
        # gamma = pi sits on the reference isotherm: T/T0 -> 1
        code, out, _ = run(
            [
                "simulate",
                "--n",
                "3",
                "--gamma",
                str(math.pi),
                "--phi",
                "0",
                "--t-max",
                "400",
            ],
            capsys,
        )
        last = data_lines(out)[-1].split(",")
        assert abs(float(last[-1]) - 1.0) < 0.02


class TestIsotherms:
    def test_grid_shape_and_reference_row(self, capsys):
        _, out, _ = run(
            ["isotherms", "--n", "3", "--grid", "5x7", "--format", "json"], capsys
        )
        recs = json.loads(out)["records"]
        assert len(recs) == 35
        # gamma = pi rows sit at T/T0 = 1 for every phi
        for r in recs:
            if abs(r["gamma"] - math.pi) < 1e-12:
                assert abs(r["t_over_t0"] - 1.0) < 1e-10
        # every cell is the isotherm map and its one chi -> beta reading
        n, theta, e0 = 7, 1.1, 2.5
        _, out, _ = run(
            ["isotherms", "--n", str(n), "--theta", str(theta), "--e0", str(e0),
             "--grid", "9x11", "--format", "json"],
            capsys,
        )
        recs = json.loads(out)["records"]
        assert len(recs) == 99
        beta_ref = math.atanh(2 * math.sqrt(chi_reference(n, theta)))
        for r in recs:
            params = WalkParams(n, theta, r["gamma"], r["phi"] % (2 * math.pi), e0)
            want = chi_isotherm(params)
            assert abs(r["chi"] - want) <= 1e-12 * want
            beta = math.atanh(2 * math.sqrt(min(r["chi"], 0.25)))
            assert abs(r["t_over_t0"] - beta_ref / beta) <= 1e-13 * (beta_ref / beta)

    def test_weak_n_dependence(self, capsys):
        ratios = {}
        for n in (3, 100):
            _, out, _ = run(
                ["isotherms", "--n", str(n), "--grid", "9x9", "--format", "json"],
                capsys,
            )
            recs = json.loads(out)["records"]
            ratios[n] = np.array([r["t_over_t0"] for r in recs])
        finite = np.isfinite(ratios[3]) & np.isfinite(ratios[100])
        rel = np.abs(ratios[3][finite] - ratios[100][finite]) / ratios[100][finite]
        # the coldest corner amplifies the ~1% shift in the lattice sums
        assert rel.max() < 0.10
        assert np.median(rel) < 0.02

    @pytest.mark.parametrize(
        "theta, n, where",
        [("0", "8", "T0 = 0"), ("1.5707963267948966", "3", "T0 is infinite")],
    )
    def test_undefined_t0_at_the_domain_edges(self, capsys, theta, n, where):
        # chi_ref is 1/4 at theta = 0, also on a cycle divisible by 4, and
        # tends to 0 at theta = pi/2
        code, out, err = run(["isotherms", "--theta", theta, "--n", n], capsys)
        want = f"error: T/T0 is undefined at theta = {float(theta)}, where {where}\n"
        assert (code, out, err) == (EXIT_VALIDATION, "", want)

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(["isotherms", "--grid", "1x5"], capsys)
        assert code == EXIT_VALIDATION

    @staticmethod
    def reference_isotherms(config):
        """The command as it was before its columns came from the grid's
        structure: a meshgrid, then each of the four columns factored."""
        n_gamma, n_phi = config.grid
        gammas = np.linspace(0.0, math.pi, n_gamma)
        phis = np.linspace(-math.pi / 2, math.pi / 2, n_phi)
        gg, pp = np.meshgrid(gammas, phis, indexing="ij")
        chi = cli.chi_isotherm_grid(config.n, config.theta, gg, pp)
        t_over_t0 = cli._t_over_t0(cli._beta_ref(config), chi)
        columns = {"gamma": gg, "phi": pp, "chi": chi, "t_over_t0": t_over_t0}
        cli._write_dataset(config, {key: cli._factored(a) for key, a in columns.items()})

    @pytest.mark.parametrize("grid", ["2x2", "3x5", "37x53", "181x181"])
    @pytest.mark.parametrize(
        "settings",
        [["--n", "100", "--theta", repr(math.pi / 4)], ["--n", "7", "--theta", "0.3"],
         ["--n", "7", "--theta", "0.3", "--e0", "2.5"]],
        ids=["paper", "small-cycle", "e0"],
    )
    def test_bytes_match_the_meshgrid_command(self, capsys, grid, settings):
        for fmt in ("csv", "json"):
            argv = ["isotherms", *settings, "--grid", grid, "--format", fmt]
            code, out, _ = run(argv, capsys)
            assert code == EXIT_OK
            config = cli._resolve_config(cli._parse_argv(argv))
            self.reference_isotherms(config)
            assert out == capsys.readouterr().out


# the dataset of scripts/run_mixing_sweep.py (N = 10..300, three epsilon),
# all satisfied; its c cells were computed from mode axes in double
SCRIPT_SWEEP = ROOT / "tests" / "data" / "mixing_sweep.csv"


class TestMixingSweep:
    def test_columns_and_cross_check(self, capsys):
        _, out, _ = run(
            [
                "mixing-sweep",
                "--n",
                "50",
                "--epsilon",
                "1e-2",
                "--t-max",
                "5000",
                "--format",
                "json",
            ],
            capsys,
        )
        rec = json.loads(out)["records"][0]
        assert rec["satisfied"]
        assert abs(rec["tau_mix"] - rec["tau_therm_scaled"]) <= max(
            3, 0.05 * rec["tau_mix"]
        )

    def test_n_range(self, capsys):
        # inclusive of stop for either sign of the step, as the header echoes
        for n_range, ns in [("10:30:10", [10, 20, 30]), ("30:10:-10", [30, 20, 10]),
                            ("10:10:-1", [10]), ("10:12", [10, 11, 12])]:
            _, out, _ = run(
                [
                    "mixing-sweep",
                    "--n-range",
                    n_range,
                    "--epsilon",
                    "1e-2",
                    "--t-max",
                    "2000",
                    "--format",
                    "json",
                ],
                capsys,
            )
            dataset = json.loads(out)
            assert [r["n"] for r in dataset["records"]] == ns
            assert dataset["config"]["n_range"] == ns

    def test_bad_size_fails_before_any_scan(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "convergence_sweep", lambda *args: calls.append(args) or [])
        argv = ["mixing-sweep", "--n-range", "3:1:-1", "--t-max", "100", "--epsilon", "1e-2"]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (EXIT_VALIDATION, "", "error: n_sites must be >= 3, got 2\n")
        assert calls == []

    def test_range_above_ceiling_fails_before_it_is_listed(self, capsys):
        # listing 3..2000000 first peaked at 76.5 MiB before the ceiling check
        tracemalloc.start()
        try:
            code, out, err = run(["mixing-sweep", "--n-range", "3:2000000", "--t-max", "3"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "error: n must be at most 1000000, got 2000000\n"
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (
                ["--n-range", "100:300:100", "--t-max", "100000"],
                [
                    (100, 14, 42, 14), (100, 146, 518, 146), (100, 1730, 5429, 1730),
                    (200, 14, 42, 14), (200, 146, 437, 146), (200, 1642, 4847, 1642),
                    (300, 14, 42, 14), (300, 138, 422, 138), (300, 1571, 4810, 1571),
                ],
            ),
            (
                ["--n", "4096", "--t-max", "2000", "--epsilon", "1e-2", "--epsilon", "1e-3"],
                [(4096, 14, 42, 14), (4096, 138, 378, 138)],
            ),
        ],
    )
    def test_fig3_times_are_pinned(self, capsys, argv, rows):
        # (n, tau_mix, tau_therm, tau_therm_scaled) at the paper's start and
        # epsilon = 1e-2, 1e-3 (, 1e-4), so a change to the coin series
        # cannot move a time unnoticed
        _, out, _ = run(["mixing-sweep", *argv], capsys)
        header, *lines = [line.split(",") for line in data_lines(out)]
        columns = [header.index(c) for c in ("n", "tau_mix", "tau_therm", "tau_therm_scaled")]
        assert [tuple(int(line[i]) for i in columns) for line in lines] == rows

    @pytest.mark.parametrize("theta, code", [("0", EXIT_OK), ("1e-6", EXIT_UNSATISFIED)])
    def test_domain_edges_match_a_brute_force_scan(self, capsys, theta, code):
        # at theta = 0 a mode of the 12-cycle stands still, and at 1e-6 it
        # nearly does: K is about 2e5 there, so t_max = 3000 proves nothing
        argv = ["mixing-sweep", "--theta", theta, "--n", "12", "--t-max", "3000"]
        got, out, _ = run([*argv, "--epsilon", "1e-2", "--epsilon", "1e-3"], capsys)
        assert got == code
        params = WalkParams(12, float(theta), math.pi / 3, math.pi / 6)
        lam_inf, beta_inf, _, _ = _asymptotics(params)
        series = coin_trajectory(localized_initial_state(params), params.theta, 2999)
        if theta == "0":
            # the theta = 0 series repeats every 6 steps, so its limit is
            # the mean over one period
            assert abs(0.5 + math.sqrt(running_chi(*(x[:6] for x in series))[-1]) - lam_inf) < 1e-15
        chi = running_chi(*series)  # entry i averages t = i + 1 terms
        deviations = {
            "tau_mix": np.abs(0.5 + np.sqrt(chi) - lam_inf),
            "tau_therm": np.abs(beta_of_chi(chi, 1.0) - beta_inf),
        }
        header, *lines = [line.split(",") for line in data_lines(out)]
        for line in lines:
            row = dict(zip(header, line))
            for column, dev in deviations.items():
                bad = np.flatnonzero(dev > float(row["epsilon"]))
                assert int(row[column]) == (int(bad[-1]) + 2 if bad.size else 1)
            assert row["satisfied"] == ("true" if code == EXIT_OK else "false")

    def test_script_dataset_is_pinned(self, capsys):
        # the scans may stop earlier, but no time or flag of the dataset may
        # move, and c, which the mode axes give, by at most 4 ulp
        code, out, _ = run(["mixing-sweep", "--n-range", "10:300:10", "--t-max", "100000"], capsys)
        assert code == EXIT_OK
        got, want = ([line.split(",") for line in data_lines(text)] for text in (out, SCRIPT_SWEEP.read_text()))
        assert got[0] == want[0] and len(got) == len(want) == 91
        c = want[0].index("c")
        for row, pinned in zip(got[1:], want[1:]):
            assert row[:c] + row[c + 1 :] == pinned[:c] + pinned[c + 1 :]
            assert abs(float(row[c]) - float(pinned[c])) <= 4 * np.spacing(float(pinned[c]))
        assert [row[1] for row in want[1:]] == ["0.01", "0.001", "0.0001"] * 30
        assert {row[-1] for row in want[1:]} == {"true"}

    @pytest.mark.parametrize("n, code", [("5", EXIT_OK), ("4", EXIT_VALIDATION)])
    def test_horizon_past_the_step_ceiling(self, capsys, n, code):
        # t_max is above the 10^6-step ceiling of the series in both runs.
        # The 5-cycle's horizon, 998,280, fits under it (t*_axis, 1,458,225,
        # does not); the 4-cycle's, 1,113,840, does not, and the error names
        # the steps that the scan needs, not t_max
        argv = ["mixing-sweep", "--n", n, "--epsilon", "8e-7", "--t-max", "2000000"]
        got, out, err = run(argv, capsys)
        assert got == code
        if code == EXIT_OK:
            header, line = [line.split(",") for line in data_lines(out)]
            row = dict(zip(header, line))
            columns = ("tau_mix", "tau_therm", "tau_therm_scaled", "satisfied")
            assert [row[c] for c in columns] == ["327484", "936670", "327484", "true"]
        else:
            assert "needs 1113839 steps" in err and "1000000" in err

    def test_unsatisfied_horizon_exit_two(self, capsys):
        code, _, err = run(
            ["mixing-sweep", "--n", "20", "--epsilon", "1e-6", "--t-max", "10"],
            capsys,
        )
        assert code == EXIT_UNSATISFIED
        assert "t_max" in err


class TestMarkovCommand:
    def test_hadamard_summary(self, capsys):
        _, out, _ = run(
            ["markov", "--theta", str(math.pi / 4), "--gamma", "0", "--format", "json"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["summary"]["outcome"] == "thermalized at t=1"

    def test_flip_flop_summary_not_a_crash(self, capsys):
        code, out, _ = run(
            ["markov", "--theta", str(math.pi / 2), "--gamma", "0", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        assert "non-thermalizing (flip-flop)" in json.loads(out)["summary"]["outcome"]

    def test_formula_and_empirical(self, capsys):
        _, out, _ = run(
            [
                "markov",
                "--theta",
                str(math.pi / 3),
                "--gamma",
                "0",
                "--epsilon",
                "1e-4",
                "--format",
                "json",
            ],
            capsys,
        )
        summary = json.loads(out)["summary"]
        assert summary["empirical"] == 14
        assert abs(summary["formula"] - 13.2877) < 1e-3

    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 3, 0.01, 1.5])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_rows_are_the_closed_solution_bit_for_bit(self, capsys, theta, gamma):
        # the columns come from one factored series; each row must read as
        # markov_solution and markov_beta compute it alone, -0.0 and inf included
        argv = ["markov", "--theta", repr(theta), "--gamma", repr(gamma), "--t-max", "3000",
                "--e0", "0.7"]
        _, out, _ = run(argv, capsys)
        initial = MarkovState(math.cos(gamma / 2) ** 2, 1.0 - math.cos(gamma / 2) ** 2)
        rows = [line.split(",") for line in data_lines(out)[1:]]
        assert len(rows) == 3001
        for t, p_left, p_right, beta_m in rows:
            state = markov_solution(initial, theta, int(t))
            expected = (state.p_left, state.p_right, markov_beta(initial, theta, int(t), 0.7))
            assert [float(x).hex() for x in (p_left, p_right, beta_m)] == [
                x.hex() for x in expected
            ]


class TestConfigFile:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "t_max": 4, "format": "json"}))
        _, out, _ = run(
            ["simulate", "--config", str(cfg), "--t-max", "2"], capsys
        )
        payload = json.loads(out)
        assert payload["config"]["n"] == 6
        assert payload["config"]["t_max"] == 2  # flag wins

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == EXIT_VALIDATION

    def test_missing_config_file(self, capsys):
        code, _, _ = run(["simulate", "--config", "/nonexistent.json"], capsys)
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100000], ids=["not-utf8", "too-deep"])
    def test_unreadable_config_exits_one(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        code, out, err = run(["simulate", "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith("error: the config file cannot be read as JSON: ")


# (config file, argv) pairs that main rejects with exit 1
INVALID_INPUT = [
    ({"n": "abc"}, ["simulate", "--t-max", "3"]),
    ([1, 2], ["simulate", "--t-max", "3"]),
    (None, ["markov", "--e0", "0"]),
    (None, ["isotherms", "--e0", "-1", "--grid", "3x3"]),
    (None, ["simulate", "--t-max", "-1"]),
    (None, ["simulate", "--t-max", "100000000"]),
    (None, ["mixing-sweep", "--n-range", "a:b"]),
    (None, ["mixing-sweep", "--n-range", "1:9:0"]),
    (None, ["mixing-sweep", "--n", "5", "--epsilon", "nan", "--t-max", "100"]),
    (None, ["markov", "--epsilon", "nan"]),
    (None, ["isotherms", "--e0", "inf", "--grid", "3x3"]),
    (None, ["isotherms", "--theta", "0", "--grid", "3x3"]),
    (None, ["selftest", "--seed", "-1"]),
    (None, ["markov", "--t-max", "1000001"]),
    (None, ["simulate", "--grid", "3x3"]),
    (None, ["isotherms", "--t-max", "5"]),
    (None, ["markov", "--n", "5"]),
    (None, ["selftest", "--out", "x.csv"]),
    (None, ["simulate", "--n", "abc"]),
    (None, ["simulate", "--bogus", "1"]),
    (None, []),
    ({"grid": [3, 3]}, ["simulate"]),
    (None, ["mixing-sweep", "--n", "5", "--n-range", "3:9"]),
    (None, ["markov", "--epsilon", "1e-3", "--epsilon", "1e-4"]),
    ({"n_range": []}, ["mixing-sweep"]),
    (None, ["isotherms", "--grid", "30000x30000"]),
    (None, ["simulate", "--n", "1000001", "--t-max", "3"]),
    (None, ["mixing-sweep", "--n", "1000001", "--t-max", "3"]),
    (None, ["mixing-sweep", "--n-range", "3:2000003:1000000", "--t-max", "3"]),
    ({"n_range": [5, 1000001]}, ["mixing-sweep", "--t-max", "3"]),
    (None, ["isotherms", "--n", "1000001", "--grid", "3x3"]),
    (None, ["mixing-sweep", "--n-range", "1:2:3:4"]),
    (None, ["mixing-sweep", "--n-range", "5:3"]),
    (None, ["isotherms", "--grid", "axb"]),
    ({"format": "xml"}, ["isotherms", "--grid", "3x3"]),
    ({"epsilon": []}, ["markov"]),
    (None, ["simulate", "--theta", "1.5707963267948966"]),
]
INVALID_INPUT_IDS = [
    "config-string-n", "config-list", "markov-e0-zero", "isotherms-e0-negative",
    "simulate-t-max-negative", "simulate-t-max-above-ceiling", "n-range-not-integers",
    "n-range-zero-step", "mixing-sweep-epsilon-nan", "markov-epsilon-nan",
    "isotherms-e0-inf", "isotherms-theta-zero", "selftest-seed-negative",
    "markov-t-max-above-ceiling", "simulate-grid", "isotherms-t-max", "markov-n",
    "selftest-out", "simulate-n-not-integer", "simulate-unknown-flag", "no-command",
    "config-simulate-grid", "n-with-n-range", "markov-two-epsilons",
    "config-n-range-empty", "isotherms-grid-above-ceiling", "simulate-n-above-ceiling",
    "mixing-sweep-n-above-ceiling", "n-range-above-ceiling", "config-n-range-above-ceiling",
    "isotherms-n-above-ceiling", "n-range-four-parts", "n-range-empty",
    "isotherms-grid-not-integers", "config-format-xml", "config-epsilon-empty",
    "simulate-theta-half-pi",
]


@pytest.mark.parametrize("config, argv", INVALID_INPUT, ids=INVALID_INPUT_IDS)
def test_invalid_input_exits_one(capsys, tmp_path, config, argv):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run(argv, capsys)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")
    assert out == ""


# the flags of each subcommand's --help, in order: exactly the settings it reads
FLAGS = {
    "simulate": "--config --n --theta --gamma --phi --t-max --e0 --format --out",
    "isotherms": "--config --n --theta --e0 --grid --format --out",
    "mixing-sweep": "--config --n --n-range --theta --gamma --phi --epsilon --t-max --e0 "
                    "--format --out",
    "markov": "--config --theta --gamma --epsilon --t-max --e0 --format --out",
    "selftest": "--config --seed",
}


@pytest.mark.parametrize("command", FLAGS)
def test_help_lists_the_settings_read(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert re.findall(r"^  (--[\w-]+)", out, re.MULTILINE) == FLAGS[command].split()


def help_of(parse, argv, capsys):
    """What ``parse`` prints for ``argv`` and --help; it exits 0."""
    with pytest.raises(SystemExit) as exit_info:
        parse([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], *([command] for command in FLAGS)], ids=["top", *FLAGS])
def test_help_is_that_of_the_parser_of_every_command(capsys, argv):
    # main writes its own help from the tables the reference parser reads:
    # the same commands, or the same flags in the same order with the same
    # help texts; the layout is its own
    expected = help_of(reference_parser().parse_args, argv, capsys)
    out = help_of(main, argv, capsys)
    if not argv:
        commands = re.search(r"\{([\w,-]+)\}", expected).group(1).split(",")
        assert re.findall(r"^  (\S+)$", out, re.MULTILINE) == commands == list(FLAGS)
    flag = r"^  (--[\w-]+)"
    assert re.findall(flag, out, re.MULTILINE) == re.findall(flag, expected, re.MULTILINE)
    for kw in cli._flags(argv[0]).values() if argv else ():
        if "help" in kw:
            assert kw["help"] in out and kw["help"] in " ".join(expected.split())


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--grid", "3x3"], ["bogus"], ["bogus", "simulate"], ["-x", "markov"],
     ["mixing-sweep", "--eps", "1e-2"]],
)
def test_parser_errors_are_those_of_the_parser_of_every_command(capsys, argv):
    # what is rejected is the same; the message is main's own
    with pytest.raises(cli.ParameterError):
        reference_parser().parse_args(argv)
    code, out, err = run(argv, capsys)
    assert code == EXIT_VALIDATION
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# argv with flags spelled with "=", repeated flags and several --epsilon,
# then argv that no parser accepts: abbreviated, misspelled or unknown
# flags, a missing value, a bad type or choice, no command
PARSER_CASES = [
    ["mixing-sweep", "--n=5", "--t-max=2000", "--epsilon=1e-2", "--epsilon=1e-3", "--out=eq.csv"],
    ["mixing-sweep", "--epsilon", "1e-2", "--epsilon=1e-3", "--epsilon", "1e-4", "--n", "7"],
    ["mixing-sweep", "--n-range=10:30:10", "--n-range", "5:7", "--format=json"],
    ["isotherms", "--grid=3x4", "--format=json", "--n", "7", "--n=9"],
    ["simulate", "--n", "4", "--n", "6", "--t-max", "3", "--t-max=5", "--phi=0.5"],
    ["simulate", "--out=", "--e0=2", "--config=missing.json"],
    ["markov", "--theta=-0.5", "--gamma", "-0.5", "--epsilon=1e-3"],
    ["markov", "--theta", "1e-1", "--theta=0.25", "--t-max", "-3"],
    ["selftest", "--seed=3", "--seed", "2"],
    ["mixing-sweep", "--eps", "1e-2"],
    ["mixing-sweep", "--n-r", "3:5"],
    ["simulate", "--t_max", "3"],
    ["simulate", "-n", "5"],
    ["simulate", "--n"],
    ["simulate", "--n="],
    ["simulate", "5"],
    ["simulate", "--", "--n", "5"],
    ["simulate", "--n", "abc"],
    ["simulate", "--n=1.5"],
    ["simulate", "--format", "xml"],
    ["simulate", "--format=CSV"],
    ["markov", "--help=1"],
    ["selftest", "--seed", "0", "extra"],
    ["--n", "5"],
    ["-x", "markov"],
    ["bogus", "simulate"],
    [],
]


def argv_literals(path):
    """Every list of string constants in the source at ``path`` whose first
    entry names a command: the argv that file writes out in full."""
    return [
        ast.literal_eval(node) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.List) and node.elts
        and all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in node.elts)
        and node.elts[0].value in cli._COMMANDS
    ]


def script_argv(monkeypatch):
    """The argv each scripts/run_*.py passes to main."""
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or EXIT_OK)
    for path in sorted(SCRIPTS.glob("run_*.py")):
        monkeypatch.setattr("sys.argv", [str(path)])
        with pytest.raises(SystemExit):
            runpy.run_path(str(path), run_name="__main__")
    return calls


def workload_argv():
    """The argv of every benchmark workload at seeds 0-3."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [argv for name in names for seed in range(4) for argv in workloads.calls(name, seed)]


def parsed(parse, argv):
    """What ``parse`` reads from ``argv``, as JSON text (None if it rejects
    the argv), and the config that resolves to, or the error it raises."""
    try:
        args = parse(argv)
    except cli.ParameterError:
        return None
    try:
        config = json.dumps(vars(cli._resolve_config(args)), sort_keys=True)
    except (cli.CycleWalkError, OSError, ValueError) as exc:
        config = repr(exc)
    return json.dumps(vars(args), sort_keys=True), config


def test_parser_reads_what_the_reference_parser_reads(capsys, tmp_path, monkeypatch):
    invalid = []
    for i, (config, argv) in enumerate(INVALID_INPUT):
        if config is not None:
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        invalid.append(argv)
    literals = [argv for path in sorted(ROOT.glob("tests/*.py")) for argv in argv_literals(path)]
    runs = [*script_argv(monkeypatch), *workload_argv()]
    # argv whose value starts with "-" the reference rejects by design
    corpus = [argv for argv in [*literals, *runs, *PARSER_CASES, *invalid] if argv != DASH_VALUE]
    reference = reference_parser().parse_args
    outcomes = [parsed(cli._parse_argv, argv) for argv in corpus]
    assert [(argv, outcome) for argv, outcome in zip(corpus, outcomes)
            if outcome != parsed(reference, argv)] == []
    # the scripts and the benchmark resolve a config, and the argv of the
    # tests hold many that resolve and many that do not
    resolved = [o is not None and o[1].startswith("{") for o in outcomes]
    assert len(runs) == 8 + 36 and all(resolved[len(literals):len(literals) + len(runs)])
    assert sum(resolved) >= 80 and resolved.count(False) >= 50
    # main rejects the invalid table with either parser
    for parse in (reference, cli._parse_argv):
        monkeypatch.setattr(cli, "_parse_argv", parse)
        assert {main(argv) for argv in invalid} == {EXIT_VALIDATION}
        assert capsys.readouterr().out == ""


# argparse took -1e-3 for a flag: it matches no negative-number pattern
DASH_VALUE = ["simulate", "--phi", "-1e-3"]


def test_a_value_may_start_with_a_dash(capsys):
    with pytest.raises(cli.ParameterError):
        reference_parser().parse_args(DASH_VALUE)
    assert cli._parse_argv(DASH_VALUE).phi == -1e-3
    assert run(DASH_VALUE, capsys) == (
        EXIT_VALIDATION, "", "error: phi must lie in [0, 2*pi), got -0.001\n"
    )


def test_commands_start_without_argparse_or_the_oracles(tmp_path):
    # a fresh interpreter runs each command, as the scripts and the
    # benchmark do; none of them imports what it does not read, and tables
    # of fewer than _RUN_MIN rows, and factored columns of fewer than
    # _RUN_MIN values, leave the CSV and JSON kernels uncompiled
    calls = [
        ["simulate", "--n", "3", "--t-max", "5", "--out", "s.csv"],
        ["isotherms", "--n", "5", "--grid", "3x3", "--out", "i.csv"],
        ["mixing-sweep", "--n", "5", "--epsilon", "1e-2", "--t-max", "2000", "--out", "m.csv"],
        ["markov", "--t-max", "5", "--out", "k.csv"],
        ["simulate", "--n", "3", "--t-max", "5", "--format", "json", "--out", "s.json"],
        ["isotherms", "--n", "5", "--grid", "3x3", "--format", "json", "--out", "i.json"],
        ["markov", "--t-max", "5", "--format", "json", "--out", "k.json"],
        # the benchmark's markov runs: 101-row plain columns
        ["markov", "--theta", "0.39269908169872414", "--gamma", "0", "--t-max", "100",
         "--out", "p.csv"],
        ["markov", "--theta", "0.39269908169872414", "--gamma", "0", "--t-max", "100",
         "--format", "json", "--out", "p.json"],
    ]
    code = (
        "import sys\nfrom cyclewalk.cli import main\n"
        f"assert [main(argv) for argv in {calls!r}] == [0] * {len(calls)}\n"
        "print(sorted({'argparse', 'gettext', 'locale', 'cyclewalk._oracle', 'cyclewalk._spell'}"
        " & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "i.csv", "i.json", "k.csv", "k.json", "m.csv", "p.csv", "p.json", "s.csv", "s.json"
    ]


def test_walk_commands_never_load_the_fft(tmp_path):
    # every start of simulate, mixing-sweep and selftest's walks is on site
    # 0, whose modes are flat, so a fresh interpreter that runs all five
    # commands never imports numpy.fft (89 and 101 are sizes where numpy's
    # FFT of a delta is not exactly flat)
    calls = [
        ["mixing-sweep", "--n-range", "89:101:12", "--epsilon", "1e-2", "--t-max", "2000",
         "--out", "m.csv"],
        ["simulate", "--n", "101", "--t-max", "50", "--out", "s.csv"],
        ["isotherms", "--n", "5", "--grid", "3x3", "--out", "i.csv"],
        ["markov", "--t-max", "5", "--out", "k.csv"],
        ["selftest", "--seed", "0"],
    ]
    code = (
        "import sys\nimport numpy\nprint('numpy.fft' in sys.modules)\n"
        "from cyclewalk.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, 'numpy.fft' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    if lines[0] == "True":
        pytest.skip("this numpy imports numpy.fft with numpy itself")
    assert lines[-1] == "[0, 0, 0, 0, 0] False", child.stderr


def test_commands_compile_no_generated_code(tmp_path):
    # the value records are plain classes: importing the package and running
    # all five commands compiles the package's own source files and nothing
    # else (a frozen dataclass execs a source string per generated method),
    # and never loads dataclasses; numpy is imported before the hook is added
    calls = [
        ["mixing-sweep", "--n-range", "89:101:12", "--epsilon", "1e-2", "--t-max", "2000",
         "--out", "m.csv"],
        ["simulate", "--n", "101", "--t-max", "50", "--out", "s.csv"],
        ["isotherms", "--n", "5", "--grid", "3x3", "--out", "i.csv"],
        ["markov", "--t-max", "5", "--out", "k.csv"],
        ["selftest", "--seed", "0"],
    ]
    code = (
        "import sys\nimport numpy\nnames = []\n"
        "sys.addaudithook(lambda event, args: names.append(str(args[1])) if event == 'compile' else None)\n"
        "from cyclewalk.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, [n for n in names if not n.endswith('.py')], 'dataclasses' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] [] False", child.stderr


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["markov", "--theta", "1.0", "--t-max", "7"]
    expected = run(argv, capsys)
    monkeypatch.setattr("sys.argv", ["cyclewalk", *argv])
    assert run(None, capsys) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "4", "--t-max", "5"],
        ["isotherms", "--n", "5", "--grid", "3x4", "--format", "json"],
        ["mixing-sweep", "--n-range", "10:20:10", "--epsilon", "1e-2", "--t-max", "2000"],
        ["mixing-sweep", "--n", "10", "--format", "json"],
        ["markov", "--theta", "1.0", "--gamma", "0.5"],
    ],
)
def test_header_config_reproduces_the_run(capsys, tmp_path, argv):
    code, out, _ = run(argv, capsys)
    if out.startswith("{"):
        config = json.loads(out)["config"]
    else:
        config = json.loads(out.splitlines()[1].removeprefix("# config: "))
    # the command and every setting it reads, defaults resolved; no path
    keys = [flag[2:].replace("-", "_") for flag in FLAGS[argv[0]].split()]
    assert sorted(config) == sorted(["command", *keys[1:-1]])
    assert all(config[key] is not None for key in ("t_max", "epsilon") if key in config)
    assert config.pop("command") == argv[0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run([argv[0], "--config", str(path)], capsys)[:2] == (code, out)


def without_echo(text):
    """A dataset without its config echo: a CSV comment line, or the JSON
    "config" object."""
    text = re.sub(r"^# config: .*\n", "", text, flags=re.M)
    return re.sub(r'\n  "config": \{\n.*?\n  \},', "", text, flags=re.S)


@pytest.mark.parametrize(
    "argv",
    [
        ["mixing-sweep", "--n-range", "5:9:2", "--t-max", "3000"],
        ["mixing-sweep", "--n", "4096", "--t-max", "2000", "--epsilon", "1e-2", "--epsilon", "1e-3"],
        ["simulate", "--n", "101", "--t-max", "3000"],
        ["simulate", "--n", "11", "--t-max", "300", "--format", "json"],
        ["isotherms", "--n", "7", "--theta", "1.1", "--grid", "31x31"],
    ],
    ids=["sweep-range", "sweep-4096", "simulate-csv", "simulate-json", "isotherms"],
)
def test_e0_changes_only_the_echo(capsys, argv):
    # tau, c and T/T0 read beta only as the split angle e0*beta, so only
    # the header's echo of e0 may move, at any e0 that the walk accepts
    code, out, err = run(argv, capsys)  # e0 = 1
    want = (code, without_echo(out), err)
    for e0 in ("5e-324", "1e-320", "0.7", "2.5", "1e300", "1.7976931348623157e308"):
        code, out, err = run([*argv, "--e0", e0], capsys)
        echo = f'"e0": {float(e0)!r}'
        assert echo in out and echo not in without_echo(out)
        assert (code, without_echo(out), err) == want, e0


def test_out_of_memory_exits_one(capsys, monkeypatch):
    def chi_isotherm_grid(*args):
        raise MemoryError("Unable to allocate 6.71 GiB for an array")

    monkeypatch.setattr(cli, "chi_isotherm_grid", chi_isotherm_grid)
    code, out, err = run(["isotherms", "--grid", "3x3"], capsys)
    assert code == EXIT_VALIDATION
    assert err == "error: Unable to allocate 6.71 GiB for an array\n"
    assert out == ""


def test_fmt_writes_infinities():
    assert cli._fmt(math.inf) == "inf"
    assert cli._fmt(-math.inf) == "-inf"


def reference_dataset(config, table, summary):
    """The per-cell writer the streamed one replaced: one _fmt call per CSV
    cell, one dict per JSON record and json.dumps with an indent."""
    rows = list(zip(*table.values()))
    if config.format == "json":
        payload = {"version": __version__, "config": cli._echo(config),
                   "records": [dict(zip(table, row)) for row in rows]}
        if summary is not None:
            payload["summary"] = summary
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    echo = json.dumps(cli._echo(config), sort_keys=True)
    lines = [f"# cyclewalk {__version__}", f"# config: {echo}"]
    lines += [f"# {key}: {cli._fmt(value)}" for key, value in (summary or {}).items()]
    lines.append(",".join(table))
    lines += [",".join(cli._fmt(cell) for cell in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def written(config, table, summary):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_dataset(config, table, summary)
    return out.getvalue()


FLOATS = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308])
# a NaN whose payload differs from math.nan's: factored apart, spelled alike
OTHER_NAN = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
# few values, so that a factored column repeats them; 0.0 sits beside -0.0
FACTORED = st.sampled_from([0.0, -0.0, 0.5, math.nan, OTHER_NAN, math.inf, -math.inf, 5e-324])
INTS = st.integers(-(2**64), 2**64) | st.sampled_from([2**53 + 1, -(2**53) - 1])
CELLS = {  # the cells of one column: uniform kinds take the C conversions
    "float": FLOATS,
    "int": INTS,
    "bool": st.booleans(),
    "int_or_none": INTS | st.none(),
    "mixed": FLOATS | INTS | st.booleans() | st.none(),
}


@st.composite
def tables(draw):
    """A {column: list or _Factored} table whose rows cycle through a few
    drawn cells per column, so that the row counts around a JSON block stay
    cheap to draw.  A factored column comes from _factored, or holds its
    drawn cells as values, repeats included, as markov's beta_m column can."""
    rows = draw(st.sampled_from([0, 1, 2, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1]))
    names = draw(st.permutations(["t", "p_left", "beta_m", "satisfied", "tau_therm"]))
    table = {}
    for name in names[: draw(st.integers(1, len(names)))]:
        kind = draw(st.sampled_from([*sorted(CELLS), "factored"]))
        cells = draw(st.lists(FACTORED | FLOATS if kind == "factored" else CELLS[kind],
                              min_size=1, max_size=6))
        index = np.arange(rows) % len(cells)
        if kind != "factored":
            table[name] = [cells[i] for i in index]
        elif draw(st.booleans()):
            table[name] = cli._factored(np.array(cells)[index])
        else:
            table[name] = cli._Factored(np.array(cells), index)
    return table


def materialized(table):
    """The table with each factored column, numpy column and range as the
    plain list of its cells."""
    def cells(column):
        if isinstance(column, cli._Factored):
            return column.values[column.index].tolist()
        return column.tolist() if isinstance(column, np.ndarray) else list(column)

    return {key: cells(column) for key, column in table.items()}


def run_table(rows):
    """simulate's shape: runs of adjacent numpy columns and a range, beside
    a factored column.  p_left's first and last row of each block take the
    fallback; in each block, the kernel covers _RUN_MIN - 1 of few's cells
    and _RUN_MIN of enough's; n holds ints the kernel must not spell (0,
    2**53 + 1, -2**63) and ints it must (+-2**53); im_q is all zeros."""
    t = np.arange(rows)
    at = t % cli._BLOCK  # the row's place in its block
    edge = (at == 0) | (at == cli._BLOCK - 1) | (t == rows - 1)
    fallback = np.array([math.nan, 1e-7, 1e17, -math.inf])[t % 4]
    ints = np.array([0, 2**53 + 1, -(2**63), 2**53, -(2**53)])[t // 5 % 5]
    return {
        "t": range(rows),
        "n": np.where(t % 5 == 0, ints, t * 3 - 7),
        "p_left": np.where(edge, fallback, np.sin(t * 0.7) * 10.0 ** (t % 23 - 5)),
        "chi": cli._factored(np.cos(t % 7)),
        "few": np.where(at < cli._RUN_MIN - 1, 0.25 + t, 0.0),
        "enough": np.where(at < cli._RUN_MIN, 0.25 + t, -0.0),
        "im_q": np.where(t % 3 == 0, -0.0, 0.0),
    }


# markov's table over _BLOCK + 2 rows: an int column beside factored columns
# that share one index
_X = cli._factored(np.array([1.0, 0.5, -0.25, 0.0, -0.0])[np.minimum(np.arange(cli._BLOCK + 2), 4)])
MARKOV_SHAPE = {
    "t": list(range(cli._BLOCK + 2)),
    "p_left": cli._Factored((1.0 + _X.values) / 2, _X.index),
    "p_right": cli._Factored((1.0 - _X.values) / 2, _X.index),
    "beta_m": cli._Factored(np.array([math.inf, 0.5, -0.25, 0.0, -0.0]), _X.index),
}

# factored columns at the break-even of _readers' length rule, over
# _BLOCK + 1 rows: few's _RUN_MIN - 1 values are spelled per column,
# enough's _RUN_MIN as a one-column run, and so are mixed's values, beside
# values that the kernel leaves to % or the C encoder (1e16 only in JSON)
_EDGE = np.arange(cli._BLOCK + 1)
_MIXED = np.array([*np.linspace(0.1, 2.0, cli._RUN_MIN), 0.0, -0.0, 1e-7, 1e16, 1e17, math.nan])
FACTORED_EDGE = {
    "few": cli._Factored(np.linspace(0.0, math.pi, cli._RUN_MIN - 1), _EDGE % (cli._RUN_MIN - 1)),
    "enough": cli._Factored(np.linspace(-1.5, 1.5, cli._RUN_MIN), _EDGE % cli._RUN_MIN),
    "mixed": cli._Factored(_MIXED, _EDGE % len(_MIXED)),
}


@settings(max_examples=60, deadline=None)
@given(
    table=tables(),
    fmt=st.sampled_from(["csv", "json"]),
    summary=st.sampled_from([None, {"unsatisfied_horizon": True},
                             {"outcome": "thermalizing", "formula": 0.1, "empirical": 2}]),
)
@example(table={"t": [], "beta_m": []}, fmt="json", summary=None)
@example(table={"beta_m": [math.inf, math.nan, -0.0, None, 2**60, True]}, fmt="json",
         summary=None)
@example(table={"beta_m": cli._Factored(np.array([-0.0, 0.0, math.inf]), np.array([0, 1, 2, 1, 0])),
                "t": [0, 1, 2, 3, 4]}, fmt="csv", summary=None)
@example(table={"chi": cli._factored(np.arange(cli._BLOCK + 1) % 3 / 2)}, fmt="json", summary=None)
# the joined blocks: every column factored or all ints, across a block
@example(table={"gamma": cli._factored(np.arange(cli._BLOCK + 1) // 7 / 3),
                "chi": cli._factored(np.arange(cli._BLOCK + 1) % 3 / 2)}, fmt="csv", summary=None)
@example(table=FACTORED_EDGE, fmt="csv", summary=None)
@example(table=FACTORED_EDGE, fmt="json", summary=None)
@example(table=MARKOV_SHAPE, fmt="csv", summary={"outcome": "thermalizing"})
@example(table=MARKOV_SHAPE, fmt="json", summary={"outcome": "thermalizing"})
@example(table={"satisfied": [t % 2 == 0 for t in MARKOV_SHAPE["t"]], **MARKOV_SHAPE}, fmt="csv",
         summary=None)
@example(table={"satisfied": [t % 2 == 0 for t in MARKOV_SHAPE["t"]], **MARKOV_SHAPE}, fmt="json",
         summary=None)
@example(table={**MARKOV_SHAPE, "t": [(2**64 + 1, -(2**70), 0)[t % 3] for t in MARKOV_SHAPE["t"]]},
         fmt="csv", summary=None)
@example(table={**MARKOV_SHAPE, "t": [(2**64 + 1, -(2**70), 0)[t % 3] for t in MARKOV_SHAPE["t"]]},
         fmt="json", summary=None)
# runs of numpy columns around a block's edges
@example(table=run_table(cli._BLOCK - 1), fmt="csv", summary=None)
@example(table=run_table(cli._BLOCK - 1), fmt="json", summary=None)
@example(table=run_table(cli._BLOCK), fmt="csv", summary=None)
@example(table=run_table(cli._BLOCK), fmt="json", summary=None)
@example(table=run_table(cli._BLOCK + 1), fmt="csv", summary=None)
@example(table=run_table(cli._BLOCK + 1), fmt="json", summary=None)
@example(table=run_table(2 * cli._BLOCK + 1), fmt="csv", summary=None)
@example(table=run_table(2 * cli._BLOCK + 1), fmt="json", summary=None)
def test_writer_matches_the_per_cell_writer(table, fmt, summary):
    config = SimpleNamespace(command="markov", t_max=3, epsilon=[1e-4], format=fmt, out=None)
    # line by line: pytest's diff of two long unequal texts takes minutes
    got = written(config, table, summary).split("\n")
    expected = reference_dataset(config, materialized(table), summary).split("\n")
    first = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got[first]!r} != {expected[first]!r}"
    assert len(got) == len(expected)


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(FLOATS, min_size=1, max_size=6),
    rows=st.sampled_from([0, 1, 2, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1]),
    fmt=st.sampled_from(["csv", "json"]),
    float_column=st.booleans(),
)
# a float column whose first block holds cells of the exact kernel and of
# the % remainder, and whose last row is a block of one cell
@example(cells=[0.25, 1e-7, -3.75e-3, 1e17, -0.0, 123.456, math.nan, -math.inf, 5e-324, 1e16 - 2],
         rows=cli._BLOCK + 1, fmt="csv", float_column=True)
# a run's float column of zeros only, over three blocks
@example(cells=[0.0, -0.0], rows=2 * cli._BLOCK + 1, fmt="csv", float_column=True)
@example(cells=[0.0, -0.0], rows=2 * cli._BLOCK + 1, fmt="json", float_column=True)
@example(cells=[0.25, 1e-7, -3.75e-3, 1e16, 123.456, math.nan], rows=2 * cli._BLOCK + 1,
         fmt="json", float_column=True)
def test_numpy_and_range_columns_read_as_lists(cells, rows, fmt, float_column):
    # simulate hands the writer numpy columns and markov a range of t: the
    # cell types come from the dtype, and the text is that of the same lists
    config = SimpleNamespace(command="simulate", t_max=3, format=fmt, out=None)
    floats = np.array(cells)[np.arange(rows) % len(cells)]
    table = {"t": range(rows), "n": np.arange(rows) * 3 - 7, "chi": cli._factored(floats)}
    if float_column:
        table["p_left"] = floats
    expected = reference_dataset(config, materialized(table), None)
    assert written(config, table, None) == expected


def test_plain_columns_reach_the_assembler_as_one_run(monkeypatch):
    # simulate's numpy columns are one reader of row texts, and each block
    # spells each column with one kernel call if the kernel covers any of
    # its cells, the block of one row too, and with none if it covers none,
    # as for the all-zero column (im_q at gamma = phi = 0)
    rows = 2 * cli._BLOCK + 1
    t = np.arange(rows)
    table = {"t": t} | {f"x{i}": np.sin(t + i) + 1.5 for i in range(7)} | {"zero": 0.0 * t}
    reads, kernel_calls = [], []

    def counted(read):
        def wrapped(start, stop):
            texts = read(start, stop)
            reads.append((start, stop, len(texts)))
            return texts
        return wrapped

    joined = cli._joined_blocks
    monkeypatch.setattr(cli, "_joined_blocks", lambda readers, *args: joined(
        [counted(read) for read in readers], *args))
    cells = _spell._cells
    monkeypatch.setattr(_spell, "_cells", lambda x, shortest=False: (
        kernel_calls.append((len(x), shortest)) or cells(x, shortest)))
    for fmt in ("csv", "json"):
        reads.clear()
        kernel_calls.clear()
        config = SimpleNamespace(command="simulate", t_max=3, format=fmt, out=None)
        assert written(config, table, None) == reference_dataset(config, materialized(table), None)
        blocks = [(0, cli._BLOCK), (cli._BLOCK, 2 * cli._BLOCK), (2 * cli._BLOCK, rows)]
        assert reads == [(start, stop, stop - start) for start, stop in blocks]
        # per block: the ints of t in the "%.17g" form, the floats in the
        # format's (t sorts first in JSON too, and zero last)
        per_block = [[(n, False)] + [(n, fmt == "json")] * 7 for n in (cli._BLOCK, cli._BLOCK, 1)]
        assert kernel_calls == sum(per_block, [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [cli._RUN_MIN - 1, cli._RUN_MIN])
def test_tables_and_factored_values_share_one_length_rule(monkeypatch, rows, fmt):
    # a table of numeric columns, and a factored column's distinct values,
    # are spelled as a run from _RUN_MIN rows or values on, and per column
    # below
    runs = []
    run_reader = cli._run_reader
    monkeypatch.setattr(cli, "_run_reader", lambda columns, *args: (
        runs.append([len(c) for c in columns]) or run_reader(columns, *args)))
    values = np.linspace(0.1, 2.0, rows)
    config = SimpleNamespace(command="markov", t_max=3, format=fmt, out=None)
    routes = []
    for table in ({"t": range(rows), "x": values},
                  {"chi": cli._Factored(values, np.arange(2 * rows) % rows)}):
        runs.clear()
        assert written(config, table, None) == reference_dataset(config, materialized(table), None)
        routes.append(runs[:])
    if rows >= cli._RUN_MIN:
        assert routes == [[[rows, rows]], [[rows]]]
    else:
        assert routes == [[], []]


@pytest.mark.parametrize("argv", [
    ["markov", "--t-max", "100000"],
    ["simulate", "--n", "20", "--t-max", "20000"],
    ["simulate", "--n", "20", "--t-max", "20000", "--format", "json"],
    # at small theta no value repeats, so markov's columns are plain
    ["markov", "--theta", "0.01", "--t-max", "50000"],
    # 15,697 distinct chi: a one-column run spells them _BLOCK values at a
    # time (3.60 MiB); one pass over them all peaked at 5.65 MiB
    ["isotherms", "--n", "100", "--grid", "181x181"],
])
def test_writer_memory_is_bounded_by_the_block(tmp_path, argv):
    # the text is made per block of rows.  Whole-column cell lists and texts
    # peaked at 7.8 and 6.6 MB for the first two; JSON blocks of 4096 rows
    # at 6.3 MB, and markov's factored columns of distinct values at
    # 16.9 MB, for the last two.  Blocks of 2048 rows stay below 4 MB
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def percent_texts(values):
    return ["%.17g" % v for v in values]


def spelled_by_kernel(values, shortest=False):
    """The exact kernel's texts of values, each with 1e-6 < |v| < 1e17 (or,
    with shortest, 1e16): one translate drops the NULs of _spell._cells'
    words, and "\n" ends each text."""
    cells = _spell._cells(np.array(values, dtype=np.float64), shortest)
    return cells.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def factored_texts(values, shortest=False):
    """The texts the writer gives a factored column of values, one per
    value (_column_reader): "%.17g" or, with shortest, the JSON text."""
    column = cli._Factored(np.array(values, dtype=np.float64), np.arange(len(values)))
    [read], _ = cli._readers([column], [","], shortest)
    return read(0, len(values))


def spy_on_kernel(monkeypatch):
    """The lengths of the blocks _spell._cells spells from now on."""
    calls, cells = [], _spell._cells
    monkeypatch.setattr(_spell, "_cells", lambda x, shortest=False: (
        calls.append(len(x)) or cells(x, shortest)))
    return calls


def kernel_families():
    """Values where an inexact %.17g kernel would go wrong, all with
    1e-6 < |v| < 1e17, with both signs."""
    rng = np.random.default_rng(29)
    values = []
    # exact ties: v * 10**(16 - e) = M * 5**(16 - e) / 2 is an integer and
    # a half, with 17 digits, for odd M; none has e = 16, where M > 2**53
    for e in range(-6, 17):
        low = -(-2 * 10**16 // 5 ** (16 - e))
        high = min(2**53, 2 * 10**17 // 5 ** (16 - e))
        if low < high:
            odd = rng.integers(low, high, 200) | 1
            values += np.ldexp(odd.astype(np.float64), e - 17).tolist()
    # three doubles either side of each power of ten, where e changes
    for k in range(-10, 20):
        for direction in (-math.inf, math.inf):
            v = float(f"1e{k}")
            for _ in range(4):
                values.append(v)
                v = math.nextafter(v, direction)
    # the switches of %g's form: exponent below 1e-4 and from 1e17
    values += [9.9999999999999991e-6, 1e-5, 1.0000000000000001e-5, 9.9999999999999991e-5, 1e-4,
               1.0000000000000002e-4, 1e16, 1e16 + 2, 1e17 - 16, 5e-6, 1.5e-6, 7e16]
    # integer-valued floats up to 2**53, and the digits' last place
    values += [float(2**53), float(2**53 - 1), 1.0, 10.0, 100.0, 12345678901234567.0]
    values += rng.integers(1, 2**53, 500).astype(np.float64).tolist()
    values += [1 + 2.0**-52, 0.1, 0.5, 2 / 3, 123.456, 1e-6 * (1 + 2.0**-52)]
    values = [v for v in values if 1e-6 < abs(v) < 1e17]
    return values + [-v for v in values]


def test_exact_kernel_matches_percent_on_pinned_families():
    values = kernel_families()
    got = spelled_by_kernel(values)
    expected = percent_texts(values)
    wrong = [(v, g, e) for v, g, e in zip(values, got, expected) if g != e]
    assert not wrong, wrong[:5]
    assert len(got) == len(values) > 6000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1e17, exclude_min=True, exclude_max=True) | st.floats(
    -1e17, -1e-6, exclude_min=True, exclude_max=True), min_size=1, max_size=60))
def test_exact_kernel_matches_percent(values):
    assert spelled_by_kernel(values) == percent_texts(values)


# the values outside the kernel: %'s spelling stays theirs
OUTSIDE = [0.0, -0.0, 5e-324, -5e-324, 1e-6, -1e-6, 1e-7, 1e17, -1e17, 1.7976931348623157e308,
           math.inf, -math.inf, math.nan]


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.floats() | st.sampled_from(OUTSIDE), min_size=1, max_size=40),
    size=st.sampled_from([1, cli._RUN_MIN - 1, cli._RUN_MIN, cli._BLOCK, 2 * cli._BLOCK + 1]),
)
@example(cells=kernel_families()[:2000] + OUTSIDE, size=2 * cli._BLOCK + 1)
def test_csv_spell_matches_percent(cells, size):
    values = [cells[i % len(cells)] for i in range(size)]
    assert factored_texts(values) == percent_texts(values)


@pytest.mark.parametrize("size, covered, kernel_calls", [
    (cli._RUN_MIN - 1, cli._RUN_MIN - 1, 0),  # below the break-even: % alone
    (cli._RUN_MIN, cli._RUN_MIN, 1),
    (cli._BLOCK + cli._RUN_MIN, cli._BLOCK + cli._RUN_MIN, 2),  # one call per block
    (cli._BLOCK, 1, 1),  # a block's one covered cell takes the kernel
    (cli._BLOCK, cli._RUN_MIN, 1),
    (cli._BLOCK + cli._RUN_MIN, cli._BLOCK, 1),  # a block with no covered cell skips it
])
def test_csv_spell_takes_the_kernel_from_the_break_even(monkeypatch, size, covered, kernel_calls):
    calls = spy_on_kernel(monkeypatch)
    values = [0.1 + i for i in range(covered)] + [0.0] * (size - covered)
    assert factored_texts(values) == percent_texts(values)
    assert len(calls) == kernel_calls
    assert all(n <= cli._BLOCK for n in calls)


def encoder_texts(values):
    return json.dumps(values)[1:-1].split(", ")


def json_families():
    """Values where an inexact shortest-repr kernel would go wrong, with both
    signs, and the values around and outside its range 1e-6 < |v| < 1e16."""
    rng = np.random.default_rng(31)
    values = []
    # one to three ulps either side of each power of ten, where e changes
    # and where the 15- and 16-digit roundings carry into a new digit
    for k in range(-7, 18):
        for direction in (-math.inf, math.inf):
            v = float(f"1e{k}")
            for _ in range(4):
                values.append(v)
                v = math.nextafter(v, direction)
    # powers of two, whose rounding interval is asymmetric
    values += [2.0**q for q in range(-24, 56)]
    # values whose shortest text has 1..17 digits, at every exponent
    for digits in range(1, 18):
        for e in range(-7, 17):
            values += [float(f"{m}e{e - digits + 1}") for m in
                       rng.integers(10 ** (digits - 1), 10**digits, 8).tolist()]
    # 16- and 17-digit exact decimal ties: v * 10**(p - 1 - e) is an odd
    # multiple of 1/2, with p digits
    for p in (16, 17):
        for e in range(-6, 16):
            low = -(-2 * 10 ** (p - 1) // 5 ** (p - 1 - e))
            high = min(2**53, 2 * 10**p // 5 ** (p - 1 - e))
            if low < high:
                odd = rng.integers(low, high, 40) | 1
                values += np.ldexp(odd.astype(np.float64), e - p).tolist()
    # integral values ('12.0') up to and past 2**53, and the switches of
    # repr's form: the exponent below 1e-4 and from 1e16
    values += [1.0, 12.0, 100.0, 1e15, float(2**53 - 1), float(2**53 + 2), 9007199254740993e3]
    values += rng.integers(1, 2**53, 200).astype(np.float64).tolist()
    values += [9.9999999999999991e-5, 1e-4, 1.0000000000000002e-4, 1e16 - 2, 1e16, 1e16 + 2,
               0.1, 0.5, 2 / 3, 123.456, 1 + 2.0**-52]
    # zeros, subnormals, huge and non-finite values: outside the range
    values += [0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, math.inf, math.nan]
    return values + [-v for v in values]


def test_json_spell_matches_the_encoder_on_pinned_families():
    # the kernel spells every value of its range, powers of two and ties too
    values = json_families()
    assert factored_texts(values, shortest=True) == encoder_texts(values)
    assert {2.0**q for q in range(-19, 54)} <= set(values)
    assert len(values) > 5 * cli._BLOCK


def test_shortest_kernel_matches_repr_on_random_bits():
    # 10**5 random bit patterns of each sign with 1e-6 < |v| < 1e16
    rng = np.random.default_rng(31)
    exponent = rng.integers(1023 - 20, 1023 + 54, 120_000, dtype=np.int64)
    bits = exponent << 52 | rng.integers(0, 2**52, exponent.size)
    bits |= rng.integers(0, 2, exponent.size) << 63
    values = bits.view(np.float64)
    values = values[(np.abs(values) > 1e-6) & (np.abs(values) < 1e16)]
    texts = []
    for start in range(0, values.size, cli._BLOCK):
        texts += spelled_by_kernel(values[start : start + cli._BLOCK], shortest=True)
    wrong = [(v, t) for v, t in zip(values.tolist(), texts) if t != repr(v)]
    assert not wrong, wrong[:5]
    assert values.size > 10**5


# the JSON cells outside the kernel: the C encoder's spelling stays theirs
JSON_OUTSIDE = [0.0, -0.0, 5e-324, -5e-324, 1e-6, -1e-6, 1e-7, 1e16, -1e16,
                1.7976931348623157e308, math.inf, -math.inf, math.nan]


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.floats() | st.sampled_from(JSON_OUTSIDE), min_size=1, max_size=40),
    size=st.sampled_from([1, cli._RUN_MIN - 1, cli._RUN_MIN, cli._BLOCK, 2 * cli._BLOCK + 1]),
)
@example(cells=json_families()[: 2 * cli._BLOCK + 1], size=2 * cli._BLOCK + 1)
@example(cells=json_families()[-2 * cli._BLOCK - 1 :], size=2 * cli._BLOCK + 1)
def test_json_spell_matches_the_encoder(cells, size):
    values = [cells[i % len(cells)] for i in range(size)]
    assert factored_texts(values, shortest=True) == encoder_texts(values)


@pytest.mark.parametrize("size, covered, kernel_calls", [
    (cli._RUN_MIN - 1, cli._RUN_MIN - 1, 0),  # below the break-even: the encoder alone
    (cli._RUN_MIN, cli._RUN_MIN, 1),
    (cli._BLOCK + cli._RUN_MIN, cli._BLOCK + cli._RUN_MIN, 2),  # one call per block
    (cli._BLOCK, 1, 1),  # a block's one covered cell takes the kernel
    (cli._BLOCK, cli._RUN_MIN, 1),
    (cli._BLOCK + cli._RUN_MIN, cli._BLOCK, 1),  # a block with no covered cell skips it
])
def test_json_spell_takes_the_kernel_from_the_break_even(monkeypatch, size, covered, kernel_calls):
    calls = spy_on_kernel(monkeypatch)
    values = [0.1 + i for i in range(covered)] + [0.0] * (size - covered)
    assert factored_texts(values, shortest=True) == encoder_texts(values)
    assert len(calls) == kernel_calls
    assert all(n <= cli._BLOCK for n in calls)


def test_factored_tells_values_apart_by_bit_pattern():
    column = cli._factored([0.0, -0.0, math.nan, OTHER_NAN, 0.0, math.nan, -0.0])
    assert len(column) == 7
    assert len(column.values) == 4
    assert column.values[column.index].tobytes() == np.array(
        [0.0, -0.0, math.nan, OTHER_NAN, 0.0, math.nan, -0.0]
    ).tobytes()


def test_json_writer_rejects_string_cells():
    config = SimpleNamespace(command="markov", format="json", out=None)
    with pytest.raises(TypeError):
        written(config, {"t": [0, 1], "outcome": [1.5, "a, b"]}, None)


def test_selftest_passes(capsys):
    for seed in range(4):
        code, out, _ = run(["selftest", "--seed", str(seed)], capsys)
        lines = out.splitlines()
        assert code == EXIT_OK
        assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 5
        assert lines[-1] == "OK: 5/5 checks passed"


def test_selftest_walks_each_cycle_once(capsys, monkeypatch):
    # one stepping loop of 200 steps walks the 20 starts of all four cycles,
    # and each cycle is folded once for its series (check 1), twice for the
    # fold's m- and 2m-cycles (check 3) and once for its limits (check 4),
    # through any module's binding; the light cone folds the cycles of 401
    # and 402 sites (check 2), and no envelope is formed
    calls = []
    iterate_arrays = _oracle.iterate_arrays
    monkeypatch.setattr(
        _oracle, "iterate_arrays", lambda *args: calls.append(args) or iterate_arrays(*args)
    )
    folds = count_spectral_calls(monkeypatch, ["_folded_modes", "_axis_limit"])
    code, out, _ = run(["selftest", "--seed", "0"], capsys)
    assert code == EXIT_OK
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS"] * 5
    assert len(calls) == 1
    _, _, _, steps, (first, _) = calls[0]
    assert steps == 200 and len(first) == 20
    assert folds == {"_folded_modes": 18, "_axis_limit": 0}


def test_selftest_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(_oracle, "fold_odd_vs_double", lambda *args: 1.0)
    code, out, _ = run(["selftest", "--seed", "0"], capsys)
    lines = out.splitlines()
    assert code == EXIT_VALIDATION
    assert [line.split()[0] for line in lines[:-1]] == ["PASS", "PASS", "FAIL", "PASS", "PASS"]
    assert "(max dev 1.00e+00)" in lines[2]
    assert lines[-1] == "FAILED: 4/5 checks passed"
