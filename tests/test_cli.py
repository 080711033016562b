import contextlib
import io
import json
import math
import re
import tracemalloc
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
from cyclewalk import __version__, _oracle, cli
from cyclewalk.spectral import coin_trajectory
from cyclewalk.thermo import beta_of_chi, running_chi
from cyclewalk.times import _asymptotics
from cyclewalk.cli import (
    EXIT_OK,
    EXIT_UNSATISFIED,
    EXIT_VALIDATION,
    main,
)

from conftest import direct_densities


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
        t_over_t0 = cli._t_over_t0(config, cli._beta_ref(config), chi)
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
            config = cli._resolve_config(cli._build_parser(None).parse_args(argv))
            self.reference_isotherms(config)
            assert out == capsys.readouterr().out


# (tau_mix, tau_therm, tau_therm_scaled) at epsilon = 1e-2, 1e-3, 1e-4 for
# each N of the dataset of scripts/run_mixing_sweep.py, all satisfied
SCRIPT_SWEEP_PINS = {
    10: [(21, 74, 22), (244, 734, 244), (2574, 7404, 2574)],
    20: [(18, 55, 18), (214, 610, 214), (2178, 6774, 2178)],
    30: [(14, 51, 14), (206, 602, 206), (2318, 6529, 2318)],
    40: [(14, 42, 14), (179, 542, 179), (2126, 6182, 2126)],
    50: [(14, 46, 14), (214, 489, 214), (1970, 6235, 1970)],
    60: [(14, 46, 14), (162, 571, 166), (1790, 5421, 1790)],
    70: [(14, 42, 14), (150, 534, 150), (2016, 5575, 2016)],
    80: [(14, 42, 14), (153, 482, 153), (1835, 5836, 1835)],
    90: [(14, 42, 14), (153, 462, 153), (1726, 5402, 1726)],
    100: [(14, 42, 14), (146, 518, 146), (1730, 5429, 1730)],
    110: [(14, 42, 14), (154, 456, 154), (1862, 5481, 1862)],
    120: [(14, 42, 14), (154, 459, 154), (1763, 4698, 1763)],
    130: [(14, 42, 14), (141, 458, 141), (1850, 4961, 1850)],
    140: [(14, 42, 14), (146, 421, 146), (1798, 5001, 1798)],
    150: [(14, 42, 14), (154, 444, 154), (1838, 4794, 1838)],
    160: [(14, 42, 14), (146, 463, 146), (1649, 4923, 1649)],
    170: [(14, 42, 14), (142, 450, 142), (1590, 4725, 1590)],
    180: [(14, 42, 14), (142, 454, 142), (1666, 4603, 1666)],
    190: [(14, 42, 14), (138, 442, 138), (1628, 4655, 1628)],
    200: [(14, 42, 14), (146, 437, 146), (1642, 4847, 1642)],
    210: [(14, 42, 14), (138, 417, 138), (1584, 4761, 1584)],
    220: [(14, 42, 14), (138, 417, 138), (1578, 4700, 1578)],
    230: [(14, 42, 14), (138, 421, 138), (1485, 4493, 1485)],
    240: [(14, 42, 14), (138, 413, 138), (1688, 4406, 1688)],
    250: [(14, 42, 14), (138, 409, 138), (1575, 5050, 1575)],
    260: [(14, 42, 14), (138, 406, 138), (1573, 4424, 1573)],
    270: [(14, 42, 14), (138, 410, 138), (1450, 4746, 1450)],
    280: [(14, 42, 14), (138, 414, 138), (1590, 4761, 1590)],
    290: [(14, 42, 14), (138, 418, 138), (1537, 4578, 1537)],
    300: [(14, 42, 14), (138, 422, 138), (1571, 4810, 1571)],
}


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
            "tau_therm": np.abs(beta_of_chi(chi, params.energy_scale) - beta_inf),
        }
        header, *lines = [line.split(",") for line in data_lines(out)]
        for line in lines:
            row = dict(zip(header, line))
            for column, dev in deviations.items():
                bad = np.flatnonzero(dev > float(row["epsilon"]))
                assert int(row[column]) == (int(bad[-1]) + 2 if bad.size else 1)
            assert row["satisfied"] == ("true" if code == EXIT_OK else "false")

    def test_script_dataset_is_pinned(self, capsys):
        # the scans may stop earlier, but no time or flag of the dataset may move
        code, out, _ = run(["mixing-sweep", "--n-range", "10:300:10", "--t-max", "100000"], capsys)
        assert code == EXIT_OK
        header, *lines = [line.split(",") for line in data_lines(out)]
        rows = [dict(zip(header, line)) for line in lines]
        got = {}
        for row in rows:
            taus = tuple(int(row[c]) for c in ("tau_mix", "tau_therm", "tau_therm_scaled"))
            got.setdefault(int(row["n"]), []).append(taus)
        assert got == SCRIPT_SWEEP_PINS
        assert [row["epsilon"] for row in rows] == ["0.01", "0.001", "0.0001"] * 30
        assert {row["satisfied"] for row in rows} == {"true"}

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


@pytest.mark.parametrize(
    "config, argv",
    [
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
    ],
    ids=["config-string-n", "config-list", "markov-e0-zero", "isotherms-e0-negative",
         "simulate-t-max-negative", "simulate-t-max-above-ceiling", "n-range-not-integers",
         "n-range-zero-step", "mixing-sweep-epsilon-nan", "markov-epsilon-nan",
         "isotherms-e0-inf", "isotherms-theta-zero", "selftest-seed-negative",
         "markov-t-max-above-ceiling", "simulate-grid", "isotherms-t-max", "markov-n",
         "selftest-out", "simulate-n-not-integer", "simulate-unknown-flag", "no-command",
         "config-simulate-grid", "n-with-n-range", "markov-two-epsilons",
         "config-n-range-empty", "isotherms-grid-above-ceiling", "simulate-n-above-ceiling",
         "mixing-sweep-n-above-ceiling", "n-range-above-ceiling", "config-n-range-above-ceiling",
         "isotherms-n-above-ceiling", "n-range-four-parts", "n-range-empty",
         "isotherms-grid-not-integers", "config-format-xml", "config-epsilon-empty"],
)
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


def full_parser_help(argv, capsys):
    """What the parser of every command prints for ``argv`` (a --help)."""
    with pytest.raises(SystemExit):
        cli._build_parser(None).parse_args(argv)
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], *([command] for command in FLAGS)], ids=["top", *FLAGS])
def test_help_is_that_of_the_parser_of_every_command(capsys, argv):
    expected = full_parser_help([*argv, "--help"], capsys)
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected
    if not argv:
        assert "{simulate,isotherms,mixing-sweep,markov,selftest}" in expected


@pytest.mark.parametrize(
    "argv", [["simulate", "--grid", "3x3"], ["bogus"], ["bogus", "simulate"], ["-x", "markov"]]
)
def test_parser_errors_are_those_of_the_parser_of_every_command(capsys, argv):
    with pytest.raises(cli.ParameterError) as error:
        cli._build_parser(None).parse_args(argv)
    code, out, err = run(argv, capsys)
    assert code == EXIT_VALIDATION
    assert (out, err) == ("", f"error: {error.value}\n")


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
    """The table with each factored column as the plain list of its cells."""
    return {
        key: column.values[column.index].tolist() if isinstance(column, cli._Factored) else column
        for key, column in table.items()
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
def test_numpy_and_range_columns_read_as_lists(cells, rows, fmt, float_column):
    # simulate hands the writer numpy columns and markov a range of t: the
    # cell types come from the dtype, and the text is that of the same lists
    config = SimpleNamespace(command="simulate", t_max=3, format=fmt, out=None)
    floats = np.array(cells)[np.arange(rows) % len(cells)]
    table = {"t": range(rows), "n": np.arange(rows) * 3 - 7, "chi": cli._factored(floats)}
    if float_column:
        table["p_left"] = floats
    plain = {k: list(c) if isinstance(c, range) else c.tolist() for k, c in table.items()
             if not isinstance(c, cli._Factored)}
    expected = reference_dataset(config, materialized({**table, **plain}), None)
    assert written(config, table, None) == expected


@pytest.mark.parametrize("argv", [
    ["markov", "--t-max", "100000"],
    ["simulate", "--n", "20", "--t-max", "20000"],
    ["simulate", "--n", "20", "--t-max", "20000", "--format", "json"],
    # at small theta no value repeats, so markov's columns are plain
    ["markov", "--theta", "0.01", "--t-max", "50000"],
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
    # one stepping loop of 200 steps walks the 20 starts of all four cycles
    calls = []
    iterate_arrays = _oracle.iterate_arrays
    monkeypatch.setattr(
        _oracle, "iterate_arrays", lambda *args: calls.append(args) or iterate_arrays(*args)
    )
    code, out, _ = run(["selftest", "--seed", "0"], capsys)
    assert code == EXIT_OK
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS"] * 5
    assert len(calls) == 1
    _, _, _, steps, (first, _) = calls[0]
    assert steps == 200 and len(first) == 20


def test_selftest_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(_oracle, "closed_average_vs_direct", lambda *args: 1.0)
    code, out, _ = run(["selftest", "--seed", "0"], capsys)
    lines = out.splitlines()
    assert code == EXIT_VALIDATION
    assert [line.split()[0] for line in lines[:-1]] == ["PASS", "PASS", "FAIL", "PASS", "PASS"]
    assert "(max dev 1.00e+00)" in lines[2]
    assert lines[-1] == "FAILED: 4/5 checks passed"
