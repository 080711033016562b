import json
import math

import numpy as np
import pytest

from cyclewalk import WalkParams, chi_isotherm, chi_reference
from cyclewalk.cli import (
    EXIT_OK,
    EXIT_UNSATISFIED,
    EXIT_VALIDATION,
    main,
)


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
        _, out, _ = run(
            [
                "mixing-sweep",
                "--n-range",
                "10:30:10",
                "--epsilon",
                "1e-2",
                "--t-max",
                "2000",
                "--format",
                "json",
            ],
            capsys,
        )
        recs = json.loads(out)["records"]
        assert [r["n"] for r in recs] == [10, 20, 30]

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
        (None, ["mixing-sweep", "--n-range", "a:b"]),
        (None, ["mixing-sweep", "--n-range", "1:9:0"]),
        (None, ["mixing-sweep", "--n", "5", "--epsilon", "nan", "--t-max", "100"]),
        (None, ["markov", "--epsilon", "nan"]),
        (None, ["isotherms", "--e0", "inf", "--grid", "3x3"]),
        (None, ["isotherms", "--theta", "0", "--grid", "3x3"]),
    ],
    ids=["config-string-n", "config-list", "markov-e0-zero", "isotherms-e0-negative",
         "simulate-t-max-negative", "n-range-not-integers", "n-range-zero-step",
         "mixing-sweep-epsilon-nan", "markov-epsilon-nan", "isotherms-e0-inf",
         "isotherms-theta-zero"],
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


def test_selftest_passes(capsys):
    code, out, _ = run(["selftest", "--seed", "7"], capsys)
    assert code == EXIT_OK
    assert "5/5 checks passed" in out
