"""Correctness checks of the CLI's datasets, run outside the timed region.

Each check compares an output with an oracle that the timed code path does
not use, or with an invariant from the paper:

* ``mixing-sweep``: the limit encoded in ``c`` matches the localized
  closed form ``asymptotic_density_localized``, and direct averaging
  (``averaged_density_numeric``) still violates epsilon at tau_mix - 1 and
  no longer does at tau_mix;
* ``simulate``: every row has trace 1; sampled rows match the spectral
  closed form (``amplitudes_at``, ``averaged_density_closed``) instead of
  the direct stepper that produced them;
* ``selftest``: 5/5 checks pass;
* ``isotherms``: the gamma = pi row is the reference isotherm T/T0 = 1, and
  sampled cells match the scalar ``chi_isotherm``;
* ``markov``: every row has trace 1 and matches the iterated chain
  (``markov_step``), and the reported thermalization time is the last
  violation + 1 of that chain.

:func:`check` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cyclewalk.markov import MarkovState, markov_step
from cyclewalk.spectral import amplitudes_at, decompose
from cyclewalk.thermo import (
    asymptotic_density_localized,
    averaged_density_closed,
    averaged_density_numeric,
    chi_isotherm,
    chi_reference,
)
from cyclewalk.walk import WalkParams, localized_initial_state

TRACE_TOL = 1e-12  # |p_L + p_R - 1| allowed in any emitted row
ORACLE_TOL = 1e-9  # agreement with an independent route to the same number
CHI_RTOL = 1e-12  # vectorized vs scalar isotherm formula
SAMPLED_CELLS = 64


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, expected: float, tol: float = ORACLE_TOL) -> bool:
    if math.isinf(expected) or math.isinf(value):
        return value == expected
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def _flags(argv: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        out.setdefault(flag.lstrip("-").replace("-", "_"), []).append(value)
    return out


def _walk_params(config, n: int) -> WalkParams:
    return WalkParams(
        n, config["theta"], config["gamma"], config["phi"] % (2 * math.pi), config["e0"]
    )


def _parse_csv(text: str):
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    config = json.loads(header[1].removeprefix("# config: "))
    summary = dict(ln[2:].split(": ", 1) for ln in header[2:])
    columns = body[0].split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in body[1:]]
    _require(all(len(r) == len(columns) for r in rows), "ragged CSV rows")
    return config, summary, rows


def _parse(text: str, fmt: str):
    if fmt == "json":
        payload = json.loads(text)
        return payload["config"], payload.get("summary", {}), payload["records"]
    return _parse_csv(text)


def _check_config(flags, config) -> None:
    """The dataset header echoes the inputs that were asked for."""
    for key, values in flags.items():
        if key in ("out", "format"):
            continue
        echoed = config[key]
        if key == "epsilon":
            ok = echoed == [float(v) for v in values]
        elif key == "n_range":
            start, stop, stride = (int(p) for p in values[0].split(":"))
            ok = echoed == list(range(start, stop + 1, stride))
        elif key == "grid":
            ok = echoed == [int(p) for p in values[0].split("x")]
        elif key in ("n", "t_max", "seed"):
            ok = echoed == int(values[0])
        else:
            ok = echoed == float(values[0])
        _require(ok, f"header config {key}={echoed!r} does not echo {values}")


def _lambda_plus(rho) -> float:
    return rho.eigenvalues()[0]


def _check_mixing_sweep(config, summary, rows) -> None:
    n_values = config["n_range"] or [config["n"]]
    epsilons = config["epsilon"]
    _require(summary.get("unsatisfied_horizon") == "false", "horizon flagged unsatisfied")
    _require(len(rows) == len(n_values) * len(epsilons), f"{len(rows)} rows")
    for i, n in enumerate(n_values):
        params = _walk_params(config, n)
        lam_inf = _lambda_plus(asymptotic_density_localized(params))

        def deviation(t: int) -> float:
            return abs(_lambda_plus(averaged_density_numeric(params, t)) - lam_inf)

        for j, eps in enumerate(epsilons):
            row = rows[i * len(epsilons) + j]
            _require(int(row["n"]) == n and float(row["epsilon"]) == eps, f"row order {row}")
            _require(row["satisfied"] == "true", f"unsatisfied row {row}")
            c = float(row["c"])
            lam_c = 0.5 + 0.5 * math.sqrt(1.0 - 2.0 / c)  # c = 2 cosh^2(beta_inf e0)
            _require(_close(lam_c, lam_inf), f"N={n}: limit from c {lam_c} != {lam_inf}")
            tau = int(row["tau_mix"])
            _require(tau >= 1, f"tau_mix {tau}")
            if tau > 1:
                _require(deviation(tau - 1) > eps - ORACLE_TOL,
                         f"N={n} eps={eps}: no violation at tau_mix - 1 = {tau - 1}")
            _require(deviation(tau) <= eps + ORACLE_TOL,
                     f"N={n} eps={eps}: still violated at tau_mix = {tau}")


def _check_trace(rows) -> None:
    for row in rows:
        trace = float(row["p_left"]) + float(row["p_right"])
        _require(abs(trace - 1.0) <= TRACE_TOL, f"t={row['t']}: trace {trace!r}")


def _check_simulate(config, summary, rows) -> None:
    t_max = config["t_max"]
    _require([int(r["t"]) for r in rows] == list(range(t_max + 1)), "t column")
    _check_trace(rows)
    params = _walk_params(config, config["n"])
    decomp = decompose(localized_initial_state(params), params.theta)
    beta_ref = math.atanh(2.0 * math.sqrt(chi_reference(params.n_sites, params.theta)))
    for t in sorted({0, 1, 2, 3, t_max // 7, t_max // 2, t_max - 1, t_max}):
        row = rows[t]
        state = amplitudes_at(decomp, t)
        p_left = float(np.sum(np.abs(state.a) ** 2))
        p_right = float(np.sum(np.abs(state.b) ** 2))
        q = complex(np.sum(state.a * np.conj(state.b)))
        for key, want in (("p_left", p_left), ("p_right", p_right),
                          ("re_q", q.real), ("im_q", q.imag)):
            _require(_close(float(row[key]), want), f"t={t}: {key} {row[key]} != {want}")
        root = math.sqrt(max(0.25 - (p_left * p_right - abs(q) ** 2), 0.0))
        entropy = -sum(lam * math.log(lam) for lam in (0.5 + root, 0.5 - root) if lam > 0)
        _require(_close(float(row["entropy"]), entropy, 1e-8), f"t={t}: entropy")
        # the CLI averages steps 0..t, i.e. t + 1 terms
        lam_avg = _lambda_plus(averaged_density_closed(decomp, t + 1))
        _require(_close(float(row["lambda_plus_avg"]), lam_avg), f"t={t}: lambda_plus_avg")
        if t > 0:
            ratio = beta_ref / math.atanh(2.0 * lam_avg - 1.0)
            _require(_close(float(row["t_over_t0"]), ratio, 1e-8), f"t={t}: t_over_t0")


def _check_isotherms(config, summary, rows) -> None:
    n_gamma, n_phi = config["grid"]
    _require(len(rows) == n_gamma * n_phi, f"{len(rows)} cells")
    gammas = np.linspace(0.0, math.pi, n_gamma)
    phis = np.linspace(-math.pi / 2, math.pi / 2, n_phi)
    for j in range(n_phi):
        row = rows[(n_gamma - 1) * n_phi + j]
        _require(float(row["gamma"]) == math.pi, "last block is not gamma = pi")
        _require(abs(float(row["t_over_t0"]) - 1.0) <= ORACLE_TOL,
                 f"gamma = pi, phi = {row['phi']}: T/T0 = {row['t_over_t0']}")
    theta, n = config["theta"], config["n"]
    beta_ref = math.atanh(2.0 * math.sqrt(chi_reference(n, theta)))
    cells = np.random.default_rng(0).integers(0, len(rows), SAMPLED_CELLS)
    for cell in cells:
        i, j = divmod(int(cell), n_phi)
        row = rows[cell]
        gamma, phi = float(row["gamma"]), float(row["phi"])
        _require(gamma == gammas[i] and phi == phis[j], f"cell {cell}: grid point")
        want = chi_isotherm(_walk_params(dict(config, gamma=gamma, phi=phi), n))
        chi = float(row["chi"])
        _require(abs(chi - want) <= CHI_RTOL * want + 1e-15, f"cell {cell}: chi {chi} != {want}")
        gap = 2.0 * math.sqrt(min(chi, 0.25))
        ratio = math.inf if gap == 0.0 else beta_ref / math.atanh(min(gap, 1.0))
        _require(_close(float(row["t_over_t0"]), ratio, 1e-8), f"cell {cell}: t_over_t0")


def _check_markov(config, summary, rows) -> None:
    t_max, theta, e0 = config["t_max"], config["theta"], config["e0"]
    epsilon = (config["epsilon"] or [1e-4])[0]
    _require([int(r["t"]) for r in rows] == list(range(t_max + 1)), "t column")
    _check_trace(rows)
    p0 = math.cos(config["gamma"] / 2) ** 2
    state = MarkovState(p0, 1.0 - p0)
    betas = []
    for row in rows:
        _require(_close(float(row["p_left"]), state.p_left, TRACE_TOL), f"t={row['t']}: p_left")
        x = state.p_left - state.p_right
        beta = math.copysign(math.inf, x) if abs(x) >= 1 else math.log((1 + x) / (1 - x)) / (2 * e0)
        _require(_close(float(row["beta_m"]), beta), f"t={row['t']}: beta_m")
        betas.append(beta)
        state = markov_step(state, theta)
    if "empirical" in summary:
        tau = int(summary["empirical"])
        if 1 <= tau - 1 <= t_max:
            _require(e0 * abs(betas[tau - 1]) > epsilon, f"no violation at tau - 1 = {tau - 1}")
        if tau <= t_max:
            _require(e0 * abs(betas[tau]) <= epsilon, f"still violated at tau = {tau}")


def _check_selftest(stdout: str) -> None:
    lines = stdout.splitlines()
    _require(sum(ln.startswith("PASS") for ln in lines) == 5, "selftest: not 5 PASS lines")
    _require(lines[-1] == "OK: 5/5 checks passed", f"selftest: {lines[-1]!r}")


_DATASET_CHECKS = {
    "mixing-sweep": _check_mixing_sweep,
    "simulate": _check_simulate,
    "isotherms": _check_isotherms,
    "markov": _check_markov,
}


def check(argv: list[str], exit_code, output: str) -> list[str]:
    """Problems with one invocation's exit code and output (its ``--out``
    file, or its stdout when it has none); an empty list means correct."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code!r}"]
    try:
        if argv[0] == "selftest":
            _check_selftest(output)
        else:
            flags = _flags(argv)
            config, summary, rows = _parse(output, flags.get("format", ["csv"])[0])
            _check_config(flags, config)
            _DATASET_CHECKS[argv[0]](config, summary, rows)
    except CheckFailed as exc:
        problems.append(str(exc))
    except Exception as exc:  # a malformed dataset fails the check, it does not stop the run
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
