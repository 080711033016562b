"""Command-line driver: walk simulations and sweeps as CSV/JSON datasets.

Subcommands: simulate, isotherms, mixing-sweep, markov, selftest.  All
output is deterministic (identical config gives byte-identical files) and
carries a commented header with the resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import CycleWalkError, NonThermalizingError, ParameterError
from .markov import (
    MarkovState,
    markov_beta,
    markov_solution,
    markov_step,
    markov_thermalization_time,
)
from .spectral import amplitudes_at, decompose
from .thermo import (
    CoinDensity,
    asymptotic_density,
    asymptotic_density_localized,
    averaged_density_closed,
    averaged_density_numeric,
    beta_of_chi,
    chi_isotherm,
    chi_isotherm_grid,
    chi_of_density,
    chi_reference,
    coin_density,
    entanglement_entropy,
)
from .times import convergence_sweep
from .walk import WalkParams, evolve, localized_initial_state, step

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSATISFIED = 2


@dataclass
class ExperimentConfig:
    """Resolved parameters of one CLI run."""

    command: str
    n: int = 3
    n_range: list[int] | None = None
    theta: float = math.pi / 4
    gamma: float = math.pi / 3
    phi: float = math.pi / 6
    epsilon: list[float] | None = None
    t_max: int | None = None
    e0: float = 1.0
    fmt: str = "csv"
    out: str | None = None
    grid: tuple[int, int] = (181, 181)
    seed: int = 0

    def echo(self) -> dict:
        d = asdict(self)
        # the destination path is not part of the experiment; dropping it
        # keeps outputs byte-identical wherever they are written
        d.pop("out")
        return d


def _parse_n_range(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(":")]
    except ValueError as exc:
        raise ParameterError(f"--n-range must be start:stop[:step], got {text!r}") from exc
    if len(parts) == 2:
        start, stop, stride = parts[0], parts[1], 1
    elif len(parts) == 3:
        start, stop, stride = parts
    else:
        raise ParameterError(f"--n-range must be start:stop[:step], got {text!r}")
    if stride == 0:
        raise ParameterError(f"--n-range step must not be zero, got {text!r}")
    values = list(range(start, stop + 1, stride))
    if not values:
        raise ParameterError(f"--n-range {text!r} is empty")
    return values


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _write_dataset(config, columns, rows, summary=None):
    """Emit rows as CSV (commented header) or JSON to config.out / stdout."""
    if config.fmt == "csv":
        lines = [f"# cyclewalk {__version__}"]
        lines.append("# config: " + json.dumps(config.echo(), sort_keys=True))
        for key, value in (summary or {}).items():
            lines.append(f"# {key}: {_fmt(value)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "version": __version__,
            "config": config.echo(),
            "records": rows,
        }
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _t_over_t0(config: ExperimentConfig, chi) -> np.ndarray:
    """T/T0 for an array of chi values; T0 is the temperature of the
    gamma = pi start (see :func:`cyclewalk.thermo.chi_reference`)."""
    beta_ref = beta_of_chi(chi_reference(config.n, config.theta), config.e0)
    if math.isinf(beta_ref):
        raise ParameterError(f"T/T0 is undefined at theta = {config.theta}, where T0 = 0")
    with np.errstate(divide="ignore"):
        return beta_ref / beta_of_chi(np.minimum(chi, 0.25), config.e0)


def cmd_simulate(config: ExperimentConfig) -> int:
    t_max = 500 if config.t_max is None else config.t_max
    params = WalkParams(config.n, config.theta, config.gamma, config.phi, config.e0)
    state = localized_initial_state(params)
    acc_l = acc_r = 0.0
    acc_q = 0.0 + 0.0j
    rows, chis = [], []
    for t in range(t_max + 1):
        rho = coin_density(state)
        acc_l += rho.p_left
        acc_r += rho.p_right
        acc_q += rho.q
        # average over steps 0..t inclusive (t + 1 terms)
        avg = CoinDensity(acc_l / (t + 1), acc_r / (t + 1), acc_q / (t + 1))
        chis.append(chi_of_density(avg))
        rows.append(
            {
                "t": t,
                "p_left": rho.p_left,
                "p_right": rho.p_right,
                "re_q": rho.q.real,
                "im_q": rho.q.imag,
                "entropy": entanglement_entropy(rho),
            }
        )
        state = step(state, config.theta)
    chi = np.array(chis)
    for row, lam, ratio in zip(
        rows, (0.5 + np.sqrt(chi)).tolist(), _t_over_t0(config, chi).tolist()
    ):
        row["lambda_plus_avg"] = lam
        row["t_over_t0"] = ratio
    _write_dataset(
        config,
        ["t", "p_left", "p_right", "re_q", "im_q", "entropy", "lambda_plus_avg", "t_over_t0"],
        rows,
    )
    return EXIT_OK


def cmd_isotherms(config: ExperimentConfig) -> int:
    n_gamma, n_phi = config.grid
    gammas = np.linspace(0.0, math.pi, n_gamma)
    phis = np.linspace(-math.pi / 2, math.pi / 2, n_phi)
    gg, pp = np.meshgrid(gammas, phis, indexing="ij")
    chi = chi_isotherm_grid(config.n, config.theta, gg, pp)
    columns = ["gamma", "phi", "chi", "t_over_t0"]
    cells = (gg, pp, chi, _t_over_t0(config, chi))
    rows = [dict(zip(columns, cell)) for cell in zip(*(a.ravel().tolist() for a in cells))]
    _write_dataset(config, columns, rows)
    return EXIT_OK


def cmd_mixing_sweep(config: ExperimentConfig) -> int:
    t_max = 10**5 if config.t_max is None else config.t_max
    epsilons = config.epsilon or [1e-2, 1e-3, 1e-4]
    n_values = config.n_range or [config.n]
    rows = []
    for n in n_values:
        params = WalkParams(n, config.theta, config.gamma, config.phi, config.e0)
        rows.extend(convergence_sweep(params, epsilons, t_max))
    any_unsatisfied = not all(rec["satisfied"] for rec in rows)
    _write_dataset(
        config,
        ["n", "epsilon", "tau_mix", "tau_therm", "c", "tau_therm_scaled", "satisfied"],
        rows,
        summary={"unsatisfied_horizon": any_unsatisfied},
    )
    if any_unsatisfied:
        print(
            f"warning: some scans still violated their threshold at t_max={t_max}",
            file=sys.stderr,
        )
        return EXIT_UNSATISFIED
    return EXIT_OK


def cmd_markov(config: ExperimentConfig) -> int:
    t_max = 100 if config.t_max is None else config.t_max
    epsilon = (config.epsilon or [1e-4])[0]
    # the Bloch polar angle sets the classical start: p_left = cos^2(gamma/2)
    p_left0 = math.cos(config.gamma / 2) ** 2
    initial = MarkovState(p_left0, 1.0 - p_left0)
    rows = []
    for t in range(t_max + 1):
        st = markov_solution(initial, config.theta, t)
        rows.append(
            {
                "t": t,
                "p_left": st.p_left,
                "p_right": st.p_right,
                "beta_m": markov_beta(initial, config.theta, t, config.e0),
            }
        )
    try:
        formula, empirical = markov_thermalization_time(
            initial, config.theta, epsilon, e0=config.e0
        )
        if empirical == 1:
            summary = {"outcome": "thermalized at t=1", "formula": formula, "empirical": 1}
        else:
            summary = {"outcome": "thermalizing", "formula": formula, "empirical": empirical}
    except NonThermalizingError as exc:
        label = "flip-flop" if math.cos(2 * config.theta) < 0 else "frozen"
        summary = {"outcome": f"non-thermalizing ({label})", "detail": str(exc)}
    _write_dataset(config, ["t", "p_left", "p_right", "beta_m"], rows, summary=summary)
    return EXIT_OK


def cmd_selftest(config: ExperimentConfig) -> int:
    rng = np.random.default_rng(config.seed)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures += 1

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 13))
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        params = WalkParams(
            n, theta, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        )
        state = localized_initial_state(params)
        dec = decompose(state, theta)
        t = int(rng.integers(0, 300))
        direct = evolve(state, theta, t)
        closed = amplitudes_at(dec, t)
        worst = max(
            worst,
            float(np.abs(direct.a - closed.a).max()),
            float(np.abs(direct.b - closed.b).max()),
        )
    check("spectral closed form matches direct iteration", worst < 1e-10, f"max dev {worst:.2e}")

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 10))
        theta = float(rng.uniform(0.1, math.pi / 2 - 0.05))
        params = WalkParams(
            n, theta, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        )
        dec = decompose(localized_initial_state(params), theta)
        for t in (1, 7, 60):
            closed = averaged_density_closed(dec, t)
            numeric = averaged_density_numeric(params, t)
            worst = max(
                worst,
                abs(closed.p_left - numeric.p_left),
                abs(closed.q - numeric.q),
            )
    check("closed-form time average matches numeric average", worst < 1e-10, f"max dev {worst:.2e}")

    worst = worst_chi = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 13))
        theta = float(rng.uniform(0.1, math.pi / 2 - 0.05))
        params = WalkParams(
            n, theta, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        )
        spectral_limit = asymptotic_density(decompose(localized_initial_state(params), theta))
        closed = asymptotic_density_localized(params)
        worst = max(
            worst,
            abs(spectral_limit.p_right - closed.p_right),
            abs(spectral_limit.q - closed.q),
        )
        worst_chi = max(worst_chi, abs(chi_of_density(spectral_limit) - chi_isotherm(params)))
    check("localized asymptotics match the spectral limit", worst < 1e-10, f"max dev {worst:.2e}")
    check("isotherm map matches the asymptotic chi", worst_chi < 1e-10, f"max dev {worst_chi:.2e}")

    worst = 0.0
    for _ in range(10):
        theta = float(rng.uniform(0, math.pi / 2))
        p0 = float(rng.uniform(0, 1))
        state = MarkovState(p0, 1 - p0)
        walked = state
        for t in range(50):
            sol = markov_solution(state, theta, t)
            worst = max(worst, abs(sol.p_left - walked.p_left))
            walked = markov_step(walked, theta)
    check("classical closed solution matches iterated chain", worst < 1e-13, f"max dev {worst:.2e}")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {5 - failures}/5 checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


_COMMANDS = {
    "simulate": cmd_simulate,
    "isotherms": cmd_isotherms,
    "mixing-sweep": cmd_mixing_sweep,
    "markov": cmd_markov,
    "selftest": cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Coined quantum walks on N-cycles: simulations and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--n", type=int)
        p.add_argument("--n-range", help="start:stop[:step], inclusive")
        p.add_argument("--theta", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--phi", type=float)
        p.add_argument("--epsilon", type=float, action="append")
        p.add_argument("--t-max", type=int)
        p.add_argument("--e0", type=float)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--grid", help="gamma x phi resolution, e.g. 181x181")
        p.add_argument("--seed", type=int)
    return parser


# The JSON types of --config values, matched exactly so that true is not an
# integer; list entries are integers (numbers for epsilon).
_NUMBER, _NONE = (int, float), type(None)
_CONFIG_TYPES = {
    "n": (int,), "seed": (int,), "t_max": (int, _NONE), "fmt": (str,), "out": (str, _NONE),
    "theta": _NUMBER, "gamma": _NUMBER, "phi": _NUMBER, "e0": _NUMBER,
    "epsilon": (list, _NONE), "n_range": (str, list, _NONE), "grid": (str, list),
}


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the config file and the flags, and reject any invalid value."""
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ParameterError("the config file must hold a JSON object")
    config = ExperimentConfig(command=args.command)
    for key, value in file_values.items():
        key = key.replace("-", "_")
        if key == "format":
            key = "fmt"
        if key not in _CONFIG_TYPES:
            raise ParameterError(f"unknown config key {key!r}")
        each = _NUMBER if key == "epsilon" else (int,)
        items = value if type(value) is list else []
        if type(value) not in _CONFIG_TYPES[key] or any(type(x) not in each for x in items):
            raise ParameterError(f"config key {key!r} has the wrong type: {value!r}")
        setattr(config, key, value)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if isinstance(config.n_range, str):
        config.n_range = _parse_n_range(config.n_range)
    if isinstance(config.grid, str):
        try:
            config.grid = [int(x) for x in config.grid.lower().split("x")]
        except ValueError as exc:
            raise ParameterError(f"grid must look like 181x181, got {config.grid!r}") from exc
    if len(config.grid) != 2 or min(config.grid) < 2:
        raise ParameterError("grid must be two resolutions >= 2")
    if config.fmt not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {config.fmt!r}")
    if config.epsilon is not None and not config.epsilon:
        raise ParameterError("epsilon list must be non-empty")
    if config.t_max is not None and config.t_max < 0:
        raise ParameterError(f"t_max must be non-negative, got {config.t_max}")
    # every command reads its walk parameters from the same domain
    WalkParams(config.n, config.theta, config.gamma, config.phi, config.e0)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except (CycleWalkError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
