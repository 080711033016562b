"""Command-line driver: walk simulations and sweeps as CSV/JSON datasets.

Subcommands: simulate, isotherms, mixing-sweep, markov, selftest.  Each
takes only the settings it reads (``_COMMANDS``).  All output is
deterministic (identical config gives byte-identical files) and carries a
commented header with the command and those settings, defaults resolved.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__, _oracle
from .errors import CycleWalkError, NonThermalizingError, ParameterError
from .markov import MarkovState, beta_of_imbalance, markov_imbalances, markov_thermalization_time
from .spectral import coin_trajectory
from .thermo import (
    beta_of_chi,
    chi_isotherm_grid,
    chi_of_entries,
    chi_reference,
    entropy_of_chi,
    running_chi,
)
from .times import convergence_sweep
from .walk import MAX_STEPS, WalkParams, localized_initial_state

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSATISFIED = 2

# Every setting a subcommand can read: its default, the JSON types --config
# accepts for it (matched exactly, so that true is not an integer; list
# entries are integers, numbers for epsilon) and its argparse keywords.
_NUMBER = (int, float)
_SETTINGS = {
    "n": (3, (int,), {"type": int}),
    "n_range": (None, (str, list), {"help": "start:stop[:step], inclusive"}),
    "theta": (math.pi / 4, _NUMBER, {"type": float}),
    "gamma": (math.pi / 3, _NUMBER, {"type": float}),
    "phi": (math.pi / 6, _NUMBER, {"type": float}),
    "epsilon": (None, (list,), {"type": float, "action": "append"}),
    "t_max": (None, (int,), {"type": int}),
    "e0": (1.0, _NUMBER, {"type": float}),
    "grid": ((181, 181), (str, list), {"help": "gamma x phi resolution, e.g. 181x181"}),
    "format": ("csv", (str,), {"choices": ("csv", "json")}),
    "out": (None, (str,), {}),
    "seed": (0, (int,), {"type": int}),
}


def _parse_n_range(text: str) -> range:
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
    # inclusive of stop in either direction; listed once its sizes are checked
    values = range(start, stop + (1 if stride > 0 else -1), stride)
    if not values:
        raise ParameterError(f"--n-range {text!r} is empty")
    return values


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _echo(config: SimpleNamespace) -> dict:
    # the destination path is not part of the experiment; dropping it
    # keeps outputs byte-identical wherever they are written
    return {key: value for key, value in vars(config).items() if key != "out"}


@dataclass(frozen=True)
class _Factored:
    """A float column as an array of values and, per cell, the index of its
    value.  The writer formats each value once and gathers the cells' text,
    so a column with few distinct values costs few float conversions."""

    values: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def _factored(array) -> _Factored:
    """Factor a float array by bit pattern, not by value: -0.0 and 0.0, and
    NaNs of different payloads, stay apart, so the text stays the same."""
    bits = np.asarray(array, dtype=np.float64).ravel().view(np.uint64)
    # np.unique's inverse, holding fewer cell-long arrays at once: the
    # indices fit int32, as no dataset has 2**31 rows
    order = np.argsort(bits)
    ranked = bits[order]
    new = np.empty(ranked.size, bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    values = ranked[new]
    del ranked
    index = np.empty(order.size, np.int32)
    index[order] = np.cumsum(new, dtype=np.int32) - 1
    return _Factored(values.view(np.float64), index)


def _csv_spell(values: list[float]) -> list[str]:
    # "%.17g" for every value at once: one C-level % over a joined template
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")


def _json_spell(values: list) -> list[str]:
    # a flat list through the C encoder; no number, bool or None spells ", "
    return json.dumps(values)[1:-1].split(", ")


_BLOCK = 2048  # rows per joined block of text, and per spell of a plain column


def _cell_types(column) -> set:
    """The types of a plain column's cells: from the dtype of a numpy array
    or from a range, without a scan; from every cell of a list."""
    if isinstance(column, np.ndarray):
        return {type(column.dtype.type().item())}
    return {int} if isinstance(column, range) else set(map(type, column))


def _block_reader(column, spell):
    """``read(start, stop)``: the texts of the column's cells in those rows,
    one block at a time, as ``spell`` writes a list of cells; a factored
    column's values are spelled once and its cells gather their texts."""
    if isinstance(column, _Factored):
        texts = np.array(spell(column.values.tolist()), dtype=object)
        return lambda a, b: texts[column.index[a:b]].tolist()
    if isinstance(column, np.ndarray):
        return lambda a, b: spell(column[a:b].tolist())
    return lambda a, b: spell(list(column[a:b]))


def _joined_blocks(readers, n_rows, seps, end):
    """The rows as text, _BLOCK rows per string: ``readers[i](start, stop)``
    gives column i's texts for those rows, ``seps[i]`` follows column i's
    cell and ``end`` follows the last cell.  One join per block over a list
    whose strided slices hold the columns."""
    k = len(seps)
    pattern = [x for sep in seps for x in (None, sep)]
    for start in range(0, n_rows, _BLOCK):
        stop = min(start + _BLOCK, n_rows)
        out = pattern * (stop - start)
        for i, read in enumerate(readers):
            out[2 * i :: 2 * k] = read(start, stop)
        if stop == n_rows:
            out[-1] = end
        yield "".join(out)


def _csv_lines(config, table, summary):
    """The text of a CSV dataset: header lines, then the rows, joined
    _BLOCK at a time from each column's texts."""
    yield f"# cyclewalk {__version__}\n"
    yield "# config: " + json.dumps(_echo(config), sort_keys=True) + "\n"
    for key, value in (summary or {}).items():
        yield f"# {key}: {_fmt(value)}\n"
    yield ",".join(table) + "\n"
    columns = list(table.values())
    readers = []
    for column in columns:
        # the cells are spelled as _fmt spells them: floats through one
        # C-level %, ints by str; a factored column's values are floats
        kinds = {float} if isinstance(column, _Factored) else _cell_types(column)
        spell = _csv_spell if kinds <= {float} else partial(map, str if kinds <= {int} else _fmt)
        readers.append(_block_reader(column, spell))
    yield from _joined_blocks(readers, len(columns[0]), [","] * (len(columns) - 1) + ["\n"], "\n")


def _json_chunks(config, table, summary):
    """The text of a JSON dataset, in pieces of at most _BLOCK records.

    json.dumps with an indent runs the pure-Python encoder, so each block of
    a plain column goes through the C encoder as one flat list, and a
    factored column's values go through it once.  Number, bool and None
    cells read the same there, and ", " splits them: no cell is a string.
    """
    plain = [column for column in table.values() if not isinstance(column, _Factored)]
    cell_types = set().union(*map(_cell_types, plain))
    if not all(issubclass(t, (int, float, type(None))) for t in cell_types):
        raise TypeError(f"dataset cells must be numbers, bools or None, got {cell_types}")
    # "\0" marks where the records go: no config or summary string holds it
    payload = {"version": __version__, "config": _echo(config), "records": "\0"}
    if summary is not None:
        payload["summary"] = summary
    head, tail = json.dumps(payload, sort_keys=True, indent=2).split(json.dumps("\0"))
    names = sorted(table)
    keys = [json.dumps(k) for k in names]
    n_rows = len(table[names[0]])
    # a record's first key follows the previous record's closing brace
    seps = [f",\n      {k}: " for k in keys[1:]] + ["\n    },\n    {\n      " + keys[0] + ": "]
    yield head + (f"[\n    {{\n      {keys[0]}: " if n_rows else "[]")
    yield from _joined_blocks(
        [_block_reader(table[k], _json_spell) for k in names], n_rows, seps, "\n    }"
    )
    yield "\n  ]" * (n_rows > 0) + tail + "\n"


def _write_dataset(config, table, summary=None):
    """Stream a {column: list, range, numpy array or _Factored} table as CSV
    (commented header) or JSON to config.out / stdout."""
    chunks = (_csv_lines if config.format == "csv" else _json_chunks)(config, table, summary)
    if config.out:
        with open(config.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _beta_ref(config: SimpleNamespace) -> float:
    """Inverse temperature of T0, the temperature of the gamma = pi start
    (see :func:`cyclewalk.thermo.chi_reference`); T/T0 needs it finite."""
    beta_ref = beta_of_chi(chi_reference(config.n, config.theta), config.e0)
    if math.isinf(beta_ref):
        raise ParameterError(f"T/T0 is undefined at theta = {config.theta}, where T0 = 0")
    return beta_ref


def _t_over_t0(config: SimpleNamespace, beta_ref: float, chi) -> np.ndarray:
    """T/T0 for an array of chi values."""
    with np.errstate(divide="ignore"):
        return beta_ref / beta_of_chi(np.minimum(chi, 0.25), config.e0)


def cmd_simulate(config: SimpleNamespace) -> int:
    params = WalkParams(config.n, config.theta, config.gamma, config.phi, config.e0)
    beta_ref = _beta_ref(config)
    p_left, p_right, q = coin_trajectory(localized_initial_state(params), config.theta, config.t_max)
    # row t averages steps 0..t inclusive (t + 1 terms)
    chi_avg = running_chi(p_left, p_right, q)
    columns = {
        "t": np.arange(config.t_max + 1),
        "p_left": p_left,
        "p_right": p_right,
        "re_q": q.real,
        "im_q": q.imag,
        "entropy": entropy_of_chi(chi_of_entries(p_left, p_right, q)),
        "lambda_plus_avg": 0.5 + np.sqrt(chi_avg),
        "t_over_t0": _t_over_t0(config, beta_ref, chi_avg),
    }
    _write_dataset(config, columns)
    return EXIT_OK


def cmd_isotherms(config: SimpleNamespace) -> int:
    n_gamma, n_phi = config.grid
    gammas = np.linspace(0.0, math.pi, n_gamma)
    phis = np.linspace(-math.pi / 2, math.pi / 2, n_phi)
    # row-major over (gamma, phi): the grid gives the gamma and phi columns
    # their index, and chi, even in phi, repeats its values
    chi = _factored(chi_isotherm_grid(config.n, config.theta, gammas[:, None], phis[None, :]))
    # T/T0 is a function of chi, and rounds some neighbouring chi alike
    t_over_t0 = _factored(_t_over_t0(config, _beta_ref(config), chi.values))
    table = {
        "gamma": _Factored(gammas, np.repeat(np.arange(n_gamma), n_phi)),
        "phi": _Factored(phis, np.tile(np.arange(n_phi), n_gamma)),
        "chi": chi,
        "t_over_t0": _Factored(t_over_t0.values, t_over_t0.index[chi.index]),
    }
    _write_dataset(config, table)
    return EXIT_OK


def cmd_mixing_sweep(config: SimpleNamespace) -> int:
    rows = []
    for n in config.n_range or [config.n]:
        params = WalkParams(n, config.theta, config.gamma, config.phi, config.e0)
        rows.extend(convergence_sweep(params, config.epsilon, config.t_max))
    any_unsatisfied = not all(rec["satisfied"] for rec in rows)
    columns = ["n", "epsilon", "tau_mix", "tau_therm", "c", "tau_therm_scaled", "satisfied"]
    table = {key: [rec[key] for rec in rows] for key in columns}
    _write_dataset(config, table, summary={"unsatisfied_horizon": any_unsatisfied})
    if any_unsatisfied:
        print(
            f"warning: some scans still violated their threshold at t_max={config.t_max}",
            file=sys.stderr,
        )
        return EXIT_UNSATISFIED
    return EXIT_OK


def cmd_markov(config: SimpleNamespace) -> int:
    if config.t_max > MAX_STEPS:
        raise ParameterError(f"t_max must lie in [0, {MAX_STEPS}], got {config.t_max}")
    if len(config.epsilon) > 1:
        raise ParameterError(f"markov reads one epsilon, got {config.epsilon}")
    epsilon = config.epsilon[0]
    # the Bloch polar angle sets the classical start: p_left = cos^2(gamma/2)
    p_left0 = math.cos(config.gamma / 2) ** 2
    initial = MarkovState(p_left0, 1.0 - p_left0)
    # x = p_left - p_right tends to 0 and underflows, so its values repeat;
    # as an array, the list is freed before the factoring sorts
    x = _factored(np.array(markov_imbalances(initial, config.theta, config.t_max)))
    beta_m = np.array([beta_of_imbalance(v, config.e0) for v in x.values.tolist()])
    values = {"p_left": (1.0 + x.values) / 2, "p_right": (1.0 - x.values) / 2, "beta_m": beta_m}
    # where no value repeats (small theta: nothing underflows), factoring
    # saves no conversion, and the writer reads plain columns per block
    repeats = len(x.values) < len(x)
    table = {"t": range(config.t_max + 1)} | {
        key: _Factored(v, x.index) if repeats else v[x.index]
        for key, v in values.items()
    }
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
    _write_dataset(config, table, summary=summary)
    return EXIT_OK


def cmd_selftest(config: SimpleNamespace) -> int:
    # stdlib random: importing numpy.random would take more memory than the checks
    rng = random.Random(config.seed)
    cycles = [(rng.randint(3, 12), rng.uniform(0.1, math.pi / 2 - 0.05)) for _ in range(4)]
    starts = [[WalkParams(n, th, *bp) for bp in _oracle.bloch_points(rng, 5)] for n, th in cycles]
    chains = [(rng.uniform(0, math.pi / 2), rng.uniform(0, 1)) for _ in range(10)]
    series, amplitudes, average, limit = _oracle.walk_checks(starts, 200)
    results = [
        ("coin series matches direct iteration", series, 1e-10),
        ("spectral closed form matches direct iteration", amplitudes, 1e-10),
        ("closed-form time average matches direct average", average, 1e-10),
        ("localized asymptotics and isotherm match the spectral limit", limit, 1e-10),
        ("classical closed solution matches iterated chain",
         _oracle.markov_vs_iterated(chains, 49), 1e-13),
    ]
    passed = 0
    for name, worst, bound in results:
        passed += worst < bound
        print(f"{'PASS' if worst < bound else 'FAIL'}  {name}  (max dev {worst:.2e})")
    print(f"{'OK' if passed == len(results) else 'FAILED'}: {passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VALIDATION


# The settings each subcommand reads, in --help order, and the defaults it
# gives to settings that have none of their own.  This table alone sets a
# command's flags, the keys its --config accepts and its header's echo.
_COMMANDS = {
    "simulate": (cmd_simulate, "n theta gamma phi t_max e0 format out", {"t_max": 500}),
    "isotherms": (cmd_isotherms, "n theta e0 grid format out", {}),
    "mixing-sweep": (
        cmd_mixing_sweep,
        "n n_range theta gamma phi epsilon t_max e0 format out",
        {"t_max": 10**5, "epsilon": [1e-2, 1e-3, 1e-4]},
    ),
    "markov": (
        cmd_markov, "theta gamma epsilon t_max e0 format out", {"t_max": 100, "epsilon": [1e-4]}
    ),
    "selftest": (cmd_selftest, "seed", {}),
}


class _Parser(argparse.ArgumentParser):
    """Raises a ParameterError where argparse would exit with status 2."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser, with the flags of ``command`` only, or of every command
    when ``command`` is None."""
    parser = _Parser(
        prog="cyclewalk",
        description="Coined quantum walks on N-cycles: simulations and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else [command]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in _COMMANDS[name][1].split():
            p.add_argument("--" + key.replace("_", "-"), **_SETTINGS[key][2])
    return parser


def _resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """Merge the defaults, the config file and the flags, in that order, and
    reject any invalid value.  A null in the file leaves the default."""
    _, settings, command_defaults = _COMMANDS[args.command]
    settings = settings.split()
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ParameterError("the config file must hold a JSON object")
    values = {}
    for key, value in file_values.items():
        key = key.replace("-", "_")
        if key not in settings:
            raise ParameterError(f"unknown config key {key!r} for {args.command}")
        each = _NUMBER if key == "epsilon" else (int,)
        items = value if type(value) is list else []
        if type(value) not in (*_SETTINGS[key][1], type(None)) or any(
            type(x) not in each for x in items
        ):
            raise ParameterError(f"config key {key!r} has the wrong type: {value!r}")
        if value is not None:
            values[key] = value
    values.update((key, getattr(args, key)) for key in settings if getattr(args, key) is not None)
    defaults = {key: _SETTINGS[key][0] for key in settings} | command_defaults
    if "n_range" in values:  # the range replaces n
        if "n" in values:
            raise ParameterError("n and n_range exclude each other")
        defaults["n"] = None
    values = defaults | values
    if isinstance(values.get("n_range"), str):
        values["n_range"] = _parse_n_range(values["n_range"])
    grid = values.get("grid")
    if isinstance(grid, str):
        try:
            values["grid"] = grid = [int(x) for x in grid.lower().split("x")]
        except ValueError as exc:
            raise ParameterError(f"grid must look like 181x181, got {grid!r}") from exc
    if grid is not None and (len(grid) != 2 or min(grid) < 2):
        raise ParameterError("grid must be two resolutions >= 2")
    if grid is not None and grid[0] * grid[1] > MAX_STEPS:
        raise ParameterError(f"grid must have at most {MAX_STEPS} points, got {grid[0]}x{grid[1]}")
    if values.get("format", "csv") not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {values['format']!r}")
    if values.get("epsilon") == []:
        raise ParameterError("epsilon list must be non-empty")
    if values.get("n_range") == []:
        raise ParameterError("n_range list must be non-empty")
    if values.get("t_max", 0) < 0:
        raise ParameterError(f"t_max must be non-negative, got {values['t_max']}")
    if values.get("seed", 0) < 0:
        raise ParameterError(f"seed must be non-negative, got {values['seed']}")
    walk = ("n", "theta", "gamma", "phi", "e0")
    n, *rest = (_SETTINGS[k][0] if values.get(k) is None else values[k] for k in walk)
    sizes = values.get("n_range") or [n]
    # a cycle takes arrays of n entries: the ceiling of the steps and grid
    # points; a range's largest entry is one of its ends
    n_max = max(sizes[0], sizes[-1]) if isinstance(sizes, range) else max(sizes)
    if n_max > MAX_STEPS:
        raise ParameterError(f"n must be at most {MAX_STEPS}, got {n_max}")
    # the walk parameters a command reads lie in one domain, for every size
    # of a range before its first size runs
    for size in sizes:
        WalkParams(size, *rest)
    if isinstance(sizes, range):
        values["n_range"] = list(sizes)
    return SimpleNamespace(command=args.command, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only a command's own flags are built; any argv whose first token names
    # no command ends in help or an error that lists every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
        return _COMMANDS[args.command][0](_resolve_config(args))
    except (CycleWalkError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
