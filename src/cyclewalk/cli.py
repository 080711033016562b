"""Command-line driver: walk simulations and sweeps as CSV/JSON datasets.

Usage: ``cyclewalk COMMAND [--flag VALUE | --flag=VALUE]...`` or ``--help``.
COMMAND is simulate, isotherms, mixing-sweep, markov or selftest; each takes
--config and the settings it reads (``_COMMANDS``), spelled in full with
dashes, and the token after a flag is its value.  All output is
deterministic (identical config gives byte-identical files on one machine
and BLAS kernel: another kernel may move float cells in their last bits) and
carries a header with the command and those settings, defaults resolved.
e0 sets the unit of markov's beta_m; the other commands' rows do not read it.
"""

from __future__ import annotations

import json
import math
import random
import sys
from itertools import groupby
from types import SimpleNamespace

import numpy as np

from . import __version__
from ._record import Record
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
# entries are integers, numbers for epsilon) and its flag's keywords, which
# _parse_argv and _help read: the type that parses the value, the choices,
# "append" for a repeatable flag, and the help text.
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
    "out": (None, (str,), {"help": "output file; stdout when not given"}),
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


class _Factored(Record):
    """A float column as an array of values and, per cell, the index of its
    value.  The writer formats each value once and gathers the cells' text,
    so a column with few distinct values costs few float conversions."""

    __slots__ = ("values", "index")

    def __init__(self, values: np.ndarray, index: np.ndarray) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index", index)

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


def _texts(cells, shortest: bool) -> list[str]:
    """The texts of numeric cells the kernel does not write, in one C-level
    call: "%.17g" for the floats of a CSV numpy array, through one joined
    template, and the C encoder for the rest, ints and JSON cells (no
    number, bool or None it spells holds ", ")."""
    values = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    if shortest or not isinstance(cells, np.ndarray) or cells.dtype.kind != "f":
        return json.dumps(values)[1:-1].split(", ")
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")


# the rows from which a numeric column joins a run (_readers), below which
# the kernel's fixed cost outweighs what it saves; fit on one block of that
# many cells: 50 us against 0.48 us saved per cell over % (break-even
# 104..111), 60 us against 0.56 us over the C encoder (106..118); a run's
# int columns break even at about 400, and lose at most 35 us per block
# between the two
_RUN_MIN = 110


_BLOCK = 2048  # rows per joined block of text, and cells per spell of a column block


def _cell_types(column) -> set:
    """The types of a plain column's cells: from the dtype of a numpy array
    or from a range, without a scan; from every cell of a list."""
    if isinstance(column, np.ndarray):
        return {type(column.dtype.type().item())}
    return {int} if isinstance(column, range) else set(map(type, column))


def _column_reader(column, shortest: bool):
    """``read(start, stop)``: the texts of the cells of a column outside a
    run in those rows.  A factored column's values are spelled once, as
    _readers spells a one-column table of them, and its cells gather their
    texts; a CSV list's cells are spelled by _fmt, any other by _texts."""
    if isinstance(column, _Factored):
        [read], _ = _readers([column.values], [""], shortest)
        n = len(column.values)
        texts = np.array([t for a in range(0, n, _BLOCK) for t in read(a, a + _BLOCK)], object)
        return lambda a, b: texts[column.index[a:b]].tolist()
    if isinstance(column, list) and not shortest:
        return lambda a, b: list(map(_fmt, column[a:b]))
    return lambda a, b: _texts(column[a:b], shortest)


def _numeric(column) -> bool:
    """Whether a column joins a run (_run_reader): a float64 or integer numpy
    array, or a range (markov's t)."""
    if isinstance(column, np.ndarray):
        return column.dtype == np.float64 or column.dtype.kind in "iu"
    return isinstance(column, range)


def _run_cells(x: np.ndarray, shortest: bool, end: int) -> np.ndarray:
    """The texts of a block of a float64 or integer column as (7, len(x))
    words in the layout of _spell._cells, each ending in the byte ``end`` at
    byte 52.  The kernel spells the floats it covers, "%.17g" with
    1e-6 < |v| < 1e17 or, with shortest, repr with 1e-6 < |v| < 1e16, and
    integers with 0 < |v| <= 2**53 as "%.17g" spells their float, which is
    their str, and is not called for a block where it covers no cell; every
    other cell gets its _texts in its own words, NUL-padded: none is longer
    than 24 bytes."""
    ints = x.dtype.kind != "f"
    if ints:
        covered = (x != 0) & (x >= -(2**53)) & (x <= 2**53)
    else:
        mag = np.abs(x)
        covered = (mag > 1e-6) & (mag < (1e16 if shortest else 1e17))
    if covered.any():
        from . import _spell  # compiled by the first block it spells

        cells = _spell._cells(np.where(covered, x, 1.0), shortest and not ints)
    else:
        cells = np.zeros((7, x.size), np.int64)
    rest = np.flatnonzero(~covered)
    if rest.size:
        texts = np.array(_texts(x[rest], shortest), "S56")
        cells[:, rest] = texts.view(np.int64).reshape(-1, 7).T
    cells[6].view(np.uint8)[4::8] = end
    return cells


_ROW_END = "\x01"  # ends a run's row: no cell or separator holds it


def _run_reader(columns, seps, shortest: bool):
    """``read(start, stop)``: one text per row of a run of adjacent numeric
    columns (_numeric), with ``seps[i]`` after the cell of column i, but the
    last.  Per block, each column's cells (_run_cells) end in the first byte
    of the separator that follows them, and its other bytes go in as
    constant words; the last column's cells end in _ROW_END.  The words
    that hold text are laid side by side row by row, and one translate
    drops their NULs."""
    ends, tails = [], []
    for sep in [*seps, _ROW_END]:
        tail = sep[1:].encode()
        ends.append(ord(sep[0]))
        tails.append(np.frombuffer(tail + b"\0" * (-len(tail) % 8), np.int64))

    def read(start, stop):
        words = []
        for column, end, tail in zip(columns, ends, tails):
            x = column[start:stop]
            if isinstance(x, range):
                x = np.arange(x.start, x.stop, x.step)
            words += [w for w in _run_cells(x, shortest, end) if w.any()]
            words += [np.broadcast_to(w, x.size) for w in tail]
        text = np.array(words).T.tobytes().translate(None, b"\0").decode("ascii")
        return text.split(_ROW_END)[:-1]

    return read


def _readers(columns, seps, shortest: bool):
    """The readers of _joined_blocks and the separators after them: each run
    of adjacent numeric columns of _RUN_MIN rows or more is one _run_reader,
    with the separators inside it, and any other column a _column_reader."""
    def runs(pair):
        return _numeric(pair[0]) and len(pair[0]) >= _RUN_MIN

    readers, after = [], []
    for numeric, group in groupby(zip(columns, seps), runs):
        group_columns, group_seps = zip(*group)
        if numeric:
            readers.append(_run_reader(group_columns, group_seps[:-1], shortest))
            after.append(group_seps[-1])
        else:
            readers += [_column_reader(c, shortest) for c in group_columns]
            after += group_seps
    return readers, after


def _joined_blocks(readers, n_rows, seps, end):
    """The rows as text, _BLOCK rows per string: ``readers[i](start, stop)``
    gives the texts of column i, or of run i of columns, for those rows,
    ``seps[i]`` follows each of them and ``end`` follows the last.  One join
    per block over a list whose strided slices hold the readers' texts."""
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
    _BLOCK at a time from each run's row texts and each other column's
    texts (_readers)."""
    yield f"# cyclewalk {__version__}\n"
    yield "# config: " + json.dumps(_echo(config), sort_keys=True) + "\n"
    for key, value in (summary or {}).items():
        yield f"# {key}: {_fmt(value)}\n"
    yield ",".join(table) + "\n"
    columns = list(table.values())
    seps = [","] * (len(columns) - 1) + ["\n"]
    readers, seps = _readers(columns, seps, False)
    yield from _joined_blocks(readers, len(columns[0]), seps, "\n")


def _json_chunks(config, table, summary):
    """The text of a JSON dataset, in pieces of at most _BLOCK records.

    json.dumps with an indent runs the pure-Python encoder, so each block of
    a run of numeric columns is spelled at once, keys included, as row texts
    (_readers), each block of another plain column through the C encoder as
    one flat list, and a factored column's values once, as a one-column
    table (_column_reader).  Number, bool and None cells read the same
    there, and ", " splits them: no cell is a string.
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
    readers, seps = _readers([table[k] for k in names], seps, True)
    yield from _joined_blocks(readers, n_rows, seps, "\n    }")
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
    """Split angle e0*beta of T0, the temperature of the gamma = pi start
    (see :func:`cyclewalk.thermo.chi_reference`); T/T0 needs it finite and
    non-zero.  chi_ref tends to 0, and T0 to inf, as cos^2(theta) -> 0."""
    if math.cos(config.theta) ** 2 < 1e-15:
        raise ParameterError(f"T/T0 is undefined at theta = {config.theta}, where T0 is infinite")
    beta_ref = beta_of_chi(chi_reference(config.n, config.theta), 1.0)
    if math.isinf(beta_ref):
        raise ParameterError(f"T/T0 is undefined at theta = {config.theta}, where T0 = 0")
    return beta_ref


def _t_over_t0(beta_ref: float, chi) -> np.ndarray:
    """T/T0 for an array of chi values, as a ratio of split angles: e0 cancels."""
    with np.errstate(divide="ignore"):
        return beta_ref / beta_of_chi(np.minimum(chi, 0.25), 1.0)


def cmd_simulate(config: SimpleNamespace) -> int:
    params = WalkParams(config.n, config.theta, config.gamma, config.phi)
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
        "t_over_t0": _t_over_t0(beta_ref, chi_avg),
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
    t_over_t0 = _factored(_t_over_t0(_beta_ref(config), chi.values))
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
        params = WalkParams(n, config.theta, config.gamma, config.phi)
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
    from . import _oracle  # only selftest reads the oracles: no other command compiles them

    # stdlib random: importing numpy.random would take more memory than the checks
    rng = random.Random(config.seed)
    cycles = [(rng.randint(3, 12), rng.uniform(0.1, math.pi / 2 - 0.05)) for _ in range(4)]
    starts = [[WalkParams(n, th, *bp) for bp in _oracle.bloch_points(rng, 5)] for n, th in cycles]
    chains = [(rng.uniform(0, math.pi / 2), rng.uniform(0, 1)) for _ in range(10)]
    series, cone, fold, limit = _oracle.walk_checks(starts, 200)
    results = [
        ("coin series matches direct iteration", series, 1e-10),
        ("light cone: coin series on 2T+1 and 2T+2 sites agree", cone, 1e-10),
        ("fold: coin series on odd m and 2m sites agree", fold, 1e-10),
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


def _flags(command: str) -> dict:
    """{setting: keywords} of the flags of ``command``, --config first."""
    config = {"help": "JSON config file; flags override its values"}
    return {"config": config} | {key: _SETTINGS[key][2] for key in _COMMANDS[command][1].split()}


def _help(command: str | None):
    """Print the help of ``command``, or the list of commands, and exit 0."""
    lines = [f"usage: cyclewalk {command or 'COMMAND'} [--flag VALUE | --flag=VALUE]...", ""]
    if command is None:
        lines += ["Coined quantum walks on N-cycles: simulations and sweeps.", "", "commands:"]
        lines += [f"  {name}" for name in _COMMANDS]
    else:
        for key, kw in _flags(command).items():
            what = kw.get("help") or " or ".join(kw.get("choices", [kw.get("type", str).__name__]))
            repeat = ", repeatable" if kw.get("action") == "append" else ""
            lines.append(f"  --{key.replace('_', '-'):<9} {what}{repeat}")
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _parse_argv(argv: list[str]) -> SimpleNamespace:
    """The command and its flags' values, None where not given, as the
    module doc spells them; a repeated flag keeps its last value, or appends."""
    if argv[:1] in (["-h"], ["--help"]):
        _help(None)
    if not argv or argv[0] not in _COMMANDS:
        raise ParameterError(f"expected a command ({', '.join(_COMMANDS)}), got {argv[:1]}")
    command, flags = argv[0], _flags(argv[0])
    args = dict.fromkeys(flags)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, text = token.partition("=")
        key = flag[2:].replace("-", "_")
        if key not in flags or flag != "--" + key.replace("_", "-"):
            raise ParameterError(f"{command} takes no argument {flag!r}")
        text = text if eq else next(tokens, None)
        if text is None:
            raise ParameterError(f"{flag} expects a value")
        kw = flags[key]
        try:
            value = kw.get("type", str)(text)
        except ValueError:
            raise ParameterError(f"{flag} expects {kw['type'].__name__}, got {text!r}") from None
        if "choices" in kw and value not in kw["choices"]:
            raise ParameterError(f"{flag} must be one of {', '.join(kw['choices'])}, got {text!r}")
        args[key] = (args[key] or []) + [value] if kw.get("action") == "append" else value
    return SimpleNamespace(command=command, **args)


def _resolve_config(args: SimpleNamespace) -> SimpleNamespace:
    """Merge the defaults, the config file and the flags, in that order, and
    reject any invalid value.  A null in the file leaves the default."""
    _, settings, command_defaults = _COMMANDS[args.command]
    settings = settings.split()
    file_values: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_values = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not text, not JSON, or nested too deep
                raise ParameterError(f"the config file cannot be read as JSON: {exc}") from None
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
    try:
        args = _parse_argv(argv)
        return _COMMANDS[args.command][0](_resolve_config(args))
    except (CycleWalkError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
