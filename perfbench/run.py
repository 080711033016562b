#!/usr/bin/env python3
"""Benchmark of the cyclewalk CLI: one workload, end to end or layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

One client drives the CLI in a closed loop.  Each repetition is a fresh
interpreter (``child.py``) that imports ``cyclewalk.cli`` and runs the
workload's invocations through ``cyclewalk.cli.main``, one repetition at a
time, until ``--seconds`` have passed.  Outputs are checked against
independent oracles (``checks.py``) outside the timed region.  Times are
reported at a reference host speed, measured by a kernel timed around each
child (``calibration.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last stdout line is the JSON
result; the line before it is the run's manifest (machine, BLAS threads,
inputs, sample counts).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from operator import itemgetter
from pathlib import Path

from calibration import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "large_cycle", "trajectory", "closed_forms")
# BLAS threads are pinned to 1 for every repetition: on a 2-core machine a
# second BLAS thread mostly adds run-to-run spread.  The values found in the
# environment are recorded in the manifest.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPETITIONS = 3  # per kind (plain, traced) and run, whatever --seconds says
# Plain runs start set-up probes (children that only import) between
# repetitions, spread over the run, until this many set-ups are timed.
SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _output_of(argv: list[str], index: int, repdir: Path) -> bytes:
    """The ``--out`` file of an invocation, or its stdout; empty if a failed
    invocation wrote none."""
    name = argv[argv.index("--out") + 1] if "--out" in argv else f"stdout_{index}.txt"
    path = repdir / name
    return path.read_bytes() if path.exists() else b""


def run_repetition(calls: list[list[str]], traced: bool, workdir: Path, env: dict) -> dict:
    """Run one repetition in a fresh interpreter and collect its timings.

    ``setup_s`` is timed here, from process start to the child's ``ready``
    line; ``run_s`` is the sum of the child's timings of its ``main`` calls.
    """
    repdir = workdir / "rep"
    shutil.rmtree(repdir, ignore_errors=True)
    repdir.mkdir(parents=True)
    job = repdir / "job.json"
    job.write_text(json.dumps({"calls": calls, "traced": traced}))
    with open(repdir / "child_stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job)],
            cwd=repdir, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        detail = (repdir / "child_stderr.txt").read_text()[-2000:]
        raise BenchmarkError(f"repetition exited with {proc.returncode}:\n{detail}")
    result = json.loads((repdir / "result.json").read_text())
    for i, (argv, call) in enumerate(zip(calls, result["calls"])):
        call["output"] = _output_of(argv, i, repdir)
    return {
        "traced": traced,
        "setup_s": setup_s,
        "run_s": sum(call["seconds"] for call in result["calls"]),
        "peak_rss_kb": result["peak_rss_kb"],
        "calls": result["calls"],
        "spans": result["spans"],
    }


def dataset_rows(argv: list[str], output: bytes) -> int:
    """Data rows of one invocation's dataset (0 for ``selftest``)."""
    if argv[0] == "selftest":
        return 0
    text = output.decode()
    if "json" in argv:
        return len(json.loads(text)["records"])
    return sum(1 for ln in text.splitlines() if ln and not ln.startswith("#")) - 1


class Run:
    """Repetitions of one workload, with their correctness bookkeeping."""

    def __init__(self, calls: list[list[str]], workdir: Path, env: dict) -> None:
        self.calls = calls
        self.workdir = workdir
        self.env = env
        self.reps: list[dict] = []
        self.probes: list[dict] = []
        self.kernel = Calibration()
        self.attempted = 0
        self.failed = 0
        self.last_outputs: list[bytes] = []
        # digests of outputs already checked and found correct, per call
        self._verified: list[set] = [set() for _ in calls]

    def repeat(self, seconds: float, traced_too: bool) -> None:
        import checks

        kinds = [False, True] if traced_too else [False]
        start = time.perf_counter()
        walls = []
        for traced in itertools.cycle(kinds):
            rep_start = time.perf_counter()
            rep = self.child(self.calls, traced)
            self.reps.append(rep)
            for argv, call, verified in zip(self.calls, rep["calls"], self._verified):
                self.attempted += 1
                if call["error"] is not None:
                    print(f"{argv[0]}: raised\n{call['error']}", file=sys.stderr)
                    self.failed += 1
                    continue
                digest = hashlib.sha256(call["output"]).hexdigest()
                if call["exit"] == 0 and digest in verified:
                    continue
                problems = checks.check(argv, call["exit"], call["output"].decode())
                if problems:
                    print(f"{argv[0]}: " + "; ".join(problems), file=sys.stderr)
                    self.failed += 1
                else:
                    verified.add(digest)
            # only the latest outputs are kept, for the output size counts
            self.last_outputs = [call.pop("output") for call in rep["calls"]]
            now = time.perf_counter()
            walls.append(now - rep_start)
            if not traced_too:
                while len(self.reps) + len(self.probes) < SETUP_SAMPLES * (now - start) / seconds:
                    self.probes.append(self.child([], False))
                now = time.perf_counter()
            enough = all(len(self.samples("run_s", k)) >= MIN_REPETITIONS for k in kinds)
            # stop when the next repetition would likely end after the deadline
            if enough and now - start + statistics.median(walls) > seconds:
                return

    def child(self, calls: list[list[str]], traced: bool) -> dict:
        """One child, with the host's speed timed right before and after it.

        Each side takes the faster of two kernel passes, which drops
        interruptions shorter than a pass.
        """
        before = min(self.kernel.seconds(), self.kernel.seconds())
        rep = run_repetition(calls, traced, self.workdir, self.env)
        after = min(self.kernel.seconds(), self.kernel.seconds())
        rep["calibration_s"] = (before + after) / 2
        return rep

    def samples(self, key: str, traced: bool = False) -> list:
        return [rep[key] for rep in self.reps if rep["traced"] == traced]

    def scaled(self, seconds, children: list[dict]) -> float:
        """Median over ``children`` of ``seconds(child)`` at the reference
        host speed (see ``calibration.py``)."""
        return statistics.median(
            seconds(c) * REFERENCE_S / c["calibration_s"] for c in children
        )

    def end_to_end(self) -> dict:
        plain = [rep for rep in self.reps if not rep["traced"]]
        return {
            "run_s": {"value": self.scaled(itemgetter("run_s"), plain), "unit": "s"},
            "setup_s": {
                "value": self.scaled(itemgetter("setup_s"), plain + self.probes),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(self.samples("peak_rss_kb")) / 1024, "unit": "MB"
            },
        }

    def per_layer(self) -> tuple[dict, bool]:
        """Per-layer metrics of the traced repetitions, and whether their
        counts repeated exactly."""
        from spans import TARGETS

        plain = [rep for rep in self.reps if not rep["traced"]]
        traced = [rep for rep in self.reps if rep["traced"]]
        spans = [rep["spans"] for rep in traced]
        counts = [(s["calls"], s["work"]) for s in spans]
        repeatable = all(c == counts[0] for c in counts)
        calls, work = counts[0]
        metrics = {}
        names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
        for name in names:
            metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
            metrics[f"{name}.self_s"] = {
                "value": self.scaled(lambda c: c["spans"]["self_s"].get(name, 0.0), traced),
                "unit": "s",
            }
        for key in ("spectral.decompose.sites",
                    "thermo.averaged_trajectory_closed.time_points",
                    "thermo.averaged_trajectory_closed.mode_exps"):
            metrics[key] = {"value": work.get(key, 0), "unit": "count"}
        metrics["cli.main.self_s"] = {
            "value": self.scaled(lambda c: c["spans"]["self_s"]["cli.main"], traced),
            "unit": "s",
        }
        metrics["cli.output_bytes"] = {
            "value": sum(len(out) for out in self.last_outputs), "unit": "bytes"
        }
        metrics["cli.rows"] = {
            "value": sum(dataset_rows(a, out) for a, out in zip(self.calls, self.last_outputs)),
            "unit": "count",
        }
        run_s = itemgetter("run_s")
        overhead = self.scaled(run_s, traced) - self.scaled(run_s, plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics, repeatable


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git checkout.

    ``--git-dir`` is given so that git does not search the parent
    directories for a repository when the checkout is not one.
    """
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args, found_threads: dict, found_cpus: set, run: Run) -> dict:
    import numpy

    import workloads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in declared if w["name"] == args.workload),
        "seed": args.seed,
        "bloch_start": list(workloads.bloch_start(args.seed)),
        "argv": run.calls,
        "repetitions": {
            "plain": len(run.samples("run_s")),
            "traced": len(run.samples("run_s", traced=True)),
        },
        "calibration_reference_s": REFERENCE_S,
        "samples": {
            "run_s": run.samples("run_s"),
            "calibration_s": run.samples("calibration_s"),
            "setup_s": run.samples("setup_s") + [p["setup_s"] for p in run.probes],
            "setup_calibration_s": (
                run.samples("calibration_s") + [p["calibration_s"] for p in run.probes]
            ),
            "traced_run_s": run.samples("run_s", traced=True),
        },
        "client": "one client, closed loop, a fresh interpreter per repetition",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_found": found_threads,
        "blas_threads_used": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(found_cpus),
        "pinned_cpu": next(iter(os.sched_getaffinity(0))),
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    found_threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    # The runner and every child share one CPU, so that the calibration
    # kernel times the CPU the repetitions ran on.
    found_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(found_cpus)})
    sys.path.insert(0, str(SRC))
    try:
        import cyclewalk
    except ImportError as exc:
        print(f"error: cannot import cyclewalk from {SRC}: {exc}", file=sys.stderr)
        return 1
    if Path(cyclewalk.__file__).resolve().parent != SRC / "cyclewalk":
        print(f"error: cyclewalk was imported from {cyclewalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    run = Run(workloads.calls(args.workload, args.seed), workdir, env)
    try:
        run.repeat(args.seconds, traced_too=bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    correct = run.failed == 0
    if args.trace:
        metrics, repeatable = run.per_layer()
        if not repeatable:
            print("error: traced repetitions disagree on call counts", file=sys.stderr)
            correct = False
    else:
        metrics = run.end_to_end()
    print(json.dumps({"manifest": manifest(args, found_threads, found_cpus, run)}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
