"""One benchmark repetition, in a fresh interpreter.

Usage: python3 child.py JOB_JSON   (run from the repetition's directory)

The child prints ``ready`` on stdout as soon as ``cyclewalk.cli`` is
imported, so the parent can time interpreter start plus import.  It then
runs each argv of the job through ``cyclewalk.cli.main``, timing only those
calls, and writes ``result.json`` to its working directory.  Each call's
stdout and stderr go to ``stdout_<i>.txt`` and ``stderr_<i>.txt`` there.
"""

import sys

import cyclewalk.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def run_call(index, argv, tracer):
    code = error = None
    with open(f"stdout_{index}.txt", "w") as out, open(f"stderr_{index}.txt", "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cyclewalk.cli.main(argv)
                else:
                    code = tracer.span("cli.main", cyclewalk.cli.main, argv)
            except SystemExit as exc:  # argparse rejects an argv this way
                code = exc.code
            except Exception:  # reported as a failed invocation
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
    return {"exit": code, "error": error, "seconds": seconds}


def peak_rss_kb():
    """Peak resident set of this process.

    ``ru_maxrss`` is kept across exec, so it would report the parent's peak
    when that is higher; ``VmHWM`` belongs to this process's own memory map.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [run_call(i, argv, tracer) for i, argv in enumerate(job["calls"])]
    result = {
        "calls": calls,
        "peak_rss_kb": peak_rss_kb(),
        "spans": None if tracer is None else tracer.report(),
    }
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
