"""One measured quiverqh invocation in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec json>'

The child imports ``quiverqh.cli`` first and prints ``ready``; the parent
times set-up from process start to that line.  With ``argv`` in the spec it
then calls ``quiverqh.cli.main(argv)`` with standard output sent to the
report file, and writes ``{"exit", "solve_s", "peak_rss_mb"}`` to the result
file; ``solve_s`` runs from the call until the report is flushed.  With
``trace`` set, the calls into the package's public functions are wrapped by
``tracer.Tracer`` for the duration of ``main`` and the spans are written to
that path.
"""

import sys

import quiverqh.cli

sys.stdout.write("ready\n")
sys.stdout.flush()


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec, in KiB.

    getrusage's ru_maxrss is not used: on Linux it keeps the spawning
    process's peak across fork and exec, so a large parent would show.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(spec: dict) -> None:
    import json
    import time

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    real_stdout = sys.stdout
    try:
        with open(spec["report"], "w", encoding="utf-8") as out:
            sys.stdout = out
            start = time.perf_counter()
            code = quiverqh.cli.main(spec["argv"])
            out.flush()
            solve_s = time.perf_counter() - start
    finally:
        sys.stdout = real_stdout
        if tracer is not None:
            tracer.restore()
    peak_kb = peak_rss_kb()
    if tracer is not None:
        tracer.dump(spec["trace"])
    with open(spec["result"], "w") as fh:
        json.dump({"exit": code, "solve_s": solve_s, "peak_rss_mb": peak_kb / 1024}, fh)


if __name__ == "__main__":
    import json

    job = json.loads(sys.argv[1])
    if job.get("argv"):
        run(job)
