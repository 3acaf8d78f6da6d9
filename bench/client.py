"""Closed-loop client: calls ``bidirmr.cli.main`` in one process, one call at a time.

Run by ``bench/run.py`` as ``python3 bench/client.py PLAN RESULT``. ``PLAN``
is a JSON file holding the rounds of CLI argument lists to run, the time to
measure, the ``src`` directory the program must be imported from, and an
optional path to write spans to. The client runs whole rounds, cycling
through them, until the time is up, and writes each call's exit code and
output digests, its own peak resident memory and the number of
rounds to ``RESULT``. With a span path it installs the tracer first. It
records each call's own CPU time and its start and end on the
``time.monotonic`` clock, for comparison with the reference process on the
same CPU (``bench/reference.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import bidirmr.cli as cli

    expected = os.path.realpath(os.path.join(plan["src"], "bidirmr", "cli.py"))
    if os.path.realpath(cli.__file__) != expected:
        print(f"bidirmr.cli imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    tracer = None
    if plan["trace_path"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    rounds = plan["rounds"]
    calls = []
    n_rounds = 0
    start = time.perf_counter()
    while True:
        for op in rounds[n_rounds % len(rounds)]:
            gc.collect()
            if tracer is not None:
                tracer.invocation = len(calls)
            start_mono = time.monotonic()
            c0 = time.process_time()
            try:
                rc = cli.main(op["argv"])
            except Exception:  # a crash is a failed call; keep the loop going
                traceback.print_exc()
                rc = -1
            cpu_seconds = time.process_time() - c0
            end_mono = time.monotonic()
            digest = _digest(op["outputs"]) if rc == 0 and op.get("digest") else None
            calls.append({"round": n_rounds, "kind": op["kind"], "cpu_seconds": cpu_seconds,
                          "start": start_mono, "end": end_mono, "rc": rc, "digest": digest})
        n_rounds += 1
        if time.perf_counter() - start >= plan["seconds"]:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(plan["trace_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "rounds": n_rounds, "peak_rss_mb": peak_rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
