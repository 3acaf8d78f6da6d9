"""Reference process: measures the host's current speed next to the client.

Run by ``bench/run.py`` as ``python3 bench/reference.py RECORDS``, on the
one CPU ``run.py`` and the client are pinned to. It lowers its own
priority and repeats one fixed computation (:func:`reference_chunk`) until
it receives SIGTERM or its parent dies. It then writes one
``[end, cpu_seconds]`` pair per chunk to ``RECORDS``: ``end`` on the
``time.monotonic`` clock, which the client's records share, and
``cpu_seconds`` the chunk's own CPU time.

Why: this shared host's speed swings by tens of percent within seconds and
drifts over minutes, for the client and the reference alike, since both run
time-sliced on the same CPU. A call's CPU time divided by the CPU time of the
reference chunks that ran during it measures the program in units of the
host's speed at that moment (``run.py`` does the division). The reference
never changes with the program, so the ratio still moves when the program
does.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import time

NICE = 10  # about a tenth of the CPU against the client's full share
CHUNK_LOOPS = 1000


def reference_chunk() -> float:
    """One fixed computation; returns a checksum.

    It mixes what the program spends its time on: interpreter-bound Python,
    small-array NumPy calls, and parsing of TSV-like text.
    """
    import numpy as np

    rng = np.random.default_rng(20240601)
    acc = 0.0
    for i in range(CHUNK_LOOPS):
        x = rng.standard_normal(400)
        acc += float(np.median(x)) + float(x @ x)
        fields = f"rs{i}\tA\tG\t{x[0].item()!r}\t{x[1].item()!r}".split("\t")
        acc += float(fields[3]) + len({f: j for j, f in enumerate(fields)})
    return acc


def main(argv: list[str]) -> int:
    (records_path,) = argv
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    os.nice(NICE)
    parent = os.getppid()
    reference_chunk()  # warm-up: imports and first-call costs
    records = []
    while not stop and os.getppid() == parent:
        c0 = time.process_time()
        acc = reference_chunk()
        cpu_seconds = time.process_time() - c0
        if not math.isfinite(acc):
            raise RuntimeError("reference computation went wrong")
        records.append([time.monotonic(), cpu_seconds])
    with open(records_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
