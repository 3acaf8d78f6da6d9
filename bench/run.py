"""Benchmark of the ``bidirmr`` command-line program, timed from outside.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload gwas-test-200k --seed 1 --seconds 20 --trace 0

Workloads (see ``bench/README.md`` for why each was chosen):

* ``gwas-test-200k``  ``bidirmr test`` on two generated 200k-variant
  allele-coded TSVs, cycling through three invocations;
* ``sim-ivw-grid``    ``bidirmr simulate`` over a three-cell grid with the
  IVW-type methods and MR-Egger;
* ``sim-median``      ``bidirmr simulate`` with the two median methods.

The benchmark generates the inputs from ``--seed``, then starts one client
process (``bench/client.py``) that calls ``bidirmr.cli.main`` in a closed
loop, one call at a time, for whole rounds until ``--seconds`` have passed.
Before and after the client it measures how long importing the program
takes in fresh interpreters. Afterwards every output is checked
(``bench/checks.py``). BLAS/OpenMP threads are pinned to one, and the
benchmark with every process it starts to one CPU. Throughput is measured
in units of a fixed reference computation that runs at low priority on that
CPU while the client runs (``bench/reference.py``), because the host's
speed drifts.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs an untraced and then a traced client for half the time each, and
reports the per-layer metrics of the traced one (``bench/tracing.py``) plus
the tracing overhead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402  (thread pinning must precede NumPy's import)
import gen_gwas  # noqa: E402
from tracing import LAYER_METRICS, UNITS, layer_metrics, load_spans  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
GWAS_VARIANTS = 200_000
IVW_GRID_REPS = 1000
MEDIAN_REPS = 200
SETUP_PROBES = 5  # before the client, and as many after it
SETUP_PROBE_GAP_S = 0.25
CLIENT_TIMEOUT_S = 150
REFERENCE_STOP_TIMEOUT_S = 20
MAX_ROUNDS = 1000

SIM_COMMON = ["simulate", "--synthetic", "394", "--kappa", "1", "--tau-f", "1.5",
              "--enforce-separation", "2.0"]
SIMULATIONS = {
    "sim-ivw-grid": (
        ["--grid", "0:0,0.3:0,0:0.3", "--methods", "focused_ivw,overall_ivw,mr_egger",
         "--reps", str(IVW_GRID_REPS)],
        3,
        IVW_GRID_REPS,
        checks.check_sim_ivw_grid,
    ),
    "sim-median": (
        ["--beta-dy", "0.3", "--methods", "focused_median,mr_median", "--reps", str(MEDIAN_REPS)],
        1,
        MEDIAN_REPS,
        checks.check_sim_median,
    ),
}
GWAS_KINDS = ("ivw_tables", "median", "egger")
WORKLOADS = ("gwas-test-200k",) + tuple(SIMULATIONS)


def _cli_seed(seed: int, k: int = 0) -> int:
    """Seed handed to the program: nonnegative and different for each round ``k``."""
    return (seed * 1_000_003 + k) % 2**32


# ------------------------------------------------------------------ workloads


class GwasTest:
    """``bidirmr test`` on generated summary files; one round is invocations (a), (b), (c)."""

    ops_per_call = 1

    def __init__(self, seed: int, tmp: str):
        self.planted = gen_gwas.generate(seed, GWAS_VARIANTS)
        exposure, outcome = gen_gwas.write_files(self.planted, tmp)
        self.expected = None
        self.paths = {name: os.path.join(tmp, name) for name in
                      ("a.json", "snps.tsv", "density.tsv", "b.json", "c.json")}
        p = self.paths
        base = ["test", "--exposure", exposure, "--outcome", outcome, "--mode", "allele",
                "--seed", str(_cli_seed(seed))]
        self.rounds = [[
            {"kind": "ivw_tables", "digest": True,
             "argv": base + ["--estimator", "ivw", "--direction", "both",
                             "--emit-snps", p["snps.tsv"], "--emit-density", p["density.tsv"],
                             "--out", p["a.json"]],
             "outputs": [p["a.json"], p["snps.tsv"], p["density.tsv"]]},
            {"kind": "median", "digest": True,
             "argv": base + ["--estimator", "median", "--direction", "joint", "--out", p["b.json"]],
             "outputs": [p["b.json"]]},
            {"kind": "egger", "digest": True,
             "argv": base + ["--estimator", "mr-egger", "--direction", "both", "--out", p["c.json"]],
             "outputs": [p["c.json"]]},
        ]]

    def check(self, calls: list[dict]) -> list[str]:
        if self.expected is None:
            self.expected = checks.expected_panel(self.planted)
        p, exp = self.paths, self.expected
        run_check = {
            "ivw_tables": lambda: checks.check_ivw_tables(
                checks.load_json(p["a.json"]), p["snps.tsv"], p["density.tsv"], exp),
            "median": lambda: checks.check_median_joint(checks.load_json(p["b.json"]), exp),
            "egger": lambda: checks.check_egger(checks.load_json(p["c.json"]), exp),
        }
        problems = []
        for kind in GWAS_KINDS:
            done = [c for c in calls if c["kind"] == kind]
            if not done or done[-1]["rc"] != 0:
                continue  # counted as failed; the files may be partial
            try:
                run_check[kind]()
            except checks.CheckFailed as exc:
                problems.append(f"{kind}: {exc}")
            # The files checked are the last call's; every other call must
            # have written the same bytes.
            if len({c["digest"] for c in done if c["rc"] == 0}) != 1:
                problems.append(f"{kind}: outputs differ between identical invocations")
        return problems

    @staticmethod
    def throughput(calls: list[dict], key: str) -> tuple[float, dict[str, float]]:
        medians = {}
        for kind in GWAS_KINDS:
            times = [c[key] for c in calls if c["kind"] == kind and c["rc"] == 0]
            medians[kind] = statistics.median(times) if times else float("nan")
        return len(GWAS_KINDS) / sum(medians.values()), medians


class Simulate:
    """``bidirmr simulate``; one round is one invocation with a fresh seed."""

    def __init__(self, name: str, seed: int, tmp: str):
        extra, self.ops_per_call, self.reps, self.check_report = SIMULATIONS[name]
        self.rounds = []
        for k in range(MAX_ROUNDS):
            out = os.path.join(tmp, f"sim-{k}.json")
            self.rounds.append([{
                "kind": name,
                "argv": SIM_COMMON + extra + ["--seed", str(_cli_seed(seed, k)), "--out", out],
                "outputs": [out],
            }])

    def check(self, calls: list[dict]) -> list[str]:
        problems = []
        for c in calls:
            if c["rc"] != 0:
                continue
            path = self.rounds[c["round"]][0]["outputs"][0]
            try:
                self.check_report(checks.load_json(path))
            except checks.CheckFailed as exc:
                problems.append(f"round {c['round']}: {exc}")
        return problems

    def throughput(self, calls: list[dict], key: str) -> tuple[float, dict[str, float]]:
        rates = [self.ops_per_call * self.reps / c[key] for c in calls if c["rc"] == 0]
        return (statistics.median(rates) if rates else float("nan")), {}


# -------------------------------------------------------------------- runner


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall times from starting a fresh interpreter until ``bidirmr.cli`` is imported.

    The probe writes one byte once the import is done; the clock stops when
    that byte arrives, so interpreter shutdown is not counted. One untimed
    probe runs first, so every timed probe finds compiled bytecode. The
    probes are spaced out, since the host's speed swings within a second.
    """
    cmd = [sys.executable, "-c", "import sys, bidirmr.cli; sys.stdout.write('.'); sys.stdout.flush()"]
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE) as proc:
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            ready = proc.stdout.read(1)
            elapsed = time.perf_counter() - t0
            watchdog.cancel()
        if ready != b"." or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import bidirmr.cli")
        if k:
            times.append(elapsed)
        time.sleep(SETUP_PROBE_GAP_S)
    return times


def _stop(proc: subprocess.Popen) -> None:
    """Ask a child to end with SIGTERM and wait for it; kill it if it does not."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=REFERENCE_STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _in_reference_units(calls: list[dict], records: list[list[float]]) -> None:
    """Set each call's ``refs``: its CPU time over the mean CPU time of the
    reference chunks that ran during it (those that ended inside the call,
    and the first one that ended after it)."""
    ends = [end for end, _ in records]
    for c in calls:
        lo = bisect.bisect_left(ends, c["start"])
        hi = bisect.bisect_right(ends, c["end"]) + 1
        chunk = [cpu for _, cpu in records[lo:hi]]
        if not chunk:
            raise RuntimeError("the reference process recorded nothing during a call")
        c["refs"] = c["cpu_seconds"] / statistics.mean(chunk)


def run_client(workload, seconds: float, tmp: str, env, root: str, trace_path=None) -> dict:
    """Run the client beside the reference process, both on this process's one CPU.

    The result's calls carry their cost in reference units as ``refs``.
    """
    plan_path = os.path.join(tmp, "plan.json")
    result_path = os.path.join(tmp, "result.json")
    records_path = os.path.join(tmp, "reference.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": workload.rounds, "seconds": seconds, "trace_path": trace_path,
                   "src": os.path.join(root, "src")}, fh)
    with open(os.path.join(tmp, "client.log"), "ab") as log:
        reference = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "reference.py"), records_path],
            env=env, stdout=log, stderr=log,
        )
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "client.py"), plan_path, result_path],
                env=env, stdout=log, stderr=log, timeout=CLIENT_TIMEOUT_S,
            )
        finally:
            _stop(reference)
    if proc.returncode != 0 or reference.returncode != 0:
        with open(os.path.join(tmp, "client.log"), encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"client exited with code {proc.returncode}, "
                           f"reference process with code {reference.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    with open(records_path, encoding="utf-8") as fh:
        records = json.load(fh)
    _in_reference_units(result["calls"], records)
    result["reference_chunk_s"] = statistics.median(cpu for _, cpu in records)
    return result


def _tally(workload, calls) -> tuple[int, int]:
    attempted = workload.ops_per_call * len(calls)
    failed = workload.ops_per_call * sum(1 for c in calls if c["rc"] != 0)
    return attempted, failed


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bidirmr", "cli.py")):
        raise SystemExit("error: run from the root of a bidirmr checkout (src/bidirmr/cli.py not found)")
    env = _child_env(root)
    # One CPU for this process and every process it starts: the reference
    # process measures the host's speed on the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        t0 = time.perf_counter()
        if args.workload == "gwas-test-200k":
            workload = GwasTest(args.seed, tmp)
        else:
            workload = Simulate(args.workload, args.seed, tmp)
        print(f"# inputs generated in {time.perf_counter() - t0:.2f} s")

        problems, attempted, failed = [], 0, 0
        if not args.trace:
            setup_times = measure_setup(env)
            result = run_client(workload, args.seconds, tmp, env, root)
            setup_s = statistics.median(setup_times + measure_setup(env))
            problems += workload.check(result["calls"])
            attempted, failed = _tally(workload, result["calls"])
            throughput, per_kind = workload.throughput(result["calls"], "refs")
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                "throughput_per_ref": (throughput, "1/ref"),
            }
            cpu_rate, cpu_per_kind = workload.throughput(result["calls"], "cpu_seconds")
            print(f"# throughput {cpu_rate:.6g} per CPU second of the client; "
                  f"a reference chunk took {result['reference_chunk_s']:.4f} CPU s")
            for kind, value in per_kind.items():
                n = sum(1 for c in result["calls"] if c["kind"] == kind)
                print(f"# test_{kind}: median {cpu_per_kind[kind]:.4f} CPU s, {value:.4f} ref, "
                      f"over {n} calls")
            print(f"# {len(result['calls'])} calls in {result['rounds']} rounds")
        else:
            plain = run_client(workload, args.seconds / 2.0, tmp, env, root)
            problems += workload.check(plain["calls"])
            spans_path = os.path.join(root, WORK_DIR, f"spans-{args.workload}.jsonl")
            traced = run_client(workload, args.seconds / 2.0, tmp, env, root, spans_path)
            problems += workload.check(traced["calls"])
            for part in (plain, traced):
                a, f = _tally(workload, part["calls"])
                attempted, failed = attempted + a, failed + f
            units = {name: UNITS[kind] for name, _, kind in LAYER_METRICS}
            values = layer_metrics(load_spans(spans_path), traced["rounds"])
            metrics = {name: (value, units[name]) for name, value in values.items()}
            metrics["trace.overhead.throughput_per_ref"] = (
                workload.throughput(traced["calls"], "refs")[0]
                - workload.throughput(plain["calls"], "refs")[0],
                "1/ref",
            )
            metrics["trace.overhead.peak_rss_mb"] = (
                traced["peak_rss_mb"] - plain["peak_rss_mb"], "MB")
            print(f"# spans of the traced run: {spans_path}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in problems:
        print(f"# CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bidirmr CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
