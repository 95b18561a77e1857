"""Benchmark of the ``aiq`` front end: factorize and verify on fixed corpora.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload perturbed-d4 --seed 0 --seconds 30 --trace 0

Every workload runs in fresh worker processes (``worker.py``) with the default
BLAS pool.  ``--trace 0`` sets the corpus up several times (import plus
``aiq gen``), then runs ``aiq factorize`` and ``aiq verify`` on each channel,
pass after pass, until ``--seconds`` have gone by; it prints the end-to-end
metrics, each channel's figure being its median over the passes.

The host is shared, and its speed drifts by up to half within seconds, for
pure-Python and numpy code alike.  So the end-to-end times are given in
calibration units (``cal``): each factorize or verify time divided by the
mean time of a fixed tick that the worker samples every 20 ms while the step
runs (``worker.Speedometer``).  The tick belongs to the benchmark, so a change
to the program moves only the numerator.  The times in seconds are printed
per channel and, as ``wall.*``, with the per-layer metrics.  ``--trace 1``
runs one untraced pass, one traced pass and one traced pass with
``ALMOSTIDEM_THREADS=1``, and prints the per-layer metrics derived from the
spans.  The corpora are fixed (see ``worker.WORKLOADS``); ``--seed`` only
names the run's scratch directory.  Each channel's record (latency, barrier
solves and their callers, failed checks) is printed on its own line; the last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUPS = 7            # set-ups per run; setup_s is their median
DEADLINE_S = 170.0    # every worker is stopped by then

# per-layer metrics repeated for the single-thread traced pass
THREAD1 = (
    "factorize_s", "verify_s", "blas_threads", "cbnorm.s", "cbnorm.barrier_s",
    "cbnorm.s_per_newton", "cbnorm.newton_steps", "reconstruction.reconstruct.s",
    "starcalc.measure_defects.s", "factorization.twirl_to_cp.self_s", "numlin.kron.s",
)


class WorkerFailed(Exception):
    pass


def run_worker(args: list[str], work: str, deadline: float, env=None) -> dict:
    out = os.path.join(work, f"result-{time.monotonic_ns()}.json")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--work", work, "--out", out, *args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as handle:
        return json.load(handle)


def per_channel(records, key) -> list[float]:
    """Median over the passes of each channel's figure, in corpus order."""
    figures: dict = {}
    for rec in records:
        figures.setdefault(rec["channel"].split(".", 1)[1], []).append(rec[key])
    return [statistics.median(v) for v in figures.values()]


def end_to_end(setups: list[float], res: dict) -> dict:
    fact = per_channel(res["records"], "factorize_cal")
    return {
        "setup_s": statistics.median(setups),
        "factorize_cal": sum(fact),
        "factorize_p50_cal": statistics.median(fact),
        "factorize_max_cal": max(fact),
        "verify_cal": sum(per_channel(res["records"], "verify_cal")),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict, single: dict) -> dict:
    def totals(res):
        m = dict(res["layers"])
        m["factorize_s"] = sum(r["factorize_s"] for r in res["records"])
        m["verify_s"] = sum(r["verify_s"] for r in res["records"])
        m["blas_threads"] = res["blas_threads"]
        return m

    m = totals(traced)
    m["traced.factorize_s"] = m.pop("factorize_s")
    m["traced.verify_s"] = m.pop("verify_s")
    m["wall.factorize_s"] = sum(r["factorize_s"] for r in untraced["records"])
    m["wall.verify_s"] = sum(r["verify_s"] for r in untraced["records"])
    m["trace_overhead"] = m["traced.factorize_s"] / m["wall.factorize_s"] - 1
    m["serialize.report_kb"] = statistics.mean(r["report_kb"] for r in traced["records"])
    m["channels"] = len(traced["records"])
    m["fail_ratio"] = checks.fail_ratio(
        untraced["records"] + traced["records"] + single["records"])
    one = totals(single)
    for name in THREAD1:
        m[f"t1.{name}"] = one[name]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "almostidem", "cli.py")):
        print(f"error: no almostidem sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload]

    try:
        if args.trace == 0:
            setups = [run_worker(["--mode", "setup", *common], work, deadline)["setup_s"]
                      for _ in range(SETUPS)]
            res = run_worker(["--mode", "measure", *common, "--seconds", str(args.seconds)],
                             work, deadline)
            metrics = end_to_end(setups, res)
            runs = [res]
        else:
            run_worker(["--mode", "setup", *common], work, deadline)
            once = ["--mode", "measure", *common, "--passes", "1"]
            untraced = run_worker(once, work, deadline)
            traced = run_worker([*once, "--trace", "1"], work, deadline)
            env = dict(os.environ, ALMOSTIDEM_THREADS="1")
            single = run_worker([*once, "--trace", "1"], work, deadline, env=env)
            metrics = per_layer(untraced, traced, single)
            runs = [untraced, traced, single]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    records = [r for res in runs for r in res["records"]]
    shown = traced["records"] if args.trace else records
    for rec in shown:
        print("channel " + json.dumps(
            {k: rec[k] for k in ("channel", "pipeline_seed", "factorize_s", "verify_s",
                                 "factorize_cal", "verify_cal", "barrier",
                                 "failures")}))
    failed = sum(1 for r in records if r["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
