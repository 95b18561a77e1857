"""One fresh process of the benchmark: set up a workload's corpus, or run it.

``--mode setup`` imports the package and writes the corpus with ``aiq gen``;
the time it reports is the set-up cost.  ``--mode measure`` runs
``aiq factorize --json-out`` and ``aiq verify`` on every channel of the corpus,
in process through ``almostidem.cli.main``, checks each result and writes the
per-channel records (and, traced, the per-layer metrics) as JSON.
The default BLAS thread pool is used unless ``ALMOSTIDEM_THREADS`` is set.

While factorize and verify run, the measure mode samples the host's speed
(``Speedometer``), so that each step's time can also be read in units of the
host's speed during that step.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import re
import resource
import signal
import sys
import time

import checks
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Fixed corpora: channel k of a workload uses its listed seed for the
# generator and for the pipeline (``factorize --seed``, which verify reuses).
# Both seeds change the work.  Whether a certified norm closes on the ascent
# or falls back to the barrier Newton method depends on the perturbation and,
# through the reconstructed near-isomorphism, on the pipeline seed: (2,2) at
# t=1e-2 with perturbation seed 1 reaches the barrier in twirl and certify
# with pipeline seed 2 but not with 1 or 6.  Per channel that is 1 to 11 s at
# d=4 and 3 to 61 s at d=6; random idempotents take 0.7 to 1.3 s by seed.  A
# run holds too few channels for such a mix to average out, so the workload
# seed does not pick the corpus.
WORKLOADS = {
    # (3,1) and (2,2) cycling t: seeds 2 and 3 reach the barrier in factorize
    # (twirl, certify) and in verify, the other four close on the ascent.
    "perturbed-d4": [
        {"pinching": (3, 1), "t": 1e-3, "seed": 0},
        {"pinching": (2, 2), "t": 1e-2, "seed": 1},
        {"pinching": (3, 1), "t": 5e-2, "seed": 2},
        {"pinching": (2, 2), "t": 1e-3, "seed": 3},
        {"pinching": (3, 1), "t": 1e-2, "seed": 4},
        {"pinching": (2, 2), "t": 5e-2, "seed": 5},
    ],
    # t=0 inputs: pinchings and random idempotents with multiplicity.
    "exact-blocks": [
        {"pinching": (4, 3, 1), "seed": 0},
        {"pinching": (5, 1), "seed": 1},
        {"pinching": (4, 2), "seed": 2},
        {"idempotent": "(2,2),(1,3)", "dim": 7, "seed": 3},
        {"idempotent": "(2,3),(1,2)", "dim": 8, "seed": 4},
    ],
    # Not in BENCHMARK.json (one pass takes about 33 s); run by hand.
    # (3,2,1) at t=1e-2: seed 1 reaches the barrier in the twirl distance
    # (32 Newton steps on 2664 unknowns), seeds 0 and 4 close on the ascent.
    "perturbed-d6": [
        {"pinching": (3, 2, 1), "t": 1e-2, "seed": 1},
        {"pinching": (3, 2, 1), "t": 1e-2, "seed": 0},
        {"pinching": (3, 2, 1), "t": 1e-2, "seed": 4},
    ],
}


def corpus(workload: str, work: str) -> list[dict]:
    """Channel files, generator commands and expectations."""
    out = []
    for i, spec in enumerate(WORKLOADS[workload]):
        path = os.path.join(work, f"c{i}.json")
        s = str(spec["seed"])
        chan = {"id": f"c{i}", "path": path, "pipeline_seed": spec["seed"],
                "perturbed": "t" in spec}
        if "idempotent" in spec:
            chan["gen"] = [["gen", "--idempotent", spec["idempotent"], "--dim",
                            str(spec["dim"]), "--seed", s, "--out", path]]
            chan["block_dims"] = [int(d) for d in re.findall(r"\((\d+),", spec["idempotent"])]
        else:
            dims = ",".join(map(str, spec["pinching"]))
            chan["block_dims"] = list(spec["pinching"])
            if "t" in spec:
                base = os.path.join(work, f"c{i}.base.json")
                chan["gen"] = [
                    ["gen", "--pinching", dims, "--seed", s, "--out", base],
                    ["gen", "--perturb", base, "--t", repr(spec["t"]), "--seed", s,
                     "--out", path],
                ]
            else:
                chan["gen"] = [["gen", "--pinching", dims, "--seed", s, "--out", path]]
        out.append(chan)
    return out


def import_program() -> dict:
    """Import every layer of the package from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "almostidem", "__init__.py")):
        raise SystemExit(f"no almostidem sources under {SRC}")
    sys.path.insert(0, SRC)
    # cli first: it applies ALMOSTIDEM_THREADS before numpy starts its pool
    importlib.import_module("almostidem.cli")
    mods = {name: importlib.import_module(f"almostidem.{name}") for name in tracing.LAYERS}
    if not mods["cli"].__file__.startswith(SRC):
        raise SystemExit(f"almostidem imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def blas_threads() -> int:
    """Size of the loaded OpenBLAS pool, 0 when it cannot be queried."""
    with open("/proc/self/maps") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return 0


class Speedometer:
    """Samples how fast the shared host runs Python and numpy during a step.

    Every ``period`` seconds of wall time a SIGALRM handler runs a fixed tick
    in the main thread (a short pure-Python loop and a few small numpy calls,
    about 0.5 ms) and times it; one more tick runs right after the step.  A
    step's ``net`` time is its wall time less the ticks; its figure in
    calibration units (``cal``) is ``net`` divided by the mean tick.  The
    tick belongs to the benchmark, not to the program, so a change to the
    program moves only the numerator, while a host running slower stretches
    both.  ``period=0`` takes only the tick after the step (traced passes,
    whose spans then hold no ticks).
    """

    def __init__(self, period: float = 0.02):
        import numpy as np

        self.np = np
        self.small = np.random.default_rng(0).standard_normal((4, 4))
        self.period = period
        self.ticks: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(20):      # first-call costs
            self._tick()

    def _tick(self, *_):
        np, small = self.np, self.small
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        for _ in range(15):
            np.kron(small, small)
            np.dot(small, small)
        self.ticks.append(time.perf_counter() - t0)

    def run(self, fn, *args):
        """Return ``fn(*args)``, the step's net seconds and its cal figure."""
        self.ticks = []
        if self.period > 0:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
        net = t1 - t0 - sum(self.ticks)
        self._tick()
        return result, net, net / (sum(self.ticks) / len(self.ticks))


def run_channel(cli, chan: dict, work: str, speedo: Speedometer,
                tracer=None, tag: str = "") -> dict:
    """factorize + verify one channel, timed separately, then the gate."""
    report_path = os.path.join(work, f"{chan['id']}.report.json")
    if os.path.exists(report_path):
        os.unlink(report_path)
    if tracer is not None:
        tracer.channel = tag
    rc_f, fact_s, fact_cal = speedo.run(cli.main, [
        "factorize", chan["path"], "--seed", str(chan["pipeline_seed"]),
        "--json-out", report_path])
    rc_v, ver_s, ver_cal = speedo.run(cli.main, ["verify", report_path])
    report = None
    if os.path.exists(report_path):
        with open(report_path) as handle:
            report = json.load(handle)
    failures = checks.check_channel(report, rc_f, rc_v, chan["block_dims"], chan["perturbed"])
    return {
        "channel": tag or chan["id"],
        "pipeline_seed": chan["pipeline_seed"],
        "factorize_s": fact_s,
        "verify_s": ver_s,
        "factorize_cal": fact_cal,
        "verify_cal": ver_cal,
        "report_kb": os.path.getsize(report_path) / 1024 if report is not None else 0.0,
        "barrier": checks.solver_path(report) if report is not None else [],
        "failures": failures,
    }


def measure(mods, chans, work, seconds: float, max_passes: int, trace: bool) -> dict:
    cli = mods["cli"]
    # warm-up outside the timed region: lazy imports and first-call costs
    warm = {"id": "warm", "path": os.path.join(work, "warm.json"), "pipeline_seed": 0,
            "perturbed": False, "block_dims": [2, 1]}
    cli.main(["gen", "--pinching", "2,1", "--seed", "0", "--out", warm["path"]])
    speedo = Speedometer(period=0.0 if trace else 0.02)
    run_channel(cli, warm, work, speedo)

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.wrap(mods)
    records = []
    passes = 0
    start = time.perf_counter()
    try:
        while True:
            for chan in chans:
                records.append(run_channel(cli, chan, work, speedo, tracer,
                                           f"p{passes}.{chan['id']}"))
            passes += 1
            if passes >= max_passes > 0 or time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.unwrap()
    out = {
        "records": records,
        "passes": passes,
        "blas_threads": blas_threads(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        solves = tracing.barrier_solves(tracer.spans)
        for rec in records:
            rec["barrier"] = [s for s in solves if s["channel"] == rec["channel"]]
        tracer.dump(os.path.join(work, f"spans-t{out['blas_threads']}.jsonl"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chans = corpus(args.workload, args.work)
    if args.mode == "setup":
        t0 = time.perf_counter()
        mods = import_program()
        for chan in chans:
            for cmd in chan["gen"]:
                if mods["cli"].main(cmd) != 0:
                    raise SystemExit(f"aiq {' '.join(cmd)} failed")
        result = {"setup_s": time.perf_counter() - t0}
    else:
        mods = import_program()
        result = measure(mods, chans, args.work, args.seconds, args.passes, bool(args.trace))
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
