"""Span recorder that wraps the public functions of each ``almostidem`` layer.

A wrapper is installed at every module attribute through which callers look
a function up (``cbnorm.cb_norm``, ``factorization.pauli_diagonal`` as well as
``reconstruction.pauli_diagonal``, ...), so the program itself is unchanged.
Each call records a span ``(name, start, end, parent, channel, info)`` in
memory; ``info`` holds the few result fields the per-layer metrics need (the
Newton count of a norm certificate, the size of a design).  ``unwrap``
restores every attribute to the exact object it held before.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "numlin", "channels", "cbnorm", "starcalc", "projections",
    "reconstruction", "factorization", "serialize", "pipeline", "cli",
)

# Private functions that mark the solver phases inside cbnorm: the alternating
# ascent (plain and restarted) and the barrier Newton solve.
PROBES = {"cbnorm": ("_alternating_ascent", "_barrier_solve")}

# The pipeline stage that owns a norm solve, by the nearest traced ancestor.
CALLERS = {
    "starcalc.idempotentize": "idempotentize",
    "factorization.twirl_to_cp": "twirl",
    "factorization.certify": "certify",
    "pipeline.verify_report": "verify",
}


def _certificate_info(args, kwargs, result):
    return {"iterations": int(result.iterations), "stalled": bool(result.stalled)}


def _barrier_info(args, kwargs, result):
    return {"d_in": int(args[1]), "d_out": int(args[2]), "newtons": int(result[5])}


def _design_info(args, kwargs, result):
    return {"terms": len(result.terms)}


def _twirl_info(args, kwargs, result):
    return {"terms": int(result[1]["terms"])}


INFO = {
    "cbnorm.cb_norm": _certificate_info,
    "cbnorm._barrier_solve": _barrier_info,
    "reconstruction.pauli_diagonal": _design_info,
    "factorization.twirl_to_cp": _twirl_info,
}


class Tracer:
    """Holds the spans of one process; ``channel`` tags the spans being made."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.channel = None
        self._saved: list = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        info = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            extract = INFO.get(name)
            if extract is not None:
                info = extract(args, kwargs, result)
            return result
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.channel, info)

    def wrap(self, modules: dict) -> None:
        """Install wrappers; ``modules`` maps layer name to module object."""
        targets = {}
        for layer, mod in modules.items():
            probes = PROBES.get(layer, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in probes)):
                    targets[id(obj)] = (obj, self._wrapper(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def unwrap(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                name, start, end, parent, channel, info = span
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "channel": channel, "info": info,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans, idx, same) -> bool:
    """True when no ancestor of span ``idx`` satisfies ``same``."""
    parent = spans[idx][3]
    while parent >= 0:
        if same(spans[parent]):
            return False
        parent = spans[parent][3]
    return True


def _caller(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        who = CALLERS.get(spans[parent][0])
        if who is not None:
            return who
        parent = spans[parent][3]
    return "other"


def layer_metrics(spans) -> dict:
    """Per-layer numbers derived from one process's spans."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span[0]].append(idx)

    def dur(idx):
        return spans[idx][2] - spans[idx][1]

    def incl(name):
        return sum(dur(i) for i in by_name[name]
                   if _outermost(spans, i, lambda s: s[0] == name))

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def layer_incl(layer):
        return sum(dur(i) for i, span in enumerate(spans) if _layer(span[0]) == layer
                   and _outermost(spans, i, lambda s: _layer(s[0]) == layer))

    def info_total(name, key):
        return sum(spans[i][5][key] for i in by_name[name] if spans[i][5] is not None)

    m: dict = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        m[f"layer.{_layer(span[0])}.self_s"] += own

    # cbnorm: calls, solver path, Newton work and who asked for each solve
    cb = [i for i in by_name["cbnorm.cb_norm"] if spans[i][5] is not None]
    barrier = {i for i in cb if spans[i][5]["iterations"] > 0}
    m["cbnorm.calls"] = len(cb)
    m["cbnorm.s"] = layer_incl("cbnorm")
    for who in CALLERS.values():
        mine = [i for i in cb if _caller(spans, i) == who]
        m[f"cbnorm.s.{who}"] = sum(dur(i) for i in mine)
        m[f"cbnorm.barrier_calls.{who}"] = sum(1 for i in mine if i in barrier)
    m["cbnorm.barrier_calls"] = len(barrier)
    m["cbnorm.newton_steps"] = info_total("cbnorm.cb_norm", "iterations")
    m["cbnorm.stalled"] = sum(1 for i in cb if spans[i][5]["stalled"])
    m["cbnorm.barrier_s"] = incl("cbnorm._barrier_solve")
    m["cbnorm.ascent_s"] = incl("cbnorm._alternating_ascent")
    m["cbnorm.s_per_newton"] = (
        m["cbnorm.barrier_s"] / m["cbnorm.newton_steps"] if m["cbnorm.newton_steps"] else 0.0)
    m["cbnorm.ascent_close_ratio"] = (len(cb) - len(barrier)) / len(cb) if cb else 1.0
    # computed, not measured: real unknowns of the dense KKT system and the
    # flops of one Cholesky-class solve per Newton step
    unknowns, gflop = 0, 0.0
    for i in by_name["cbnorm._barrier_solve"]:
        info = spans[i][5]
        if info is None:
            continue
        p = 2 * info["d_in"] ** 2 + 2 * (info["d_in"] * info["d_out"]) ** 2
        unknowns = max(unknowns, p)
        gflop += info["newtons"] * (p + 2) ** 3 / 3 / 1e9
    m["cbnorm.kkt_unknowns_max"] = unknowns
    m["cbnorm.kkt_gflop"] = gflop

    m["starcalc.idempotentize.self_s"] = self_s("starcalc.idempotentize")
    m["starcalc.extract_algebra.s"] = incl("starcalc.extract_algebra")
    m["starcalc.measure_defects.s"] = incl("starcalc.measure_defects")

    m["projections.find_nontrivial_projection.calls"] = len(
        by_name["projections.find_nontrivial_projection"])
    m["projections.find_nontrivial_projection.s"] = incl("projections.find_nontrivial_projection")
    m["projections.classify_equivalence.s"] = incl("projections.classify_equivalence")

    m["reconstruction.reconstruct.s"] = incl("reconstruction.reconstruct")
    m["reconstruction.reconstruct.self_s"] = self_s("reconstruction.reconstruct")
    m["reconstruction.improve_homomorphism.calls"] = len(
        by_name["reconstruction.improve_homomorphism"])
    m["reconstruction.improve_homomorphism.s"] = incl("reconstruction.improve_homomorphism")
    m["reconstruction.pauli_diagonal.terms"] = info_total("reconstruction.pauli_diagonal", "terms")

    m["factorization.twirl_to_cp.self_s"] = self_s("factorization.twirl_to_cp")
    m["factorization.twirl_terms"] = info_total("factorization.twirl_to_cp", "terms")
    m["factorization.build_upsilon.s"] = incl("factorization.build_upsilon")
    m["factorization.certify.self_s"] = self_s("factorization.certify")
    m["factorization.raw_factor.s"] = incl("factorization.raw_factor")

    m["numlin.kron.calls"] = len(by_name["numlin.kron"])
    m["numlin.kron.s"] = incl("numlin.kron")
    m["numlin.theta.s"] = incl("numlin.theta")

    m["channels.s"] = layer_incl("channels")

    m["serialize.write_s"] = incl("serialize.atomic_write_json")
    m["serialize.read_s"] = incl("serialize.load_json")

    m["pipeline.factorize_channel.self_s"] = self_s("pipeline.factorize_channel")
    m["pipeline.verify_report.self_s"] = self_s("pipeline.verify_report")
    m["cli.self_s"] = m.pop("layer.cli.self_s")
    return m


def barrier_solves(spans) -> list[dict]:
    """Every norm solve that reached the barrier: channel, caller, Newton steps, time."""
    return [
        {"channel": s[4], "caller": _caller(spans, i),
         "newton_steps": s[5]["iterations"], "s": s[2] - s[1]}
        for i, s in enumerate(spans)
        if s[0] == "cbnorm.cb_norm" and s[5] is not None and s[5]["iterations"] > 0
    ]
