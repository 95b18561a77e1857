"""End-to-end analysis pipelines producing self-contained JSON reports.

Every numeric claim in a report carries its tolerance or certified interval,
and the report embeds the input channel, seed, and version so that ``verify``
can replay it from scratch.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from . import numlin as nl
from . import channels as chn
from . import cbnorm
from . import starcalc as sc
from . import reconstruction as rc
from . import factorization as fa
from . import serialize as ser

# absolute slack when a recorded interval is checked against its witness
VERIFY_SLACK = 1e-6


@contextmanager
def _stage(timings: dict, name: str):
    """Record the wall time of the enclosed block as ``timings[name]``."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def _input_block(ch: chn.Channel, seed: int) -> dict:
    data = ser.channel_to_dict(ch)
    return {
        "channel": data,
        "digest": ser.digest(data["choi"]),
        "seed": seed,
        "version": __version__,
    }


def analyze_channel(ch: chn.Channel, seed: int = 0) -> dict:
    """Validity flags, certified idempotency defect, carrier dimension."""
    t0 = time.perf_counter()
    m = ch.superop
    eta = cbnorm.cb_norm(m @ m - m, ch.dim_in, ch.dim_in)
    carrier_dim = int(chn.carrier(ch).shape[1]) if ch.is_cp() else None
    report = {
        "format": ser.FORMAT_REPORT,
        "kind": "analyze",
        "input": _input_block(ch, seed),
        "flags": {
            "cp": ch.is_cp(),
            "unital": ch.is_unital(),
            "trace_preserving": ch.is_trace_preserving(),
        },
        "eta": ser.certificate_to_dict(eta),
        "eta_domain_ok": bool(eta.upper < 0.25),
        "carrier_dim": carrier_dim,
        "timings": {"total": time.perf_counter() - t0},
    }
    return report


def reconstruct_channel(ch: chn.Channel, seed: int = 0) -> tuple[dict, dict]:
    """Pipeline through the block structure and the near-isomorphism.

    Returns (report, artifacts); artifacts keep the in-memory objects for
    further processing.  ``timings`` holds the wall time of each stage and
    the ``total``.
    """
    t0 = time.perf_counter()
    ch.require_ucp()
    checkpoints = []
    timings = {}
    with _stage(timings, "idempotentize"):
        pm = sc.idempotentize(ch)
    checkpoints.append({
        "stage": "idempotent-envelope",
        "residual": pm.residual,
        "eta": ser.certificate_to_dict(pm.eta),
        "distance_cb": ser.certificate_to_dict(pm.distance_cb),
    })
    with _stage(timings, "extract"):
        alg = sc.extract_algebra(pm)
    with _stage(timings, "defects"):
        alg.defects = sc.measure_defects(alg, pm.distance_cb.upper)
    checkpoints.append({
        "stage": "algebra",
        "dim": alg.dim,
        "membership_residual": alg.membership_residual,
        "defects": ser.defect_report_to_dict(alg.defects),
    })
    with _stage(timings, "reconstruct"):
        spec, v, rec_report = rc.reconstruct(alg, seed=seed)
    checkpoints.append({
        "stage": "reconstruction",
        "block_dims": list(spec.block_dims),
        "mult_defect": rec_report.mult_defect,
        "unit_defect": rec_report.unit_defect,
        "iso_lower": rec_report.iso_lower,
        "iso_upper": rec_report.iso_upper,
        "bijective": rec_report.bijective,
        "stage1_gap_ratio": rec_report.stage1_gap_ratio,
        "class_sizes": rec_report.class_sizes,
        "family_deltas": rec_report.family_deltas,
        "improvement_history": rec_report.improvement_history,
    })
    report = {
        "format": ser.FORMAT_REPORT,
        "kind": "reconstruct",
        "input": _input_block(ch, seed),
        "checkpoints": checkpoints,
        "block_dims": list(spec.block_dims),
        "hom_coeffs": ser.matrix_to_json(v.coeffs),
        "timings": {**timings, "total": time.perf_counter() - t0},
    }
    artifacts = {"pm": pm, "alg": alg, "spec": spec, "v": v, "rec_report": rec_report}
    return report, artifacts


def factorize_channel(ch: chn.Channel, seed: int = 0) -> tuple[dict, dict]:
    """Pipeline through the certified UCP factorization."""
    t0 = time.perf_counter()
    report, artifacts = reconstruct_channel(ch, seed)
    pm, alg, spec, v = (
        artifacts["pm"], artifacts["alg"], artifacts["spec"], artifacts["v"]
    )
    timings = report["timings"]
    with _stage(timings, "raw_factor"):
        raw = fa.raw_factor(v, pm, alg)
    with _stage(timings, "twirl"):
        delta, twirl_info = fa.twirl_to_cp(raw, ch)
    with _stage(timings, "upsilon"):
        upsilon, ups_info = fa.build_upsilon(delta, ch, spec)
    with _stage(timings, "certify"):
        cert = fa.certify(delta, upsilon, ch, spec, seed=seed)
    report["kind"] = "factorize"
    report["checkpoints"].append({
        "stage": "raw-factorization",
        "factor_residual": raw.factor_residual,
        "retract_residual": raw.retract_residual,
        "unit_distance": raw.unit_distance,
    })
    report["checkpoints"].append({
        "stage": "ucp-repair",
        "twirl_terms": twirl_info["terms"],
        "choi_min_before_normalization": twirl_info["choi_min_before_normalization"],
        "distance_to_raw_cb": ser.certificate_to_dict(twirl_info["distance_to_raw_cb"]),
        "upsilon_blocks": ups_info["blocks"],
    })
    report["factorization"] = {
        "block_dims": list(spec.block_dims),
        "delta_choi": ser.matrix_to_json(delta.choi),
        "upsilon_choi": ser.matrix_to_json(upsilon.choi),
        "residual_factor": ser.certificate_to_dict(cert.residual_factor),
        "residual_retract": ser.certificate_to_dict(cert.residual_retract),
        "product_residuals": {str(k): val for k, val in cert.product_residuals.items()},
        "ucp_flags": cert.ucp_flags,
    }
    timings["total"] = time.perf_counter() - t0
    artifacts.update({"raw": raw, "delta": delta, "upsilon": upsilon, "cert": cert})
    return report, artifacts


def verify_report(report: dict) -> list[str]:
    """Re-check every invariant recorded in a report from the raw input.

    Norm certificates are checked through their witnesses on the maps rebuilt
    from the embedded input, and no norm is solved; a certificate without a
    witness is one failure.  Returns a list of human-readable failures (empty
    when everything holds).
    """
    failures: list[str] = []
    try:
        ch = ser.channel_from_dict(report["input"]["channel"])
    except (KeyError, ser.ParseError) as exc:
        return [f"cannot rebuild input channel: {exc}"]
    recorded_digest = report["input"].get("digest")
    actual_digest = ser.digest(report["input"]["channel"]["choi"])
    if recorded_digest != actual_digest:
        failures.append("input digest mismatch")

    flags = report.get("flags")
    if flags is not None:
        for key, word, test in (("cp", "CP", ch.is_cp), ("unital", "unitality", ch.is_unital),
                                ("trace_preserving", "trace-preserving", ch.is_trace_preserving)):
            if flags.get(key) != test():
                failures.append(f"recorded {word} flag does not match the input")

    eta_rec = report.get("eta")
    if eta_rec is None:
        for cp in report.get("checkpoints", []):
            if cp.get("stage") == "idempotent-envelope":
                eta_rec = cp["eta"]
    if eta_rec is not None:
        m = ch.superop
        failures.extend(_verify_certificate("eta", eta_rec, m @ m - m, ch.dim_in))
    if "eta_domain_ok" in report and (
            eta_rec is None or report["eta_domain_ok"] != (eta_rec["upper"] < 0.25)):
        failures.append("recorded eta_domain_ok does not match the recorded eta bound")

    if "carrier_dim" in report and report["carrier_dim"] is not None:
        if int(report["carrier_dim"]) != int(chn.carrier(ch).shape[1]):
            failures.append("recorded carrier dimension does not match")

    if report.get("kind") in ("reconstruct", "factorize"):
        failures.extend(_verify_structure(report))
        failures.extend(_verify_defects(report, ch.dim_in))
    fact = report.get("factorization")
    if fact is not None:
        failures.extend(_verify_factorization(ch, fact))
    return failures


def _verify_structure(report: dict) -> list[str]:
    """Failures of a block structure recorded in more than one place.

    The top-level ``block_dims`` must be those of the reconstruction (and of
    the factorization, when there is one), and ``hom_coeffs`` must have one
    row per algebra dimension of (sum d)^2 entries: list lengths only, so
    nothing is parsed or solved.
    """
    stages = {cp.get("stage"): cp for cp in report.get("checkpoints", [])}
    dims = stages.get("reconstruction", {}).get("block_dims", [])
    recorded = [dims]
    if "factorization" in report:
        recorded.append(report["factorization"]["block_dims"])
    if any(report.get("block_dims") != b for b in recorded):
        return ["top-level block_dims do not match those the reconstruction "
                "or the factorization records"]
    rows = report.get("hom_coeffs")
    n, entries = stages.get("algebra", {}).get("dim"), sum(dims) ** 2
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == entries for r in rows)):
        return [f"recorded hom_coeffs is not {n} rows (the algebra dimension) "
                f"of {entries} entries (the square of sum(block_dims))"]
    return []


_DEFECT_NAMES = ("eps_submult", "eps_assoc", "eps_cstar", "eps_unit")


def _is_size(x) -> bool:
    """Whether ``x`` is a finite number >= 0, as every defect is."""
    return type(x) in (int, float) and math.isfinite(x) and x >= 0


def _verify_defects(report: dict, dim: int) -> list[str]:
    """Failures of the recorded ``defects``: every ``eps_*`` must be there
    with a lower bound that is a finite number >= 0 (the flat ``defects`` of
    earlier reports record that alone), and each ``eps_submult`` and
    ``eps_cstar`` upper bound must be the one :func:`starcalc.defect_upper_bounds`
    gives for the recorded ``distance_cb`` upper bound, algebra dimension and
    ``dim``, and must not lie below its lower bound."""
    stages = {cp.get("stage"): cp for cp in report.get("checkpoints", [])}
    algebra = stages.get("algebra", {})
    defects = algebra.get("defects")
    if not isinstance(defects, dict) or not all(name in defects for name in _DEFECT_NAMES):
        return [f"recorded defects do not hold {', '.join(_DEFECT_NAMES)}"]
    if not any(isinstance(defects[name], dict) for name in _DEFECT_NAMES):
        return [f"recorded {name} {defects[name]!r} is not a finite number >= 0"
                for name in _DEFECT_NAMES if not _is_size(defects[name])]
    try:
        delta = stages["idempotent-envelope"]["distance_cb"]["upper"]
        uppers = sc.defect_upper_bounds(delta, algebra["dim"], dim)
        lowers = {name: defects[name]["lower"] for name in _DEFECT_NAMES}
        brackets = [(name, lowers[name], defects[name]["upper"], want)
                    for name, want in zip(("eps_submult", "eps_cstar"), uppers)]
    except (KeyError, TypeError):
        return ["recorded defects do not hold the brackets and the distance_cb they are read off"]
    failures = [f"recorded {name} lower bound {lower!r} is not a finite number >= 0"
                for name, lower in lowers.items() if not _is_size(lower)]
    for name, lower, upper, want in brackets:
        if upper != want:
            failures.append(f"recorded {name} upper bound {upper!r} is not {want!r}, "
                            f"the bound the recorded distance_cb gives")
        if _is_size(lower) and _is_size(upper) and not lower <= upper:
            failures.append(f"recorded {name} bracket [{lower!r}, {upper!r}] is inverted")
    return failures


def _verify_certificate(name: str, rec: dict, mp: np.ndarray, dim: int) -> list[str]:
    """Failures of the recorded cb-norm certificate ``rec`` of the map ``mp``."""
    try:
        witness = ser.certificate_witness_from_dict(rec)
        lower, upper = cbnorm.check_cb_witness(mp, dim, dim, witness)
    except (ser.ParseError, cbnorm.InvalidWitness) as exc:
        return [f"{name} witness: {exc}"]
    # the recorded interval must not be inverted, and the witness interval,
    # which holds the norm, must lie inside it and meet the gap target unless
    # recorded stalled; the slack is larger than the gaps, so it cannot
    # catch an inverted interval
    interval = f"recorded {name} interval [{rec['lower']:.3e}, {rec['upper']:.3e}]"
    failures = []
    if not rec["lower"] <= rec["upper"]:
        failures.append(f"{interval} is inverted: its lower bound exceeds its upper bound")
    if not (rec["lower"] <= lower + VERIFY_SLACK and rec["upper"] >= upper - VERIFY_SLACK):
        failures.append(f"{interval} is not certified by its witness "
                        f"[{lower:.3e}, {upper:.3e}]")
    tol = witness.target_rel_gap * max(1.0, lower) + VERIFY_SLACK
    if not rec.get("stalled") and not upper - lower <= tol:
        failures.append(f"{name} witness gap {upper - lower:.3e} misses the target "
                        f"{witness.target_rel_gap:g}")
    return failures


def _verify_factorization(ch, fact: dict) -> list[str]:
    failures = []
    spec = rc.BlockSpec(tuple(int(d) for d in fact["block_dims"]))
    d_tot = spec.rep_dim
    try:
        delta = chn.Channel.from_choi(
            ser.matrix_from_json(fact["delta_choi"]), d_tot, ch.dim_in
        )
        upsilon = chn.Channel.from_choi(
            ser.matrix_from_json(fact["upsilon_choi"]), ch.dim_in, d_tot
        )
    except (ser.ParseError, nl.DimMismatch) as exc:
        return [f"cannot rebuild factorization maps: {exc}"]
    # each recorded flag must be the test's outcome, whichever way it reads
    for name, mp in (("delta", delta), ("upsilon", upsilon)):
        for kind, test in (("cp", mp.is_cp), ("unital", mp.is_unital)):
            recorded, actual = fact["ucp_flags"].get(f"{name}_{kind}"), test()
            if recorded != actual:
                failures.append(f"{name}_{kind} is recorded {recorded}, but the test gives {actual}")

    factor_map = delta.superop @ upsilon.superop - ch.superop
    failures.extend(_verify_certificate(
        "residual_factor", fact["residual_factor"], factor_map, ch.dim_in))
    retract_map = upsilon.superop @ delta.superop - chn.pinch_superop(spec.block_dims)
    failures.extend(_verify_certificate(
        "residual_retract", fact["residual_retract"], retract_map, d_tot))
    return failures


def strip_timings(report: dict) -> dict:
    """Deterministic view of a report: everything except wall-clock data."""
    out = {k: v for k, v in report.items() if k != "timings"}
    return out
