"""End-to-end analysis pipelines producing self-contained JSON reports.

Every numeric claim in a report carries its tolerance or certified interval,
and the report embeds the input channel, seed, and version so that ``verify``
can replay it from scratch.
"""

from __future__ import annotations

import time

import numpy as np

from . import __version__
from . import numlin as nl
from . import channels as chn
from . import cbnorm
from . import starcalc as sc
from . import reconstruction as rc
from . import factorization as fa
from . import serialize as ser


def _input_block(ch: chn.Channel, seed: int) -> dict:
    data = ser.channel_to_dict(ch)
    return {
        "channel": data,
        "digest": ser.digest(data["choi"]),
        "seed": seed,
        "version": __version__,
    }


def analyze_channel(ch: chn.Channel, seed: int = 0, target_rel_gap: float = 1e-6) -> dict:
    """Validity flags, certified idempotency defect, carrier dimension."""
    t0 = time.perf_counter()
    m = ch.superop
    eta = cbnorm.cb_norm(m @ m - m, ch.dim_in, ch.dim_in, target_rel_gap)
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


def reconstruct_channel(
    ch: chn.Channel,
    seed: int = 0,
    samples: int = 100,
    extension_n: int = 2,
) -> tuple[dict, dict]:
    """Pipeline through the block structure and the near-isomorphism.

    Returns (report, artifacts); artifacts keep the in-memory objects for
    further processing.
    """
    t0 = time.perf_counter()
    ch.require_ucp()
    checkpoints = []
    pm = sc.idempotentize(ch)
    checkpoints.append({
        "stage": "idempotent-envelope",
        "residual": pm.residual,
        "eta": ser.certificate_to_dict(pm.eta),
        "distance_cb": ser.certificate_to_dict(pm.distance_cb),
    })
    alg = sc.extract_algebra(pm)
    alg.defects = sc.measure_defects(
        alg, samples=samples, extension_n=extension_n, seed=seed
    )
    checkpoints.append({
        "stage": "algebra",
        "dim": alg.dim,
        "membership_residual": alg.membership_residual,
        "defects": ser.defect_report_to_dict(alg.defects),
    })
    spec, v, rec_report = rc.reconstruct(alg, seed=seed)
    checkpoints.append({
        "stage": "reconstruction",
        "block_dims": list(spec.block_dims),
        "mult_defect": rec_report.mult_defect,
        "unit_defect": rec_report.unit_defect,
        "iso_lower": rec_report.iso_lower,
        "iso_upper": rec_report.iso_upper,
        "bijective": rec_report.bijective,
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
        "timings": {"total": time.perf_counter() - t0},
    }
    artifacts = {"pm": pm, "alg": alg, "spec": spec, "v": v, "rec_report": rec_report}
    return report, artifacts


def factorize_channel(
    ch: chn.Channel,
    seed: int = 0,
    samples: int = 100,
    extension_n: int = 2,
) -> tuple[dict, dict]:
    """Pipeline through the certified UCP factorization."""
    t0 = time.perf_counter()
    report, artifacts = reconstruct_channel(ch, seed, samples, extension_n)
    pm, alg, spec, v = (
        artifacts["pm"], artifacts["alg"], artifacts["spec"], artifacts["v"]
    )
    raw = fa.raw_factor(v, pm, alg)
    delta, twirl_info = fa.twirl_to_cp(raw, ch)
    upsilon, ups_info = fa.build_upsilon(delta, ch, spec, pm.eta.value)
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
    report["timings"]["total"] = time.perf_counter() - t0
    artifacts.update({"raw": raw, "delta": delta, "upsilon": upsilon, "cert": cert})
    return report, artifacts


def verify_report(report: dict, slack: float = 1e-6) -> list[str]:
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
        if flags.get("cp") != ch.is_cp():
            failures.append("recorded CP flag does not match the input")
        if flags.get("unital") != ch.is_unital():
            failures.append("recorded unitality flag does not match the input")

    eta_rec = report.get("eta")
    if eta_rec is None:
        for cp in report.get("checkpoints", []):
            if cp.get("stage") == "idempotent-envelope":
                eta_rec = cp["eta"]
    if eta_rec is not None:
        m = ch.superop
        failures.extend(_verify_certificate(
            "eta", eta_rec, m @ m - m, ch.dim_in, slack))

    if "carrier_dim" in report and report["carrier_dim"] is not None:
        if int(report["carrier_dim"]) != int(chn.carrier(ch).shape[1]):
            failures.append("recorded carrier dimension does not match")

    fact = report.get("factorization")
    if fact is not None:
        failures.extend(_verify_factorization(ch, fact, slack))
    return failures


def _verify_certificate(name: str, rec: dict, mp: np.ndarray, dim: int,
                        slack: float) -> list[str]:
    """Failures of the recorded cb-norm certificate ``rec`` of the map ``mp``."""
    try:
        witness = ser.certificate_witness_from_dict(rec)
        lower, upper = cbnorm.check_cb_witness(mp, dim, dim, witness)
    except (ser.ParseError, cbnorm.InvalidWitness) as exc:
        return [f"{name} witness: {exc}"]
    # the witness interval, which holds the norm, must lie inside the recorded
    # one and meet the gap target unless recorded stalled
    interval = f"recorded {name} interval [{rec['lower']:.3e}, {rec['upper']:.3e}]"
    failures = []
    if not (rec["lower"] <= lower + slack and rec["upper"] >= upper - slack):
        failures.append(f"{interval} is not certified by its witness "
                        f"[{lower:.3e}, {upper:.3e}]")
    tol = witness.target_rel_gap * max(1.0, lower) + slack
    if not rec.get("stalled") and not upper - lower <= tol:
        failures.append(f"{name} witness gap {upper - lower:.3e} misses the target "
                        f"{witness.target_rel_gap:g}")
    return failures


def _verify_factorization(ch, fact: dict, slack: float) -> list[str]:
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
    for name, mp, flag in (
        ("delta", delta, "delta_cp"), ("upsilon", upsilon, "upsilon_cp"),
    ):
        if fact["ucp_flags"].get(flag) and not mp.is_cp():
            failures.append(f"{name} is recorded CP but fails the Choi test")
    for name, mp, flag in (
        ("delta", delta, "delta_unital"), ("upsilon", upsilon, "upsilon_unital"),
    ):
        if fact["ucp_flags"].get(flag) and not mp.is_unital():
            failures.append(f"{name} is recorded unital but is not")

    factor_map = delta.superop @ upsilon.superop - ch.superop
    failures.extend(_verify_certificate(
        "residual_factor", fact["residual_factor"], factor_map, ch.dim_in, slack))
    retract_map = upsilon.superop @ delta.superop - chn.pinch_superop(spec.block_dims)
    failures.extend(_verify_certificate(
        "residual_retract", fact["residual_retract"], retract_map, d_tot, slack))
    return failures


def strip_timings(report: dict) -> dict:
    """Deterministic view of a report: everything except wall-clock data."""
    out = {k: v for k, v in report.items() if k != "timings"}
    return out
