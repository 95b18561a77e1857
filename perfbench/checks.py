"""Correctness gate for one channel's ``aiq factorize`` report and its replay.

Every check runs on every channel; a channel with any failed check counts as
failed.  The bounds are those of the acceptance suite: certified gaps within
the solver's relative target, residual uppers at most 1 for perturbed inputs
and at most 1e-8 for exact idempotents.
"""

from __future__ import annotations

GAP_REL = 1e-6
RESIDUAL_PERTURBED = 1.0
RESIDUAL_EXACT = 1e-8


def certificates(node, path: str = "report"):
    """Yield (path, dict) for every norm certificate nested in a report."""
    if isinstance(node, dict):
        if {"lower", "upper", "gap", "iterations"} <= node.keys():
            yield path, node
            return
        for key, value in node.items():
            yield from certificates(value, f"{path}.{key}")
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from certificates(value, f"{path}[{idx}]")


def check_channel(report, factorize_rc: int, verify_rc: int,
                  block_dims, perturbed: bool) -> list[str]:
    """Return the failed checks (empty when the channel passes)."""
    failures = []
    if factorize_rc != 0:
        failures.append(f"factorize exit code {factorize_rc}")
    if verify_rc != 0:
        failures.append(f"verify exit code {verify_rc}")
    fact = (report or {}).get("factorization")
    if fact is None:
        return failures + ["report has no factorization"]
    if sorted(fact["block_dims"]) != sorted(block_dims):
        failures.append(f"block_dims {fact['block_dims']} != generated {list(block_dims)}")
    flags = fact.get("ucp_flags") or {}
    if not flags or not all(flags.values()):
        failures.append(f"ucp_flags {flags}")
    for where, cert in certificates(report):
        if not cert["gap"] <= GAP_REL * max(1.0, cert["lower"]):
            failures.append(f"{where}: gap {cert['gap']:.3e} above target")
    bound = RESIDUAL_PERTURBED if perturbed else RESIDUAL_EXACT
    for key in ("residual_factor", "residual_retract"):
        if not fact[key]["upper"] <= bound:
            failures.append(f"{key} upper {fact[key]['upper']:.3e} > {bound:g}")
    return failures


def fail_ratio(records) -> float:
    """Share of channel records with at least one failed check."""
    return sum(1 for r in records if r["failures"]) / len(records)


def solver_path(report) -> list[dict]:
    """Norm solves recorded in a factorize report that reached the barrier."""
    stage = {
        "idempotent-envelope": "idempotentize",
        "ucp-repair": "twirl",
    }
    out = []
    for cp in report.get("checkpoints", []):
        who = stage.get(cp.get("stage"))
        for key in ("eta", "distance_cb", "distance_to_raw_cb"):
            cert = cp.get(key)
            if who and cert and cert["iterations"] > 0:
                out.append({"caller": who, "cert": key, "newton_steps": cert["iterations"]})
    fact = report.get("factorization", {})
    for key in ("residual_factor", "residual_retract"):
        cert = fact.get(key)
        if cert and cert["iterations"] > 0:
            out.append({"caller": "certify", "cert": key, "newton_steps": cert["iterations"]})
    return out
