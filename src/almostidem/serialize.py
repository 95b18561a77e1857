"""JSON formats: channels, algebras, reports.

Conventions: complex numbers serialize as [re, im] pairs, matrices as
row-major nested arrays of those pairs, channels as Choi matrices (input
factor first) under the versioned tag ``aiq-channel/1``.  File writes are
atomic (write to a sibling temp file, then rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

FORMAT_CHANNEL = "aiq-channel/1"
FORMAT_ALGEBRA = "aiq-algebra/1"
FORMAT_REPORT = "aiq-report/1"


class ParseError(Exception):
    pass


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"malformed matrix: array of shape {arr.shape}, "
                         "expected rows of [re, im] pairs")
    if not np.all(np.isfinite(arr)):  # also a null entry, which reads as NaN
        raise ParseError("malformed matrix: non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def tensor3_to_json(t: np.ndarray) -> list:
    return [matrix_to_json(t[i]) for i in range(t.shape[0])]


def tensor3_from_json(data) -> np.ndarray:
    mats = [matrix_from_json(d) for d in data]
    return np.stack(mats)


def channel_to_dict(ch, meta: dict | None = None) -> dict:
    from .channels import Channel  # local import to avoid cycles

    if not isinstance(ch, Channel):
        raise ParseError("expected a Channel")
    return {
        "format": FORMAT_CHANNEL,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "choi": matrix_to_json(ch.choi),
        "meta": dict(meta or {}),
    }


def channel_from_dict(data: dict):
    from .channels import Channel

    if not isinstance(data, dict) or data.get("format") != FORMAT_CHANNEL:
        raise ParseError(
            f"not a channel file (format tag {data.get('format')!r})"
            if isinstance(data, dict)
            else "not a channel file"
        )
    try:
        dim_in = int(data["dim_in"])
        dim_out = int(data["dim_out"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing dims: {exc}") from exc
    choi = matrix_from_json(data["choi"])
    if choi.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ParseError(
            f"Choi shape {choi.shape} inconsistent with dims ({dim_in}, {dim_out})"
        )
    return Channel.from_choi(choi, dim_in, dim_out)


def algebra_to_dict(alg) -> dict:
    from .starcalc import EpsilonAlgebra

    if not isinstance(alg, EpsilonAlgebra):
        raise ParseError("expected an EpsilonAlgebra")
    out = {
        "format": FORMAT_ALGEBRA,
        "ambient_dim": alg.ambient_dim,
        "basis": [matrix_to_json(b) for b in alg.basis],
        "unit_coords": [complex_to_json(z) for z in np.asarray(alg.unit_coords, dtype=complex)],
        "star_tensor": tensor3_to_json(alg.star_tensor),
    }
    if alg.defects is not None:
        out["defects"] = defect_report_to_dict(alg.defects)
    return out


def algebra_from_dict(data: dict):
    from .starcalc import EpsilonAlgebra, DefectReport

    if data.get("format") != FORMAT_ALGEBRA:
        raise ParseError("not an algebra file")
    basis = [matrix_from_json(b) for b in data["basis"]]
    unit = np.array([p[0] + 1j * p[1] for p in data["unit_coords"]])
    tensor = tensor3_from_json(data["star_tensor"])
    alg = EpsilonAlgebra(int(data["ambient_dim"]), basis, np.real(unit), tensor)
    if "defects" in data:
        alg.defects = DefectReport(**data["defects"])
    return alg


def defect_report_to_dict(rep) -> dict:
    return {
        "eps_submult": rep.eps_submult,
        "eps_assoc": rep.eps_assoc,
        "eps_cstar": rep.eps_cstar,
        "eps_unit": rep.eps_unit,
        "sample_count": rep.sample_count,
        "method": rep.method,
    }


def certificate_to_dict(cert) -> dict:
    out = {
        "value": cert.value,
        "lower": cert.lower,
        "upper": cert.upper,
        "gap": cert.gap,
        "iterations": cert.iterations,
        "stalled": cert.stalled,
        "path": cert.path,
    }
    if cert.witness is not None:
        out["witness"] = witness_to_dict(cert.witness)
    return out


_WITNESS_POINTS = {"cheap": (), "point": ("rho", "sigma")}


def witness_to_dict(w) -> dict:
    rho, sigma = w.lower
    upper = {"kind": w.upper_kind}
    upper.update(zip(_WITNESS_POINTS[w.upper_kind], map(matrix_to_json, w.upper)))
    return {
        "lower": {"rho": matrix_to_json(rho), "sigma": matrix_to_json(sigma)},
        "upper": upper,
        "target_rel_gap": w.target_rel_gap,
    }


def certificate_witness_from_dict(data: dict):
    """The :class:`~almostidem.cbnorm.Witness` of a certificate dict.  Raises
    :class:`ParseError` when it records none or a malformed one."""
    from .cbnorm import Witness

    if "witness" not in data:
        raise ParseError("certificate records no witness")
    w = data["witness"]
    try:
        lower = (matrix_from_json(w["lower"]["rho"]), matrix_from_json(w["lower"]["sigma"]))
        kind = w["upper"]["kind"]
        if kind not in _WITNESS_POINTS:
            raise ParseError(f"unknown upper witness kind {kind!r}")
        upper = tuple(matrix_from_json(w["upper"][key]) for key in _WITNESS_POINTS[kind])
        target = float(w["target_rel_gap"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed witness: {exc!r}") from exc
    return Witness(lower, kind, upper, target)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def atomic_write_json(path: str, obj) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # one dumps call runs the C encoder; json.dump never does
            handle.write(json.dumps(obj, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
