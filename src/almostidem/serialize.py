"""JSON formats: channels and reports.

Channels are Choi matrices (input factor first) under the versioned tag
``aiq-channel/2``, whose ``choi`` is ``{"dtype": "<c16", "shape": [r, c],
"b64": ...}``: the base64 of the little-endian complex128 entries in row-major
order, exact bit for bit.  ``aiq-channel/1`` files, whose ``choi`` is
row-major nested arrays of ``[re, im]`` pairs, still read.  Matrices inside a
report are nested ``[re, im]`` arrays.  A report's input digest is the sha256
of the canonical JSON of its channel's ``choi`` node, whichever encoding the
node has.  File writes are atomic (write to a sibling temp file, then
rename).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile

import numpy as np

FORMAT_CHANNEL = "aiq-channel/2"
FORMAT_CHANNEL_LISTS = "aiq-channel/1"  # read only: the Choi as nested lists
MATRIX_DTYPE = "<c16"
FORMAT_REPORT = "aiq-report/1"


class ParseError(Exception):
    pass


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def matrix_to_b64(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=MATRIX_DTYPE)
    return {"dtype": MATRIX_DTYPE, "shape": list(m.shape),
            "b64": base64.b64encode(m.tobytes()).decode("ascii")}


def _matrix_from_b64(data: dict) -> np.ndarray:
    if sorted(data) != ["b64", "dtype", "shape"]:
        raise ParseError(f"malformed matrix: keys {sorted(data)}, "
                         "expected b64, dtype and shape")
    if data["dtype"] != MATRIX_DTYPE:
        raise ParseError(f"malformed matrix: dtype {data['dtype']!r}, expected {MATRIX_DTYPE!r}")
    shape = data["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(k) is int and k > 0 for k in shape)):
        raise ParseError(f"malformed matrix: shape {shape!r}, expected two positive ints")
    try:
        raw = base64.b64decode(data["b64"], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ParseError(f"malformed matrix: invalid base64: {exc}") from exc
    expected = shape[0] * shape[1] * 16
    if len(raw) != expected:
        raise ParseError(f"malformed matrix: {len(raw)} bytes, "
                         f"expected {expected} for shape {shape}")
    m = np.frombuffer(raw, dtype=MATRIX_DTYPE).reshape(shape).astype(complex)
    if not np.all(np.isfinite(m)):
        raise ParseError("malformed matrix: non-finite entry")
    return m


def matrix_from_json(data) -> np.ndarray:
    """A matrix from its base64 node (:func:`matrix_to_b64`) or from nested
    ``[re, im]`` lists (:func:`matrix_to_json`)."""
    if isinstance(data, dict):
        return _matrix_from_b64(data)
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError(f"malformed matrix: array of shape {arr.shape}, "
                         "expected rows of [re, im] pairs")
    if not np.all(np.isfinite(arr)):  # also a null entry, which reads as NaN
        raise ParseError("malformed matrix: non-finite entry")
    # a view of the [re, im] pairs as complex keeps every bit, -0.0 included
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def channel_to_dict(ch, meta: dict | None = None) -> dict:
    from .channels import Channel  # local import to avoid cycles

    if not isinstance(ch, Channel):
        raise ParseError("expected a Channel")
    return {
        "format": FORMAT_CHANNEL,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "choi": matrix_to_b64(ch.choi),
        "meta": dict(meta or {}),
    }


def channel_from_dict(data: dict):
    from .channels import Channel

    if not isinstance(data, dict) or data.get("format") not in (FORMAT_CHANNEL,
                                                                FORMAT_CHANNEL_LISTS):
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


def defect_report_to_dict(rep) -> dict:
    """The defects as brackets: {lower, upper, method} where an upper bound
    is certified from ``distance_cb``, {lower, method} where only the basis
    sweep's lower bound is known.  No bracket carries the ``path``,
    ``stalled``, ``gap`` or ``iterations`` of a norm certificate."""
    def bracket(lower, upper):
        return {"lower": lower, "upper": upper, "method": "distance_cb"}

    return {
        "eps_submult": bracket(rep.eps_submult, rep.submult_upper),
        "eps_cstar": bracket(rep.eps_cstar, rep.cstar_upper),
        "eps_assoc": {"lower": rep.eps_assoc, "method": "basis_sweep"},
        "eps_unit": {"lower": rep.eps_unit, "method": "basis_sweep"},
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


def witness_to_dict(w) -> dict:
    upper = {"kind": w.upper_kind}
    if w.upper is not None:
        upper["rho"] = matrix_to_json(w.upper)
    return {
        "lower": {"rho": matrix_to_json(w.lower)},
        "upper": upper,
        "target_rel_gap": w.target_rel_gap,
    }


def certificate_witness_from_dict(data: dict):
    """The :class:`~almostidem.cbnorm.Witness` of a certificate dict.  Raises
    :class:`ParseError` when it records none or a malformed one.  Only the
    ``rho`` of each point is read, so an earlier report, which records a
    second copy of each rho beside it, reads the same."""
    from .cbnorm import _UPPER_KINDS, Witness

    if "witness" not in data:
        raise ParseError("certificate records no witness")
    w = data["witness"]
    try:
        lower = matrix_from_json(w["lower"]["rho"])
        kind = w["upper"]["kind"]
        if kind not in _UPPER_KINDS:
            raise ParseError(f"unknown upper witness kind {kind!r}")
        upper = matrix_from_json(w["upper"]["rho"]) if kind == "point" else None
        target = float(w["target_rel_gap"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed witness: {exc!r}") from exc
    return Witness(lower, kind, upper, target)


def canonical_dumps(obj) -> str:
    # reports and digests are trees built on the spot: no cycle to check for
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def atomic_write_json(path: str, obj) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # one dumps call runs the C encoder; json.dump never does, and a
            # report is a tree built on the spot, with no cycle to check for
            handle.write(json.dumps(obj, sort_keys=True, check_circular=False) + "\n")
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
