"""Dense complex linear algebra kernel.

Conventions used throughout the package:

* matrices are dense complex ``numpy`` arrays in row-major layout;
* ``vec`` stacks the *columns* of a matrix, so ``vec(A X B) = (B.T kron A) vec(X)``;
* the tolerances shared by every module are the fixed constants below, so a
  report is replayed at the tolerances it was made with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumLinError(Exception):
    """Base class for numerical kernel failures."""


class NotHermitian(NumLinError):
    pass


class NotPositive(NumLinError):
    pass


class NoConvergence(NumLinError):
    pass


class SingularIterate(NumLinError):
    pass


class DimMismatch(NumLinError):
    pass


# residual bound of algebraic identities (Hermitian, CP, unital, ...)
EQ_TOL = 1e-9
# relative singular value threshold of rank decisions
RANK_REL_TOL = 1e-6
# iteration cap of the matrix sign Newton iteration
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def herm_eig(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected square matrix, got shape {m.shape}")
    if not is_hermitian(m, EQ_TOL, 1.0):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        w, u = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return SpectralDecomposition(w[order].copy(), u[:, order].copy())


def matrix_sqrt_inv_sqrt(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root and inverse square root of a positive definite matrix."""
    dec = herm_eig(m)
    if dec.eigenvalues[-1] <= EQ_TOL:
        raise NotPositive(
            f"matrix not positive definite: min eigenvalue {dec.eigenvalues[-1]:.3e}"
        )
    u = dec.eigenvectors
    sq = np.sqrt(dec.eigenvalues)
    return (u * sq) @ u.conj().T, (u / sq) @ u.conj().T


def matrix_sign(m: np.ndarray) -> np.ndarray:
    """Matrix sign function via the scaled Newton iteration.

    Converges quadratically whenever the spectrum stays off the imaginary
    axis; determinant scaling keeps early iterates well conditioned.
    """
    s = np.asarray(m, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimMismatch(f"expected square matrix, got shape {s.shape}")
    n = s.shape[0]
    ident = np.eye(n)
    prev_err = np.inf
    stalls = 0
    for _ in range(NEWTON_MAX_ITER):
        err = operator_norm(s @ s - ident)
        # the test err <= 1e-13 max(1, ||S||)^2, with ||S|| <= ||S||_F: the
        # norm is taken only when the bounds on either side cannot decide
        if err <= 1e-13 or (err <= 1e-13 * np.linalg.norm(s) ** 2
                            and err <= 1e-13 * max(1.0, operator_norm(s)) ** 2):
            return s
        if err >= prev_err:
            stalls += 1
            if stalls >= 3:
                # stalled at the floor set by roundoff
                if err <= EQ_TOL:
                    return s
                raise NoConvergence(
                    "matrix sign iteration stalled; spectrum is likely too "
                    "close to the imaginary axis"
                )
        else:
            stalls = 0
        prev_err = err
        try:
            s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError as exc:
            raise SingularIterate(str(exc)) from exc
        if not np.all(np.isfinite(s_inv)):
            raise SingularIterate("singular Newton iterate in matrix sign")
        # |det|^(-1/n), in log space to dodge overflow
        mu = float(np.exp(-np.linalg.slogdet(s)[1] / n)) if err > 0.1 else 1.0
        s = 0.5 * (mu * s + s_inv / mu)
    raise NoConvergence(
        "matrix sign iteration did not converge; spectrum is likely "
        "too close to the imaginary axis"
    )


def theta(m: np.ndarray) -> np.ndarray:
    """Spectral step function (I + sign(M))/2: the idempotent commuting with M
    that projects onto the right-half-plane spectrum."""
    s = matrix_sign(m)
    return 0.5 * (np.eye(s.shape[0]) + s)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(x.shape[0] * x.shape[1], order="F")


def transpose_permutation(dim: int) -> np.ndarray:
    """Index map with ``vec(X.T) == vec(X)[perm]`` for square ``X`` of size ``dim``."""
    return np.arange(dim * dim).reshape(dim, dim).T.ravel()


def unvec(v: np.ndarray, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; square by default."""
    v = np.asarray(v).ravel()
    if rows is None:
        rows = int(round(np.sqrt(v.size)))
    if cols is None:
        cols = v.size // rows
    if rows * cols != v.size:
        raise DimMismatch(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: int | tuple[int, ...]) -> np.ndarray:
    """Partial trace over the factors *not* listed in ``keep``.

    ``dims`` are the tensor factor dimensions of both row and column index,
    ``keep`` the factor positions that survive.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimMismatch(f"dims {dims} do not match matrix shape {m.shape}")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimMismatch(f"keep={keep} out of range for {len(dims)} factors")
    n = len(dims)
    t = m.reshape(dims + dims)
    # trace factors in descending position order so remaining axis numbers stay valid
    for pos in sorted(set(range(n)) - set(keep), reverse=True):
        n_act = t.ndim // 2
        t = np.trace(t, axis1=pos, axis2=pos + n_act)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


# lam_max(X^dag X) range in which ``eigvalsh`` of the Gram matrix as it is
# gives, bit for bit, the value of the Gram matrix scaled by a power of two:
# LAPACK rescales by a factor that is not a power of two a matrix whose
# largest entry leaves [2^-485, 2^485] (?syevd, ?heevd) and a tridiagonal
# block whose largest entry leaves [2^-405, 2^509] (dsterf), and a block
# holding lam_max has its largest entry in [lam_max / 3, lam_max]
GRAM_SAFE_RANGE = (2.0**-400, 2.0**400)


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (..., rows, cols).

    Each is sqrt(lam_max(X^dag X)), over the smaller side, from one stacked
    ``eigvalsh``: the absolute error of lam_max is about eps ||X||^2, so the
    norm is good to about eps relative.  A power-of-two scale commutes with
    every floating-point operation that neither underflows nor overflows, so
    while every lam_max lies in :data:`GRAM_SAFE_RANGE` the unscaled Gram
    matrices give the norms (an entry of X^dag X lost to underflow is below
    n 2^-1074 < 2^-600 lam_max).  Otherwise, as for a stack holding a zero
    matrix, every matrix of the stack is first scaled by the power of two
    that brings its largest real or imaginary part into [1/2, 1)
    (``frexp``/``ldexp``, exact), so that X^dag X neither overflows nor
    loses the matrix to underflow.  A non-finite matrix raises
    ``np.linalg.LinAlgError``, as the SVD does on NaN.
    """
    x = np.asarray(stack)
    if x.shape[-2] < x.shape[-1]:
        x = x.swapaxes(-1, -2)
    if x.size == 0:
        return np.zeros(x.shape[:-2])
    x = np.asarray(x, complex if x.dtype.kind == "c" else float)
    lo, hi = GRAM_SAFE_RANGE
    with np.errstate(all="ignore"):
        try:
            lam = np.linalg.eigvalsh(x.conj().swapaxes(-1, -2) @ x)[..., -1]
        except np.linalg.LinAlgError:
            lam = np.full(x.shape[:-2], np.nan)
        if lo <= lam.min() and lam.max() <= hi:
            return np.sqrt(lam)
    return _scaled_operator_norms(x)


def _scaled_operator_norms(x: np.ndarray) -> np.ndarray:
    """:func:`operator_norms` of a stack of tall matrices, each scaled first
    by the power of two that brings its largest real or imaginary part into
    [1/2, 1)."""
    cplx = x.dtype.kind == "c"
    parts = np.ascontiguousarray(x, complex).view(float) if cplx else x
    top = np.abs(parts).max(axis=(-2, -1))
    if not np.isfinite(top).all():
        raise np.linalg.LinAlgError("operator norm of a non-finite matrix")
    _, exp = np.frexp(top)
    with np.errstate(under="ignore"):
        scaled = np.ldexp(parts, -exp[..., None, None])
        if cplx:
            scaled = scaled.view(complex)
        lam = np.linalg.eigvalsh(scaled.conj().swapaxes(-1, -2) @ scaled)[..., -1]
        return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), exp)


def is_hermitian(m: np.ndarray, tol: float, floor: float = 0.0) -> bool:
    """Whether ||K|| <= tol * max(||M||, floor), K = M - M^dag (operator norms).

    ||X||_F / sqrt(n) <= ||X|| <= ||X||_F, so the Frobenius norms decide the
    test unless ||K||_F lies within sqrt(n) of the bound; only then are the
    two operator norms taken.
    """
    skew = m - m.conj().T
    skew_f, size_f, root_n = np.linalg.norm(skew), np.linalg.norm(m), np.sqrt(len(m))
    if skew_f * root_n <= tol * max(size_f, floor * root_n):
        return True
    if skew_f > tol * max(size_f, floor) * root_n:
        return False
    return operator_norm(skew) <= tol * max(operator_norm(m), floor)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def rank_from_singular_values(s: np.ndarray, rel_tol: float) -> int:
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def column_space(m: np.ndarray, rel_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Orthonormal basis of the column space at a relative rank threshold.

    The basis is the leading left singular vectors of a thin SVD, as many as
    there are singular values above ``rel_tol`` times the largest
    (:func:`rank_from_singular_values`).  It is deterministic for a fixed
    input.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :rank_from_singular_values(s, rel_tol)]


def real_basis(q: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the vectors fixed by J: v -> conj(v[perm]).

    ``q`` has orthonormal columns whose span is closed under J.  For vec'd
    operators ``perm`` is :func:`transpose_permutation` and the fixed vectors
    are the Hermitian matrices.  The fixed parts (q + Jq)/2 and -i(q - Jq)/2
    span the fixed real subspace; its basis is the leading left singular
    vectors of one real SVD of their coordinates [Re; Im], as many as
    :func:`rank_from_singular_values` reads at ``RANK_REL_TOL``.  On a
    J-closed span there are ``q.shape[1]`` of them, all with singular value 1;
    more or fewer means the span is not J-closed.
    """
    q = np.asarray(q, dtype=complex)
    jq = np.conj(q[perm])
    parts = np.concatenate([q + jq, -1j * (q - jq)], axis=1) / 2
    u, s, _ = np.linalg.svd(np.concatenate([parts.real, parts.imag]), full_matrices=False)
    u = u[:, :rank_from_singular_values(s, RANK_REL_TOL)]
    return u[:q.shape[0]] + 1j * u[q.shape[0]:]


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """HS-orthonormal Hermitian basis of B(C^dim): diagonal units first."""
    out = []
    for i in range(dim):
        b = np.zeros((dim, dim), dtype=complex)
        b[i, i] = 1.0
        out.append(b)
    for i in range(dim):
        for j in range(i + 1, dim):
            b = np.zeros((dim, dim), dtype=complex)
            b[i, j] = b[j, i] = 1 / np.sqrt(2)
            out.append(b)
            b = np.zeros((dim, dim), dtype=complex)
            b[i, j] = -1j / np.sqrt(2)
            b[j, i] = 1j / np.sqrt(2)
            out.append(b)
    return out


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if cols > rows:
        raise DimMismatch("isometry needs rows >= cols")
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
