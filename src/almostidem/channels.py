"""Unital completely positive maps: representations and generators.

A map acts in the Heisenberg picture, Phi: B(C^dim_in) -> B(C^dim_out), and is
stored as its superoperator matrix M with ``vec(Phi(X)) = M vec(X)`` under
column-stacking vectorization.  The Choi matrix convention is fixed as

    J(Phi) = sum_ij E_ij (x) Phi(E_ij)          (input factor first),

so Phi is completely positive iff J(Phi) is positive semidefinite.  Kraus
operators satisfy ``Phi(X) = sum_a K_a^dag X K_a`` and the Stinespring isometry
``V: C^dim_out -> C^dim_in (x) C^env`` gives ``Phi(X) = V^dag (X (x) 1) V``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import numlin as nl
from .numlin import DimMismatch, EQ_TOL, RANK_REL_TOL


class ChannelError(Exception):
    pass


class NotCP(ChannelError):
    pass


class NotUCP(ChannelError):
    pass


# ---------------------------------------------------------------------------
# representation conversions
# ---------------------------------------------------------------------------

def choi_from_superop(m: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Choi matrix (input factor first) of a superoperator matrix."""
    m4 = np.asarray(m, dtype=complex).reshape(dim_out, dim_out, dim_in, dim_in)
    # m4[l, k, j, i] = Phi(E_ij)[k, l]  ->  J[(i,k),(j,l)] = Phi(E_ij)[k, l]
    j4 = np.transpose(m4, (3, 1, 2, 0))
    return j4.reshape(dim_in * dim_out, dim_in * dim_out)


def superop_from_choi(j: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    j4 = np.asarray(j, dtype=complex).reshape(dim_in, dim_out, dim_in, dim_out)
    m4 = np.transpose(j4, (3, 1, 2, 0))
    return m4.reshape(dim_out * dim_out, dim_in * dim_in)


def kraus_from_choi(
    j: np.ndarray, dim_in: int, dim_out: int, rank_rel_tol: float = RANK_REL_TOL
) -> list[np.ndarray]:
    """Kraus operators from a PSD Choi matrix; count equals the Choi rank read
    at ``rank_rel_tol``."""
    j = np.asarray(j, dtype=complex)
    if not j.any():
        return []
    if not nl.is_hermitian(j, EQ_TOL):
        raise NotCP("Choi matrix is not Hermitian")
    w, v = np.linalg.eigh(nl.hermitian_part(j))
    # w[0] < -EQ_TOL ||J||, with ||J|| >= ||J||_F / sqrt(n): the norm is
    # taken only for an eigenvalue below the bound that this gives
    if (w[0] < -EQ_TOL * np.linalg.norm(j) / np.sqrt(len(j))
            and w[0] < -EQ_TOL * nl.operator_norm(j)):
        raise NotCP(f"Choi matrix has negative eigenvalue {w[0]:.3e}")
    kraus = []
    for a in range(len(w) - 1, -1, -1):
        if w[a] <= rank_rel_tol * w[-1]:
            break
        kraus.append(np.sqrt(w[a]) * np.conj(v[:, a]).reshape(dim_in, dim_out))
    return kraus


def superop_from_kraus(kraus: list[np.ndarray]) -> np.ndarray:
    return sum(nl.kron(k.T, k.conj().T) for k in kraus)


def stinespring_from_kraus(kraus: list[np.ndarray]) -> np.ndarray:
    """Isometry V with Phi(X) = V^dag (X (x) 1_env) V; env dim = len(kraus)."""
    dim_in, dim_out = kraus[0].shape
    # row (x, a) of V is row x of the Kraus operator K_a
    return np.stack(kraus, axis=1).reshape(dim_in * len(kraus), dim_out)


def apply_superop(m: np.ndarray, x: np.ndarray, dim_out: int | None = None) -> np.ndarray:
    """Apply a superoperator matrix to an operator."""
    y = m @ nl.vec(np.asarray(x, dtype=complex))
    if dim_out is None:
        dim_out = int(round(np.sqrt(m.shape[0])))
    return nl.unvec(y, dim_out, dim_out)


def extend_superop(m: np.ndarray, n: int, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of ``1_{M_n} (x) Phi`` on B(C^n (x) C^dim)."""
    m4 = np.asarray(m, dtype=complex).reshape(dim_out, dim_out, dim_in, dim_in)
    eye = np.eye(n)
    ext = np.einsum("lkji,bc,ad->blakcjdi", m4, eye, eye)
    big_out = n * dim_out
    big_in = n * dim_in
    return ext.reshape(big_out * big_out, big_in * big_in)


def pinch_superop(block_dims: tuple[int, ...]) -> np.ndarray:
    """Superoperator of the pinching X -> sum_j Pi_j X Pi_j for a block split."""
    d = int(sum(block_dims))
    m = np.zeros((d * d, d * d), dtype=complex)
    start = 0
    for b in block_dims:
        p = np.zeros((d, d))
        p[start : start + b, start : start + b] = np.eye(b)
        m += nl.kron(p.T, p)
        start += b
    return m


# ---------------------------------------------------------------------------
# the Channel type
# ---------------------------------------------------------------------------

class Channel:
    """A linear map on matrices with cached Choi/Kraus/Stinespring forms."""

    def __init__(self, superop: np.ndarray, dim_in: int, dim_out: int | None = None):
        superop = np.asarray(superop, dtype=complex)
        dim_out = dim_in if dim_out is None else dim_out
        if superop.shape != (dim_out * dim_out, dim_in * dim_in):
            raise DimMismatch(
                f"superop shape {superop.shape} does not match dims "
                f"({dim_out}^2, {dim_in}^2)"
            )
        self.superop = superop
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)

    @classmethod
    def from_choi(cls, j: np.ndarray, dim_in: int, dim_out: int | None = None) -> "Channel":
        dim_out = dim_in if dim_out is None else dim_out
        return cls(superop_from_choi(j, dim_in, dim_out), dim_in, dim_out)

    @classmethod
    def from_kraus(cls, kraus: list[np.ndarray]) -> "Channel":
        dim_in, dim_out = kraus[0].shape
        return cls(superop_from_kraus(kraus), dim_in, dim_out)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return apply_superop(self.superop, x, self.dim_out)

    @cached_property
    def choi(self) -> np.ndarray:
        return choi_from_superop(self.superop, self.dim_in, self.dim_out)

    @cached_property
    def kraus(self) -> list[np.ndarray]:
        return kraus_from_choi(self.choi, self.dim_in, self.dim_out)

    @cached_property
    def stinespring(self) -> tuple[np.ndarray, int]:
        """(V, env_dim) with Phi(X) = V^dag (X (x) 1_env) V."""
        kraus = self.kraus
        if not kraus:
            raise NotCP("zero map has no Stinespring representation")
        return stinespring_from_kraus(kraus), len(kraus)

    def is_cp(self) -> bool:
        j = self.choi
        if not nl.is_hermitian(j, EQ_TOL, 1.0):
            return False
        w = np.linalg.eigvalsh(nl.hermitian_part(j))
        # w[0] >= -EQ_TOL max(||J||, 1), which holds outright at w[0] >= -EQ_TOL
        return bool(w[0] >= -EQ_TOL or w[0] >= -EQ_TOL * max(nl.operator_norm(j), 1.0))

    def is_unital(self) -> bool:
        image = self(np.eye(self.dim_in))
        return nl.operator_norm(image - np.eye(self.dim_out)) <= EQ_TOL

    def is_trace_preserving(self) -> bool:
        # trace-preserving as a map of operators: Tr Phi(X) = Tr X
        lhs = self.superop.conj().T @ nl.vec(np.eye(self.dim_out, dtype=complex))
        rhs = nl.vec(np.eye(self.dim_in, dtype=complex))
        return nl.operator_norm(nl.unvec(lhs - rhs, self.dim_in, self.dim_in)) <= EQ_TOL

    def require_ucp(self):
        if not (self.is_cp() and self.is_unital()):
            raise NotUCP("map is not unital completely positive")


def tensor_extend(ch: Channel, n: int) -> Channel:
    return type(ch)(
        extend_superop(ch.superop, n, ch.dim_in, ch.dim_out),
        n * ch.dim_in, n * ch.dim_out,
    )


def carrier(ch: Channel) -> np.ndarray:
    """Isometry onto the carrier: the support of Phi^*(I/d).

    The carrier is the smallest subspace of the input space that determines
    the map; any full-rank state works, the maximally mixed one is canonical.
    """
    rho0 = np.eye(ch.dim_out, dtype=complex) / ch.dim_out
    rho1 = nl.unvec(ch.superop.conj().T @ nl.vec(rho0), ch.dim_in, ch.dim_in)
    dec = nl.herm_eig(nl.hermitian_part(rho1))
    rank = nl.rank_from_singular_values(dec.eigenvalues, RANK_REL_TOL)
    return dec.eigenvectors[:, :rank].copy()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_random_ucp(dim: int, kraus_rank: int, seed: int) -> Channel:
    """Random UCP map from a Haar isometry sliced into Kraus operators."""
    rng = np.random.default_rng(seed)
    iso = nl.random_isometry(dim * kraus_rank, dim, rng)
    # slices satisfy sum K_a^dag K_a = iso^dag iso = I, i.e. unitality
    kraus = [iso[a * dim : (a + 1) * dim, :] for a in range(kraus_rank)]
    return Channel.from_kraus(kraus)


def gen_pinching(block_dims: tuple[int, ...]) -> Channel:
    d = int(sum(block_dims))
    return Channel(pinch_superop(tuple(block_dims)), d, d)


def gen_random_idempotent(
    pairs: tuple[tuple[int, int], ...],
    dim: int,
    seed: int,
) -> Channel:
    """Random exactly idempotent UCP map with prescribed (d_j, e_j) pairs.

    The carrier has dimension m = sum d_j e_j <= dim; weight outside the
    carrier is sent to a random state on the abstract algebra.
    """
    rng = np.random.default_rng(seed)
    pairs = tuple((int(d), int(e)) for d, e in pairs)
    m = sum(d * e for d, e in pairs)
    if m > dim:
        raise DimMismatch(f"carrier dim {m} exceeds space dim {dim}")
    j_m = nl.random_isometry(dim, m, rng) if m < dim else nl.random_unitary(dim, rng)
    w_full = nl.random_unitary(m, rng)
    w_blocks, start = [], 0
    for d_j, e_j in pairs:
        w_blocks.append(w_full[start : start + d_j * e_j, :])
        start += d_j * e_j
    gammas = [nl.random_density(e, rng) for _, e in pairs]
    # state on the abstract algebra for the out-of-carrier part of Delta
    weights = rng.dirichlet(np.ones(len(pairs)))
    dim_h = dim

    def phi_apply(x: np.ndarray) -> np.ndarray:
        inside = j_m.conj().T @ x @ j_m
        blocks = []
        for (d_j, e_j), w_j, gamma in zip(pairs, w_blocks, gammas):
            conj = w_j @ inside @ w_j.conj().T
            blocks.append(
                nl.partial_trace(conj @ nl.kron(np.eye(d_j), gamma), (d_j, e_j), keep=0)
            )
        w_img = np.zeros((m, m), dtype=complex)
        for (d_j, e_j), w_j, a_j in zip(pairs, w_blocks, blocks):
            w_img += w_j.conj().T @ nl.kron(a_j, np.eye(e_j)) @ w_j
        out = j_m @ w_img @ j_m.conj().T
        scalar = sum(
            w * np.trace(a) / d for w, a, (d, _) in zip(weights, blocks, pairs)
        )
        out += scalar * (np.eye(dim_h) - j_m @ j_m.conj().T)
        return out

    cols = np.zeros((dim * dim, dim * dim), dtype=complex)
    eye = np.eye(dim * dim, dtype=complex)
    for idx in range(dim * dim):
        cols[:, idx] = nl.vec(phi_apply(nl.unvec(eye[:, idx], dim, dim)))
    return Channel(cols, dim, dim)


def gen_perturbed(ch: Channel, t: float, seed: int) -> Channel:
    """Convex mixture (1-t) Phi + t Psi with a random UCP Psi of Kraus rank 3."""
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if t == 0:
        return Channel(ch.superop.copy(), ch.dim_in, ch.dim_out)
    psi = gen_random_ucp(ch.dim_in, 3, seed)
    return Channel((1 - t) * ch.superop + t * psi.superop, ch.dim_in, ch.dim_out)
