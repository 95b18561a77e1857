"""Unital completely positive maps: representations, structure, generators.

A map acts in the Heisenberg picture, Phi: B(C^dim_in) -> B(C^dim_out), and is
stored as its superoperator matrix M with ``vec(Phi(X)) = M vec(X)`` under
column-stacking vectorization.  The Choi matrix convention is fixed as

    J(Phi) = sum_ij E_ij (x) Phi(E_ij)          (input factor first),

so Phi is completely positive iff J(Phi) is positive semidefinite.  Kraus
operators satisfy ``Phi(X) = sum_a K_a^dag X K_a`` and the Stinespring isometry
``V: C^dim_out -> C^dim_in (x) C^env`` gives ``Phi(X) = V^dag (X (x) 1) V``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class NotIdempotent(ChannelError):
    pass


class NotClosed(ChannelError):
    pass


class DecompositionFailed(ChannelError):
    pass


class InvalidGamma(ChannelError):
    pass


# residual bound of the idempotency, closure, unit and block-transform checks
STRUCT_TOL = 1e-8


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
    env = len(kraus)
    v = np.zeros((dim_in * env, dim_out), dtype=complex)
    for a, k in enumerate(kraus):
        e_a = np.zeros((env, 1), dtype=complex)
        e_a[a, 0] = 1.0
        v += nl.kron(k, e_a)
    return v


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

    def idempotency_residual(self) -> float:
        if self.dim_in != self.dim_out:
            raise DimMismatch("idempotency needs equal input and output dims")
        return nl.operator_norm(self.superop @ self.superop - self.superop)

    def require_ucp(self):
        if not (self.is_cp() and self.is_unital()):
            raise NotUCP("map is not unital completely positive")


class DualChannel(Channel):
    """Trace-side (pre-dual) map; acts on density matrices."""


def dual(ch: Channel) -> DualChannel:
    """Adjoint with respect to the Hilbert-Schmidt pairing."""
    return DualChannel(ch.superop.conj().T, ch.dim_out, ch.dim_in)


def compose(a: Channel, b: Channel) -> Channel:
    """The composition a o b."""
    if b.dim_out != a.dim_in:
        raise DimMismatch(f"cannot compose: {b.dim_out} != {a.dim_in}")
    cls = DualChannel if isinstance(a, DualChannel) and isinstance(b, DualChannel) else Channel
    return cls(a.superop @ b.superop, b.dim_in, a.dim_out)


def tensor_extend(ch: Channel, n: int) -> Channel:
    return type(ch)(
        extend_superop(ch.superop, n, ch.dim_in, ch.dim_out),
        n * ch.dim_in, n * ch.dim_out,
    )


def identity_channel(dim: int) -> Channel:
    return Channel(np.eye(dim * dim, dtype=complex), dim, dim)


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
# numerical Artin-Wedderburn decomposition of a concrete *-algebra
# ---------------------------------------------------------------------------

def _orthonormalize_operators(ops: list[np.ndarray], rel_tol: float) -> list[np.ndarray]:
    if not ops:
        return []
    dim = ops[0].shape[0]
    stack = np.stack([nl.vec(o) for o in ops], axis=1)
    q = nl.column_space(stack, rel_tol)
    return [nl.unvec(q[:, i], dim, dim) for i in range(q.shape[1])]


def _span_projector(basis: list[np.ndarray]):
    """HS-orthogonal projection onto the span of an orthonormal operator basis."""
    stack = np.stack([nl.vec(b) for b in basis], axis=1)

    def project(x: np.ndarray) -> np.ndarray:
        v = nl.vec(x)
        return nl.unvec(stack @ (stack.conj().T @ v), x.shape[0], x.shape[1])

    return project


def _closure_residual(basis: list[np.ndarray]) -> float:
    project = _span_projector(basis)
    res = 0.0
    for a in basis:
        res = max(res, nl.operator_norm(project(a.conj().T) - a.conj().T))
        for b in basis:
            p = a @ b
            res = max(res, nl.operator_norm(project(p) - p))
    return res


def _commutant_basis(basis: list[np.ndarray], rel_tol: float) -> np.ndarray:
    """Orthonormal columns spanning {vec(X): [X, B_i] = 0 for all i}."""
    dim = basis[0].shape[0]
    eye = np.eye(dim)
    rows = [nl.kron(eye, b) - nl.kron(b.T, eye) for b in basis]
    system = np.concatenate(rows, axis=0)
    _, s, vh = np.linalg.svd(system)
    smax = s[0] if len(s) else 0.0
    null_dim = dim * dim - nl.rank_from_singular_values(s, rel_tol)
    return vh.conj().T[:, dim * dim - null_dim :]


def _subspace_intersection(qa: np.ndarray, qc: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of two orthonormal column spans."""
    if qa.shape[1] == 0 or qc.shape[1] == 0:
        return np.zeros((qa.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(qa.conj().T @ qc)
    count = int(np.sum(s >= 1 - 1e-7))
    return qa @ u[:, :count]


def _group_eigenvalues(w: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices of eigenvalue clusters, separated by gaps larger than ``gap``."""
    order = np.argsort(w)
    groups = [[order[0]]]
    for idx in order[1:]:
        if w[idx] - w[groups[-1][-1]] > gap:
            groups.append([idx])
        else:
            groups[-1].append(idx)
    return [np.array(g) for g in groups]


def decompose_star_algebra(
    basis: list[np.ndarray], seed: int = 0,
) -> tuple[tuple[int, ...], tuple[int, ...], list[np.ndarray]]:
    """Block-diagonalize a unital *-closed subalgebra A of B(C^m).

    Returns block dims d_j, multiplicities e_j, and coisometries W_j with
    ``W_j a W_j^dag = a_j (x) 1_{e_j}`` for every a in A, stacking to a unitary
    W: C^m -> direct sum of L_j (x) E_j.  Standard numerical Artin-Wedderburn:
    split along the spectrum of a random central element, then factor each
    central block along a random algebra element.
    """
    basis = _orthonormalize_operators([np.asarray(b, dtype=complex) for b in basis], 1e-10)
    if not basis:
        raise NotClosed("empty basis")
    m = basis[0].shape[0]
    closure = _closure_residual(basis)
    if closure > STRUCT_TOL:
        raise NotClosed(f"basis is not closed under products/adjoints: {closure:.2e}")
    project = _span_projector(basis)
    eye_res = nl.operator_norm(project(np.eye(m)) - np.eye(m))
    if eye_res > STRUCT_TOL:
        raise NotClosed(f"algebra is not unital: identity residual {eye_res:.2e}")

    qa = np.stack([nl.vec(b) for b in basis], axis=1)
    qc = _commutant_basis(basis, 1e-8)
    center = _subspace_intersection(qa, qc)
    n_blocks = center.shape[1]
    if n_blocks == 0:
        raise DecompositionFailed("numerical center is empty")
    center_ops = [nl.unvec(center[:, i], m, m) for i in range(n_blocks)]

    rng = np.random.default_rng(seed)
    # up to 12 draws of the random elements; the last one's failure propagates
    for _ in range(11):
        try:
            return _split_blocks(basis, center_ops, m, n_blocks, rng)
        except DecompositionFailed:
            pass
    return _split_blocks(basis, center_ops, m, n_blocks, rng)


def _split_blocks(basis, center_ops, m, n_blocks, rng):
    coeffs = rng.standard_normal(n_blocks) + 1j * rng.standard_normal(n_blocks)
    z = nl.hermitian_part(sum(c * op for c, op in zip(coeffs, center_ops)))
    wz, uz = np.linalg.eigh(z)
    spread = max(wz[-1] - wz[0], 1.0)
    groups = _group_eigenvalues(wz, 1e-6 * spread)
    if len(groups) != n_blocks:
        raise DecompositionFailed("central element has degenerate spectrum")

    blocks = []
    for g in groups:
        iso = uz[:, np.sort(g)]  # dim_c columns
        sub_basis = [iso.conj().T @ b @ iso for b in basis]
        blocks.append(_factor_block(sub_basis, iso, rng))

    # canonical order: by block dim desc, then multiplicity desc
    blocks.sort(key=lambda t: (-t[0], -t[1]))
    d_list = tuple(b[0] for b in blocks)
    e_list = tuple(b[1] for b in blocks)
    w_list = [b[2] for b in blocks]

    w_full = np.concatenate(w_list, axis=0)
    if nl.operator_norm(w_full.conj().T @ w_full - np.eye(m)) > STRUCT_TOL:
        raise DecompositionFailed("assembled block transform is not unitary")
    return d_list, e_list, w_list


def _factor_block(sub_basis, iso, rng):
    """Factor one central block H_c ~ L (x) E; returns (d, e, W_c)."""
    dim_c = sub_basis[0].shape[0]
    n = len(sub_basis)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = nl.hermitian_part(sum(c * b for c, b in zip(coeffs, sub_basis)))
    wh, uh = np.linalg.eigh(h)
    spread = max(wh[-1] - wh[0], 1e-3)
    groups = _group_eigenvalues(wh, 1e-6 * spread)
    sizes = {len(g) for g in groups}
    if len(sizes) != 1:
        raise DecompositionFailed("eigenvalue multiplicities inside a factor differ")
    e = sizes.pop()
    d = len(groups)
    if d * e != dim_c:
        raise DecompositionFailed("factor dims do not multiply up")

    eig_bases = [uh[:, np.sort(g)] for g in groups]
    g_el = sum(
        (rng.standard_normal() + 1j * rng.standard_normal()) * b for b in sub_basis
    )
    frame = [np.eye(e, dtype=complex)]
    for k in range(1, d):
        t = eig_bases[k].conj().T @ g_el @ eig_bases[0]
        s = np.linalg.svd(t, compute_uv=False)
        if s[-1] < 1e-8 * max(s[0], 1e-30) or s[-1] < 1e-12:
            raise DecompositionFailed("probe element does not connect eigenspaces")
        frame.append(nl.polar_unitary(t))

    rows = []
    for k in range(d):
        rows.append((eig_bases[k] @ frame[k]).conj().T)
    w_c = np.concatenate(rows, axis=0) @ iso.conj().T  # (d*e) x m

    # validate the A_j (x) 1 form on the block
    for b in sub_basis:
        conj = np.concatenate(rows, axis=0) @ b @ np.concatenate(rows, axis=0).conj().T
        conj4 = conj.reshape(d, e, d, e)
        a_part = np.trace(conj4, axis1=1, axis2=3) / e
        rebuilt = np.einsum("dk,ef->dekf", a_part, np.eye(e)).reshape(d * e, d * e)
        if nl.operator_norm(conj - rebuilt) > 1e-7:
            raise DecompositionFailed("conjugated element is not of the A (x) 1 form")
    return d, e, w_c


# ---------------------------------------------------------------------------
# structure of exactly idempotent UCP maps
# ---------------------------------------------------------------------------

@dataclass
class IdempotentStructure:
    """Carrier + block data (d_j, e_j, W_j, gamma_j) of an idempotent UCP map.

    ``fixed_basis`` is an HS-orthonormal basis of the fixed-point space
    A = Img Phi inside B(H); ``delta_coeffs`` expresses the abstract block
    algebra's matrix units in that basis.
    """

    dim: int
    carrier_basis: np.ndarray          # J_M : C^m -> C^dim, isometry
    block_dims: tuple[int, ...]        # d_j
    multiplicity_dims: tuple[int, ...] # e_j
    w_blocks: list[np.ndarray]         # W_j : C^m -> C^{d_j e_j} (as (d_j e_j) x m)
    gammas: list[np.ndarray]           # density matrix on each E_j
    fixed_basis: list[np.ndarray] = field(default_factory=list)
    sigma_superop: np.ndarray | None = None  # out-of-carrier part of Delta
    reconstruction_residual: float = 0.0
    hom_residual: float = 0.0

    @property
    def carrier_dim(self) -> int:
        return self.carrier_basis.shape[1]

    @property
    def block_rep_dim(self) -> int:
        """Dimension of the block-diagonal concrete representation of A."""
        return int(sum(self.block_dims))

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for d in self.block_dims:
            out.append(slice(start, start + d))
            start += d
        return out

    def w_of(self, blocks: list[np.ndarray]) -> np.ndarray:
        """The carrier representation w(A) = sum_j W_j^dag (A_j (x) 1) W_j."""
        m = self.carrier_dim
        out = np.zeros((m, m), dtype=complex)
        for a_j, e_j, w_j in zip(blocks, self.multiplicity_dims, self.w_blocks):
            out += w_j.conj().T @ nl.kron(a_j, np.eye(e_j)) @ w_j
        return out

    def blocks_of_block_diag(self, x: np.ndarray) -> list[np.ndarray]:
        return [x[s, s] for s in self.block_slices()]

    def block_diag_of(self, blocks: list[np.ndarray]) -> np.ndarray:
        d = self.block_rep_dim
        out = np.zeros((d, d), dtype=complex)
        for a_j, s in zip(blocks, self.block_slices()):
            out[s, s] = a_j
        return out


def idempotent_structure(ch: Channel, seed: int = 0) -> IdempotentStructure:
    """Recover the full structure theorem data of an exactly idempotent UCP map.

    Returns the carrier, the block decomposition (d_j, e_j, W_j) of the
    fixed-point algebra represented on the carrier, and the conditional
    expectation states gamma_j.
    """
    ch.require_ucp()
    if ch.dim_in != ch.dim_out:
        raise DimMismatch("idempotent structure needs an endomorphism")
    if ch.idempotency_residual() > STRUCT_TOL:
        raise NotIdempotent(
            f"superoperator idempotency residual {ch.idempotency_residual():.2e} "
            f"exceeds {STRUCT_TOL:.2e}"
        )
    dim = ch.dim_in
    j_m = carrier(ch)
    m = j_m.shape[1]

    # fixed-point space A = Img Phi, as an HS-orthonormal Hermitian-closed basis
    cols = nl.column_space(ch.superop)
    herm = nl.real_basis(cols, nl.transpose_permutation(dim))
    if herm.shape[1] != cols.shape[1]:
        raise DecompositionFailed(
            f"Hermitian closure changed the fixed-space dimension: "
            f"{cols.shape[1]} -> {herm.shape[1]}"
        )
    fixed_basis = list(herm.T.reshape(-1, dim, dim).transpose(0, 2, 1))

    w_basis = [j_m.conj().T @ b @ j_m for b in fixed_basis]
    d_list, e_list, w_blocks = decompose_star_algebra(w_basis, seed=seed)

    gammas = []
    for jdx, (d_j, e_j) in enumerate(zip(d_list, e_list)):
        w_j = w_blocks[jdx]
        gamma = np.zeros((e_j, e_j), dtype=complex)
        e11 = np.zeros((d_j, d_j), dtype=complex)
        e11[0, 0] = 1.0
        for b in _hermitian_basis(e_j):
            probe = w_j.conj().T @ nl.kron(e11, b) @ w_j
            lifted = j_m @ probe @ j_m.conj().T
            img = j_m.conj().T @ ch(lifted) @ j_m
            # Gamma_j(probe) = E11 * Tr(B gamma_j); read the scalar off
            gamma += b * _corner_scalar(w_j, img, d_j, e_j)
        gamma = nl.hermitian_part(gamma)
        tr = np.trace(gamma).real
        if tr <= 0 or np.linalg.eigvalsh(gamma)[0] < -1e-7 or abs(tr - 1) > 1e-6:
            raise InvalidGamma(
                f"extracted gamma_{jdx} is not a density matrix (trace {tr:.6f})"
            )
        gammas.append(gamma / tr)

    struct = IdempotentStructure(
        dim=dim,
        carrier_basis=j_m,
        block_dims=d_list,
        multiplicity_dims=e_list,
        w_blocks=w_blocks,
        gammas=gammas,
        fixed_basis=fixed_basis,
    )
    struct.sigma_superop = _sigma_superop(struct)
    struct.hom_residual = _hom_residual(struct)
    struct.reconstruction_residual = _reconstruction_residual(ch, struct)
    if struct.reconstruction_residual > 1e-6:
        raise DecompositionFailed(
            f"reconstruction residual {struct.reconstruction_residual:.2e} too large"
        )
    return struct


def _sigma_superop(struct: IdempotentStructure) -> np.ndarray | None:
    """Out-of-carrier component of Delta: Sigma(A) = J_perp^dag Delta(A) J_perp."""
    perp = _orthogonal_complement(struct.carrier_basis)
    n_perp = perp.shape[1]
    if n_perp == 0:
        return None
    coeffs = _delta_map(struct)
    basis_stack = np.stack([nl.vec(b) for b in struct.fixed_basis], axis=1)
    d_tot = struct.block_rep_dim
    out = np.zeros((n_perp * n_perp, d_tot * d_tot), dtype=complex)
    for idx in range(d_tot * d_tot):
        ambient = nl.unvec(basis_stack @ coeffs[:, idx], struct.dim, struct.dim)
        out[:, idx] = nl.vec(perp.conj().T @ ambient @ perp)
    return out


def _corner_scalar(w_j, img, d_j, e_j) -> float:
    """Tr(B gamma_j) from the (L-corner) component of a conditional expectation."""
    conj = w_j @ img @ w_j.conj().T
    a_part = nl.partial_trace(conj, (d_j, e_j), keep=0) / e_j
    return a_part[0, 0]


_hermitian_basis = nl.hermitian_basis


def _hom_residual(struct: IdempotentStructure) -> float:
    """Multiplicativity residual of w on the recovered blocks."""
    rng = np.random.default_rng(1)
    res = 0.0
    for _ in range(8):
        a_blocks = [nl.random_hermitian(d, rng) for d in struct.block_dims]
        b_blocks = [nl.random_hermitian(d, rng) for d in struct.block_dims]
        wa = struct.w_of(a_blocks)
        wb = struct.w_of(b_blocks)
        wab = struct.w_of([x @ y for x, y in zip(a_blocks, b_blocks)])
        denom = max(nl.operator_norm(wa) * nl.operator_norm(wb), 1e-12)
        res = max(res, nl.operator_norm(wa @ wb - wab) / denom)
    return res


def _delta_map(struct: IdempotentStructure) -> np.ndarray:
    """Coefficients expressing Delta(matrix unit) in the fixed basis.

    Delta embeds the abstract block algebra into the fixed-point space: it is
    the inverse of A -> w(A) restricted to the fixed basis.
    """
    m = struct.carrier_dim
    j_m = struct.carrier_basis
    w_cols = np.stack(
        [nl.vec(j_m.conj().T @ b @ j_m) for b in struct.fixed_basis], axis=1
    )
    d_tot = struct.block_rep_dim
    targets = []
    for idx in range(d_tot * d_tot):
        x = nl.unvec(np.eye(d_tot * d_tot, dtype=complex)[:, idx], d_tot, d_tot)
        blocks = struct.blocks_of_block_diag(x)
        targets.append(nl.vec(struct.w_of(blocks)))
    target = np.stack(targets, axis=1)
    coeffs, *_ = np.linalg.lstsq(w_cols, target, rcond=None)
    return coeffs  # shape (N, d_tot^2)


def make_enc_dec(struct: IdempotentStructure) -> tuple[DualChannel, DualChannel]:
    """Encoding/decoding channel pair reproducing the idempotent channel.

    ``Enc`` prepares the physical state carrying a block state rho = (rho_j),
    using gamma_j on the auxiliary factors.  ``Dec`` reads the block state
    back; weight outside the carrier is routed through a map S.  When the
    structure was recovered from a channel, S is the dual of its extracted
    out-of-carrier map so that Enc o Dec reproduces the channel; for fresh
    structures it is a constant channel into a fixed state of block 1.
    """
    for g in struct.gammas:
        w = np.linalg.eigvalsh(nl.hermitian_part(g))
        if w[0] < -1e-9 or abs(np.trace(g).real - 1) > 1e-9:
            raise InvalidGamma("gamma_j is not a density matrix")
    dim, m = struct.dim, struct.carrier_dim
    d_tot = struct.block_rep_dim
    j_m = struct.carrier_basis
    perp = _orthogonal_complement(j_m)
    n_perp = perp.shape[1]

    enc_cols = np.zeros((dim * dim, d_tot * d_tot), dtype=complex)
    for idx in range(d_tot * d_tot):
        x = nl.unvec(np.eye(d_tot * d_tot, dtype=complex)[:, idx], d_tot, d_tot)
        acc = np.zeros((dim, dim), dtype=complex)
        for rho_j, gamma, e_j, w_j in zip(
            struct.blocks_of_block_diag(x), struct.gammas,
            struct.multiplicity_dims, struct.w_blocks,
        ):
            lift = w_j.conj().T @ nl.kron(rho_j, gamma) @ w_j
            acc += j_m @ lift @ j_m.conj().T
        enc_cols[:, idx] = nl.vec(acc)
    enc = DualChannel(enc_cols @ pinch_superop(tuple(struct.block_dims)), d_tot, dim)

    if n_perp > 0:
        if struct.sigma_superop is not None:
            s_map = DualChannel(struct.sigma_superop.conj().T, n_perp, d_tot)
        else:
            s_superop = np.zeros((d_tot * d_tot, n_perp * n_perp), dtype=complex)
            omega = np.zeros((d_tot, d_tot), dtype=complex)
            omega[0, 0] = 1.0  # fixed state in block 1
            s_superop += np.outer(
                nl.vec(omega), nl.vec(np.eye(n_perp, dtype=complex)).conj()
            )
            s_map = DualChannel(s_superop, n_perp, d_tot)
    dec_cols = np.zeros((d_tot * d_tot, dim * dim), dtype=complex)
    for idx in range(dim * dim):
        rho = nl.unvec(np.eye(dim * dim, dtype=complex)[:, idx], dim, dim)
        inside = j_m.conj().T @ rho @ j_m
        blocks = []
        for d_j, e_j, w_j in zip(struct.block_dims, struct.multiplicity_dims, struct.w_blocks):
            comp = nl.partial_trace(w_j @ inside @ w_j.conj().T, (d_j, e_j), keep=0)
            blocks.append(comp)
        out = struct.block_diag_of(blocks)
        if n_perp > 0:
            out = out + s_map(perp.conj().T @ rho @ perp)
        dec_cols[:, idx] = nl.vec(out)
    dec = DualChannel(dec_cols, dim, d_tot)
    return enc, dec


def _orthogonal_complement(iso: np.ndarray) -> np.ndarray:
    dim, m = iso.shape
    proj = np.eye(dim) - iso @ iso.conj().T
    # proj is a projector: singular values sit near 0 or 1
    u, s, _ = np.linalg.svd(proj)
    rank = int(np.sum(s > 0.5))
    return u[:, :rank]


def _reconstruction_residual(ch: Channel, struct: IdempotentStructure) -> float:
    enc, dec = make_enc_dec(struct)
    rebuilt = compose(enc, dec)  # = Phi^* on the trace side
    return nl.operator_norm(rebuilt.superop - ch.superop.conj().T)


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
