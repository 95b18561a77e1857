"""Test oracle of the exact (eta = 0) structure theorem, and the probes and
helpers that only tests use.

``idempotent_structure`` recovers the structure theorem data of an exactly
idempotent UCP map: the carrier, the numerical Artin-Wedderburn
decomposition (d_j, e_j, W_j) of its fixed-point algebra
(``decompose_star_algebra``) and the conditional expectation states gamma_j;
``make_enc_dec`` builds the encoding/decoding channel pair that reproduces
the map.  None of it shares code with the reconstruction of
``almostidem.reconstruction``, which reaches the same block structure from
the approximate algebra; the acceptance criteria compare the two.

``choi_residual_check`` and ``phi_associativity_defect`` probe the paper's
laws on the map itself; ``diagonal_residuals`` checks the block design of
``almostidem.reconstruction.pauli_diagonal``, and ``shift_clock_terms`` is
the reference design of the same element, built from the per-block
shift/clock unitaries; ``hs_inner`` is the Hilbert-Schmidt inner product.
``matrix_algebra`` (B(C^k) as an exact algebra object), ``coords`` (the
coordinates of an element of an algebra), ``symmetrized`` (the involution
average of a map) and ``polar_unitary`` are fixtures and helpers of the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from almostidem import numlin as nl
from almostidem.channels import Channel, ChannelError, carrier, pinch_superop
from almostidem.numlin import DimMismatch
from almostidem.reconstruction import AlmostHom
from almostidem.starcalc import EpsilonAlgebra


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
# maps and random elements
# ---------------------------------------------------------------------------

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


def identity_channel(dim: int) -> Channel:
    return Channel(np.eye(dim * dim, dtype=complex), dim, dim)


def idempotency_residual(ch: Channel) -> float:
    if ch.dim_in != ch.dim_out:
        raise DimMismatch("idempotency needs equal input and output dims")
    return nl.operator_norm(ch.superop @ ch.superop - ch.superop)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a† b), conjugate linear in ``a``."""
    return complex(np.sum(np.conj(a) * b))


def polar_unitary(t: np.ndarray) -> np.ndarray:
    """Unitary factor U V^dag of the polar decomposition of t = U S V^dag."""
    u, _, vh = np.linalg.svd(t)
    return u @ vh


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return nl.hermitian_part(g) / np.sqrt(2)


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
        frame.append(polar_unitary(t))

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
    if idempotency_residual(ch) > STRUCT_TOL:
        raise NotIdempotent(
            f"superoperator idempotency residual {idempotency_residual(ch):.2e} "
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
        for b in nl.hermitian_basis(e_j):
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


def _hom_residual(struct: IdempotentStructure) -> float:
    """Multiplicativity residual of w on the recovered blocks."""
    rng = np.random.default_rng(1)
    res = 0.0
    for _ in range(8):
        a_blocks = [random_hermitian(d, rng) for d in struct.block_dims]
        b_blocks = [random_hermitian(d, rng) for d in struct.block_dims]
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
# probes of the paper's laws on the map itself
# ---------------------------------------------------------------------------

def choi_residual_check(ch: Channel, samples: int = 40) -> float:
    """Max over probes of ||(1 - V V^dag)(Phi(X) (x) 1_F) V|| / ||X||.

    Measures how far image operators are from commuting with the dilation
    projector; scales like the square root of the idempotency defect.
    """
    v, env = ch.stinespring
    dim = ch.dim_in
    proj = np.eye(v.shape[0]) - v @ v.conj().T
    rng = np.random.default_rng(0)
    worst = 0.0
    probes = [random_hermitian(dim, rng) for _ in range(samples)]
    probes += [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
               for _ in range(samples // 2)]
    for x in probes:
        val = nl.operator_norm(proj @ nl.kron(ch(x), np.eye(env)) @ v)
        worst = max(worst, val / nl.operator_norm(x))
    return worst


def phi_associativity_defect(
    ch: Channel, samples: int = 30, seed: int = 0
) -> tuple[float, float]:
    """Normalized residuals of the two nested-product identities of the map.

    Returns the left- and right-nested maxima of
    ||Phi(Phi(Phi(X)Phi(Y))Phi(Z)) - Phi(Phi(X)Phi(Y)Phi(Z))|| / (product of norms)
    over random probes.
    """
    rng = np.random.default_rng(seed)
    dim = ch.dim_in
    worst_l = worst_r = 0.0
    for _ in range(samples):
        x, y, z = (random_hermitian(dim, rng) for _ in range(3))
        px, py, pz = ch(x), ch(y), ch(z)
        denom = nl.operator_norm(x) * nl.operator_norm(y) * nl.operator_norm(z)
        base = ch(px @ py @ pz)
        left = ch(ch(px @ py) @ pz)
        right = ch(px @ ch(py @ pz))
        worst_l = max(worst_l, nl.operator_norm(left - base) / denom)
        worst_r = max(worst_r, nl.operator_norm(right - base) / denom)
    return worst_l, worst_r


# ---------------------------------------------------------------------------
# block algebras and their design
# ---------------------------------------------------------------------------

def unit_matrix(spec, l: int, j: int, k: int) -> np.ndarray:
    """The matrix unit E_jk of block ``l`` of a ``BlockSpec``."""
    m = np.zeros((spec.rep_dim, spec.rep_dim), dtype=complex)
    s = spec.slices()[l]
    m[s.start + j, s.start + k] = 1.0
    return m


def random_element(spec, rng: np.random.Generator) -> np.ndarray:
    return spec.random_elements(rng, 1)[0]


def shift_clock_design(d: int) -> list[tuple[float, np.ndarray]]:
    """The d^2 shift/clock unitaries U_(j,k)[(m + j) % d, m] = omega^(k m),
    omega = exp(2 pi i / d), each with weight 1/d^2: a unitary 1-design of
    M_d, built one entry at a time."""
    omega = np.exp(2j * np.pi / d)
    out = []
    for j in range(d):
        for k in range(d):
            u = np.zeros((d, d), dtype=complex)
            for m in range(d):
                u[(m + j) % d, m] = omega ** (k * m)
            out.append((1.0 / (d * d), u))
    return out


def shift_clock_terms(spec) -> list[tuple[float, np.ndarray]]:
    """The direct sum of the per-block shift/clock designs of a ``BlockSpec``:
    block after block, each unitary of :func:`shift_clock_design` embedded in
    its block (zero elsewhere), sum_l d_l^2 terms.  Its element
    sum_s p_s U_s^dag (x) U_s is sum_l (1/d_l) SWAP_l, that of
    ``pauli_diagonal``, from a different design."""
    terms = []
    for s, d in zip(spec.slices(), spec.block_dims):
        for p, u in shift_clock_design(d):
            emb = np.zeros((spec.rep_dim, spec.rep_dim), dtype=complex)
            emb[s, s] = u
            terms.append((p, emb))
    return terms


def design_element(terms) -> np.ndarray:
    """sum_s p_s U_s^dag (x) U_s of a list of design terms (p_s, U_s)."""
    return sum(p * nl.kron(u.conj().T, u) for p, u in terms)


def diagonal_residuals(diag, probes: int = 0) -> dict[str, float]:
    """||sum_s p_s U_s^dag U_s - I|| and the commutation residual of the
    design element of a ``Diagonal`` with every matrix unit, and with
    ``probes`` random block elements."""
    spec = diag.spec
    pi_mat = sum(p * (u.conj().T @ u) for p, u in diag.terms)
    pi_err = nl.operator_norm(pi_mat - np.eye(spec.rep_dim))
    comm_err = 0.0
    probes_list = [unit_matrix(spec, l, j, k) for (l, j, k) in spec.unit_indices()]
    if probes:
        rng = np.random.default_rng(0)
        probes_list += [random_element(spec, rng) for _ in range(probes)]
    for x in probes_list:
        lhs = sum(p * nl.kron(x @ u.conj().T, u) for p, u in diag.terms)
        rhs = sum(p * nl.kron(u.conj().T, u @ x) for p, u in diag.terms)
        comm_err = max(comm_err, nl.operator_norm(lhs - rhs))
    return {"pi": pi_err, "commutation": comm_err}


# ---------------------------------------------------------------------------
# algebra objects and maps
# ---------------------------------------------------------------------------

def matrix_algebra(k: int) -> EpsilonAlgebra:
    """B(C^k) as an exact algebra object over its Hermitian basis: a fresh
    object per call, over the read-only arrays built once per k."""
    return EpsilonAlgebra(k, *_matrix_algebra_data(k))


@functools.lru_cache(maxsize=None)
def _matrix_algebra_data(k: int) -> tuple[np.ndarray, ...]:
    """(basis stack, unit coordinates, product tensor, coordinate map) of
    B(C^k), read-only; Phi~ is the identity, so the coordinate map is the
    basis adjoint, rows vec(B_i)^dag with vec column-stacking."""
    stack = np.stack(nl.hermitian_basis(k))
    n = len(stack)
    conj_rows = stack.reshape(n, k * k).conj().T
    tensor = (stack[:, None] @ stack[None, :]).reshape(n, n, k * k) @ conj_rows
    unit = np.real(np.eye(k, dtype=complex).reshape(k * k) @ conj_rows)
    coord_map = stack.conj().transpose(0, 2, 1).reshape(n, k * k)
    for arr in (stack, unit, tensor, coord_map):
        arr.setflags(write=False)
    return stack, unit, tensor, coord_map


def coords(alg: EpsilonAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates Tr(B_i^dag X) of an element, or of a stack (..., d, d)."""
    x = np.asarray(x)
    d = alg.ambient_dim
    return x.reshape(*x.shape[:-2], d * d) @ alg.basis.reshape(alg.dim, d * d).conj().T


def symmetrized(v: AlmostHom) -> AlmostHom:
    """The map (v + v^#) / 2 with v^#(X) = v(X^dag)^dag, which keeps the
    involution symmetry v(X^dag) = v(X)^dag."""
    perm = nl.transpose_permutation(v.spec.rep_dim)
    return AlmostHom(v.spec, 0.5 * (v.coeffs + np.conj(v.coeffs[:, perm])))
