"""Rebuilding a genuine block matrix algebra inside an approximate one.

The pipeline grows a commutative family of one-dimensional approximate
projections, sorts them into equivalence classes, rebuilds a full matrix
algebra per class by repeated corner extensions, and merges the classes.  At
every step a Newton-style improvement driven by a unitary one-design (the
"diagonal" of the block algebra) pushes the multiplicativity defect of the
current map down to the level set by the ambient algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numlin as nl
from . import projections as pj
from .starcalc import EpsilonAlgebra


class ReconstructionError(Exception):
    pass


class TermExplosion(ReconstructionError):
    pass


class Diverged(ReconstructionError):
    pass


class CrossTalk(ReconstructionError):
    pass


class ImproveFailed(ReconstructionError):
    pass


class StageFailed(ReconstructionError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class BlockSpec:
    """Isomorphism type of a finite-dimensional block matrix algebra."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if not self.block_dims or any(d <= 0 for d in self.block_dims):
            raise ValueError("block dims must be positive")

    @property
    def dim(self) -> int:
        """Number of matrix units, i.e. the dimension as a vector space."""
        return int(sum(d * d for d in self.block_dims))

    @property
    def rep_dim(self) -> int:
        """Size of the block-diagonal concrete representation."""
        return int(sum(self.block_dims))

    def slices(self) -> list[slice]:
        out, start = [], 0
        for d in self.block_dims:
            out.append(slice(start, start + d))
            start += d
        return out

    def unit_indices(self) -> list[tuple[int, int, int]]:
        """(block, row, col) triples enumerating the matrix units."""
        out = []
        for l, d in enumerate(self.block_dims):
            for j in range(d):
                for k in range(d):
                    out.append((l, j, k))
        return out

    def unit_columns(self) -> np.ndarray:
        """vec index of each matrix unit, in ``unit_indices`` order."""
        rep, starts = self.rep_dim, [s.start for s in self.slices()]
        return np.array(
            [(starts[l] + k) * rep + starts[l] + j for (l, j, k) in self.unit_indices()],
            dtype=int,
        )

    def unit_products(self) -> np.ndarray:
        """(U, U) table of the unit index of E_a E_b, or -1 where the product is 0."""
        idx = np.array(self.unit_indices())
        offsets = np.cumsum([0] + [d * d for d in self.block_dims])[idx[:, 0]]
        dims = np.array(self.block_dims)[idx[:, 0]]
        l, j, k = idx.T
        nonzero = (l[:, None] == l[None, :]) & (k[:, None] == j[None, :])
        return np.where(nonzero, (offsets + j * dims)[:, None] + k[None, :], -1)

    def unit_matrix(self, l: int, j: int, k: int) -> np.ndarray:
        m = np.zeros((self.rep_dim, self.rep_dim), dtype=complex)
        s = self.slices()[l]
        m[s.start + j, s.start + k] = 1.0
        return m

    def unit(self) -> np.ndarray:
        return np.eye(self.rep_dim, dtype=complex)

    def block_norm(self, x: np.ndarray) -> np.ndarray:
        """Norms of a stack of block-diagonal elements: max over the blocks."""
        return np.max(
            [np.linalg.svd(x[:, s, s], compute_uv=False)[:, 0] for s in self.slices()],
            axis=0,
        )

    def random_elements(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` random block-diagonal elements, shape (count, rep, rep).

        One draw gives the stream of element-by-element draws: per element,
        per block, the real and then the imaginary d x d part."""
        g = rng.standard_normal((count, 2 * self.dim))
        m = np.zeros((count, self.rep_dim, self.rep_dim), dtype=complex)
        off = 0
        for s in self.slices():
            d = s.stop - s.start
            part = g[:, off: off + 2 * d * d].reshape(count, 2, d, d)
            m[:, s, s] = part[:, 0] + 1j * part[:, 1]
            off += 2 * d * d
        return m

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return self.random_elements(rng, 1)[0]


@dataclass
class Diagonal:
    """Convex combination sum_s p_s U_s^dag (x) U_s commuting with the algebra."""

    spec: BlockSpec
    terms: list[tuple[float, np.ndarray]]

    def residuals(self, probes: int = 0, seed: int = 0) -> dict[str, float]:
        rep = self.spec.rep_dim
        p_sum = abs(sum(p for p, _ in self.terms) - 1.0)
        pi_mat = sum(p * (u.conj().T @ u) for p, u in self.terms)
        pi_err = nl.operator_norm(pi_mat - np.eye(rep))
        comm_err = 0.0
        probes_list = [
            self.spec.unit_matrix(l, j, k) for (l, j, k) in self.spec.unit_indices()
        ]
        if probes:
            rng = np.random.default_rng(seed)
            probes_list += [self.spec.random_element(rng) for _ in range(probes)]
        for x in probes_list:
            lhs = sum(p * nl.kron(x @ u.conj().T, u) for p, u in self.terms)
            rhs = sum(p * nl.kron(u.conj().T, u @ x) for p, u in self.terms)
            comm_err = max(comm_err, nl.operator_norm(lhs - rhs))
        return {"prob_sum": p_sum, "pi": pi_err, "commutation": comm_err}


def pauli_shift_clock(d: int) -> list[tuple[float, np.ndarray]]:
    """The d^2 shift/clock unitaries with uniform weights: an exact 1-design."""
    terms = []
    omega = np.exp(2j * np.pi / d)
    for j in range(d):
        for k in range(d):
            u = np.zeros((d, d), dtype=complex)
            for m in range(d):
                u[(m + j) % d, m] = omega ** (k * m)
            terms.append((1.0 / (d * d), u))
    return terms


def pauli_diagonal(spec: BlockSpec, term_cap: int = 10_000) -> Diagonal:
    """Product of per-block shift/clock designs.

    With several blocks, each block family is balanced by a +-U doubling so
    that its plain average vanishes; otherwise the combined element keeps
    spurious cross-block components and fails to commute with the algebra.
    The per-block count is d^2 for a single block and 2 d^2 otherwise.
    """
    multi = len(spec.block_dims) > 1
    total = 1
    for d in spec.block_dims:
        total *= (2 if multi else 1) * d * d
    if total > term_cap:
        raise TermExplosion(f"{total} diagonal terms exceed the cap {term_cap}")
    # term (i_1, ..., i_m), first block slowest, has weight ((1 p_i1) p_i2) ...
    # and the direct sum of the block unitaries U_i1 + ... + U_im
    weights, stacks = np.ones(1), []
    for d in spec.block_dims:
        p, u = zip(*pauli_shift_clock(d))
        p, u = np.array(p), np.stack(u)
        if multi:
            p, u = np.concatenate([p / 2, p / 2]), np.concatenate([u, -u])
        weights = np.multiply.outer(weights, p).ravel()
        stacks.append(u)
    rep = spec.rep_dim
    units = np.zeros((len(weights), rep, rep), dtype=complex)
    grid = units.reshape(*(len(u) for u in stacks), rep, rep)
    for l, (sl, u) in enumerate(zip(spec.slices(), stacks)):
        axes = [1] * len(stacks)
        axes[l] = len(u)
        grid[..., sl, sl] = u.reshape(*axes, *u.shape[1:])
    return Diagonal(spec, list(zip(weights.tolist(), units)))


@dataclass
class AlmostHom:
    """Linear map from a block algebra into an algebra, with measured defects.

    ``coeffs`` maps column-stacked block-diagonal matrices to target algebra
    coordinates; the involution symmetry v(X^dag) = v(X)^dag is maintained by
    construction.
    """

    spec: BlockSpec
    coeffs: np.ndarray  # (target_dim, rep_dim^2)
    unit_defect: float = np.nan
    mult_defect: float = np.nan
    iso_lower: float = np.nan
    iso_upper: float = np.nan

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.coeffs @ nl.vec(np.asarray(x, dtype=complex))

    def symmetrized(self) -> "AlmostHom":
        perm = nl.transpose_permutation(self.spec.rep_dim)
        return AlmostHom(self.spec, 0.5 * (self.coeffs + np.conj(self.coeffs[:, perm])))

    def dagger_symmetry_residual(self) -> float:
        """max over matrix units E of ||v(E^dag) - v(E)^dag||."""
        perm = nl.transpose_permutation(self.spec.rep_dim)
        return float(np.linalg.norm(self.coeffs[:, perm] - np.conj(self.coeffs), axis=0).max())


def mult_defect(v: AlmostHom, alg: EpsilonAlgebra, probes: int = 20,
                seed: int = 0) -> AlmostHom:
    """Measure unit/multiplicativity defects and the norm sandwich of v.

    The defect is the largest ||v(E_a E_b) - v(E_a) * v(E_b)|| over all pairs
    of matrix units, and over ``probes`` random pairs normalized by their block
    norms; all star products come from one contraction and all norms from one
    stacked SVD.
    """
    spec = v.spec
    n = alg.dim
    t_flat = alg.star_tensor.reshape(n, n * n)
    imgs = v.coeffs[:, spec.unit_columns()].T  # (U, n): v(E_a) as rows
    stars = imgs @ (imgs @ t_flat).reshape(-1, n, n)  # [a, b] = v(E_a) * v(E_b)
    table = spec.unit_products()
    expected = np.where((table >= 0)[..., None], imgs[table], 0.0)
    worst = alg.max_norm((expected - stars).reshape(-1, n))
    iso_lo, iso_hi = np.inf, 0.0
    if probes:
        rng = np.random.default_rng(seed)
        xy = spec.random_elements(rng, 2 * probes)
        x, y = xy[0::2], xy[1::2]
        nx, ny = spec.block_norm(x), spec.block_norm(y)
        # rows v(x_p): vec stacks columns, i.e. the rows of the transpose
        vx, vy, vxy = (
            np.swapaxes(m, 1, 2).reshape(probes, -1) @ v.coeffs.T for m in (x, y, x @ y)
        )
        g = vxy - (vy[:, None, :] @ (vx @ t_flat).reshape(-1, n, n))[:, 0]
        worst = max(worst, float(np.max(alg.norms(g) / (nx * ny))))
        ratio = alg.norms(vx) / nx
        iso_lo, iso_hi = float(ratio.min()), float(ratio.max())
    unit_def = alg.norm(v.apply(spec.unit()) - alg.unit_coords)
    v.mult_defect = worst
    v.unit_defect = unit_def
    v.iso_lower = iso_lo
    v.iso_upper = iso_hi
    return v


def improve_homomorphism(
    v: AlmostHom,
    alg: EpsilonAlgebra,
    diag: Diagonal,
    max_rounds: int = 12,
    target: float | None = None,
    start_threshold: float = 0.35,
    seed: int = 0,
) -> AlmostHom:
    """Newton-style error reduction of the multiplicativity defect.

    One round replaces v by v + (w' + w'')/2 where
    w'(X) = sum_s p_s v(U_s^dag) * (v(U_s X) - v(U_s) * v(X)) and w'' is its
    involution partner; the defect contracts quadratically down to the level
    of the ambient algebra's own associativity defect.

    Batched closed form of w', with T the star tensor and TC_a the matrix of
    X -> B_a * v(X): the design sums come first, K_i = sum_s p_s v(U_s^dag)_i U_s
    and M = sum_s p_s v(U_s^dag) v(U_s)^T, then H_i = v(K_i .) - sum_a M_ia TC_a
    and w' = sum_(i,j) T[i, j, :] H_ij.
    """
    spec = v.spec
    rep = spec.rep_dim
    n = alg.dim
    v = mult_defect(AlmostHom(spec, v.coeffs.copy()), alg, seed=seed)
    if v.mult_defect > start_threshold:
        raise ImproveFailed(
            f"initial defect {v.mult_defect:.3f} above the convergence threshold"
        )
    weights = np.array([p for p, _ in diag.terms])[:, None]
    # rows vec(U_s^T); v(U) reads them through the transpose permutation and
    # v(U^dag) = conj(conj(v)(U^T))
    u_rows = np.stack([u for _, u in diag.terms]).reshape(len(diag.terms), -1)
    dag_perm = nl.transpose_permutation(rep)
    best = v
    history = [v.mult_defect]
    bad_rounds = 0
    for _ in range(max_rounds):
        if target is not None and best.mult_defect <= target:
            break
        coeffs = best.coeffs
        tc = (np.swapaxes(alg.star_tensor, 1, 2) @ coeffs).reshape(n, -1)
        vu = u_rows @ coeffs[:, dag_perm].T
        p_vu_dag = weights * np.conj(u_rows @ np.conj(coeffs).T)
        k = (p_vu_dag.T @ u_rows).reshape(n, rep, rep)
        # v(K_i X) over the vec basis: vec(K X) = (I (x) K) vec X acts on the row index
        h = (coeffs.reshape(n * rep, rep) @ k).reshape(n, -1) - (p_vu_dag.T @ vu) @ tc
        w_prime = alg.star_tensor.reshape(n * n, n).T @ h.reshape(n * n, rep * rep)
        w_second = np.conj(w_prime[:, dag_perm])
        cand = AlmostHom(spec, coeffs + 0.5 * (w_prime + w_second))
        cand = mult_defect(cand, alg, seed=seed)
        history.append(cand.mult_defect)
        if cand.mult_defect < best.mult_defect:
            best = cand
            bad_rounds = 0
            if len(history) >= 2 and history[-1] > 0.99 * history[-2]:
                break  # plateau
        else:
            bad_rounds += 1
            if bad_rounds >= 2:
                if best.mult_defect > 1.2 * history[0]:
                    raise Diverged(
                        f"defect grew from {history[0]:.2e} to {best.mult_defect:.2e}"
                    )
                break
    return best


def merge(
    v1: AlmostHom,
    v2: AlmostHom,
    alg: EpsilonAlgebra,
    require_bijective: bool = True,
    orth_tol: float = 0.35,
) -> AlmostHom:
    """Combine maps into S_{P_1} and S_{P_2} with nearly orthogonal units into
    one map on the direct sum algebra: v(X_1, X_2) = v_1(X_1) + v_2(X_2).

    The units must star-multiply to nearly zero; when the merged map is meant
    to be bijective the cross corner S_{P_1,P_2} must vanish as well."""
    p1 = np.real(v1.apply(v1.spec.unit()))
    p2 = np.real(v2.apply(v2.spec.unit()))
    overlap = alg.norm(alg.star(p1, p2))
    if overlap > orth_tol:
        raise CrossTalk(
            f"units of the two maps are not orthogonal: ||P1 * P2|| = {overlap:.3f}"
        )
    if require_bijective:
        d1 = pj.DeltaProjection(p1, pj.measure_delta(alg, p1), alg.norm(p1))
        d2 = pj.DeltaProjection(p2, pj.measure_delta(alg, p2), alg.norm(p2))
        cross = pj.compression_rank(alg, d1, d2)
        if cross != 0:
            raise CrossTalk(f"dim S_(P1, P2) = {cross} != 0; merge cannot be bijective")
    spec = BlockSpec(v1.spec.block_dims + v2.spec.block_dims)
    coeffs = np.zeros((alg.dim, spec.rep_dim ** 2), dtype=complex)
    # the units of v1's blocks come first in unit_indices, then those of v2's
    coeffs[:, spec.unit_columns()] = np.concatenate(
        [_restricted_coeffs(v1), _restricted_coeffs(v2)], axis=1
    )
    return mult_defect(AlmostHom(spec, coeffs), alg)


# ---------------------------------------------------------------------------
# corner extension: M_n -> M_{n+1}
# ---------------------------------------------------------------------------

def matrix_algebra(k: int) -> EpsilonAlgebra:
    """B(C^k) as an exact algebra object over its Hermitian basis."""
    basis = nl.hermitian_basis(k)
    n = len(basis)
    stack = np.stack([nl.vec(b) for b in basis], axis=1)
    tensor = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            tensor[i, j, :] = stack.conj().T @ nl.vec(basis[i] @ basis[j])
    unit = np.real(stack.conj().T @ nl.vec(np.eye(k, dtype=complex)))
    return EpsilonAlgebra(k, basis, unit, tensor)


def extend_matrix_algebra(
    v: AlmostHom,
    c_q: pj.CompressionMap,
    alg: EpsilonAlgebra,
    seed: int = 0,
) -> AlmostHom:
    """Extend a map M_n -> S_P by a one-dimensional projection Q to M_{n+1}.

    ``c_q`` is the compression onto S_Q of the projection Q = ``c_q.p``; the
    caller computes it once per family member and passes it down.  Follows
    the corner construction: represent S_P on the Hilbert space S_{P,Q},
    improve that representation to an exact homomorphism, read the new
    column of matrix units off it, and merge with the rank-one corner of Q.
    """
    spec = v.spec
    if len(spec.block_dims) != 1:
        raise ReconstructionError("extension input must be a single matrix block")
    n = spec.block_dims[0]
    q = c_q.p
    p_coords = np.real(v.apply(spec.unit()))
    p = pj.DeltaProjection(p_coords, pj.measure_delta(alg, p_coords), alg.norm(p_coords))
    c_p = pj.compression(alg, p)
    if c_q.rank != 1:
        raise pj.DegenerateGram(f"dim S_Q = {c_q.rank}, expected 1")
    c_pq = pj.compression(alg, p, q)
    if c_pq.rank != n:
        raise nl.DimMismatch(
            f"dim S_(P,Q) = {c_pq.rank}, expected {n}; equivalence classification "
            f"is inconsistent with this extension"
        )
    hilb = pj.hilbert_structure(alg, c_pq, c_q)
    c_qp = pj.compression(alg, q, p)

    # the corner representation of S_P on S_{P,Q}, then improved to exact
    target = matrix_algebra(n)
    rep_cols = np.zeros((target.dim, n * n), dtype=complex)
    for col in spec.unit_columns():
        h_mat = pj.h_map(alg, v.coeffs[:, col], c_p, c_pq, c_pq, c_q, hilb, hilb, c_qr=c_qp)
        rep_cols[:, col] = target.coords(h_mat)
    mu = AlmostHom(spec, rep_cols).symmetrized()
    mu = improve_homomorphism(mu, target, pauli_diagonal(spec), target=1e-12, seed=seed)

    # matrix-unit trick: an orthonormal column frame from the improved rep
    vec_basis = np.stack([nl.vec(b) for b in target.basis], axis=1)
    e11_img = nl.unvec(vec_basis @ mu.apply(spec.unit_matrix(0, 0, 0)), n, n)
    w_eig, u_eig = np.linalg.eigh(nl.hermitian_part(e11_img))
    xi = u_eig[:, -1]
    cols = []
    for j in range(n):
        mu_ej1 = nl.unvec(vec_basis @ mu.apply(spec.unit_matrix(0, j, 0)), n, n)
        cols.append(mu_ej1 @ xi)
    u1 = np.stack(cols, axis=1)
    u1 = nl.polar_unitary(u1)

    # assemble the extended map on M_{n+1}
    new_spec = BlockSpec((n + 1,))
    coeffs = np.zeros((alg.dim, (n + 1) * (n + 1)), dtype=complex)
    e2c = hilb.basis_coords @ np.linalg.inv(hilb.chol.conj().T)
    q_tilde = c_q.apply(q.coords)
    for (l, j, k), col in zip(new_spec.unit_indices(), new_spec.unit_columns()):
        if j < n and k < n:
            coeffs[:, col] = v.apply(spec.unit_matrix(0, j, k))
        elif j < n and k == n:
            coeffs[:, col] = e2c @ u1[:, j]
        elif j == n and k < n:
            coeffs[:, col] = np.conj(e2c @ u1[:, k])
        else:
            coeffs[:, col] = q_tilde
    out = mult_defect(AlmostHom(new_spec, coeffs), alg)
    return out


# ---------------------------------------------------------------------------
# full reconstruction
# ---------------------------------------------------------------------------

@dataclass
class ReconstructionReport:
    spec: BlockSpec
    mult_defect: float
    unit_defect: float
    iso_lower: float
    iso_upper: float
    bijective: bool
    stage1_splits: int
    family_deltas: list[float]
    class_sizes: list[int]
    improvement_history: list[float] = field(default_factory=list)


def _corner_subalgebra(alg: EpsilonAlgebra, c_p: pj.CompressionMap):
    """S_P, from its compression map, as an algebra with the compressed
    product and a Hermitian basis."""
    image = _real_span_basis(c_p.image_coords)
    if image.shape[1] != c_p.rank:
        raise ReconstructionError("corner image is not closed under the involution")
    unit = np.real(c_p.apply(c_p.p.coords))
    return alg.subalgebra(image.astype(complex), unit, c_p.apply)


def _real_span_basis(cols: np.ndarray) -> np.ndarray:
    """Orthonormal real vectors spanning a conjugation-closed column span."""
    parts = np.concatenate([np.real(cols), np.imag(cols)], axis=1)
    q, r = np.linalg.qr(parts)
    keep = np.abs(np.diag(r)) > 1e-9 * max(1.0, np.abs(np.diag(r)).max())
    return q[:, : int(np.sum(keep))]


def reconstruct(
    alg: EpsilonAlgebra,
    seed: int = 0,
    delta_target: float | None = None,
    improve_rounds: int = 12,
) -> tuple[BlockSpec, AlmostHom, ReconstructionReport]:
    """Three-stage reconstruction of the nearest block matrix algebra.

    Stage 1 splits the unit into one-dimensional approximate projections,
    stage 2 grows one matrix algebra per equivalence class through corner
    extensions with error reduction after each step, stage 3 merges the
    classes.  The compression map of each family member is computed once,
    when the member joins the family, and passed down to the corner
    subalgebra, the class seeds and the extensions.  Returns the block
    structure, the near-isomorphism, and a report of every measured defect.
    """
    rng = np.random.default_rng(seed)
    base_defect = alg.defects.worst() if alg.defects is not None else 0.0
    if delta_target is None:
        delta_target = max(1e-8, 200 * base_defect)

    # ---------------- stage 1: one-dimensional splitting ----------------
    unit = np.real(alg.unit_coords)
    splits = 0
    try:
        # the family P_i, each member carried by its compression C_{P_i}
        comps = [pj.compression(
            alg, pj.DeltaProjection(unit, pj.measure_delta(alg, unit), alg.norm(unit))
        )]
        while True:
            over = [i for i, c in enumerate(comps) if c.rank > 1]
            if not over:
                break
            idx = max(over, key=lambda i: comps[i].rank)
            c_p = comps[idx]
            sub, lift = _corner_subalgebra(alg, c_p)
            found = pj.find_nontrivial_projection(
                sub, delta_target=max(delta_target, 1e-8),
                max_retries=40, seed=int(rng.integers(1 << 31)),
            )
            p_new = np.real(lift @ found.coords)
            p_new, d_new = pj._cubic_refine(alg, p_new)
            p_rest = np.real(c_p.apply(c_p.p.coords)) - p_new
            p_rest, d_rest = pj._cubic_refine(alg, p_rest)
            comps[idx: idx + 1] = [
                pj.compression(alg, pj.DeltaProjection(p_new, d_new, alg.norm(p_new))),
                pj.compression(alg, pj.DeltaProjection(p_rest, d_rest, alg.norm(p_rest))),
            ]
            splits += 1
            if splits > 4 * alg.dim:
                raise ReconstructionError("splitting did not terminate")
    except (pj.ProjectionError, ReconstructionError) as exc:
        raise StageFailed("stage1-splitting", str(exc)) from exc

    # ---------------- stage 2: matrix algebra per class ----------------
    family = [c.p for c in comps]
    try:
        classes = pj.classify_equivalence(alg, family)
    except pj.ProjectionError as exc:
        raise StageFailed("stage2-classification", str(exc)) from exc

    class_homs: list[AlmostHom] = []
    history: list[float] = []
    for cls in classes:
        try:
            c_q0 = comps[cls[0]]
            coeffs = np.zeros((alg.dim, 1), dtype=complex)
            coeffs[:, 0] = c_q0.apply(c_q0.p.coords)
            v_c = mult_defect(AlmostHom(BlockSpec((1,)), coeffs), alg)
            for jdx in cls[1:]:
                v_c = extend_matrix_algebra(
                    v_c, comps[jdx], alg, seed=int(rng.integers(1 << 31))
                )
                v_c = improve_homomorphism(
                    v_c, alg, pauli_diagonal(v_c.spec),
                    max_rounds=improve_rounds,
                    seed=int(rng.integers(1 << 31)),
                )
                history.append(v_c.mult_defect)
        except (pj.ProjectionError, nl.NumLinError, ReconstructionError) as exc:
            raise StageFailed("stage2-extension", str(exc)) from exc
        class_homs.append(v_c)

    # ---------------- stage 3: merge the classes ----------------
    v = class_homs[0]
    try:
        for nxt in class_homs[1:]:
            v = merge(v, nxt, alg, require_bijective=True)
            v = improve_homomorphism(
                v, alg, pauli_diagonal(v.spec), max_rounds=improve_rounds,
                seed=int(rng.integers(1 << 31)),
            )
            history.append(v.mult_defect)
    except (pj.ProjectionError, ReconstructionError) as exc:
        raise StageFailed("stage3-merge", str(exc)) from exc

    v = mult_defect(v, alg, probes=40, seed=seed)
    bijective = v.spec.dim == alg.dim
    if bijective:
        rank = np.linalg.matrix_rank(_restricted_coeffs(v), tol=1e-7)
        bijective = rank == alg.dim
    report = ReconstructionReport(
        spec=v.spec,
        mult_defect=v.mult_defect,
        unit_defect=v.unit_defect,
        iso_lower=v.iso_lower,
        iso_upper=v.iso_upper,
        bijective=bool(bijective),
        stage1_splits=splits,
        family_deltas=[p.delta for p in family],
        class_sizes=[len(c) for c in classes],
        improvement_history=history,
    )
    return v.spec, v, report


def _restricted_coeffs(v: AlmostHom) -> np.ndarray:
    """Columns of the coefficient matrix over the block-diagonal units only."""
    return v.coeffs[:, v.spec.unit_columns()]
