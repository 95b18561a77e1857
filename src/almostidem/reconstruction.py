"""Rebuilding a genuine block matrix algebra inside an approximate one.

The pipeline finds all one-dimensional approximate projections at once,
sorts them into equivalence classes, reads the matrix units of a full matrix
algebra per class off its rank-one corners P_0 A P_k, and merges the
classes.  After each class map of more than one projection, and after each
merge, a Newton-style improvement driven by the "diagonal"
sum_s p_s U_s^dag (x) U_s of the block algebra pushes the multiplicativity
defect of the current map down to the level set by the ambient algebra.  The diagonal is the matrix-unit diagonal
sum_l (1/d_l) sum_(j,k) E_kj (x) E_jk, sum_l d_l^2 terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numlin as nl
from . import projections as pj
from .starcalc import EpsilonAlgebra


class ReconstructionError(Exception):
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

    def unit(self) -> np.ndarray:
        return np.eye(self.rep_dim, dtype=complex)

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


@dataclass
class Diagonal:
    """Terms (p_s, U_s) whose sum_s p_s U_s^dag (x) U_s commutes with the algebra.

    The terms of ``pauli_diagonal`` are matrix units, not unitaries, so the
    sum is not a convex combination of unitaries: the weights sum to
    ``spec.rep_dim``, while sum_s p_s U_s^dag U_s = I still holds.
    """

    spec: BlockSpec
    terms: list[tuple[float, np.ndarray]]


def pauli_diagonal(spec: BlockSpec) -> Diagonal:
    """The matrix-unit diagonal: (1/d_l, E_jk) for each unit (l, j, k) of
    ``spec.unit_indices()``, in that order, sum_l d_l^2 terms.

    Its element sum_l (1/d_l) sum_(j,k) E_kj (x) E_jk is that of the per-block
    shift/clock designs, (1/d_l^2, U) for the d_l^2 shift/clock unitaries U
    of each block, and its units are exact in floating point.
    """
    rep = spec.rep_dim
    terms = []
    for s, d in zip(spec.slices(), spec.block_dims):
        units = np.zeros((d * d, rep, rep), dtype=complex)
        units[:, s, s] = np.eye(d * d).reshape(d * d, d, d)
        terms += [(1.0 / d, e) for e in units]
    return Diagonal(spec, terms)


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


def _probe_set(spec: BlockSpec, probes: int, seed: int):
    """(rows, nx, nxy): the ``probes`` random pairs (x_p, y_p) of block
    elements that :func:`_mult_defect` measures on, as the vec rows of x_p,
    y_p and x_p y_p, with the block norms of x_p and the products of the
    block norms of x_p and y_p.  It depends on the block spec alone, so one
    set serves every map measured with the same seed."""
    rng = np.random.default_rng(seed)
    xy = spec.random_elements(rng, 2 * probes)
    x, y = xy[0::2], xy[1::2]
    # a block-diagonal element has the norm of its largest block
    nxy = nl.operator_norms(xy)
    nx, ny = nxy[0::2], nxy[1::2]
    # vec stacks columns, i.e. the rows of the transpose
    rows = tuple(np.swapaxes(m, 1, 2).reshape(probes, spec.rep_dim ** 2)
                 for m in (x, y, x @ y))
    return rows, nx, nx * ny


def _mult_defect(v: AlmostHom, alg: EpsilonAlgebra, probe_set):
    """(defect, vx): the multiplicativity defect of v, and the images
    v(x_p) (rows) of the first elements of the pairs of ``probe_set``
    (from :func:`_probe_set`).

    The defect is the largest ||v(E_a E_b) - v(E_a) * v(E_b)|| over all pairs
    of matrix units, and over the random pairs normalized by their block
    norms; all star products come from one contraction, and each maximum is
    ``EpsilonAlgebra.max_norm``, which takes the norms from
    :func:`numlin.operator_norms` only for the rows that can set it.
    """
    spec = v.spec
    n = alg.dim
    t_flat = alg.star_tensor.reshape(n, n * n)
    imgs = v.coeffs[:, spec.unit_columns()].T  # (U, n): v(E_a) as rows
    stars = imgs @ (imgs @ t_flat).reshape(-1, n, n)  # [a, b] = v(E_a) * v(E_b)
    table = spec.unit_products()
    expected = np.where((table >= 0)[..., None], imgs[table], 0.0)
    worst = alg.max_norm((expected - stars).reshape(-1, n))
    rows, _, nxy = probe_set
    vx, vy, vxy = (r @ v.coeffs.T for r in rows)
    g = vxy - (vy[:, None, :] @ (vx @ t_flat).reshape(-1, n, n))[:, 0]
    return alg.max_norm(g, nxy, worst), vx


def mult_defect(v: AlmostHom, alg: EpsilonAlgebra, probes: int = 20,
                seed: int = 0) -> AlmostHom:
    """Measure unit/multiplicativity defects and the norm sandwich of v.

    The multiplicativity defect is that of :func:`_mult_defect`; the norm
    sandwich is the range of ||v(x_p)|| / ||x_p|| over its probes.
    """
    probe_set = _probe_set(v.spec, probes, seed)
    worst, vx = _mult_defect(v, alg, probe_set)
    iso_lo, iso_hi = np.inf, 0.0
    if probes:
        ratio = alg.norms(vx) / probe_set[1]
        iso_lo, iso_hi = float(ratio.min()), float(ratio.max())
    v.mult_defect = worst
    v.unit_defect = alg.norm(v.apply(v.spec.unit()) - alg.unit_coords)
    v.iso_lower = iso_lo
    v.iso_upper = iso_hi
    return v


def improve_homomorphism(
    v: AlmostHom,
    alg: EpsilonAlgebra,
    max_rounds: int = 12,
    seed: int = 0,
) -> AlmostHom:
    """Newton-style error reduction of the multiplicativity defect.

    One round replaces v by v + (w' + w'')/2 where
    w'(X) = sum_s p_s v(U_s^dag) * (v(U_s X) - v(U_s) * v(X)) and w'' is its
    involution partner; the defect contracts quadratically down to the level
    of the ambient algebra's own associativity defect.  It refuses a start
    whose defect is above 0.35, and stops at 1e-12 (where the measured
    defect is roundoff and a "better" candidate would be accepted on
    noise), a plateau, or a round
    that does not improve (the next would rebuild that candidate).  ``v``
    may come unmeasured; only the ``mult_defect`` of the result is measured
    (:func:`mult_defect` measures the rest), every candidate on the same
    probe set, drawn once.

    The design is the matrix-unit diagonal of ``pauli_diagonal(v.spec)``.
    Batched closed form of w', with T the star tensor and TC_a the matrix of
    X -> B_a * v(X): the design sums come first, K_i = sum_s p_s v(U_s^dag)_i U_s
    and M = sum_s p_s v(U_s^dag) v(U_s)^T, then H_i = v(K_i .) - sum_a M_ia TC_a
    and w' = sum_(i,j) T[i, j, :] H_ij.
    """
    spec = v.spec
    rep = spec.rep_dim
    n = alg.dim
    v = AlmostHom(spec, v.coeffs.copy())
    probe_set = _probe_set(spec, 20, seed)
    v.mult_defect = _mult_defect(v, alg, probe_set)[0]
    if v.mult_defect > 0.35:
        raise ImproveFailed(
            f"initial defect {v.mult_defect:.3f} above the convergence threshold"
        )
    diag = pauli_diagonal(spec)
    weights = np.array([p for p, _ in diag.terms])[:, None]
    # rows vec(U_s^T); v(U) reads them through the transpose permutation and
    # v(U^dag) = conj(conj(v)(U^T))
    u_rows = np.stack([u for _, u in diag.terms]).reshape(len(diag.terms), -1)
    dag_perm = nl.transpose_permutation(rep)
    best = v
    for _ in range(max_rounds):
        if best.mult_defect <= 1e-12:
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
        cand.mult_defect = _mult_defect(cand, alg, probe_set)[0]
        if not cand.mult_defect < best.mult_defect:
            break
        plateau = cand.mult_defect > 0.99 * best.mult_defect
        best = cand
        if plateau:
            break
    return best


def merge(v1: AlmostHom, v2: AlmostHom, alg: EpsilonAlgebra) -> AlmostHom:
    """Combine maps into S_{P_1} and S_{P_2} with nearly orthogonal units into
    one map on the direct sum algebra: v(X_1, X_2) = v_1(X_1) + v_2(X_2).

    The units must star-multiply to at most 0.35 and the cross corner
    S_{P_1,P_2} must vanish, so that the merged map can be bijective; the
    merged map is returned unmeasured."""
    p1 = np.real(v1.apply(v1.spec.unit()))
    p2 = np.real(v2.apply(v2.spec.unit()))
    overlap = alg.norm(alg.star(p1, p2))
    if overlap > 0.35:
        raise CrossTalk(
            f"units of the two maps are not orthogonal: ||P1 * P2|| = {overlap:.3f}"
        )
    cross = pj.compression_rank(alg, pj.DeltaProjection(p1), pj.DeltaProjection(p2))
    if cross != 0:
        raise CrossTalk(f"dim S_(P1, P2) = {cross} != 0; merge cannot be bijective")
    spec = BlockSpec(v1.spec.block_dims + v2.spec.block_dims)
    coeffs = np.zeros((alg.dim, spec.rep_dim ** 2), dtype=complex)
    # the units of v1's blocks come first in unit_indices, then those of v2's
    coeffs[:, spec.unit_columns()] = np.concatenate(
        [_restricted_coeffs(v1), _restricted_coeffs(v2)], axis=1
    )
    return AlmostHom(spec, coeffs)


# ---------------------------------------------------------------------------
# matrix units of one equivalence class
# ---------------------------------------------------------------------------

def class_map(alg: EpsilonAlgebra, comps: list[pj.CompressionMap]) -> AlmostHom:
    """The map M_m -> A of one equivalence class P_0, ..., P_(m-1), read off
    its rank-one corners; ``comps`` are the compressions C_(P_k) of the class.

    E_00 goes to Q~_0 = C_(P_0)(P_0), and E_0k to x_k, the spanning vector of
    the image of C_(P_0, P_k), which must have rank 1, scaled by 1/sqrt(s_k)
    with s_k = <Q~_k, C_(P_k)(x_k^dag * x_k)> / <Q~_k, Q~_k> > 0,
    Q~_k = C_(P_k)(P_k), so that the Q~_k-component of x_k^dag * x_k is 1;
    E_k0 goes to x_k^dag and E_jk
    (j, k >= 1) to x_j^dag * x_k, one broadcast star product.  The map is
    returned unmeasured (``mult_defect`` measures it).
    """
    m, n = len(comps), alg.dim
    p0 = comps[0].p
    x = np.empty((m - 1, n), dtype=complex)
    for k, c_q in enumerate(comps[1:]):
        corner = pj.compression(alg, p0, c_q.p)
        if corner.rank != 1:
            raise nl.DimMismatch(
                f"dim S_(P0, P{k + 1}) = {corner.rank}, expected 1; equivalence "
                f"classification is inconsistent with the corner")
        x_k = corner.image_coords[:, 0]
        q_tilde = c_q.apply(c_q.p.coords)
        s_k = np.real(np.vdot(q_tilde, c_q.apply(alg.star(np.conj(x_k), x_k)))
                      / np.vdot(q_tilde, q_tilde))
        if not s_k > 0:
            raise pj.DegenerateGram(f"corner P0 A P{k + 1} has scale {s_k:.3e}, not positive")
        x[k] = x_k / np.sqrt(s_k)
    grid = np.empty((n, m, m), dtype=complex)
    grid[:, 0, 0] = comps[0].apply(p0.coords)
    grid[:, 0, 1:] = x.T
    grid[:, 1:, 0] = np.conj(x).T
    grid[:, 1:, 1:] = np.moveaxis(alg.star(np.conj(x)[:, None], x[None, :]), -1, 0)
    spec = BlockSpec((m,))
    coeffs = np.zeros((n, m * m), dtype=complex)
    coeffs[:, spec.unit_columns()] = grid.reshape(n, -1)
    return AlmostHom(spec, coeffs)


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
    stage1_gap_ratio: float | None
    family_deltas: list[float]
    class_sizes: list[int]
    improvement_history: list[float] = field(default_factory=list)


def reconstruct(
    alg: EpsilonAlgebra, seed: int = 0,
) -> tuple[BlockSpec, AlmostHom, ReconstructionReport]:
    """Three-stage reconstruction of the nearest block matrix algebra.

    Stage 1 finds all one-dimensional approximate projections at once, from
    the eigenvalue clusters of left multiplication by a generic element
    (:func:`projections.minimal_projections`, whose winning gap ratio the
    report records); stage 2 builds the map of each equivalence class in
    one step from its rank-one corners (:func:`class_map`) and improves it
    once, unless the class is a single projection; stage 3 merges the
    classes.  The compression map of each family member is computed once,
    in stage 1, and passed down to the class maps.  No decision reads the
    sampled ``alg.defects``.  Returns the block structure, the
    near-isomorphism, and a report of every measured defect.
    """
    rng = np.random.default_rng(seed)

    # ---------------- stage 1: the one-dimensional projections ----------------
    try:
        # the family P_i, each member carried by its compression C_{P_i}
        comps, gap_ratio = pj.minimal_projections(alg, rng)
    except pj.ProjectionError as exc:
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
            v_c = class_map(alg, [comps[j] for j in cls])
            if len(cls) > 1:
                v_c = improve_homomorphism(v_c, alg, seed=int(rng.integers(1 << 31)))
                history.append(v_c.mult_defect)
        except (pj.ProjectionError, nl.NumLinError, ReconstructionError) as exc:
            raise StageFailed("stage2-matrix-units", str(exc)) from exc
        class_homs.append(v_c)

    # ---------------- stage 3: merge the classes ----------------
    v = class_homs[0]
    try:
        for nxt in class_homs[1:]:
            v = merge(v, nxt, alg)
            v = improve_homomorphism(v, alg, seed=int(rng.integers(1 << 31)))
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
        stage1_gap_ratio=gap_ratio,
        family_deltas=[p.delta for p in family],
        class_sizes=[len(c) for c in classes],
        improvement_history=history,
    )
    return v.spec, v, report


def _restricted_coeffs(v: AlmostHom) -> np.ndarray:
    """Columns of the coefficient matrix over the block-diagonal units only."""
    return v.coeffs[:, v.spec.unit_columns()]
