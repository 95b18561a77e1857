"""Almost-invariant observable algebra of an almost idempotent UCP map.

``idempotentize`` replaces the map by the nearby exact idempotent obtained by
applying the spectral step function to 2*Phi - 1 on the superoperator level.
``extract_algebra`` realizes its image as a concrete subspace of B(H) with the
induced product X * Y = Phi~(X Y), its dimension the rank of the image read
at ``numlin.RANK_REL_TOL``; ``measure_defects`` estimates how far the result
is from satisfying the algebra axioms, including on matrix amplifications
M_n (x) A.  The sweep over the basis takes its products from the n x n x n
star tensor; the sampled and amplified stages form each product on matrices,
as the block product X Y on C^m (x) H followed by the coordinate map
C = basis^H Phi~ on each d x d block (``EpsilonAlgebra.coord_map``).  Every
operator norm is sqrt(lam_max(X^dag X)), one stacked eigvalsh
(``numlin.operator_norms``); the sweep over the basis takes one only where
the Frobenius bound, read off the coordinates (``EpsilonAlgebra.max_norm``),
can still set a maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numlin as nl
from .channels import Channel
from . import cbnorm


class StarCalcError(Exception):
    pass


class EtaTooLarge(StarCalcError):
    pass


@dataclass
class IdempotentizedMap:
    """Idempotent envelope of a UCP map, with measured quality numbers."""

    superop: np.ndarray
    dim: int
    residual: float                      # || M~^2 - M~ ||
    eta: cbnorm.NormCertificate          # certified || Phi^2 - Phi ||_cb
    distance_cb: cbnorm.NormCertificate  # certified || Phi~ - Phi ||_cb


def idempotentize(ch: Channel) -> IdempotentizedMap:
    """Nearest idempotent envelope theta(2 Phi - 1) of an almost idempotent map."""
    m = ch.superop
    if ch.dim_in != ch.dim_out:
        raise nl.DimMismatch("idempotentize needs an endomorphism")
    eta = cbnorm.cb_norm(m @ m - m, ch.dim_in, ch.dim_in)
    if eta.upper >= 0.25:
        raise EtaTooLarge(
            f"certified idempotency defect {eta.upper:.4f} is outside the "
            f"convergence domain (needs < 1/4)"
        )
    n = m.shape[0]
    m_tilde = nl.theta(2 * m - np.eye(n))
    # the iteration fixes vec(I) up to roundoff; pin unitality exactly
    vec_i = nl.vec(np.eye(ch.dim_in, dtype=complex))
    defect = vec_i - m_tilde @ vec_i
    m_tilde = m_tilde + np.outer(defect, vec_i.conj()) / ch.dim_in
    residual = nl.operator_norm(m_tilde @ m_tilde - m_tilde)
    dist = cbnorm.cb_norm(m_tilde - m, ch.dim_in, ch.dim_in)
    return IdempotentizedMap(m_tilde, ch.dim_in, residual, eta, dist)


@dataclass
class DefectReport:
    eps_submult: float = 0.0
    eps_assoc: float = 0.0
    eps_cstar: float = 0.0
    eps_unit: float = 0.0
    sample_count: int = 0
    method: str = "basis_bound"  # basis_bound | sampled

    def merge(self, other: "DefectReport") -> "DefectReport":
        order = ["basis_bound", "sampled"]
        return DefectReport(
            max(self.eps_submult, other.eps_submult),
            max(self.eps_assoc, other.eps_assoc),
            max(self.eps_cstar, other.eps_cstar),
            max(self.eps_unit, other.eps_unit),
            self.sample_count + other.sample_count,
            max(self.method, other.method, key=order.index),
        )


@dataclass
class EpsilonAlgebra:
    """Concrete subspace of B(H) with an HS-orthonormal Hermitian basis and a
    fixed product tensor: (B_i * B_j) = sum_k star_tensor[i, j, k] B_k.

    ``coord_map`` is the same product read on B(H): the (dim, d^2) matrix C
    with x * y = C vec(X Y), vec column-stacking, for the elements X, Y with
    coordinates x, y."""

    ambient_dim: int
    basis: np.ndarray  # (dim, d, d)
    unit_coords: np.ndarray
    star_tensor: np.ndarray
    coord_map: np.ndarray  # (dim, d * d)
    defects: DefectReport | None = None
    membership_residual: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords), self.basis, axes=(0, 0))

    def star(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of coordinate vectors; stacks of rows broadcast together."""
        n = self.dim
        lx = x @ self.star_tensor.reshape(n, n * n)
        return (y[..., None, :] @ lx.reshape(*lx.shape[:-1], n, n))[..., 0, :]

    def norm(self, x: np.ndarray) -> float:
        return float(self.norms(x)[0])

    def _matrices(self, coords: np.ndarray) -> np.ndarray:
        """The elements whose coordinates are the rows of ``coords``, stacked."""
        d = self.ambient_dim
        return (coords @ self.basis.reshape(self.dim, d * d)).reshape(-1, d, d)

    def norms(self, coords: np.ndarray) -> np.ndarray:
        """Operator norms of the elements whose coordinates are the rows of
        ``coords``, from :func:`numlin.operator_norms`."""
        return nl.operator_norms(self._matrices(coords))

    @cached_property
    def basis_gram(self) -> np.ndarray:
        """Gram matrix G[i, j] = Tr(B_i^dag B_j) of the basis, built on first
        use: ||sum_j c_j B_j||_F^2 = c^dag G c."""
        flat = self.basis.reshape(self.dim, -1)
        return flat.conj() @ flat.T

    @cached_property
    def gram_top(self) -> float:
        """lam_max of :attr:`basis_gram`, built on first use: ||X||_F^2 <=
        gram_top ||c||^2 for the element X with coordinates c."""
        return float(np.linalg.eigvalsh(self.basis_gram)[-1])

    def max_norm(self, coords: np.ndarray, den=1.0, floor: float = 0.0) -> float:
        """``max(floor, (norms(coords) / den).max())``, one ``den`` per row,
        with the norm taken only where it can set the maximum.

        ||X|| <= ||X||_F <= sqrt(gram_top) ||c||, read off the coordinate row
        c.  The rows are taken in chunks of decreasing bound, 8 rows and then
        twice as many as the chunk before, and the scan stops once the next
        bound, widened by a relative 1e-12 for roundoff, is at most the
        running maximum, which starts at ``floor``; only the chunks it takes
        are built as matrices.  Rows that are not finite go to ``norms``
        whole, which raises.
        """
        coords = np.asarray(coords)
        den = np.broadcast_to(den, len(coords))
        bound = np.sqrt(self.gram_top) * np.linalg.norm(coords, axis=-1) / den
        if not np.all(np.isfinite(bound)):
            return max(floor, float((self.norms(coords) / den).max()))
        order = np.argsort(-bound, kind="stable")
        best, start, size = floor, 0, 8
        while start < len(order):
            rows = order[start: start + size]
            if bound[rows[0]] * (1 + 1e-12) <= best:
                break
            best = max(best, float((self.norms(coords[rows]) / den[rows]).max()))
            start, size = start + size, 2 * size
        return best

    def lmul(self, x: np.ndarray) -> np.ndarray:
        """Matrix of Y -> X * Y on coordinates."""
        return np.einsum("i,ijk->kj", x, self.star_tensor)

    def rmul(self, x: np.ndarray) -> np.ndarray:
        """Matrix of Y -> Y * X on coordinates."""
        return np.einsum("j,ijk->ki", x, self.star_tensor)

    def unit_element(self) -> np.ndarray:
        return self.element(self.unit_coords)


def extract_algebra(pm: IdempotentizedMap) -> EpsilonAlgebra:
    """Image of the idempotent envelope as a concrete algebra with basis.

    The basis is HS-orthonormal and Hermitian: :func:`numlin.real_basis` of
    the column space, one real SVD of the Hermitian parts with its rank read
    at ``numlin.RANK_REL_TOL``, which must equal the rank of the image.
    """
    m = pm.superop
    # every eigenvalue lam of an m with ||m^2 - m|| <= 1e-8 has
    # |lam^2 - lam| <= 1e-8, so it lies within about 1e-8 of 0 or 1 and the
    # image is well separated from the rest of the spectrum
    if pm.residual > 1e-8:
        raise StarCalcError("map is not idempotent within 1e-8")
    dim = pm.dim
    cols = nl.column_space(m)
    stack_b = nl.real_basis(cols, nl.transpose_permutation(dim))
    n = stack_b.shape[1]
    if n != cols.shape[1]:
        raise StarCalcError(
            f"Hermitian closure changed the algebra dimension {cols.shape[1]} -> {n}"
        )
    # B_i = unvec(stack_b[:, i]): the columns are column-stacked matrices;
    # stored C-contiguous, so the reshapes of its users are views
    stack = np.ascontiguousarray(stack_b.T.reshape(n, dim, dim).transpose(0, 2, 1))
    # the transposes of pm(B_i) - B_i, which have their norms
    residues = (m @ stack_b - stack_b).T.reshape(n, dim, dim)
    membership = float(nl.operator_norms(residues).max(initial=0.0))
    if membership > 1e-9:
        raise StarCalcError(f"basis is not fixed by the map: residual {membership:.2e}")

    # vec(B_i B_j) as a stack of columns, mapped by the superoperator and
    # projected on the basis one column at a time: the arithmetic of
    # pm(B_i B_j), so the tensor does not move by roundoff
    prods = stack[:, None] @ stack[None, :]
    vecs = np.swapaxes(prods, -1, -2).reshape(n * n, dim * dim, 1)
    tensor = (stack_b.conj().T @ (m @ vecs)).reshape(n, n, n)
    # (X*Y)^dag = Y^dag * X^dag exactly at the tensor level; stored
    # C-contiguous, so the reshapes of its users are views, not copies
    tensor = np.ascontiguousarray(0.5 * (tensor + np.conj(np.transpose(tensor, (1, 0, 2)))))
    # C = basis^H Phi~, averaged with Z -> conj(C vec(Z^dag)) as the tensor
    # is, so that C vec(B_i B_j) is the tensor's row (i, j) up to roundoff
    coord_map = stack_b.conj().T @ m
    coord_map = 0.5 * (coord_map + coord_map.conj()[:, nl.transpose_permutation(dim)])
    unit_coords = np.real(stack_b.conj().T @ nl.vec(np.eye(dim, dtype=complex)))
    alg = EpsilonAlgebra(dim, stack, unit_coords, tensor, coord_map,
                         membership_residual=membership)
    unit_res = float(nl.operator_norms(alg.unit_element() - np.eye(dim)))
    if unit_res > 1e-8:
        raise StarCalcError(f"identity is not in the algebra: residual {unit_res:.2e}")
    return alg


def measure_defects(
    alg: EpsilonAlgebra,
    samples: int = 200,
    extension_n: int = 1,
    seed: int = 0,
) -> DefectReport:
    """Estimated axiom defects of the algebra.

    Every ``eps_*`` value is a lower-bound estimate of the supremum of its
    defect, the maximum over three stages: the sweep over basis elements and
    basis triples, ``samples`` random triples, and ``max(samples // 2, 40)``
    random triples of M_m (x) A for each m = 2..``extension_n``, normed as
    operators on C^m (x) H.  The sweep multiplies through the star tensor,
    whose left factor it reuses across many partners; the random triples are
    multiplied on matrices, X * Y = Phi~(X Y) as the block product on
    C^m (x) H read through ``coord_map`` block by block.  ``method`` names
    the deepest scalar stage run (``basis_bound`` or ``sampled``);
    ``sample_count`` counts the triples evaluated by the sampled and
    amplified stages, less any triple with an element of norm below 1e-12,
    which is skipped.
    """
    report = _basis_defects(alg)
    rng = np.random.default_rng(seed)
    if samples > 0:
        report = report.merge(_sampled_defects(alg, samples, rng))
    for n_ext in range(2, extension_n + 1):
        report = report.merge(_sampled_defects(alg, max(samples // 2, 40), rng, n_ext))
    return replace(report, eps_unit=max(report.eps_unit, _unit_defect(alg)))


def _basis_defects(alg: EpsilonAlgebra) -> DefectReport:
    """Defects over basis pairs and triples, each up to the adjoint.

    The basis is Hermitian and T[j, i] = conj T[i, j] (``extract_algebra``
    makes it so), so B_j * B_i = (B_i * B_j)^dag and the associator of
    (k, j, i) is minus the adjoint of that of (i, j, k): the sweeps take
    i <= j and i <= k, which have the norms of all pairs and triples."""
    n = alg.dim
    t = alg.star_tensor
    basis_norms = alg.norms(np.eye(n))
    rep = DefectReport(sample_count=0, method="basis_bound")

    # ||B_i * B_j|| / (||B_i|| ||B_j||), whose excess over 1 is the defect
    denom = np.outer(basis_norms, basis_norms)
    upper = np.triu_indices(n)
    rep.eps_submult = alg.max_norm(t[upper], denom[upper], floor=1.0) - 1
    # C* lower bound on Hermitian basis elements: X^dag = X
    diag = alg.norms(t[np.arange(n), np.arange(n)])
    rep.eps_cstar = float(max(np.max(1 - diag / basis_norms**2), 0.0))

    # associator over the basis triples, one first index i at a time (the
    # maximum so far its floor) so that n^2, not n^3, products are alive
    assoc = 0.0
    for i in range(n):
        tail = t[:, i:]                        # B_j * B_k coords, k >= i
        left = t[i] @ tail.reshape(n, -1)      # (B_i*B_j)*B_k coords, rows (j, k)
        right = tail.reshape(-1, n) @ t[i]     # B_i*(B_j*B_k) coords, rows (j, k)
        assoc = alg.max_norm(left.reshape(-1, n) - right,
                             (basis_norms[i] * denom[:, i:]).ravel(), assoc)
    rep.eps_assoc = assoc
    return rep


def _sampled_defects(alg: EpsilonAlgebra, samples: int, rng, n_ext: int = 1) -> DefectReport:
    """Defects over random triples of M_n (x) A (n = ``n_ext``), with the
    concrete operator norm on C^n (x) H; n_ext = 1 samples A itself.

    The triples are taken about 4096 matrix entries at a time, a triple
    counting (n d)^2, so that their matrices and Gram stacks are never all
    alive at once."""
    triples = _draw_triples(rng, samples, n_ext, alg.dim)
    step = max(1, (1 << 12) // (n_ext * alg.ambient_dim) ** 2)
    report = DefectReport(method="sampled")
    for start in range(0, samples, step):
        report = report.merge(_triple_defects(alg, triples[start: start + step]))
    return report


def _draw_triples(rng, count: int, n_ext: int, n: int) -> np.ndarray:
    """``count`` random triples (x, y, z) of M_n_ext (x) A coordinate blocks,
    shape (count, 3, n_ext, n_ext, n).

    One draw for all of them gives the stream of per-element draws: the real
    then the imaginary part of x, then of y and z, sample after sample."""
    g = rng.standard_normal((count, 3, 2, n_ext, n_ext, n))
    return g[:, :, 0] + 1j * g[:, :, 1]


def _block_matrices(alg: EpsilonAlgebra, coords: np.ndarray) -> np.ndarray:
    """Matrices on C^m (x) H of stacked M_m (x) A coordinate blocks
    (..., m, m, dim): one GEMM gives the blocks (a, b, r, c) of
    sum_i x[a, b, i] B_i, and one transposing copy puts them in the rows
    (a, r) and columns (b, c)."""
    d, m, n = alg.ambient_dim, coords.shape[-2], alg.dim
    mats = (coords.reshape(-1, n) @ alg.basis.reshape(n, d * d)).reshape(-1, m, m, d, d)
    return mats.transpose(0, 1, 3, 2, 4).reshape(*coords.shape[:-3], m * d, m * d)


def _block_coords(alg: EpsilonAlgebra, mats: np.ndarray) -> np.ndarray:
    """Coordinate blocks (..., m, m, dim) of Phi~ on each d x d block of
    stacked md x md matrices: ``coord_map`` on the column-stacked blocks, so
    that the block product of X and Y gives the blocks of X * Y."""
    d = alg.ambient_dim
    m = mats.shape[-1] // d
    blocks = mats.reshape(-1, m, d, m, d).transpose(0, 1, 3, 4, 2)
    return (blocks.reshape(-1, d * d) @ alg.coord_map.T).reshape(
        *mats.shape[:-2], m, m, alg.dim)


def _triple_defects(alg: EpsilonAlgebra, triples: np.ndarray) -> DefectReport:
    """Worst defects over stacked triples (count, 3, m, m, dim) of coordinate
    blocks; a triple with an element of norm below 1e-12 is skipped and not
    counted.

    Every product is formed on the md x md matrices and mapped back into the
    algebra through its coordinates; by linearity the associator takes one
    map of the difference (X * Y) Z - X (Y * Z).  The six stacks take their
    norms one at a time, so that no copy of all six, nor their Gram
    matrices, is alive at once."""
    x, y, z = _block_matrices(alg, triples).swapaxes(0, 1)

    def phi(mats):
        return _block_matrices(alg, _block_coords(alg, mats))

    xy = phi(x @ y)
    assoc = phi(xy @ z - x @ phi(y @ z))
    xdx = phi(np.conj(np.swapaxes(x, -1, -2)) @ x)
    norms = np.array([nl.operator_norms(v) for v in (x, y, z, assoc, xy, xdx)])
    nx, ny, nz, na, nxy, nxdx = norms[:, norms[:3].min(axis=0) >= 1e-12]
    return DefectReport(
        float(np.max(nxy / (nx * ny) - 1, initial=0.0)),
        float(np.max(na / (nx * ny * nz), initial=0.0)),
        float(np.max(1 - nxdx / nx**2, initial=0.0)),
        0.0,
        len(nx),
        "sampled",
    )


def _unit_defect(alg: EpsilonAlgebra) -> float:
    u, eye = alg.unit_coords, np.eye(alg.dim)
    norms = alg.norms(np.concatenate([u[None], eye]))
    sides = np.concatenate([alg.star(eye, u) - eye, alg.star(u, eye) - eye])
    return alg.max_norm(sides, np.tile(norms[1:], 2), float(abs(norms[0] - 1.0)))

