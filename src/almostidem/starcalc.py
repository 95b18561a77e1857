"""Almost-invariant observable algebra of an almost idempotent UCP map.

``idempotentize`` replaces the map by the nearby exact idempotent obtained by
applying the spectral step function to 2*Phi - 1 on the superoperator level.
``extract_algebra`` realizes its image as a concrete subspace of B(H) with the
induced product X * Y = Phi~(X Y), its dimension the rank of the image read
at ``numlin.RANK_REL_TOL``; ``measure_defects`` brackets how far the result
is from satisfying the algebra axioms.  Its lower bounds sweep the basis,
taking products from the n x n x n star tensor; its upper bounds of the
submultiplicativity and C* defects are read off ||Phi~ - Phi||_cb and hold
on every matrix amplification M_m (x) A.  Every operator norm is
sqrt(lam_max(X^dag X)), one stacked eigvalsh (``numlin.operator_norms``);
the sweep takes one only where the Frobenius bound, read off the
coordinates (``EpsilonAlgebra.max_norm``), can still set a maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Axiom defects of an algebra.  Each ``eps_*`` is the basis sweep's
    value, a lower bound of the defect's supremum over the algebra;
    ``submult_upper`` and ``cstar_upper`` are the certified upper bounds of
    :func:`defect_upper_bounds`."""

    eps_submult: float
    eps_assoc: float
    eps_cstar: float
    eps_unit: float
    submult_upper: float
    cstar_upper: float


@dataclass
class EpsilonAlgebra:
    """Concrete subspace of B(H) with an HS-orthonormal Hermitian basis and a
    fixed product tensor: (B_i * B_j) = sum_k star_tensor[i, j, k] B_k."""

    ambient_dim: int
    basis: np.ndarray  # (dim, d, d)
    unit_coords: np.ndarray
    star_tensor: np.ndarray
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
    unit_coords = np.real(stack_b.conj().T @ nl.vec(np.eye(dim, dtype=complex)))
    alg = EpsilonAlgebra(dim, stack, unit_coords, tensor, membership_residual=membership)
    unit_res = float(nl.operator_norms(alg.unit_element() - np.eye(dim)))
    if unit_res > 1e-8:
        raise StarCalcError(f"identity is not in the algebra: residual {unit_res:.2e}")
    return alg


def defect_upper_bounds(delta: float, n: int, d: int) -> tuple[float, float]:
    """Certified upper bounds (submult, cstar) of the submultiplicativity and
    C* defects of the algebra A = im Phi~ of dimension ``n`` on C^``d``, from
    ``delta`` >= ||Phi~ - Phi||_cb for a UCP map Phi, so ||Phi~||_cb <= 1 + delta.

    For X, Y in M_m(A), any m, ||Phi~(X Y)|| <= (1 + delta) ||X|| ||Y||, so
    eps_submult <= delta.  For X = Phi~(X), ||Phi(X)|| >= (1 - delta) ||X||,
    and Kadison-Schwarz for the UCP map id_m (x) Phi gives
    Phi(X^dag X) >= Phi(X)^dag Phi(X); so ||Phi~(X^dag X)|| >=
    ((1 - delta)^2 - delta) ||X||^2 and eps_cstar <= 3 delta - delta^2 for
    delta <= 1 (Paulsen, Completely Bounded Maps and Operator Algebras, 2002,
    ch. 3).  The bounds hold for the exact algebra, not its floating-point
    image, whose sweep reads up to about 1e-15 where delta is 0: each bound
    adds the a-priori roundoff allowance 4 (n + 3 d) eps_mach, eps_mach =
    2^-52.  A defect is a ratio of up to three norms, each of a sum of n basis
    terms taken as an m d x m d matrix, with roundoff of order (n + m d)
    eps_mach; the allowance covers m <= 3, where an exact one-dimensional
    algebra on C^2 already reads up to 6 eps_mach on M_1 to M_3.
    """
    allowance = 4 * (n + 3 * d) * 2.0**-52
    return delta + allowance, 3 * delta - delta**2 + allowance


def measure_defects(alg: EpsilonAlgebra, delta: float) -> DefectReport:
    """Axiom defects of the algebra: the basis sweep's lower bounds of all
    four, and the upper bounds of the submultiplicativity and C* defects
    that :func:`defect_upper_bounds` reads off ``delta`` >= ||Phi~ - Phi||_cb.
    """
    submult, assoc, cstar = _basis_defects(alg)
    return DefectReport(submult, assoc, cstar, _unit_defect(alg),
                        *defect_upper_bounds(delta, alg.dim, alg.ambient_dim))


def _basis_defects(alg: EpsilonAlgebra) -> tuple[float, float, float]:
    """(submult, assoc, cstar) defects over basis pairs and triples, each up
    to the adjoint.

    The basis is Hermitian and T[j, i] = conj T[i, j] (``extract_algebra``
    makes it so), so B_j * B_i = (B_i * B_j)^dag and the associator of
    (k, j, i) is minus the adjoint of that of (i, j, k): the sweeps take
    i <= j and i <= k, which have the norms of all pairs and triples."""
    n = alg.dim
    t = alg.star_tensor
    basis_norms = alg.norms(np.eye(n))

    # ||B_i * B_j|| / (||B_i|| ||B_j||), whose excess over 1 is the defect
    denom = np.outer(basis_norms, basis_norms)
    upper = np.triu_indices(n)
    submult = alg.max_norm(t[upper], denom[upper], floor=1.0) - 1
    # C* lower bound on Hermitian basis elements: X^dag = X
    diag = alg.norms(t[np.arange(n), np.arange(n)])
    cstar = float(max(np.max(1 - diag / basis_norms**2), 0.0))

    # associator over the basis triples, one first index i at a time (the
    # maximum so far its floor) so that n^2, not n^3, products are alive
    assoc = 0.0
    for i in range(n):
        tail = t[:, i:]                        # B_j * B_k coords, k >= i
        left = t[i] @ tail.reshape(n, -1)      # (B_i*B_j)*B_k coords, rows (j, k)
        right = tail.reshape(-1, n) @ t[i]     # B_i*(B_j*B_k) coords, rows (j, k)
        assoc = alg.max_norm(left.reshape(-1, n) - right,
                             (basis_norms[i] * denom[:, i:]).ravel(), assoc)
    return submult, assoc, cstar


def _unit_defect(alg: EpsilonAlgebra) -> float:
    u, eye = alg.unit_coords, np.eye(alg.dim)
    norms = alg.norms(np.concatenate([u[None], eye]))
    sides = np.concatenate([alg.star(eye, u) - eye, alg.star(u, eye) - eye])
    return alg.max_norm(sides, np.tile(norms[1:], 2), float(abs(norms[0] - 1.0)))

