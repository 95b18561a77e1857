"""Almost-invariant observable algebra of an almost idempotent UCP map.

``idempotentize`` replaces the map by the nearby exact idempotent obtained by
applying the spectral step function to 2*Phi - 1 on the superoperator level.
``extract_algebra`` realizes its image as a concrete subspace of B(H) with the
induced product X * Y = Phi~(X Y); ``measure_defects`` estimates how far the
result is from satisfying the algebra axioms, including on matrix
amplifications M_n (x) A; ``exactify_unit`` repairs an approximate unit by a
Newton solve inside the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numlin as nl
from .channels import Channel
from . import cbnorm


class StarCalcError(Exception):
    pass


class EtaTooLarge(StarCalcError):
    pass


class IllConditionedSpectralGap(StarCalcError):
    pass


class NewtonDiverged(StarCalcError):
    pass


@dataclass
class IdempotentizedMap:
    """Idempotent envelope of a UCP map, with measured quality numbers."""

    superop: np.ndarray
    dim: int
    residual: float                      # || M~^2 - M~ ||
    eta: cbnorm.NormCertificate          # certified || Phi^2 - Phi ||_cb
    distance_cb: cbnorm.NormCertificate  # certified || Phi~ - Phi ||_cb

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return nl.unvec(self.superop @ nl.vec(np.asarray(x, dtype=complex)), self.dim, self.dim)


def idempotentize(
    ch: Channel,
    eta: cbnorm.NormCertificate | None = None,
    tol: nl.ToleranceConfig = nl.DEFAULT_TOL,
) -> IdempotentizedMap:
    """Nearest idempotent envelope theta(2 Phi - 1) of an almost idempotent map."""
    m = ch.superop
    if ch.dim_in != ch.dim_out:
        raise nl.DimMismatch("idempotentize needs an endomorphism")
    if eta is None:
        eta = cbnorm.cb_norm(m @ m - m, ch.dim_in, ch.dim_in)
    if eta.upper >= 0.25:
        raise EtaTooLarge(
            f"certified idempotency defect {eta.upper:.4f} is outside the "
            f"convergence domain (needs < 1/4)"
        )
    n = m.shape[0]
    m_tilde = nl.theta(2 * m - np.eye(n), tol)
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
    method: str = "basis_bound"  # basis_bound | sampled | refined

    def merge(self, other: "DefectReport") -> "DefectReport":
        order = ["basis_bound", "sampled", "refined"]
        return DefectReport(
            max(self.eps_submult, other.eps_submult),
            max(self.eps_assoc, other.eps_assoc),
            max(self.eps_cstar, other.eps_cstar),
            max(self.eps_unit, other.eps_unit),
            self.sample_count + other.sample_count,
            max(self.method, other.method, key=order.index),
        )

    def worst(self) -> float:
        return max(self.eps_submult, self.eps_assoc, self.eps_cstar, self.eps_unit)


@dataclass
class EpsilonAlgebra:
    """Concrete subspace of B(H) with an HS-orthonormal Hermitian basis and a
    fixed product tensor: (B_i * B_j) = sum_k star_tensor[i, j, k] B_k."""

    ambient_dim: int
    basis: list[np.ndarray]
    unit_coords: np.ndarray
    star_tensor: np.ndarray
    defects: DefectReport | None = None
    membership_residual: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords), np.stack(self.basis), axes=(0, 0))

    def coords(self, x: np.ndarray) -> np.ndarray:
        return np.array([nl.hs_inner(b, x) for b in self.basis])

    def star(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.star_tensor)

    def dagger(self, x: np.ndarray) -> np.ndarray:
        return np.conj(x)

    def norm(self, x: np.ndarray) -> float:
        return nl.operator_norm(self.element(x))

    def norms(self, coords: np.ndarray) -> np.ndarray:
        """Operator norms of the elements whose coordinates are the rows of ``coords``."""
        d = self.ambient_dim
        mats = coords @ np.stack(self.basis).reshape(self.dim, d * d)
        return np.linalg.svd(mats.reshape(-1, d, d), compute_uv=False)[:, 0]

    def lmul(self, x: np.ndarray) -> np.ndarray:
        """Matrix of Y -> X * Y on coordinates."""
        return np.einsum("i,ijk->kj", x, self.star_tensor)

    def rmul(self, x: np.ndarray) -> np.ndarray:
        """Matrix of Y -> Y * X on coordinates."""
        return np.einsum("j,ijk->ki", x, self.star_tensor)

    def unit_element(self) -> np.ndarray:
        return self.element(self.unit_coords)

    def subalgebra(self, image_coords: np.ndarray, unit_coords: np.ndarray,
                   project) -> tuple["EpsilonAlgebra", np.ndarray]:
        """Algebra carried by a compression image.

        ``image_coords`` has orthonormal columns (coordinates of the new basis
        in this algebra); ``project`` maps parent coordinates onto the image;
        the product is the compressed product project(x * y).  Returns the
        subalgebra and the lift matrix (sub coords -> parent coords).
        """
        cols = [image_coords[:, i] for i in range(image_coords.shape[1])]
        sub_basis = [self.element(c) for c in cols]
        k = len(cols)
        tensor = np.zeros((k, k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                prod = project(self.star(cols[i], cols[j]))
                tensor[i, j, :] = image_coords.conj().T @ prod
        sub_unit = image_coords.conj().T @ unit_coords
        sub = EpsilonAlgebra(self.ambient_dim, sub_basis, sub_unit, tensor)
        return sub, image_coords


def extract_algebra(
    pm: IdempotentizedMap,
    tol: nl.ToleranceConfig = nl.DEFAULT_TOL,
) -> EpsilonAlgebra:
    """Image of the idempotent envelope as a concrete algebra with basis."""
    m = pm.superop
    if nl.operator_norm(m @ m - m) > 1e-8:
        raise StarCalcError("map is not idempotent within 1e-8")
    eig = np.linalg.eigvals(m)
    mid = np.abs(eig - 0.5) < 0.25
    if np.any(mid):
        raise IllConditionedSpectralGap(
            "superoperator spectrum has weight near 1/2; the image is not "
            "numerically well defined"
        )
    dim = pm.dim
    cols = nl.column_space(m, tol.rank_rel_tol)
    basis = _hermitian_rotation(cols, dim)
    if len(basis) != cols.shape[1]:
        raise StarCalcError(
            f"Hermitian closure changed the algebra dimension "
            f"{cols.shape[1]} -> {len(basis)}"
        )
    membership = max(
        nl.operator_norm(pm(b) - b) for b in basis
    )
    if membership > 1e-9:
        raise StarCalcError(f"basis is not fixed by the map: residual {membership:.2e}")

    n = len(basis)
    stack_b = np.stack([nl.vec(b) for b in basis], axis=1)
    tensor = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            prod = pm(basis[i] @ basis[j])
            tensor[i, j, :] = stack_b.conj().T @ nl.vec(prod)
    # (X*Y)^dag = Y^dag * X^dag exactly at the tensor level
    tensor = 0.5 * (tensor + np.conj(np.transpose(tensor, (1, 0, 2))))
    unit_coords = np.real(stack_b.conj().T @ nl.vec(np.eye(dim, dtype=complex)))
    alg = EpsilonAlgebra(dim, basis, unit_coords, tensor,
                         membership_residual=membership)
    unit_res = nl.operator_norm(alg.unit_element() - np.eye(dim))
    if unit_res > 1e-8:
        raise StarCalcError(f"identity is not in the algebra: residual {unit_res:.2e}")
    return alg


def _hermitian_rotation(q: np.ndarray, dim: int) -> list[np.ndarray]:
    """Orthonormal basis of Hermitian matrices spanning the columns of q.

    The column span is closed under the (vectorized) adjoint; find real-linear
    combinations that are Hermitian by diagonalizing the adjoint involution.
    """
    mats = [nl.unvec(q[:, i], dim, dim) for i in range(q.shape[1])]
    herm: list[np.ndarray] = []
    for x in mats:
        herm.append(nl.hermitian_part(x))
        herm.append(nl.hermitian_part(-1j * x))
    coords = np.stack([nl.vec(h) for h in herm], axis=1)
    # orthonormalize with real coefficients over the Hermitian set
    gram_vecs = []
    out: list[np.ndarray] = []
    for col in range(coords.shape[1]):
        v = coords[:, col]
        for g in gram_vecs:
            v = v - g * np.real(np.vdot(g, v))
        nrm = np.linalg.norm(v)
        if nrm > 1e-7:
            v = v / nrm
            gram_vecs.append(v)
            out.append(nl.unvec(v, dim, dim))
        if len(out) == q.shape[1]:
            break
    return out


def measure_defects(
    alg: EpsilonAlgebra,
    samples: int = 200,
    extension_n: int = 1,
    seed: int = 0,
    ascent_steps: int = 60,
) -> DefectReport:
    """Estimated axiom defects: basis sweep, random sampling, local ascent.

    Values are lower bounds on the true suprema; the ``method`` field records
    the deepest stage that produced the estimates.
    """
    report = _basis_defects(alg)
    rng = np.random.default_rng(seed)
    if samples > 0:
        report = report.merge(_sampled_defects(alg, samples, rng))
        report = replace(report, method="sampled")
    if ascent_steps > 0:
        report = report.merge(_ascent_refinement(alg, ascent_steps, rng))
        report = replace(report, method="refined")
    for n_ext in range(2, extension_n + 1):
        report = report.merge(_extension_defects(alg, n_ext, max(samples // 2, 40), rng))
    report = replace(report, eps_unit=max(report.eps_unit, _unit_defect(alg)))
    return report


def _basis_defects(alg: EpsilonAlgebra) -> DefectReport:
    n = alg.dim
    t = alg.star_tensor
    basis_norms = alg.norms(np.eye(n))
    rep = DefectReport(sample_count=0, method="basis_bound")

    prod_mats = np.einsum("ijk,kab->ijab", t, np.stack(alg.basis))
    sv = np.linalg.svd(prod_mats.reshape(n * n, alg.ambient_dim, alg.ambient_dim),
                       compute_uv=False)[:, 0].reshape(n, n)
    denom = np.outer(basis_norms, basis_norms)
    rep.eps_submult = float(np.max(sv / denom - 1).clip(0))

    # C* lower bound on Hermitian basis elements: X^dag = X
    cstar = 0.0
    for i in range(n):
        e_i = np.eye(n)[i]
        nrm2 = basis_norms[i] ** 2
        val = alg.norm(alg.star(e_i, e_i))
        cstar = max(cstar, 1 - val / nrm2)
    rep.eps_cstar = float(max(cstar, 0.0))

    # associator over all basis triples, batched
    left = np.einsum("ijm,mkl->ijkl", t, t)   # (B_i*B_j)*B_k coords
    right = np.einsum("jkm,iml->ijkl", t, t)  # B_i*(B_j*B_k) coords
    diff = (left - right).reshape(n * n * n, n)
    mats = np.einsum("pl,lab->pab", diff, np.stack(alg.basis))
    sv = np.linalg.svd(mats, compute_uv=False)[:, 0].reshape(n, n, n)
    denom3 = basis_norms[:, None, None] * basis_norms[None, :, None] * basis_norms[None, None, :]
    rep.eps_assoc = float(np.max(sv / denom3))
    return rep


def _sampled_defects(alg: EpsilonAlgebra, samples: int, rng) -> DefectReport:
    n = alg.dim
    rep = DefectReport(sample_count=samples, method="sampled")
    for _ in range(samples):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rep = rep.merge(_triple_defect(alg, x, y, z))
    return rep


def _triple_defect(alg: EpsilonAlgebra, x, y, z) -> DefectReport:
    nx, ny, nz = alg.norm(x), alg.norm(y), alg.norm(z)
    if min(nx, ny, nz) < 1e-12:
        return DefectReport()
    xy = alg.star(x, y)
    yz = alg.star(y, z)
    assoc = alg.norm(alg.star(xy, z) - alg.star(x, yz)) / (nx * ny * nz)
    submult = max(alg.norm(xy) / (nx * ny) - 1, 0.0)
    xdx = alg.star(alg.dagger(x), x)
    cstar = max(1 - alg.norm(xdx) / nx**2, 0.0)
    return DefectReport(submult, assoc, cstar, 0.0, 1)


def _ascent_refinement(alg: EpsilonAlgebra, steps: int, rng) -> DefectReport:
    """Hill-climb the normalized associator from the worst sampled triple."""
    n = alg.dim
    best = None
    best_val = -1.0
    for _ in range(20):
        x, y, z = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
        val = _assoc_value(alg, x, y, z)
        if val > best_val:
            best_val, best = val, (x, y, z)
    x, y, z = best
    scale = 0.3
    count = 0
    for _ in range(steps):
        cand = (
            x + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            y + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            z + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        )
        val = _assoc_value(alg, *cand)
        count += 1
        if val > best_val:
            best_val = val
            x, y, z = cand
        else:
            scale *= 0.85
    rep = _triple_defect(alg, x, y, z)
    return replace(rep, sample_count=count, method="refined")


def _assoc_value(alg, x, y, z) -> float:
    nx, ny, nz = alg.norm(x), alg.norm(y), alg.norm(z)
    if min(nx, ny, nz) < 1e-12:
        return 0.0
    return alg.norm(alg.star(alg.star(x, y), z) - alg.star(x, alg.star(y, z))) / (
        nx * ny * nz
    )


def _unit_defect(alg: EpsilonAlgebra) -> float:
    n = alg.dim
    worst = abs(alg.norm(alg.unit_coords) - 1.0)
    for i in range(n):
        e_i = np.eye(n)[i]
        nrm = alg.norm(e_i)
        worst = max(
            worst,
            alg.norm(alg.star(e_i, alg.unit_coords) - e_i) / nrm,
            alg.norm(alg.star(alg.unit_coords, e_i) - e_i) / nrm,
        )
    return worst


def _extension_defects(alg: EpsilonAlgebra, n_ext: int, samples: int, rng) -> DefectReport:
    """Defects of M_n (x) A with the concrete operator norm on C^n (x) H."""
    n = alg.dim
    rep = DefectReport(sample_count=samples, method="sampled")
    basis_stack = np.stack(alg.basis)

    def ext_star(xc, yc):
        # coords with shape (n_ext, n_ext, n): block matrix product with * inside
        return np.einsum("abi,bcj,ijk->ack", xc, yc, alg.star_tensor)

    def ext_norm(xc):
        blocks = np.einsum("abi,icd->abcd", xc, basis_stack)
        mat = blocks.transpose(0, 2, 1, 3).reshape(
            n_ext * alg.ambient_dim, n_ext * alg.ambient_dim
        )
        return nl.operator_norm(mat)

    def ext_dagger(xc):
        return np.conj(np.transpose(xc, (1, 0, 2)))

    for _ in range(samples):
        xc = rng.standard_normal((n_ext, n_ext, n)) + 1j * rng.standard_normal((n_ext, n_ext, n))
        yc = rng.standard_normal((n_ext, n_ext, n)) + 1j * rng.standard_normal((n_ext, n_ext, n))
        zc = rng.standard_normal((n_ext, n_ext, n)) + 1j * rng.standard_normal((n_ext, n_ext, n))
        nx, ny, nz = ext_norm(xc), ext_norm(yc), ext_norm(zc)
        if min(nx, ny, nz) < 1e-12:
            continue
        xy = ext_star(xc, yc)
        assoc = ext_norm(ext_star(xy, zc) - ext_star(xc, ext_star(yc, zc))) / (nx * ny * nz)
        submult = max(ext_norm(xy) / (nx * ny) - 1, 0.0)
        xdx = ext_star(ext_dagger(xc), xc)
        cstar = max(1 - ext_norm(xdx) / nx**2, 0.0)
        rep = rep.merge(DefectReport(submult, assoc, cstar, 0.0, 1))
    return rep


def exactify_unit(
    alg: EpsilonAlgebra,
    tol: nl.ToleranceConfig = nl.DEFAULT_TOL,
) -> EpsilonAlgebra:
    """Repair an approximate unit: Newton-solve X*X = X near the unit and
    absorb the change of unit into a modified product."""
    eps_unit = _unit_defect(alg)
    if eps_unit >= 0.1:
        raise StarCalcError(f"unit defect {eps_unit:.3f} too large to exactify")
    if eps_unit <= 1e-10:
        return alg
    n = alg.dim
    x = np.asarray(alg.unit_coords, dtype=float).astype(complex)
    prev = np.inf
    bad = 0
    for _ in range(tol.newton_max_iter):
        f = alg.star(x, x) - x
        res = np.linalg.norm(f)
        if res <= 1e-13:
            break
        if res >= prev:
            bad += 1
            if bad >= 3:
                raise NewtonDiverged(f"unit Newton stalled at residual {res:.2e}")
        prev = res
        jac = alg.lmul(x) + alg.rmul(x) - np.eye(n)
        try:
            delta = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(str(exc)) from exc
        x = np.real(x - delta)  # symmetrized iterate keeps J Hermitian
    else:
        raise NewtonDiverged("unit Newton did not converge")
    j_coords = np.real(x)
    lj = alg.lmul(j_coords)
    rj = alg.rmul(j_coords)
    lj_inv = np.linalg.inv(lj)
    rj_inv = np.linalg.inv(rj)
    new_tensor = np.einsum("ai,bj,abk->ijk", rj_inv, lj_inv, alg.star_tensor)
    out = EpsilonAlgebra(alg.ambient_dim, alg.basis, j_coords, new_tensor,
                         membership_residual=alg.membership_residual)
    return out


def choi_residual_check(
    ch: Channel, samples: int = 40, seed: int = 0
) -> float:
    """Max over probes of ||(1 - V V^dag)(Phi(X) (x) 1_F) V|| / ||X||.

    Measures how far image operators are from commuting with the dilation
    projector; scales like the square root of the idempotency defect.
    """
    v, env = ch.stinespring
    dim = ch.dim_in
    proj = np.eye(v.shape[0]) - v @ v.conj().T
    rng = np.random.default_rng(seed)
    worst = 0.0
    probes = [nl.random_hermitian(dim, rng) for _ in range(samples)]
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
        x, y, z = (nl.random_hermitian(dim, rng) for _ in range(3))
        px, py, pz = ch(x), ch(y), ch(z)
        denom = nl.operator_norm(x) * nl.operator_norm(y) * nl.operator_norm(z)
        base = ch(px @ py @ pz)
        left = ch(ch(px @ py) @ pz)
        right = ch(px @ ch(py @ pz))
        worst_l = max(worst_l, nl.operator_norm(left - base) / denom)
        worst_r = max(worst_r, nl.operator_norm(right - base) / denom)
    return worst_l, worst_r
