"""Test oracles of the certified diamond norm: a generic small dense SDP
solver and a see-saw lower bound.

``solve_sdp`` is an infeasible-start primal-dual interior-point method with
Nesterov-Todd scaling over Hermitian block-diagonal variables, and
``diamond_norm_sdp_explicit`` poses the diamond norm as its explicit block
program.  ``diamond_lower_bound_seesaw`` is the brute-force variational
lower bound over pure inputs and output measurements.  None of them shares
code with the barrier Newton solver of ``almostidem.cbnorm``; all are
practical for small dimensions only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from almostidem import numlin as nl
from almostidem.cbnorm import CbNormError, _as_superop
from almostidem.channels import choi_from_superop
from structure_oracle import hs_inner


class SolverStall(CbNormError):
    """Raised when the interior-point iteration stops making progress."""


class Infeasible(CbNormError):
    pass


@dataclass
class SdpProblem:
    """min Re<C, X> s.t. Re<A_i, X> = b_i, X >= 0 over Hermitian block-diagonal X."""

    block_dims: tuple[int, ...]
    c_blocks: list[list[np.ndarray]] | list[np.ndarray]
    a_blocks: list[list[np.ndarray]]
    b: np.ndarray

    def __post_init__(self):
        if not isinstance(self.c_blocks[0], np.ndarray):
            raise ValueError("c_blocks must be a list of blocks")
        self.b = np.asarray(self.b, dtype=float)
        for blocks in [self.c_blocks, *self.a_blocks]:
            for blk, d in zip(blocks, self.block_dims):
                if blk.shape != (d, d):
                    raise ValueError("constraint block dims inconsistent")
                if nl.operator_norm(blk - blk.conj().T) > 1e-10 * max(1, nl.operator_norm(blk)):
                    raise ValueError("constraint blocks must be Hermitian")


def _blocks_inner(a, b) -> float:
    return float(sum(np.real(hs_inner(x, y)) for x, y in zip(a, b)))


def _real_coords(blocks) -> np.ndarray:
    """Real coordinates of one matrix per block (or of a stack of
    them along a leading axis): the real parts, then the imaginary parts,
    block after block, so that Re<A, B> = _real_coords(A) . _real_coords(B)."""
    lead = blocks[0].shape[:-2]
    return np.concatenate(
        [np.concatenate([b.real.reshape(*lead, -1), b.imag.reshape(*lead, -1)], axis=-1)
         for b in blocks], axis=-1)


def solve_sdp(
    prob: SdpProblem, tol: float = 1e-9, max_iter: int = 200,
) -> tuple[float, float, float]:
    """Infeasible-start primal-dual interior point with Nesterov-Todd scaling.

    Returns (primal_value, dual_value, gap).  Residual and gap targets follow
    ``tol``; raises :class:`SolverStall` if progress stops early and
    :class:`Infeasible` on divergence of the infeasibility measure.

    The constraints are held as one stack of shape (m, d, d) per block, so
    the constraint map, its adjoint and the Schur complement
    S_ik = sum_blocks Re<A_i, W A_k W> are each one contraction.
    """
    dims = prob.block_dims
    m = len(prob.a_blocks)
    stacks = [np.array([ab[k] for ab in prob.a_blocks], dtype=complex)
              for k in range(len(dims))]
    a_real = _real_coords(stacks)
    x = [np.eye(d, dtype=complex) for d in dims]
    s = [np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m)
    n_tot = sum(dims)

    def a_op(xb):
        return a_real @ _real_coords(xb)

    def a_adj(yv):
        return [np.tensordot(yv, st, axes=1) for st in stacks]

    best = None
    for it in range(max_iter):
        mu = _blocks_inner(x, s) / n_tot
        r_p = prob.b - a_op(x)
        r_d = [c - sa - si for c, sa, si in zip(prob.c_blocks, a_adj(y), s)]
        p_res = np.linalg.norm(r_p)
        d_res = np.sqrt(sum(np.linalg.norm(rb) ** 2 for rb in r_d))
        pval = _blocks_inner(prob.c_blocks, x)
        dval = float(prob.b @ y)
        best = (pval, dval, pval - dval)
        if p_res <= tol and d_res <= tol and mu <= tol * (1 + abs(pval)):
            return pval, dval, pval - dval
        if p_res > 1e8 or d_res > 1e8:
            raise Infeasible("primal/dual residuals diverged")

        # Nesterov-Todd scaling per block
        w_blocks = []
        for xb, sb in zip(x, s):
            xw, xu = np.linalg.eigh(nl.hermitian_part(xb))
            xs = (xu * np.sqrt(np.clip(xw, 0.0, None))) @ xu.conj().T
            mid = xs @ sb @ xs
            mw, mu_v = np.linalg.eigh(nl.hermitian_part(mid))
            mw = np.clip(mw, 1e-300, None)
            mid_inv_sqrt = (mu_v / np.sqrt(mw)) @ mu_v.conj().T
            w_blocks.append(nl.hermitian_part(xs @ mid_inv_sqrt @ xs))

        sigma = 0.2 if mu > tol else 0.0
        # target: X S = sigma*mu*I; linearized with NT scaling
        waw = _real_coords([w @ st @ w for w, st in zip(w_blocks, stacks)])
        schur = a_real @ waw.T
        schur = 0.5 * (schur + schur.T)
        rhs_blocks = [
            w @ rd @ w + xb - sigma * mu * np.linalg.inv(sb)
            for xb, sb, w, rd in zip(x, s, w_blocks, r_d)
        ]
        rhs = r_p + a_op(rhs_blocks)
        try:
            dy = scipy.linalg.cho_solve(scipy.linalg.cho_factor(schur), rhs)
        except (scipy.linalg.LinAlgError, ValueError):
            dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
        ds = [rd - az for rd, az in zip(r_d, a_adj(dy))]
        dx = [
            sigma * mu * np.linalg.inv(sb) - xb - w @ dsb @ w
            for xb, sb, w, dsb in zip(x, s, w_blocks, ds)
        ]
        alpha_p = _max_cone_step(x, dx)
        alpha_d = _max_cone_step(s, ds)
        alpha = min(1.0, 0.98 * alpha_p, 0.98 * alpha_d)
        if alpha < 1e-12:
            pval, dval, g = best
            raise SolverStall(f"step collapsed at iteration {it} (gap {g:.2e})")
        x = [nl.hermitian_part(xb + alpha * dxb) for xb, dxb in zip(x, dx)]
        s = [nl.hermitian_part(sb + alpha * dsb) for sb, dsb in zip(s, ds)]
        y = y + alpha * dy
    pval, dval, g = best
    raise SolverStall(f"no convergence in {max_iter} iterations (gap {g:.2e})")


def _max_cone_step(blocks, dblocks) -> float:
    alpha = np.inf
    for b, d in zip(blocks, dblocks):
        li = np.linalg.cholesky(b)
        mid = scipy.linalg.solve_triangular(li, d, lower=True)
        mid = scipy.linalg.solve_triangular(li, mid.conj().T, lower=True).conj().T
        lam = np.linalg.eigvalsh(nl.hermitian_part(mid))[0]
        if lam < 0:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def diamond_norm_sdp_explicit(
    mp, dim_in=None, dim_out=None, tol: float = 1e-9,
) -> tuple[float, float, float]:
    """Diamond norm through :func:`solve_sdp` on the explicit block program.

    Independent of :func:`diamond_norm`; practical for small dimensions only.
    """
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    j = choi_from_superop(m, d_in, d_out)
    n = d_in * d_out

    # variable X = [[Z11, Z12], [Z12^dag, Z22]] of size 2n, plus constraints
    # forcing Z11 = rho (x) I, Z22 = sigma (x) I, Tr rho = Tr sigma = 1.
    dims = (2 * n,)
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    c[:n, n:] = -j / 2
    c[n:, :n] = -j.conj().T / 2

    a_blocks = []
    b = []
    herm_big = np.stack(nl.hermitian_basis(n)).reshape(n * n, n * n)
    span = np.stack([nl.kron(h, np.eye(d_out)).ravel() / np.sqrt(d_out)
                     for h in nl.hermitian_basis(d_in)], axis=1)

    # orthonormal basis (with real coordinates over the Hermitian basis) of the
    # orthogonal complement of the rho (x) I subspace inside Hermitian space:
    # column k of coord_mat holds the coordinates of the residual of basis
    # element k after projecting out that subspace
    resid = herm_big - (herm_big @ span.conj()) @ span.T
    coord_mat = np.real(herm_big.conj() @ resid.T)
    q, r, _ = scipy.linalg.qr(coord_mat, mode="economic", pivoting=True)
    rank = nl.rank_from_singular_values(np.abs(np.diag(r)), 1e-9)
    comp_ops = (q[:, :rank].T @ herm_big).reshape(rank, n, n)
    for resid in comp_ops:
        # components of Z11/Z22 orthogonal to the rho (x) I subspace vanish
        blk = np.zeros((2 * n, 2 * n), dtype=complex)
        blk[:n, :n] = resid
        a_blocks.append([blk])
        b.append(0.0)
        blk = np.zeros((2 * n, 2 * n), dtype=complex)
        blk[n:, n:] = resid
        a_blocks.append([blk])
        b.append(0.0)
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[:n, :n] = np.eye(n)
    a_blocks.append([blk])
    b.append(float(d_out))
    blk = np.zeros((2 * n, 2 * n), dtype=complex)
    blk[n:, n:] = np.eye(n)
    a_blocks.append([blk])
    b.append(float(d_out))

    prob = SdpProblem(dims, [c], a_blocks, np.array(b))
    pval, dval, gap = solve_sdp(prob, tol)
    return -pval, -dval, gap


def extend_superop_right(m: np.ndarray, n: int, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of ``Phi (x) 1_{M_n}`` on B(C^dim (x) C^n)."""
    m4 = np.asarray(m, dtype=complex).reshape(dim_out, dim_out, dim_in, dim_in)
    eye = np.eye(n)
    ext = np.einsum("lkji,bp,aq->lbkajpiq", m4, eye, eye)
    big_out = n * dim_out
    big_in = n * dim_in
    return ext.reshape(big_out * big_out, big_in * big_in)


def diamond_lower_bound_seesaw(
    mp, dim_in=None, dim_out=None, restarts: int = 20, iters: int = 60,
    seed: int = 0,
) -> float:
    """Brute-force lower bound: alternate over pure inputs on H (x) H and
    output measurement operators.  Every evaluation is a feasible value, so
    the maximum found is a valid lower bound on the diamond norm."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    ext = extend_superop_right(m, d_in, d_in, d_out)
    n_in = d_in * d_in
    n_out = d_out * d_in
    ext_adj = ext.conj().T
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        psi = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
        psi /= np.linalg.norm(psi)
        prev = -1.0
        for _ in range(iters):
            out = nl.unvec(ext @ nl.vec(np.outer(psi, psi.conj())), n_out, n_out)
            u_meas, val = _trace_norm_and_sign(out)
            if val <= prev * (1 + 1e-13):
                break
            prev = val
            back = nl.unvec(ext_adj @ nl.vec(u_meas), n_in, n_in)
            w, vecs = np.linalg.eigh(nl.hermitian_part(back))
            psi = vecs[:, -1]
        best = max(best, prev)
    return best


def _trace_norm_and_sign(out: np.ndarray):
    """(U, ||out||_1) with U the optimal measurement contraction, Re<U,out> = ||out||_1."""
    herm_res = nl.operator_norm(out - out.conj().T)
    if herm_res <= 1e-10 * max(nl.operator_norm(out), 1e-30):
        w, v = np.linalg.eigh(nl.hermitian_part(out))
        u = (v * np.sign(w)) @ v.conj().T
        return u, float(np.sum(np.abs(w)))
    u_l, s, vh = np.linalg.svd(out)
    return u_l @ vh, float(np.sum(s))
