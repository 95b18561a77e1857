"""Completely bounded (diamond) norm with certified two-sided bounds.

``diamond_norm`` measures a map given on the trace side; ``cb_norm`` measures
a map on the observable side via its adjoint.  Both return a
:class:`NormCertificate` whose ``lower`` comes from an explicitly feasible
primal point of the standard semidefinite program

    maximize Re<J, X>  s.t.  [[rho (x) I, X], [X^dag, sigma (x) I]] >= 0,

with rho, sigma density matrices, and whose ``upper`` comes from an explicitly
feasible point of its dual

    minimize (||Tr_out Y0|| + ||Tr_out Y1||) / 2
    s.t.     [[Y0, -J], [-J^dag, Y1]] >= 0.

The program is solved by eliminating X: for fixed (rho, sigma) the optimal
objective is the trace norm ||(sqrt(rho) (x) I) J (sqrt(sigma) (x) I)||_1,
which is jointly concave, so a fast alternating ascent gives the bulk of the
value and a log-det barrier Newton method (a small dense interior-point
solver over the remaining variables) closes the duality gap when needed.

Each certificate carries a :class:`Witness`: the density pair of its lower
bound and the generator of the dual point of its upper bound.
``check_witness`` re-evaluates both on a Choi matrix without solving, which
is how a recorded certificate is verified.

``solve_sdp`` is a generic small dense primal-dual interior-point solver used
for independent cross checks, and ``diamond_lower_bound_seesaw`` is the
brute-force variational oracle over pure inputs and output measurements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numlin as nl
from .channels import Channel, choi_from_superop, extend_superop_right


class CbNormError(Exception):
    pass


class SolverStall(CbNormError):
    """Raised only when no certified interval can be produced at all."""


class Infeasible(CbNormError):
    pass


class InvalidWitness(CbNormError):
    """A witness that does not fit the map it is checked against."""


_UPPER_KINDS = ("cheap", "point", "center")


@dataclass
class Witness:
    """The points that certify a :class:`NormCertificate`.

    ``lower`` is a density pair (rho, sigma) whose primal value is the lower
    bound.  ``upper`` holds the generator of the dual point of the upper
    bound, by ``upper_kind``: nothing for "cheap" (the polar factorization of
    J), (rho, sigma) for "point" (``_dual_bound_from_point``) and
    (rho, sigma, X, t) for "center" (``_dual_bound_from_center``).
    ``target_rel_gap`` is the gap target the solve worked to.
    """

    lower: tuple
    upper_kind: str = "cheap"
    upper: tuple = ()
    target_rel_gap: float = 1e-6


@dataclass
class NormCertificate:
    value: float
    upper: float
    lower: float
    iterations: int
    gap: float
    stalled: bool = False
    path: str = "cheap"  # cheap | ascent | restart | barrier: where the solve closed
    witness: Witness | None = None

    def __post_init__(self):
        if self.upper < self.lower - 1e-12:
            raise CbNormError(
                f"invalid certificate: lower {self.lower} > upper {self.upper}"
            )
        self.upper = max(self.upper, self.lower)
        self.gap = self.upper - self.lower
        self.value = 0.5 * (self.upper + self.lower)


def _as_superop(mp, dim_in=None, dim_out=None):
    if isinstance(mp, Channel):
        return mp.superop, mp.dim_in, mp.dim_out
    m = np.asarray(mp, dtype=complex)
    if dim_in is None:
        dim_in = int(round(np.sqrt(m.shape[1])))
    if dim_out is None:
        dim_out = int(round(np.sqrt(m.shape[0])))
    return m, dim_in, dim_out


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(nl.hermitian_part(rho))
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def _density_sqrt(m: np.ndarray) -> np.ndarray:
    """sqrt of ``m`` made a density matrix: eigenvalues clipped at 0, then trace 1."""
    w, u = np.linalg.eigh(nl.hermitian_part(m))
    w = np.clip(w, 0.0, None)
    if not w.sum() > 0:
        raise InvalidWitness("no positive part to make a density matrix of")
    return (u * np.sqrt(w / w.sum())) @ u.conj().T


def _sqrt_and_inv_sqrt(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(rho) and rho^(-1/2) from one eigendecomposition."""
    w, u = np.linalg.eigh(nl.hermitian_part(rho))
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    inv_root = (u / np.sqrt(np.clip(w, 1e-300, None))) @ u.conj().T
    return root, inv_root


# Operators on C^d_in (x) C^d_out act on the input factor as a (x) I.  The
# helpers below apply such products through reshapes instead of forming the
# Kronecker product; ``a`` and ``b`` may be stacks of shape (..., d_in, d_in).

def _lmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(a (x) I) @ m."""
    return (a @ m.reshape(a.shape[-1], -1)).reshape(a.shape[:-2] + m.shape)


def _rmul(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """m @ (b (x) I), as ((b^T (x) I) m^T)^T."""
    return np.swapaxes(_lmul(np.swapaxes(b, -1, -2), m.T), -1, -2)


def _ptrace_out(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Partial trace over the output factor (``partial_trace(m, dims, keep=0)``)."""
    return np.einsum("iyjy->ij", m.reshape(d_in, d_out, d_in, d_out))


def _primal_value(j: np.ndarray, rho: np.ndarray, sigma: np.ndarray, d_out: int) -> float:
    """||(sqrt(rho) (x) I) J (sqrt(sigma) (x) I)||_1 with rho, sigma first made
    density matrices (:func:`_density_sqrt`), so the value is a valid lower
    bound at any point: a barrier center's trace drifts off 1 by roundoff, and
    a witness read from a file may be anything.

    The split of J into factors follows from the shape of rho, so ``d_out``
    goes unused.
    """
    return nl.trace_norm(_lmul(_density_sqrt(rho), _rmul(j, _density_sqrt(sigma))))


def _dual_bound_from_point(
    j: np.ndarray, rho: np.ndarray, sigma: np.ndarray, d_in: int, d_out: int,
    mix: float = 1e-9,
) -> float:
    """Feasible dual value built from an interior primal point.

    Factorizes J = A^dag B through the (regularized) point and verifies
    feasibility of the resulting dual block matrix explicitly, folding any
    numerical slack into the bound.
    """
    eye_in = np.eye(d_in)
    rho_r = (1 - mix) * nl.hermitian_part(rho) + mix * eye_in / d_in
    sig_r = (1 - mix) * nl.hermitian_part(sigma) + mix * eye_in / d_in
    sr, sri = _sqrt_and_inv_sqrt(rho_r)
    ss, ssi = _sqrt_and_inv_sqrt(sig_r)
    u, s, vh = np.linalg.svd(_lmul(sr, _rmul(j, ss)))
    y0 = nl.hermitian_part(_lmul(sri, _rmul((u * s) @ u.conj().T, sri)))
    y1 = nl.hermitian_part(_lmul(ssi, _rmul((vh.conj().T * s) @ vh, ssi)))
    # explicit feasibility check of [[Y0, -J], [-J^dag, Y1]]
    block = np.block([[y0, -j], [-j.conj().T, y1]])
    lam_min = float(np.linalg.eigvalsh(nl.hermitian_part(block))[0])
    slack = max(0.0, -lam_min) * (1 + 1e-9)
    val0 = nl.operator_norm(_ptrace_out(y0, d_in, d_out))
    val1 = nl.operator_norm(_ptrace_out(y1, d_in, d_out))
    return 0.5 * (val0 + val1) + slack * d_out


def _cheap_upper_bound(j: np.ndarray, d_in: int, d_out: int) -> float:
    """Fast dual-feasible bound from the polar factorization of J."""
    u, s, vh = np.linalg.svd(j)
    y0 = nl.hermitian_part((u * s) @ u.conj().T)   # |J^dag|
    y1 = nl.hermitian_part((vh.conj().T * s) @ vh)  # |J|
    val0 = nl.operator_norm(_ptrace_out(y0, d_in, d_out))
    val1 = nl.operator_norm(_ptrace_out(y1, d_in, d_out))
    return 0.5 * (val0 + val1)


def _alternating_ascent(
    j: np.ndarray, d_in: int, d_out: int, iters: int, rng: np.random.Generator,
    rho0=None, sigma0=None,
):
    """Monotone surrogate ascent on f(rho, sigma); returns the best point.

    The loop carries sqrt(rho), sqrt(sigma) and the SVD of the current
    M = (sqrt(rho) (x) I) J (sqrt(sigma) (x) I): the SVD that gives the value
    at the end of one iteration is the first SVD of the next, so an iteration
    costs two SVDs and two eigendecompositions of size d_in.  A start point is
    first made a density matrix, as in :func:`_primal_value`, and the point
    returned is the one that attains the value returned.
    """
    rho = np.eye(d_in, dtype=complex) / d_in if rho0 is None else rho0
    sigma = np.eye(d_in, dtype=complex) / d_in if sigma0 is None else sigma0
    sr, ss = _density_sqrt(rho), _density_sqrt(sigma)
    js = _rmul(j, ss)
    u, s, vh = np.linalg.svd(_lmul(sr, js))
    best = float(np.sum(s))
    for _ in range(iters):
        prev = rho, sigma
        # rho update: maximize Re Tr(sqrt(rho') N) with N below
        n_mat = _ptrace_out(js @ (u @ vh).conj().T, d_in, d_out)
        new = _state_from_halfgrad(nl.hermitian_part(n_mat))
        if new is not None:
            rho, sr = new
        rj = _lmul(sr, j)
        u, s, vh = np.linalg.svd(_rmul(rj, ss))
        n_mat = _ptrace_out((u @ vh).conj().T @ rj, d_in, d_out)
        new = _state_from_halfgrad(nl.hermitian_part(n_mat))
        if new is not None:
            sigma, ss = new
        js = _rmul(j, ss)
        u, s, vh = np.linalg.svd(_lmul(sr, js))
        val = float(np.sum(s))
        if val <= best * (1 + 1e-12):
            if val < best:
                # the last step lost value: return the point that attains best
                rho, sigma = prev
            else:
                best = val
            break
        best = val
    return rho, sigma, best


def _state_from_halfgrad(h: np.ndarray):
    """argmax over density rho of Tr(sqrt(rho) H): the normalized square of H_+.

    Returns ``(rho, sqrt(rho))``, or None when H has no positive part.
    """
    w, u = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    nrm = np.linalg.norm(w)
    if nrm <= 0:
        return None
    w = w / nrm
    return (u * w ** 2) @ u.conj().T, (u * w) @ u.conj().T


# ---------------------------------------------------------------------------
# barrier Newton solver over (rho, sigma, X)
# ---------------------------------------------------------------------------

class _BarrierWorkspace:
    def __init__(self, j: np.ndarray, d_in: int, d_out: int):
        self.j = j
        self.d_in = d_in
        self.d_out = d_out
        self.n_big = d_in * d_out
        self.basis = nl.hermitian_basis(d_in)
        self.nb = len(self.basis)
        self.h_stack = np.stack(self.basis)  # (nb, d_in, d_in)
        self.trace_row = np.array([np.trace(h).real for h in self.basis])
        self.nx = self.n_big * self.n_big
        self.p = 2 * self.nb + 2 * self.nx

    def z_matrix(self, rho, sigma, x):
        """Z = [[rho (x) I, X], [X^dag, sigma (x) I]]."""
        n_big, d_in, d_out = self.n_big, self.d_in, self.d_out
        z = np.zeros((2 * n_big, 2 * n_big), dtype=complex)
        # view with axes (block, i, y, block, j, y'): rho (x) I sits on y = y'
        blocks = z.reshape(2, d_in, d_out, 2, d_in, d_out)
        diag = np.arange(d_out)
        blocks[0, :, diag, 0, :, diag] = rho
        blocks[1, :, diag, 1, :, diag] = sigma
        z[:n_big, n_big:] = x
        z[n_big:, :n_big] = x.conj().T
        return z

    def is_pd(self, rho, sigma, x) -> bool:
        z = self.z_matrix(rho, sigma, x)
        try:
            np.linalg.cholesky(z + 0j)
            return True
        except np.linalg.LinAlgError:
            return False

    def newton_step(self, t, rho, sigma, x):
        """One KKT Newton step for max t*Re<J,X> + logdet Z on the simplex."""
        d_in, d_out, nb, nx = self.d_in, self.d_out, self.nb, self.nx
        n_big = self.n_big
        z = self.z_matrix(rho, sigma, x)
        g = np.linalg.inv(z)
        g = nl.hermitian_part(g)
        g1 = g[:n_big, :n_big]
        k = g[:n_big, n_big:]
        g2 = g[n_big:, n_big:]

        # gradient of t*obj + logdet
        grad = np.empty(self.p)
        tr_g1 = _ptrace_out(g1, d_in, d_out)
        tr_g2 = _ptrace_out(g2, d_in, d_out)
        grad[:nb] = [np.real(nl.hs_inner(h, tr_g1)) for h in self.basis]
        grad[nb: 2 * nb] = [np.real(nl.hs_inner(h, tr_g2)) for h in self.basis]
        gx = t * self.j / 2.0 + k  # d/d(conj X) of (t obj/... ) in Wirtinger form
        # real gradient over (Re X, Im X) coordinates
        grad[2 * nb: 2 * nb + nx] = 2 * np.real(gx).ravel(order="F")
        grad[2 * nb + nx:] = 2 * np.imag(gx).ravel(order="F")

        hess = self._hessian(g1, g2, k)
        # KKT system with the two trace constraints
        c_rows = np.zeros((2, self.p))
        c_rows[0, :nb] = self.trace_row
        c_rows[1, nb: 2 * nb] = self.trace_row
        kkt = np.zeros((self.p + 2, self.p + 2))
        kkt[: self.p, : self.p] = hess
        kkt[: self.p, self.p:] = c_rows.T
        kkt[self.p:, : self.p] = c_rows
        rhs = np.concatenate([grad, np.zeros(2)])
        try:
            with warnings.catch_warnings():
                # near the end of the path the KKT system is ill conditioned by
                # design; step quality is guarded by the line search and the
                # final certificates are feasibility-checked explicitly
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                sol = scipy.linalg.solve(kkt, rhs, assume_a="sym")
        except scipy.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        step = sol[: self.p]
        decrement = float(grad @ step)
        d_rho = np.tensordot(step[:nb], self.h_stack, axes=(0, 0))
        d_sigma = np.tensordot(step[nb: 2 * nb], self.h_stack, axes=(0, 0))
        d_x = (
            step[2 * nb: 2 * nb + nx].reshape(n_big, n_big, order="F")
            + 1j * step[2 * nb + nx:].reshape(n_big, n_big, order="F")
        )
        return d_rho, d_sigma, d_x, decrement, k

    def _hessian(self, g1, g2, k):
        d_in, d_out, nb, nx = self.d_in, self.d_out, self.nb, self.nx
        n_big = self.n_big
        h_stack = self.h_stack
        g1r = g1.reshape(d_in, d_out, d_in, d_out)
        g2r = g2.reshape(d_in, d_out, d_in, d_out)
        kr = k.reshape(d_in, d_out, d_in, d_out)

        t4_1 = np.einsum("iyju,puqy->jpqi", g1r, g1r, optimize=True)
        t4_2 = np.einsum("iyju,puqy->jpqi", g2r, g2r, optimize=True)
        t4_k = np.einsum("juiy,puqy->jpqi", np.conj(kr), kr, optimize=True)
        q_rr = np.real(np.einsum("ajp,jpqi,bqi->ab", h_stack, t4_1, h_stack, optimize=True))
        q_ss = np.real(np.einsum("ajp,jpqi,bqi->ab", h_stack, t4_2, h_stack, optimize=True))
        q_rs = np.real(np.einsum("ajp,jpqi,bqi->ab", h_stack, t4_k, h_stack, optimize=True))

        # cross blocks with X: rows are 2 Re W / 2 Im W in column-major vec order
        # W_rho = G1 (H (x) I) K and W_sig = K (H (x) I) G2 for every basis H
        w_rho = _rmul(g1, h_stack) @ k
        w_sig = k @ _lmul(h_stack, g2)
        wr_flat = np.swapaxes(w_rho, 1, 2).reshape(nb, nx)
        ws_flat = np.swapaxes(w_sig, 1, 2).reshape(nb, nx)
        q_rx = np.concatenate([2 * np.real(wr_flat), 2 * np.imag(wr_flat)], axis=1)
        q_sx = np.concatenate([2 * np.real(ws_flat), 2 * np.imag(ws_flat)], axis=1)

        # XX block: 2 Re[z'^dag A z] + 2 Re[z^T B z'] with A, B below
        a_mat = nl.kron(g2.T, g1)
        b_mat = np.einsum("cd,ab->cbad", k.conj().T, k.conj().T).reshape(nx, nx)
        re_a, im_a = np.real(a_mat), np.imag(a_mat)
        re_b, im_b = np.real(b_mat), np.imag(b_mat)
        h_xx = 2 * np.block([[re_a + re_b, -im_a - im_b], [im_a - im_b, re_a - re_b]])
        h_xx = 0.5 * (h_xx + h_xx.T)

        hess = np.zeros((self.p, self.p))
        hess[:nb, :nb] = q_rr
        hess[nb: 2 * nb, nb: 2 * nb] = q_ss
        hess[:nb, nb: 2 * nb] = q_rs
        hess[nb: 2 * nb, :nb] = q_rs.T
        hess[:nb, 2 * nb:] = q_rx
        hess[2 * nb:, :nb] = q_rx.T
        hess[nb: 2 * nb, 2 * nb:] = q_sx
        hess[2 * nb:, nb: 2 * nb] = q_sx.T
        hess[2 * nb:, 2 * nb:] = h_xx
        return hess


def _barrier_solve(
    j: np.ndarray, d_in: int, d_out: int, target_gap: float,
    rho0, sigma0, max_newton: int = 400, on_stage=None,
    t0: float | None = None, mix: float = 0.05,
):
    """Path-following solve; returns (rho, sigma, X, t, K) at the final center.

    ``on_stage(rho, sigma, x, t, k)`` runs after each centering stage; if it
    returns True the solve stops early (certificates already good enough).
    A warm start may pass ``t0`` matched to its known gap and a small ``mix``.
    """
    ws = _BarrierWorkspace(j, d_in, d_out)
    eye_in = np.eye(d_in, dtype=complex)
    rho = (1 - mix) * rho0 + mix * eye_in / d_in
    sigma = (1 - mix) * sigma0 + mix * eye_in / d_in
    x = np.zeros((ws.n_big, ws.n_big), dtype=complex)
    n_z = 2 * ws.n_big
    t = 1.0 / max(nl.operator_norm(j), 1e-12) if t0 is None else t0
    t_final = max(4.0 * n_z / max(target_gap, 1e-14), t)
    newtons = 0
    k_last = None
    while True:
        for _ in range(60):
            if newtons >= max_newton:
                return rho, sigma, x, t, k_last, newtons, True
            d_rho, d_sigma, d_x, dec, k_last = ws.newton_step(t, rho, sigma, x)
            newtons += 1
            alpha = 1.0
            obj0 = t * np.real(nl.hs_inner(j, x)) + _safe_logdet(ws, rho, sigma, x)
            for _ in range(40):
                r2 = rho + alpha * d_rho
                s2 = sigma + alpha * d_sigma
                x2 = x + alpha * d_x
                if ws.is_pd(r2, s2, x2):
                    obj1 = t * np.real(nl.hs_inner(j, x2)) + _safe_logdet(ws, r2, s2, x2)
                    if obj1 >= obj0 - 1e-12 * max(1.0, abs(obj0)):
                        break
                alpha *= 0.5
            else:
                return rho, sigma, x, t, k_last, newtons, True
            rho, sigma, x = nl.hermitian_part(r2), nl.hermitian_part(s2), x2
            # center loosely along the path, tightly at the final stage
            if dec * alpha < (5e-3 if t >= t_final else 0.1):
                break
        if on_stage is not None and on_stage(rho, sigma, x, t, k_last):
            return rho, sigma, x, t, k_last, newtons, False
        if t >= t_final:
            return rho, sigma, x, t, k_last, newtons, False
        t = min(t * 20.0, t_final)


def _safe_logdet(ws, rho, sigma, x) -> float:
    z = ws.z_matrix(rho, sigma, x)
    sign, val = np.linalg.slogdet(z)
    if sign.real <= 0:
        return -np.inf
    return float(val.real)


def _dual_bound_from_center(ws, j, rho, sigma, x, t, k):
    """Feasible dual point (2/t) G + slack, verified explicitly."""
    n_big = ws.n_big
    z = ws.z_matrix(rho, sigma, x)
    g = nl.hermitian_part(np.linalg.inv(z))
    g1 = g[:n_big, :n_big]
    g2 = g[n_big:, n_big:]
    k_blk = g[:n_big, n_big:]
    y0 = (2.0 / t) * g1
    y1 = (2.0 / t) * g2
    block = np.block([[y0, -j], [-j.conj().T, y1]])
    lam_min = float(np.linalg.eigvalsh(nl.hermitian_part(block))[0])
    slack = max(0.0, -lam_min) * (1 + 1e-9)
    val0 = nl.operator_norm(_ptrace_out(y0, ws.d_in, ws.d_out))
    val1 = nl.operator_norm(_ptrace_out(y1, ws.d_in, ws.d_out))
    return 0.5 * (val0 + val1) + slack * ws.d_out


class _Bounds:
    """Best lower and upper bound of one solve, each with the point that gives it."""

    def __init__(self, j, d_in, d_out, lower, lower_pt, upper):
        self.j, self.d_in, self.d_out = j, d_in, d_out
        self.lower, self.lower_pt = lower, lower_pt
        self.upper, self.upper_kind, self.upper_pt = upper, "cheap", ()

    def offer_lower(self, value, rho, sigma):
        if value > self.lower:
            self.lower, self.lower_pt = value, (rho, sigma)

    def offer_point(self, rho, sigma):
        value = _dual_bound_from_point(self.j, rho, sigma, self.d_in, self.d_out)
        if value < self.upper:
            self.upper, self.upper_kind, self.upper_pt = value, "point", (rho, sigma)

    def offer_center(self, ws, rho, sigma, x, t, k):
        value = _dual_bound_from_center(ws, self.j, rho, sigma, x, t, k)
        if value < self.upper:
            self.upper, self.upper_kind, self.upper_pt = value, "center", (rho, sigma, x, t)

    def closed(self, target_rel_gap) -> bool:
        return self.upper - self.lower <= target_rel_gap * max(1.0, self.lower)

    def certificate(self, iterations, path, target_rel_gap, stalled=False):
        witness = Witness(self.lower_pt, self.upper_kind, self.upper_pt, target_rel_gap)
        return NormCertificate(
            0.5 * (self.upper + self.lower), self.upper, self.lower, iterations,
            self.upper - self.lower, stalled, path, witness,
        )


def diamond_norm_of_choi(
    j: np.ndarray, d_in: int, d_out: int,
    target_rel_gap: float = 1e-6, seed: int = 0,
) -> NormCertificate:
    """Certified diamond norm of the (trace-side) map with Choi matrix ``j``.

    The certificate carries the :class:`Witness` of both bounds, which
    :func:`check_witness` re-evaluates without solving.
    """
    j = np.asarray(j, dtype=complex)
    uniform = np.eye(d_in, dtype=complex) / d_in
    scale = nl.operator_norm(j)
    if scale <= 1e-300:
        return _Bounds(j, d_in, d_out, 0.0, (uniform, uniform), 0.0).certificate(
            0, "cheap", target_rel_gap)
    rng = np.random.default_rng(seed)

    # the objective at rho = sigma = I/d_in already meets the cheap bound for
    # maps far below the absolute gap target (roundoff residuals of exact input)
    bounds = _Bounds(j, d_in, d_out, nl.trace_norm(j) / d_in, (uniform, uniform),
                     _cheap_upper_bound(j, d_in, d_out))
    if bounds.closed(target_rel_gap):
        return bounds.certificate(0, "cheap", target_rel_gap)

    rho, sigma, lower = _alternating_ascent(j, d_in, d_out, 200, rng)
    bounds.lower, bounds.lower_pt = lower, (rho, sigma)
    bounds.offer_point(rho, sigma)
    if bounds.closed(target_rel_gap):
        return bounds.certificate(0, "ascent", target_rel_gap)

    # alternation restarts (fresh and annealed) are cheap and often escape the
    # nonsmooth corner that produced the gap
    for restart in range(10):
        if restart % 2 == 0:
            rho_r = 0.5 * nl.random_density(d_in, rng) + 0.5 * np.eye(d_in) / d_in
            sigma_r = 0.5 * nl.random_density(d_in, rng) + 0.5 * np.eye(d_in) / d_in
        else:
            rho_r = 0.85 * rho + 0.15 * nl.random_density(d_in, rng)
            sigma_r = 0.85 * sigma + 0.15 * nl.random_density(d_in, rng)
        r2, s2, low2 = _alternating_ascent(
            j, d_in, d_out, 150, rng, rho0=rho_r, sigma0=sigma_r
        )
        if low2 > bounds.lower:
            rho, sigma = r2, s2
            bounds.offer_lower(low2, rho, sigma)
            bounds.offer_point(rho, sigma)
            if bounds.closed(target_rel_gap):
                return bounds.certificate(0, "restart", target_rel_gap)

    lower = bounds.lower
    target_gap = 0.25 * target_rel_gap * max(1.0, lower)
    ws = _BarrierWorkspace(j, d_in, d_out)

    def offer_stage(rho_s, sigma_s, x_s, t_s, k_s):
        bounds.offer_lower(_primal_value(j, rho_s, sigma_s, d_out), rho_s, sigma_s)
        bounds.offer_center(ws, rho_s, sigma_s, x_s, t_s, k_s)
        bounds.offer_point(rho_s, sigma_s)

    def on_stage(*stage):
        offer_stage(*stage)
        return bounds.closed(target_rel_gap)

    gap0 = max(bounds.upper - lower, target_gap)
    n_z = 2 * d_in * d_out
    rho_c, sigma_c, x_c, t, k, iters, stalled = _barrier_solve(
        j, d_in, d_out, target_gap, rho, sigma, on_stage=on_stage,
        t0=n_z / (4.0 * gap0), mix=1e-4,
    )
    if stalled:
        # retry on the standard cold path before giving up
        rho_c, sigma_c, x_c, t, k, iters2, stalled = _barrier_solve(
            j, d_in, d_out, target_gap, rho, sigma, on_stage=on_stage
        )
        iters += iters2
    offer_stage(rho_c, sigma_c, x_c, t, k)
    # one more cheap polish of the lower bound from the center
    rho_p, sigma_p, lower_p = _alternating_ascent(
        j, d_in, d_out, 100, rng, rho0=rho_c, sigma0=sigma_c
    )
    if lower_p > bounds.lower:
        bounds.offer_lower(lower_p, rho_p, sigma_p)
        bounds.offer_point(rho_p, sigma_p)
    stalled = stalled and not bounds.closed(target_rel_gap)
    return bounds.certificate(iters, "barrier", target_rel_gap, stalled)


def diamond_norm(mp, dim_in=None, dim_out=None, target_rel_gap: float = 1e-6,
                 seed: int = 0) -> NormCertificate:
    """Diamond norm of a trace-side map given by its superoperator matrix."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    j = choi_from_superop(m, d_in, d_out)
    return diamond_norm_of_choi(j, d_in, d_out, target_rel_gap, seed)


def cb_norm(mp, dim_in=None, dim_out=None, target_rel_gap: float = 1e-6,
            seed: int = 0) -> NormCertificate:
    """Completely bounded norm of an observable-side map: ||L||_cb = ||L*||_diamond."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    return diamond_norm(m.conj().T, d_out, d_in, target_rel_gap, seed)


def check_witness(j: np.ndarray, d_in: int, d_out: int, witness: Witness):
    """(lower, upper) that ``witness`` certifies for the Choi matrix ``j``.

    No solve runs: the lower bound is the primal value of the witness pair
    after projecting both onto density matrices, so no tampered pair can raise
    it past the norm, and the upper bound rebuilds the dual point and checks
    its feasibility explicitly, with the slack folded in as the solver does.
    Raises :class:`InvalidWitness` when the witness does not fit ``j``.
    """
    if witness.upper_kind not in _UPPER_KINDS:
        raise InvalidWitness(f"unknown upper witness kind {witness.upper_kind!r}")
    j = np.asarray(j, dtype=complex)
    # rho, sigma of both bounds, then the X of a center
    shapes = [(d_in, d_in)] * 4 + [(d_in * d_out, d_in * d_out)]
    for m, shape in zip([*witness.lower, *witness.upper[:3]], shapes):
        if m.shape != shape or not np.all(np.isfinite(m)):
            raise InvalidWitness(f"witness matrix of shape {m.shape}, expected finite {shape}")
    lower = _primal_value(j, *witness.lower, d_out)
    if witness.upper_kind == "cheap":
        upper = _cheap_upper_bound(j, d_in, d_out)
    elif witness.upper_kind == "point":
        upper = _dual_bound_from_point(j, *witness.upper, d_in, d_out)
    else:
        rho_c, sigma_c, x, t = witness.upper
        if not (np.isfinite(t) and t > 0):
            raise InvalidWitness(f"center witness has barrier parameter t = {t}")
        ws = _BarrierWorkspace(j, d_in, d_out)
        try:
            upper = _dual_bound_from_center(ws, j, rho_c, sigma_c, x, t, None)
        except np.linalg.LinAlgError as exc:
            raise InvalidWitness(f"center witness is singular: {exc}") from exc
    return lower, upper


def check_cb_witness(mp, dim_in: int, dim_out: int, witness: Witness):
    """:func:`check_witness` for an observable-side map, in the adjoint
    convention of :func:`cb_norm`."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    return check_witness(choi_from_superop(m.conj().T, d_out, d_in), d_out, d_in, witness)


# ---------------------------------------------------------------------------
# see-saw oracle
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# generic small dense SDP solver (independent cross-check path)
# ---------------------------------------------------------------------------

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
    return float(sum(np.real(nl.hs_inner(x, y)) for x, y in zip(a, b)))


def _blocks_axpy(alpha, a, b):
    return [alpha * x + y for x, y in zip(a, b)]


def solve_sdp(
    prob: SdpProblem, tol: float = 1e-9, max_iter: int = 200,
) -> tuple[float, float, float]:
    """Infeasible-start primal-dual interior point with Nesterov-Todd scaling.

    Returns (primal_value, dual_value, gap).  Residual and gap targets follow
    ``tol``; raises :class:`SolverStall` if progress stops early and
    :class:`Infeasible` on divergence of the infeasibility measure.
    """
    dims = prob.block_dims
    m = len(prob.a_blocks)
    x = [np.eye(d, dtype=complex) for d in dims]
    s = [np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m)
    n_tot = sum(dims)

    def a_op(xb):
        return np.array([_blocks_inner(ab, xb) for ab in prob.a_blocks])

    def a_adj(yv):
        out = [np.zeros((d, d), dtype=complex) for d in dims]
        for yi, ab in zip(yv, prob.a_blocks):
            out = _blocks_axpy(yi, ab, out)
        return out

    best = None
    for it in range(max_iter):
        mu = _blocks_inner(x, s) / n_tot
        r_p = prob.b - a_op(x)
        r_d = [c - sa - si for c, sa, si in zip(prob.c_blocks, a_adj(y), s)]
        p_res = np.linalg.norm(r_p)
        d_res = np.sqrt(sum(np.linalg.norm(rb) ** 2 for rb in r_d))
        pval = _blocks_inner(prob.c_blocks, x)
        dval = float(prob.b @ y)
        gap = abs(pval - dval) / (1 + abs(pval))
        best = (pval, dval, pval - dval)
        if p_res <= tol and d_res <= tol and mu <= tol * (1 + abs(pval)):
            return pval, dval, pval - dval
        if p_res > 1e8 or d_res > 1e8:
            raise Infeasible("primal/dual residuals diverged")

        # Nesterov-Todd scaling per block
        w_blocks, wi_blocks = [], []
        for xb, sb in zip(x, s):
            xs = _sqrt_psd(xb)
            mid = xs @ sb @ xs
            mw, mu_v = np.linalg.eigh(nl.hermitian_part(mid))
            mw = np.clip(mw, 1e-300, None)
            mid_inv_sqrt = (mu_v / np.sqrt(mw)) @ mu_v.conj().T
            w = xs @ mid_inv_sqrt @ xs
            w_blocks.append(nl.hermitian_part(w))
            wi_blocks.append(np.linalg.inv(w_blocks[-1]))

        sigma = 0.2 if mu > tol else 0.0
        # target: X S = sigma*mu*I; linearized with NT scaling
        schur = np.zeros((m, m))
        waw = []
        for i in range(m):
            waw.append([w @ ab @ w for w, ab in zip(w_blocks, prob.a_blocks[i])])
        for i in range(m):
            for k in range(i, m):
                val = _blocks_inner(prob.a_blocks[i], waw[k])
                schur[i, k] = schur[k, i] = val
        rhs_blocks = [
            w @ rd @ w + xb - sigma * mu * np.linalg.inv(sb)
            for xb, sb, w, rd in zip(x, s, w_blocks, r_d)
        ]
        rhs = r_p + a_op(rhs_blocks)
        try:
            dy = scipy.linalg.solve(schur, rhs, assume_a="pos")
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
    eye_n = np.eye(n, dtype=complex)

    # variable X = [[Z11, Z12], [Z12^dag, Z22]] of size 2n, plus constraints
    # forcing Z11 = rho (x) I, Z22 = sigma (x) I, Tr rho = Tr sigma = 1.
    dims = (2 * n,)
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    c[:n, n:] = -j / 2
    c[n:, :n] = -j.conj().T / 2

    a_blocks = []
    b = []
    herm_big = nl.hermitian_basis(n)
    basis_in = nl.hermitian_basis(d_in)
    proj_span = np.stack(
        [nl.vec(nl.kron(h, np.eye(d_out)) / np.sqrt(d_out)) for h in basis_in], axis=1
    )

    # orthonormal basis (with real coordinates over the Hermitian basis) of the
    # orthogonal complement of the rho (x) I subspace inside Hermitian space
    resid_coords = []
    for h in herm_big:
        coeff = proj_span.conj().T @ nl.vec(h)
        resid = h - nl.unvec(proj_span @ coeff, n, n)
        resid_coords.append(
            [np.real(nl.hs_inner(hb, resid)) for hb in herm_big]
        )
    coord_mat = np.array(resid_coords).T
    q, r, _ = scipy.linalg.qr(coord_mat, mode="economic", pivoting=True)
    rank = nl.rank_from_singular_values(np.abs(np.diag(r)), 1e-9)
    comp_ops = []
    for colidx in range(rank):
        op = sum(c * hb for c, hb in zip(q[:, colidx], herm_big))
        comp_ops.append(op)
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
