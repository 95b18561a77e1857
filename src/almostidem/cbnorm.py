"""Completely bounded (diamond) norm with certified two-sided bounds.

``diamond_norm`` measures a map given on the trace side; ``cb_norm`` measures
a map on the observable side via its adjoint.  Both return a
:class:`NormCertificate` whose ``lower`` comes from an explicitly feasible
primal point of the standard semidefinite program

    maximize Re<J, X>  s.t.  [[rho_0 (x) I, X], [X^dag, rho_1 (x) I]] >= 0,

with rho_0, rho_1 density matrices, and whose ``upper`` comes from an
explicitly feasible point of its dual

    minimize (||Tr_out Y0|| + ||Tr_out Y1||) / 2
    s.t.     [[Y0, -J], [-J^dag, Y1]] >= 0.

The program is solved by eliminating X: for fixed (rho_0, rho_1) the optimal
objective is the trace norm ||(sqrt(rho_0) (x) I) J (sqrt(rho_1) (x) I)||_1,
which is jointly concave.  Two cheap bound pairs at rho_0 = rho_1 = I/d_in
settle maps far below the gap target, ||H(J)||_F / d_in with d_out ||J||_F
(no decomposition) and then the bounds one eigh of H(J) gives there.  Every
other map goes to one log-det barrier Newton solve from I/d_in, which
maximizes X out in closed form (:class:`_BarrierPoint`).  Any positive
definite iterate gives both bounds, its primal value and the dual point
built from it, each valid for the J given.  The path multiplies t by 100
per stage; an intermediate stage is centred until the damped Newton
decrement (decrement times step length) is below 2, the final stage, at
t_final = 4 n_z / target gap with n_z = 2 d_in d_out, until the undamped
decrement is below 5e-3.  Stage centres are certified; from t_final / 16
on, where the central path's own gap n_z / t is within the gap target,
every accepted iterate is, and the solve stops at the first one whose
bounds close.  A loosely centred stage gives looser bounds, never invalid
ones, and a solve that stalls offers its last point, so its bounds are
recorded ``stalled``.  All solves work to the relative gap ``TARGET_REL_GAP``.

Every map the pipeline measures is a difference of UCP maps, so it preserves
Hermiticity and its Choi matrix J is Hermitian; there the optimum has
rho_0 = rho_1 = rho (Watrous, arXiv:1207.5726).  So both bounds are taken at
such an equal pair, and Newton runs over rho alone on H(J) = (J + J^dag) / 2,
d_in^2 - 1 unknowns at one eigh per point, for every J.  Each bound is still
one of J itself: the primal value of H(J) at rho is at most that of J, since
||H(M)||_1 <= ||M||_1, and the dual point's feasibility check subtracts
||J - J^dag||_F / 2 (Weyl).  A J whose skew part leaves the gap open gets
valid bounds, recorded ``stalled``.  The bounds at a positive definite rho
are read off the eigenvalues of rho and of the Hermitian
M = (sqrt(rho) (x) I) H(J) (sqrt(rho) (x) I) that the iterate already holds,
and the dual point's feasibility check takes two half-size eigvalsh; a rho
that is not positive definite generates no dual point.

A Newton step forms the gradient and Hessian over the matrix units of
rho from one batched product (:func:`_barrier_derivatives`); its line
search starts at the first power of two that keeps rho positive definite
(:func:`_barrier_solve`).  A stage restart at the next t takes a predictor
step along the central path (:func:`_restart`): the tangent
rho' = H^-1 dg/dt, with H the negated Hessian of the stage's last Newton
step and dg/dt from the diagonals of the unit products at the stage's last
point, stepped linearly in s = 1/t to the new t.  The step is halved until
rho stays positive definite and the barrier at the new t gains over the
unpredicted point, which keeps rho and its eigendecompositions and
recomputes only the t-dependent terms (:func:`_at_t`); if no halving gains,
the restart is that point.

Each certificate carries a :class:`Witness`: the density matrix of its lower
bound and the generator of the dual point of its upper bound, by one of
three kinds (``frobenius``, ``cheap``, ``point``).
``check_witness`` re-evaluates both on a Choi matrix without solving, which
is how a recorded certificate is verified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numlin as nl
from .channels import Channel, choi_from_superop


class CbNormError(Exception):
    pass


class InvalidWitness(CbNormError):
    """A witness that does not fit the map it is checked against."""


_UPPER_KINDS = ("frobenius", "cheap", "point")

TARGET_REL_GAP = 1e-6  # relative gap every certificate is solved to
_MAX_NEWTON = 400      # Newton steps one barrier solve may take


@dataclass
class Witness:
    """The points that certify a :class:`NormCertificate`.

    ``lower`` is a density matrix rho whose primal value at (rho, rho) is the
    lower bound.  ``upper`` is the generator of the dual point of the upper
    bound, by ``upper_kind``: None for "frobenius" (:func:`_frobenius_pair`,
    whose lower bound is ||H(M)||_F at rho), None for "cheap" (the dual point
    of H(J) at I/d_in, :func:`_cheap_pair`) and a positive definite rho for
    "point".  ``target_rel_gap`` is the gap target the solve worked to.
    """

    lower: np.ndarray
    upper_kind: str = "cheap"
    upper: np.ndarray | None = None
    target_rel_gap: float = TARGET_REL_GAP


@dataclass
class NormCertificate:
    value: float
    upper: float
    lower: float
    iterations: int
    gap: float
    stalled: bool = False
    path: str = "cheap"  # cheap | barrier: where the solve closed
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


def _density_sqrt(m: np.ndarray) -> np.ndarray:
    """sqrt of ``m`` made a density matrix: eigenvalues clipped at 0, then trace 1."""
    w, u = np.linalg.eigh(nl.hermitian_part(m))
    w = np.clip(w, 0.0, None)
    if not w.sum() > 0:
        raise InvalidWitness("no positive part to make a density matrix of")
    return (u * np.sqrt(w / w.sum())) @ u.conj().T


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


def _sandwich_part(j: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """H(M) for M = (sqrt(rho) (x) I) J (sqrt(rho) (x) I), with rho first
    made a density matrix (:func:`_density_sqrt`), as a barrier iterate's
    trace drifts off 1 and a witness read from a file may be anything.  ||M||_1
    is J's primal value there, so ||H(M)||_F <= ||H(M)||_1 are lower bounds."""
    sr = _density_sqrt(rho)
    return nl.hermitian_part(_lmul(sr, _rmul(j, sr)))


def _primal_value(j: np.ndarray, rho: np.ndarray) -> float:
    """||H(M)||_1 (:func:`_sandwich_part`), the primal value of H(J) at rho."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(_sandwich_part(j, rho)))))


def _frobenius_pair(m_part: np.ndarray, j: np.ndarray, d_out: int) -> tuple[float, float]:
    """||H(M)||_F for ``m_part`` = H(M) at a rho (:func:`_sandwich_part`), and
    the value d_out ||J||_F of the dual point Y0 = Y1 = ||J||_F I, feasible as
    ||J|| <= ||J||_F, with the roundoff factor of :func:`_dual_value`."""
    return float(np.linalg.norm(m_part)), d_out * float(np.linalg.norm(j)) * (1 + 1e-9)


def _dual_bound_from_point(j: np.ndarray, rho: np.ndarray, d_in: int, d_out: int) -> float:
    """Feasible dual value built from the primal point (rho, rho).

    rho is decomposed as a barrier iterate is (:func:`_decompose`) and
    bounded by :func:`_equal_pair_dual_bound`, whatever J is, so a recorded
    iterate gives the bound its solve offered.  A rho that is not positive
    definite generates no dual point: :class:`InvalidWitness`.
    """
    h, skew = _split_hermitian(j)
    pt = _decompose(h, nl.hermitian_part(rho))
    if pt is None:
        raise InvalidWitness("upper witness rho is not positive definite")
    return _equal_pair_dual_bound(h, skew, pt, d_in, d_out)


def _split_hermitian(j: np.ndarray) -> tuple[np.ndarray, float]:
    """H(J) = (J + J^dag) / 2 and ||J - J^dag||_F / 2, the parts of J that
    :func:`_equal_pair_dual_bound` reads."""
    return nl.hermitian_part(j), 0.5 * np.linalg.norm(j - j.conj().T)


def _equal_pair_dual_bound(h: np.ndarray, skew: float, pt, d_in: int, d_out: int) -> float:
    """Feasible dual value at the equal pair (rho, rho) of J, from the
    decomposition ``pt`` of rho and of M for H = H(J) (:class:`_BarrierPoint`)
    with no new one; ``h`` and ``skew`` are :func:`_split_hermitian` of J.

    M is Hermitian: its SVD is its eigh with |lam|, and Y1 = Y0 = Y.  There
    [[Y, -H], [-H, Y]] is unitarily similar to diag(Y - H, Y + H), so one
    stacked eigvalsh of the two halves decides its smallest eigenvalue, and
    the rest of J, (J - J^dag) / 2, moves it by at most ``skew`` =
    ||J - J^dag||_F / 2 (Weyl).
    """
    sri = pt.roots[1]
    y = nl.hermitian_part(_lmul(sri, _rmul((pt.u * np.abs(pt.lam)) @ pt.u.conj().T, sri)))
    lam_min = np.linalg.eigvalsh(np.stack([y - h, y + h]))[:, 0].min() - skew
    return _dual_value(y, lam_min, d_in, d_out)


def _dual_value(y, lam_min, d_in: int, d_out: int) -> float:
    """||Tr_out Y||, plus the slack that makes the dual block with smallest
    eigenvalue ``lam_min`` feasible."""
    slack = max(0.0, -float(lam_min)) * (1 + 1e-9)
    return nl.operator_norm(_ptrace_out(y, d_in, d_out)) + slack * d_out


# ---------------------------------------------------------------------------
# barrier Newton solver over rho at (rho, rho), with X maximized out in closed form
# ---------------------------------------------------------------------------

@dataclass
class _BarrierPoint:
    """The reduced barrier F_t at (rho, rho) of a Hermitian J, with what its
    derivatives and bounds need.

    With M = (sqrt(rho) (x) I) J (sqrt(rho) (x) I) = U diag(lam) U^dag and
    c_i = sqrt(1 + t^2 lam_i^2), the maximum over X of t Re<J, X> + logdet Z
    is attained at X* = (sqrt(rho) (x) I) U diag(z) U^dag (sqrt(rho) (x) I)
    with z_i = sign(lam_i) y_i and y_i = t |lam_i| / (1 + c_i), and equals

        F_t = 2 d_out logdet rho + sum_i [t |lam_i| y_i + log(1 - y_i^2)],

    which is sum_i [c_i - log(1 + c_i)] plus terms constant in rho.
    ``a`` holds 1 - y_i^2 = 2 / (1 + c_i), computed without cancellation.
    The eigenvalues ``w`` of rho, its roots and (lam, U) do not depend on t
    (:func:`_decompose`); y, z, a and the value do (:func:`_at_t`).
    ``hess`` is the negated Hessian over the trace-free basis once a Newton
    step at this point has formed it and found it positive definite
    (:func:`_newton_step`); the stage restart's predictor reuses it.
    """

    rho: np.ndarray
    w: np.ndarray
    roots: tuple  # sqrt(rho), rho^(-1/2)
    lam: np.ndarray
    u: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    a: np.ndarray | None = None
    value: float = 0.0
    hess: np.ndarray | None = None

    @property
    def lower(self) -> float:
        """sum_i |lam_i| / Tr rho, the primal value of H(J) at rho made a
        density matrix.  It is a lower bound on the norm of J itself, whose
        primal value there is ||M||_1 >= ||H(M)||_1 with M taken for J."""
        return float(np.sum(np.abs(self.lam)) / np.sum(self.w))

    def x_star(self) -> np.ndarray:
        sr = self.roots[0]
        return _lmul(sr, _rmul((self.u * self.z) @ self.u.conj().T, sr))


def _decompose(j, rho):
    """The t-free part of the :class:`_BarrierPoint` of the Hermitian ``j`` at
    (rho, rho), or None unless rho is positive definite: one eigh of rho and
    one of M."""
    w, q = np.linalg.eigh(rho)
    if not w[0] > 0:
        return None
    r = np.sqrt(w)
    roots = ((q * r) @ q.conj().T, (q / r) @ q.conj().T)
    lam, u = np.linalg.eigh(_lmul(roots[0], _rmul(j, roots[0])))
    return _BarrierPoint(rho, w, roots, lam, u)


def _at_t(pt: _BarrierPoint, t: float, d_out: int) -> _BarrierPoint:
    """``pt`` with the terms of F_t, on the decompositions it holds."""
    ts = t * np.abs(pt.lam)
    c = np.sqrt(1.0 + ts * ts)
    y, a = ts / (1.0 + c), 2.0 / (1.0 + c)
    value = d_out * 2.0 * float(np.sum(np.log(pt.w))) + float(np.sum(ts * y + np.log(a)))
    return _BarrierPoint(pt.rho, pt.w, pt.roots, pt.lam, pt.u,
                         y, np.where(pt.lam < 0, -y, y), a, value)


def _barrier_point(j, rho, t: float, d_out: int):
    """:class:`_BarrierPoint` of the Hermitian ``j`` at (rho, rho) and t, or
    None unless rho is positive definite."""
    pt = _decompose(j, rho)
    return None if pt is None else _at_t(pt, t, d_out)


def _barrier_derivatives(pt: _BarrierPoint, h_stack: np.ndarray):
    """Gradient and negated Hessian of rho -> F_t(rho, rho) over the Hermitian
    basis ``h_stack``.

    The gradient is Tr_out (G11 + G22), where G = Z^-1 at X*: by the envelope
    theorem X* does not move it.  The Hessian is the Schur complement of the
    (rho, X) Hessian at X*, which is elementwise in the eigenbasis: with
    P_a = V^dag (H_a (x) I) V and V = (rho^-1/2 (x) I) U, the gradient is
    2 Re diag(P_a) / a and the negated Hessian is
    2 Re sum conj(P_a)_kl (P_b)_kl / (1 + z_k z_l).

    Both are linear in the coefficients of H_a, so they are taken over the
    matrix units E_ij that ``h_stack`` uses and then contracted with those
    coefficients.  With V split into the d_out x n blocks V_i of its rows
    (i, y), the unit E_ij has P_ij = V_i^dag V_j: one batched product,
    T[(i, k), (j, l)] = sum_y conj V[(i, y), k] V[(j, y), l] = (P_ij)_kl.
    """
    coef, coef_conj, rows, cols = _unit_plan(h_stack)
    v = _row_blocks(pt)
    t = v.conj().swapaxes(1, 2)[rows] @ v[cols]
    grad = 2.0 * np.real(coef @ np.einsum("ukk,k->u", t, 1.0 / pt.a))
    # 1 + z_k z_l = (a_k + a_l + (z_k + z_l)^2) / 2 with a = 1 - z^2: a sum of
    # non-negative terms, so it keeps its digits as y_k, y_l -> 1 with
    # opposite signs, where 1 - y_k y_l cancels
    zs = np.add.outer(pt.z, pt.z)
    weight = 4.0 / (np.add.outer(pt.a, pt.a) + zs * zs)
    tf = t.reshape(len(rows), -1)
    hess = np.real(coef_conj @ (tf.conj() @ (tf * weight.ravel()).T) @ coef.T)
    return grad, 0.5 * (hess + hess.T)


def _row_blocks(pt: _BarrierPoint) -> np.ndarray:
    """V = (rho^-1/2 (x) I) U as the stack of its d_out x n row blocks V_i."""
    dim, n = len(pt.rho), len(pt.a)
    return (pt.roots[1] @ pt.u.reshape(dim, -1)).reshape(dim, -1, n)


def _gradient_t_derivative(pt: _BarrierPoint, h_stack: np.ndarray) -> np.ndarray:
    """d/dt of the gradient of :func:`_barrier_derivatives` at fixed rho.

    t enters the gradient 2 Re diag(P_a) / a only through
    1 / a_k = (1 + c_k) / 2, whose derivative is t lam_k^2 / (2 c_k)
    = |lam_k| y_k / (1 + y_k^2) =: w_k, written with
    y_k = t |lam_k| / (1 + c_k) so that it needs no t.  Only the diagonals
    (P_ij)_kk = sum_y conj V[(i, y), k] V[(j, y), k] of the unit products
    enter, and only weighted by w, so one product of the rows of V gives
    every unit's sum_k w_k (P_ij)_kk.
    """
    coef, _, rows, cols = _unit_plan(h_stack)
    v = _row_blocks(pt)
    w = np.abs(pt.lam) * pt.y / (1.0 + pt.y * pt.y)
    vf = v.reshape(len(v), -1)
    units = (vf.conj() * np.tile(w, v.shape[1])) @ vf.T
    return 2.0 * np.real(coef @ units[rows, cols])


def _direction(coords: np.ndarray, h_stack: np.ndarray) -> np.ndarray:
    """The matrix sum_a coords_a H_a."""
    nb, dim = h_stack.shape[:2]
    return (coords @ h_stack.reshape(nb, -1)).reshape(dim, dim)


def _cone_steps(pt: _BarrierPoint, d_rho: np.ndarray, halvings: int):
    """The step lengths 1, 1/2, ..., 2^-halvings that keep rho + alpha d_rho
    positive definite, longest first.

    rho + alpha d_rho = rho^1/2 (I + alpha K) rho^1/2 with
    K = rho^-1/2 d_rho rho^-1/2, so it is positive definite exactly when
    1 + alpha lam_min(K) > 0: one eigvalsh of K drops the lengths whose
    trial point is off the cone, without evaluating it.
    """
    rir = pt.roots[1]
    k_min = float(np.linalg.eigvalsh(nl.hermitian_part(rir @ d_rho @ rir))[0])
    alpha = 1.0
    for _ in range(halvings + 1):
        if 1.0 + alpha * k_min > 0:
            yield alpha
        alpha *= 0.5


def _newton_step(pt: _BarrierPoint, h_stack: np.ndarray):
    """Newton direction d_rho of F_t over the trace-free directions
    ``h_stack``, and the decrement.

    The gradient's component along the identity grows like t and is balanced
    only by the trace constraints; in trace-free coordinates it drops out
    exactly, so the decrement stays accurate late on the path, where it
    decides when a center is reached.
    """
    grad, hess = _barrier_derivatives(pt, h_stack)
    # near the end of the path the Hessian is ill conditioned by design; step
    # quality is guarded by the line search and the final certificates are
    # feasibility-checked explicitly
    try:
        np.linalg.cholesky(hess)
        step = np.linalg.solve(hess, grad)
        pt.hess = hess
    except np.linalg.LinAlgError:
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
    return _direction(step, h_stack), float(grad @ step)


_PREDICTOR_HALVINGS = 4  # shorter predictor steps tried before a plain restart


def _restart(j, pt: _BarrierPoint, hess, t: float, t_new: float, h_stack, d_out: int):
    """The first point of the stage at ``t_new`` after the stage at t ended
    on ``pt``, with ``hess`` the negated Hessian of that stage's last Newton
    step (None if it formed none).

    On the central path g(rho(t), t) = 0, so its tangent is
    rho' = hess^-1 dg/dt (:func:`_gradient_t_derivative`), and a step linear
    in s = 1 / t from s to 1 / t_new is t (1 - t / t_new) rho'.  The step is
    halved until rho stays positive definite (:func:`_cone_steps`, so no
    trial point off the cone is evaluated) and F at ``t_new`` exceeds its
    value at rho itself; if no halving does, the restart keeps rho, where
    only the t-dependent terms change (:func:`_at_t`).
    """
    plain = _at_t(pt, t_new, d_out)
    if hess is None:
        return plain
    rho_dot = np.linalg.solve(hess, _gradient_t_derivative(pt, h_stack))
    d_rho = t * (1.0 - t / t_new) * _direction(rho_dot, h_stack)
    for alpha in _cone_steps(pt, d_rho, _PREDICTOR_HALVINGS):
        trial = _barrier_point(j, nl.hermitian_part(pt.rho + alpha * d_rho), t_new, d_out)
        if trial is not None and trial.value > plain.value:
            return trial
    return plain


@functools.lru_cache(maxsize=None)
def _trace_free_basis(dim: int) -> np.ndarray:
    """Stack of Hermitian matrices spanning the ones with trace zero: the
    diagonal units less the last one, and then the off-diagonal Hermitian
    units, dim^2 - 1 in all.  Built once per dim and returned read-only."""
    basis = np.stack(nl.hermitian_basis(dim))
    out = np.concatenate([basis[:dim - 1] - basis[dim - 1], basis[dim:]])
    out.setflags(write=False)
    return out


_UNIT_PLANS: dict[int, tuple] = {}


def _unit_plan(h_stack: np.ndarray) -> tuple:
    """(coef, conj(coef), i, j) for the matrix units E_ij that the basis
    ``h_stack`` uses: its coefficients on those units, their conjugates,
    and the row and column of each unit.

    The plan of a read-only basis, such as each :func:`_trace_free_basis`,
    is built once and kept with the basis; any other is built per call.
    """
    hit = _UNIT_PLANS.get(id(h_stack))
    if hit is not None:
        return hit[1]
    dim = h_stack.shape[1]
    coef = h_stack.reshape(len(h_stack), -1)
    units = np.flatnonzero(coef.any(axis=0))
    coef = coef[:, units]
    plan = (coef, coef.conj(), units // dim, units % dim)
    if not h_stack.flags.writeable:
        _UNIT_PLANS[id(h_stack)] = (h_stack, plan)
    return plan


def _barrier_solve(
    j: np.ndarray, d_in: int, d_out: int, target_gap: float, t0: float, on_point=None,
):
    """Path-following solve on H(J) over rho from I/d_in at t = ``t0``;
    returns (rho, rho, X*, t, F_t, newtons, stalled) at the last iterate.

    ``on_point(point)`` runs at each iterate the path offers, with ``point``
    its :class:`_BarrierPoint`, whose ``lower`` is a lower bound for J itself
    (see :attr:`_BarrierPoint.lower`); if it returns True the solve stops
    there (certificates already good enough).  A solve takes at most
    ``_MAX_NEWTON`` Newton steps.

    Stage centres are offered.  From t_final / 16 on, where the central
    path's own gap n_z / t is at most 4 ``target_gap``, every accepted
    iterate is, and the path ends at the first one for which ``on_point``
    returns True.  A solve that stalls offers the point it ends on.  The
    offers never change the iterates.

    The line search halves the Newton step until the barrier does not drop,
    over the step lengths that keep rho positive definite
    (:func:`_cone_steps`), so no trial point off the cone is evaluated.

    Each stage restart t -> min(100 t, t_final) starts from the predictor
    point of :func:`_restart`: a tangent step from the stage's last point,
    with the Hessian of its last Newton step, kept only where the barrier at
    the new t gains over the last point itself.  It forms no new Hessian,
    only dg/dt and a barrier point per step length it tries (usually one),
    and its point is not offered: it is neither a Newton iterate nor a
    stage centre.
    """
    h, h_stack = nl.hermitian_part(j), _trace_free_basis(d_in)
    t = t0
    t_final = max(4.0 * (2 * d_in * d_out) / max(target_gap, 1e-14), t)
    pt = _barrier_point(h, np.eye(d_in, dtype=complex) / d_in, t, d_out)
    newtons = 0

    def end(stalled):
        if stalled:
            offer()
        return pt.rho, pt.rho, pt.x_star(), t, pt.value, newtons, stalled

    def offer():
        return on_point is not None and on_point(pt)

    while True:
        every = 16.0 * t >= t_final
        for _ in range(60):
            if newtons >= _MAX_NEWTON:
                return end(True)
            d_rho, dec = _newton_step(pt, h_stack)
            newtons += 1
            floor = pt.value - 1e-12 * max(1.0, abs(pt.value))
            for alpha in _cone_steps(pt, d_rho, 39):
                trial = _barrier_point(h, nl.hermitian_part(pt.rho + alpha * d_rho), t, d_out)
                if trial is not None and trial.value >= floor:
                    break
            else:
                return end(True)
            stepped_from, pt = pt, trial
            if every and offer():
                return end(False)
            # center loosely along the path, tightly at the final stage; there
            # the undamped decrement decides, since a step damped far from
            # the center also makes dec * alpha small
            if (dec < 5e-3) if t >= t_final else (dec * alpha < 2.0):
                break
        if t >= t_final or (not every and offer()):
            return end(False)
        t_new = min(t * 100.0, t_final)
        pt = _restart(h, pt, stepped_from.hess, t, t_new, h_stack, d_out)
        t = t_new


def _cheap_pair(h: np.ndarray, skew: float, d_in: int, d_out: int) -> tuple[float, float]:
    """Both bounds at the :class:`_BarrierPoint` of H = H(J) at rho = I/d_in,
    from one eigh of H: there M = H / d_in and rho's roots are multiples of I."""
    eye = np.eye(d_in, dtype=complex)
    pt = _BarrierPoint(eye / d_in, np.full(d_in, 1.0 / d_in),
                       (eye / np.sqrt(d_in), eye * np.sqrt(d_in)), *np.linalg.eigh(h / d_in))
    return pt.lower, _equal_pair_dual_bound(h, skew, pt, d_in, d_out)


class _Bounds:
    """Best lower and upper bound of one solve, each with the rho that gives
    it; both start as the Frobenius pair at I/d_in, where H(M) = H(J) / d_in."""

    def __init__(self, j, d_in, d_out):
        self.j, self.d_in, self.d_out = j, d_in, d_out
        self.lower_rho = np.eye(d_in, dtype=complex) / d_in
        self.lower, self.upper = _frobenius_pair(self.split[0] / d_in, j, d_out)
        self.upper_kind, self.upper_rho = "frobenius", None

    def offer(self, point) -> bool:
        """Offer both bounds at the :class:`_BarrierPoint` ``point`` of H(J),
        whose decompositions the dual bound reuses; whether the gap is now
        closed."""
        if point.lower > self.lower:
            self.lower, self.lower_rho = point.lower, point.rho
        upper = _equal_pair_dual_bound(*self.split, point, self.d_in, self.d_out)
        if upper < self.upper:
            self.upper, self.upper_kind, self.upper_rho = upper, "point", point.rho
        return self.closed()

    @functools.cached_property
    def split(self) -> tuple[np.ndarray, float]:
        """:func:`_split_hermitian` of J, taken once per solve."""
        return _split_hermitian(self.j)

    def closed(self) -> bool:
        return self.upper - self.lower <= TARGET_REL_GAP * max(1.0, self.lower)

    def certificate(self, iterations, path, stalled=False):
        witness = Witness(self.lower_rho, self.upper_kind, self.upper_rho)
        return NormCertificate(
            0.5 * (self.upper + self.lower), self.upper, self.lower, iterations,
            self.upper - self.lower, stalled, path, witness,
        )


def diamond_norm_of_choi(j: np.ndarray, d_in: int, d_out: int) -> NormCertificate:
    """Certified diamond norm of the (trace-side) map with Choi matrix ``j``.

    The certificate carries the :class:`Witness` of both bounds, which
    :func:`check_witness` re-evaluates without solving.
    """
    j = np.asarray(j, dtype=complex)
    # the Frobenius pair closes on roundoff-sized maps, the cheap pair on the next band up
    bounds = _Bounds(j, d_in, d_out)
    if not bounds.closed():
        bounds.lower, bounds.upper = _cheap_pair(*bounds.split, d_in, d_out)
        bounds.upper_kind = "cheap"
    if bounds.closed():
        return bounds.certificate(0, "cheap")

    target_gap = 0.25 * TARGET_REL_GAP * max(1.0, bounds.lower)
    # start where the barrier's own gap n_z / t is four times the cheap gap
    gap0 = max(bounds.upper - bounds.lower, target_gap)
    n_z = 2 * d_in * d_out
    iters = _barrier_solve(j, d_in, d_out, target_gap, n_z / (4.0 * gap0),
                           on_point=bounds.offer)[5]
    # a gap left open is recorded as stalled, however the path ended
    return bounds.certificate(iters, "barrier", not bounds.closed())


def diamond_norm(mp, dim_in=None, dim_out=None) -> NormCertificate:
    """Diamond norm of a trace-side map given by its superoperator matrix."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    return diamond_norm_of_choi(choi_from_superop(m, d_in, d_out), d_in, d_out)


def cb_norm(mp, dim_in=None, dim_out=None) -> NormCertificate:
    """Completely bounded norm of an observable-side map: ||L||_cb = ||L*||_diamond."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    return diamond_norm(m.conj().T, d_out, d_in)


def check_witness(j: np.ndarray, d_in: int, d_out: int, witness: Witness):
    """(lower, upper) that ``witness`` certifies for the Choi matrix ``j``.

    No solve runs: the lower bound is read off the witness rho after
    projecting it onto the density matrices, so no tampered rho can raise it
    past the norm, and the upper bound rebuilds the dual point (a "cheap" one,
    the polar bound of earlier versions included, at I/d_in) and checks its
    feasibility explicitly, with the slack folded in as the solver does.
    Raises :class:`InvalidWitness` when the witness does not fit ``j``, a
    "point" rho included that is not positive definite.
    """
    if witness.upper_kind not in _UPPER_KINDS:
        raise InvalidWitness(f"unknown upper witness kind {witness.upper_kind!r}")
    j = np.asarray(j, dtype=complex)
    point = witness.upper_kind == "point"
    for m in (witness.lower, witness.upper) if point else (witness.lower,):
        if np.shape(m) != (d_in, d_in) or not np.all(np.isfinite(m)):
            raise InvalidWitness(
                f"witness matrix of shape {np.shape(m)}, expected finite {(d_in, d_in)}")
    if witness.upper_kind == "frobenius":
        return _frobenius_pair(_sandwich_part(j, witness.lower), j, d_out)
    upper = (_dual_bound_from_point(j, witness.upper, d_in, d_out) if point
             else _cheap_pair(*_split_hermitian(j), d_in, d_out)[1])
    return _primal_value(j, witness.lower), upper


def check_cb_witness(mp, dim_in: int, dim_out: int, witness: Witness):
    """:func:`check_witness` for an observable-side map, in the adjoint
    convention of :func:`cb_norm`."""
    m, d_in, d_out = _as_superop(mp, dim_in, dim_out)
    return check_witness(choi_from_superop(m.conj().T, d_out, d_in), d_out, d_in, witness)
