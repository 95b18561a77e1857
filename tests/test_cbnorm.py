import decimal
import json

import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import cbnorm as cb
from almostidem import pipeline
from almostidem import serialize as ser

import check_report
import sdp_oracle
import structure_oracle as so


def two_level_superop(eta: float) -> np.ndarray:
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    c = np.sqrt(eta * (1 - eta))
    g0 = np.array([[1 - eta, c], [c, eta]], dtype=complex)
    g1 = np.array([[0, 0], [0, 1]], dtype=complex)
    cols = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
        cols[:, idx] = nl.vec(p0 * np.trace(g0 @ x) + p1 * np.trace(g1 @ x))
    return cols


def depolarizing_superop(dim: int) -> np.ndarray:
    cols = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx in range(dim * dim):
        x = nl.unvec(np.eye(dim * dim, dtype=complex)[:, idx], dim, dim)
        cols[:, idx] = nl.vec(np.trace(x) * np.eye(dim) / dim)
    return cols


class TestKnownValues:
    def test_zero_map(self):
        cert = cb.diamond_norm(np.zeros((4, 4)), 2, 2)
        assert cert.value == 0.0 and cert.gap == 0.0

    def test_unitary_difference(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        diff = np.eye(4) - chn.superop_from_kraus([z])
        cert = cb.diamond_norm(diff, 2, 2)
        assert abs(cert.value - 2.0) <= 1e-6
        assert cert.gap <= 1e-6 * max(1.0, cert.value)

    def test_identity_minus_depolarizing(self):
        diff = np.eye(4) - depolarizing_superop(2)
        cert = cb.diamond_norm(diff, 2, 2)
        assert abs(cert.value - 1.5) <= 1e-4
        assert cert.gap <= 1e-6 * max(1.0, cert.value)

    def test_ucp_cb_norm_is_one(self):
        for seed in range(10):
            ch = chn.gen_random_ucp(3, 2, seed=seed)
            cert = cb.cb_norm(ch)
            assert abs(cert.value - 1.0) <= 1e-6

    def test_two_level_idempotency_defect(self):
        # (Phi^2 - Phi)(X) = eta Tr((g1 - g0) X) P0, so the cb norm equals
        # eta ||g1 - g0||_1 = 2 eta sqrt(1 - eta)
        for eta in (0.01, 0.04, 0.1):
            m = two_level_superop(eta)
            cert = cb.cb_norm(m @ m - m, 2, 2)
            assert abs(cert.value - 2 * eta * np.sqrt(1 - eta)) <= 1e-6
            assert cert.gap <= 1e-6


class TestCertificates:
    def test_sandwich_with_seesaw(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            dim = int(rng.integers(2, 4))
            a = chn.gen_random_ucp(dim, 2, seed=trial)
            b = chn.gen_random_ucp(dim, 2, seed=100 + trial)
            diff = a.superop - b.superop
            cert = cb.cb_norm(diff, dim, dim)
            seesaw = sdp_oracle.diamond_lower_bound_seesaw(
                diff.conj().T, dim, dim, restarts=24, iters=120, seed=trial
            )
            assert seesaw <= cert.upper + 1e-9
            assert cert.lower <= cert.upper + 1e-12
            assert abs(seesaw - cert.value) <= 1e-4 * max(1.0, cert.value)

    def test_seesaw_known_values(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        diff = np.eye(4) - chn.superop_from_kraus([z])
        assert abs(sdp_oracle.diamond_lower_bound_seesaw(diff, 2, 2) - 2.0) <= 1e-6
        dep = np.eye(4) - depolarizing_superop(2)
        assert abs(sdp_oracle.diamond_lower_bound_seesaw(dep, 2, 2) - 1.5) <= 1e-3

    def test_triangle_and_homogeneity(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            na = cb.diamond_norm(a, 3, 3)
            nb = cb.diamond_norm(b, 3, 3)
            nab = cb.diamond_norm(a + b, 3, 3)
            assert nab.lower <= na.upper + nb.upper + 1e-8
            c = -2.5
            nca = cb.diamond_norm(c * a, 3, 3)
            assert abs(nca.value - abs(c) * na.value) <= 1e-6 * max(1.0, nca.value)

    def test_stabilization_never_exceeds_value(self):
        # operator-norm maximization of 1_{M_n} (x) Psi at n = dim H
        rng = np.random.default_rng(3)
        a = chn.gen_random_ucp(2, 2, seed=5)
        b = chn.gen_random_ucp(2, 2, seed=15)
        diff_heis = a.superop - b.superop
        cert = cb.cb_norm(diff_heis, 2, 2)
        ext = chn.extend_superop(diff_heis, 2, 2, 2)
        best = 0.0
        for _ in range(300):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x /= nl.operator_norm(x)
            best = max(best, nl.operator_norm(nl.unvec(ext @ nl.vec(x), 4, 4)))
        assert best <= cert.value + 1e-6


def _barrier_case(d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    n = d_in * d_out
    j = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = 0.7 * nl.random_density(d_in, rng) + 0.3 * np.eye(d_in) / d_in
    sigma = 0.7 * nl.random_density(d_in, rng) + 0.3 * np.eye(d_in) / d_in
    return j, rho, sigma


def _full_density(dim, rng):
    """A density matrix on C^2 (x) C^(dim/2) with non-zero off-diagonal blocks."""
    rho = 0.7 * nl.random_density(dim, rng) + 0.3 * np.eye(dim) / dim
    assert nl.operator_norm(rho[: dim // 2, dim // 2:]) > 1e-2
    return rho


class TestBarrierSolver:
    def test_gradient_and_hessian_finite_difference(self):
        # the reduced barrier rho -> F_t(rho, rho) of a Hermitian J, X
        # maximized out in closed form
        t, eps = 1.7, 1e-5
        for d_in, d_out in [(2, 2), (3, 2), (2, 3)]:
            j, rho, _ = _barrier_case(d_in, d_out, 13 + 10 * d_in + d_out)
            j = nl.hermitian_part(j)
            h_stack = np.stack(nl.hermitian_basis(len(rho)))
            nb = len(h_stack)

            def point(v):
                return cb._barrier_point(j, rho + np.tensordot(v, h_stack, axes=1), t, d_out)

            grad, neg_hess = cb._barrier_derivatives(point(np.zeros(nb)), h_stack)
            steps = eps * np.eye(nb)
            grad_fd = np.array([(point(e).value - point(-e).value) / (2 * eps) for e in steps])
            hess_fd = np.array([
                (cb._barrier_derivatives(point(e), h_stack)[0]
                 - cb._barrier_derivatives(point(-e), h_stack)[0]) / (2 * eps)
                for e in steps
            ])
            assert np.allclose(grad, grad_fd, rtol=0, atol=1e-6 * np.abs(grad).max())
            assert np.allclose(-neg_hess, hess_fd, rtol=0, atol=1e-6 * np.abs(neg_hess).max())
            # concave: the negated Hessian is positive definite
            assert np.linalg.eigvalsh(neg_hess)[0] > 0

    def test_gradient_t_derivative_finite_difference(self):
        # dg/dt at fixed rho, the right-hand side of the restart's tangent
        # rho' = hess^-1 dg/dt; a large t puts every y near 1
        eps = 1e-6
        for t in (1.7, 3e3):
            for d_in, d_out in [(2, 2), (3, 2), (2, 3)]:
                j, rho, _ = _barrier_case(d_in, d_out, 13 + 10 * d_in + d_out)
                j = nl.hermitian_part(j)
                h_stack = cb._trace_free_basis(d_in)

                def grad(tt):
                    return cb._barrier_derivatives(cb._barrier_point(j, rho, tt, d_out), h_stack)[0]

                fd = (grad(t * (1 + eps)) - grad(t * (1 - eps))) / (2 * t * eps)
                dg_dt = cb._gradient_t_derivative(cb._barrier_point(j, rho, t, d_out), h_stack)
                assert np.abs(dg_dt).max() > 0
                assert np.allclose(dg_dt, fd, rtol=0, atol=1e-6 * np.abs(dg_dt).max())

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (3, 2), (2, 3)])
    def test_reduced_value_is_the_barrier_at_x_star(self, d_in, d_out):
        # at (rho, rho) on a Hermitian J
        j, rho, _ = _barrier_case(d_in, d_out, 5 + 10 * d_in + d_out)
        j = nl.hermitian_part(j)
        t = 3.1
        rng = np.random.default_rng(d_in + d_out)
        pt = cb._barrier_point(j, rho, t, d_out)
        x = pt.x_star()
        rr = nl.kron(rho, np.eye(d_out))

        def barrier(xm):
            z = np.block([[rr, xm], [xm.conj().T, rr]])
            sign, logdet = np.linalg.slogdet(z)
            return t * np.real(so.hs_inner(j, xm)) + logdet, np.linalg.eigvalsh(z)[0]

        value, lam_min = barrier(x)
        assert abs(value - pt.value) <= 1e-10 * max(1.0, abs(value))
        assert lam_min > 0
        for _ in range(20):
            dx = 1e-3 * _random_complex(rng, *x.shape)
            value_p, lam_p = barrier(x + dx)
            assert lam_p <= 0 or value_p < value

    def test_barrier_closes_gap_cold_start(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = chn.choi_from_superop(m, 2, 2)
        j = a + a.conj().T
        d_in = d_out = 2
        # the cold start: t0 scaled to ||J||, with no gap known
        rho, rho_1, x, t, value, iters, stalled = cb._barrier_solve(
            j, d_in, d_out, 1e-7, 1.0 / nl.operator_norm(j))
        assert not stalled and iters > 0 and rho_1 is rho
        lower = cb._primal_value(j, rho)
        upper = cb._dual_bound_from_point(j, rho, d_in, d_out)
        assert upper - lower <= 1e-5 * max(1.0, lower)
        # X* is primal feasible with (rho, rho), within n / t of its trace norm.
        # The margin of lower - n / t <= Re<J, X*> is below the roundoff of its
        # two sides, so the two facts it rests on are checked instead.  With
        # s_i the singular values of M at the witness, u = t s_i, c = sqrt(1 + u^2)
        # and y_i = u / (1 + c): X* is the closed form, lower - Re<J, X*> =
        # sum s_i (1 - y_i); and n / t - sum s_i (1 - y_i) = sum 1 / (t (c + u)) > 0.
        re_jx = np.real(so.hs_inner(j, x))
        assert re_jx <= lower + 1e-9
        sr = cb._density_sqrt(rho)
        s = np.linalg.svd(cb._lmul(sr, cb._rmul(j, sr)), compute_uv=False)
        assert len(s) == d_in * d_out
        u = t * s
        c = np.sqrt(1.0 + u * u)
        one_minus_y = (1.0 + 1.0 / (c + u)) / (1.0 + c)  # 1 - y, without cancellation
        assert abs((lower - re_jx) - np.sum(s * one_minus_y)) <= 1e-14 * lower
        assert np.sum(1.0 / (t * (c + u))) > 0
        # what the solve returns is the barrier of J at (rho, rho, X*) and t
        rr = nl.kron(rho, np.eye(d_out))
        z = np.block([[rr, x], [x.conj().T, rr]])
        sign, logdet = np.linalg.slogdet(z)
        assert sign > 0
        assert abs(value - (t * np.real(so.hs_inner(j, x)) + logdet)) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("d_in", [2, 3, 4])
    @pytest.mark.parametrize("d_out", [2, 3, 4])
    def test_random_maps_close_on_the_barrier(self, d_in, d_out):
        # Hermitian maps (rho = sigma at the optimum); late on the path the
        # Newton decrement is small beside the gradient, so an inexact
        # decrement stops centering early and leaves the gap open
        rng = np.random.default_rng(40 + 5 * d_in + d_out)
        n = d_in * d_out
        for _ in range(6):
            a = _random_complex(rng, n, n)
            j = a + a.conj().T
            cert = cb.diamond_norm_of_choi(j, d_in, d_out)
            assert cert.path in ("barrier", "cheap")
            assert not cert.stalled
            assert cert.gap <= 1e-6 * max(1.0, cert.lower)
            _assert_reproduces(cb.check_witness(j, d_in, d_out, cert.witness), cert)

    def test_open_gap_is_recorded_stalled(self, monkeypatch):
        # a Newton step that never moves ends every stage at once, so the
        # path runs to its last t without a stall and leaves the gap open
        monkeypatch.setattr(cb, "_newton_step", _no_move)
        j = _random_complex(np.random.default_rng(3), 6, 6)
        cert = cb.diamond_norm_of_choi(j, 2, 3)
        assert cert.path == "barrier"
        assert cert.gap > 1e-6 * max(1.0, cert.lower)
        assert cert.stalled

    def test_final_stage_ends_on_the_undamped_decrement(self, monkeypatch):
        # the first Newton step at t_final reports decrement 1 and points 100
        # times past the Newton step, so the line search damps it below
        # 1/200: dec * alpha < 5e-3 there, far from the center.  The stage
        # must go on centring, so the point returned has a small decrement.
        # Each restart keeps rho, as without the predictor, so the first
        # point at t_final is as far from its center as the last stage left it
        monkeypatch.setattr(cb, "_restart", lambda j, pt, hess, t, t_new, h_stack, d_out:
                            cb._at_t(pt, t_new, d_out))
        j = nl.hermitian_part(_random_complex(np.random.default_rng(3), 6, 6))
        h_stack = cb._trace_free_basis(2)
        t_final = 4.0 * 12 / 1e-6
        # every point of the path, the restart's included, gets its t from _at_t
        newton_step, at_t = cb._newton_step, cb._at_t
        last_t, damped = [0.0], []

        def recording_point(pt, t, d_out):
            last_t[0] = t
            return at_t(pt, t, d_out)

        def damped_first(pt, h):
            d, dec = newton_step(pt, h)
            if last_t[0] >= t_final and not damped:
                damped.append(dec)
                return 100.0 * d, 1.0
            return d, dec

        monkeypatch.setattr(cb, "_at_t", recording_point)
        monkeypatch.setattr(cb, "_newton_step", damped_first)
        rho, _, _, t, _, _, stalled = cb._barrier_solve(j, 2, 3, 1e-6, 1.0 / nl.operator_norm(j))
        assert t == t_final and not stalled
        assert damped and damped[0] > 1.0  # the damped step was far from the center
        assert newton_step(cb._barrier_point(j, rho, t, 3), h_stack)[1] < 5e-3

    def test_explicit_sdp_cross_check(self):
        # a difference of channels (Hermitian J); a map that does not preserve
        # Hermiticity is cross-checked in test_non_hermitian_map_is_bracketed
        a = chn.gen_random_ucp(2, 2, seed=21)
        b = chn.gen_random_ucp(2, 2, seed=22)
        diff = (a.superop - b.superop).conj().T
        pval, dval, gap = sdp_oracle.diamond_norm_sdp_explicit(diff, 2, 2, tol=1e-9)
        cert = cb.diamond_norm(diff, 2, 2)
        assert cert.path == "barrier"
        assert abs(pval - cert.value) <= 1e-5 * max(1.0, cert.value)


def _ref_barrier_derivatives(pt, h_stack):
    """Gradient and negated Hessian of the reduced barrier, one direction at
    a time: P_a = U^dag ((rho^-1/2 H_a rho^-1/2) (x) I) U for each H_a, the
    gradient 2 Re diag(P_a) / a and the negated Hessian
    2 Re sum conj(P_a)_kl (P_b)_kl / (1 + z_k z_l)."""
    rir = pt.roots[1]
    nb, a, y, z = len(h_stack), pt.a, pt.y, pt.z
    p = pt.u.conj().T @ cb._lmul(rir @ h_stack @ rir, pt.u)
    grad = 2.0 * np.real(np.einsum("aii,i->a", p, 1.0 / a))
    zz = np.outer(z, z)
    dy = np.subtract.outer(y, y)
    den = np.where(zz < 0, 0.5 * (a[:, None] + a[None, :] + dy * dy), 1.0 + zz)
    pf = p.reshape(nb, -1)
    hess = np.real(pf.conj() @ (pf * (2.0 / den).ravel()).T)
    return grad, 0.5 * (hess + hess.T)


class TestMatrixUnitDerivatives:
    """The derivatives taken over matrix units match the per-direction formula."""

    def test_matches_per_direction_formula(self):
        cases = []
        for d_in, d_out in [(2, 2), (3, 2), (2, 3), (4, 4)]:
            j, rho, _ = _barrier_case(d_in, d_out, 50 + 10 * d_in + d_out)
            cases.append((nl.hermitian_part(j), rho, d_out, cb._trace_free_basis(d_in)))
        for j, rho, d_out, h_stack in cases:
            for t in (1.7, 1e6):
                pt = cb._barrier_point(j, rho, t, d_out)
                grad, neg_hess = cb._barrier_derivatives(pt, h_stack)
                grad_ref, neg_hess_ref = _ref_barrier_derivatives(pt, h_stack)
                assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
                assert np.abs(neg_hess - neg_hess_ref).max() <= 1e-12 * np.abs(neg_hess_ref).max()


def _anti_hermitian(rng, n, size):
    """An anti-Hermitian n x n matrix of operator norm ``size``."""
    b = _random_complex(rng, n, n)
    b = b - b.conj().T
    return size * b / nl.operator_norm(b)


class TestSymmetricBarrier:
    """Newton over rho alone, sigma = rho, on H(J) for every J."""

    def test_hessian_weight_without_cancellation(self):
        # M = J / d_in at rho = I / d_in has eigenvalues 1.3 and -1.3 (1 + 1e-7);
        # at t = 1e9 both y are 1 - 1.5e-9, so 1 + z_i z_j = 1 - y_i y_j loses
        # seven digits when taken as 1 - y_i * y_j
        d_in = d_out = 2
        rng = np.random.default_rng(17)
        q = nl.random_unitary(4, rng)
        j = d_in * (q * np.array([1.3, -1.3 * (1 + 1e-7), 0.4, -0.9])) @ q.conj().T
        t = 1e9
        pt = cb._barrier_point(j, np.eye(d_in, dtype=complex) / d_in, t, d_out)
        h_stack = np.stack(nl.hermitian_basis(d_in))
        _, neg_hess = cb._barrier_derivatives(pt, h_stack)
        lam, w = np.linalg.eigh(cb._lmul(pt.roots[0], cb._rmul(j, pt.roots[0])))
        assert np.array_equal(w, pt.u)
        # reference: 1 + z_i z_j in 40-digit decimal arithmetic from lam and t
        ctx = decimal.Context(prec=40)
        ts = [ctx.multiply(decimal.Decimal(t), decimal.Decimal(abs(x))) for x in lam]
        z = [ctx.divide(v, 1 + ctx.sqrt(1 + v * v)) * (1 if x >= 0 else -1)
             for v, x in zip(ts, lam)]
        den = np.array([[float(ctx.add(1, ctx.multiply(zi, zj))) for zj in z] for zi in z])
        p = pt.u.conj().T @ cb._lmul(pt.roots[1] @ h_stack @ pt.roots[1], pt.u)
        pf = p.reshape(len(h_stack), -1)
        ref = 2.0 * np.real(pf.conj() @ (pf / den.ravel()).T)
        assert np.allclose(neg_hess, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        # the case bites: the naive weight is off by far more
        naive = 1.0 - pt.y[0] * pt.y[1]
        assert abs(naive - den[0, 1]) > 1e-9 * den[0, 1]

    @pytest.mark.parametrize("d_in", [2, 3, 4])
    @pytest.mark.parametrize("d_out", [2, 3, 4])
    def test_symmetric_path_matches_general(self, d_in, d_out, monkeypatch):
        # an anti-Hermitian part K that puts J = H + K off Hermitian by 1e-9
        # relative, far below the gap target, leaves the solve as it is on H:
        # Newton over rho of size d_in, with the same steps, and the bounds
        # of J close, the Weyl term for K included
        rng = np.random.default_rng(60 + 5 * d_in + d_out)
        n = d_in * d_out
        a = _random_complex(rng, n, n)
        h = a + a.conj().T
        j = h + _anti_hermitian(rng, n, 0.5e-9 * nl.operator_norm(h))
        assert not nl.is_hermitian(j, 1e-10)
        # the size of rho at each Newton step
        dims = []
        derivatives = cb._barrier_derivatives

        def counted(pt, h_stack):
            dims.append(len(pt.rho))
            return derivatives(pt, h_stack)

        monkeypatch.setattr(cb, "_barrier_derivatives", counted)
        certs = []
        for jj in (h, j):
            cert = cb.diamond_norm_of_choi(jj, d_in, d_out)
            assert cert.path == "barrier" and not cert.stalled
            assert cert.gap <= 1e-6 * max(1.0, cert.lower)
            _assert_reproduces(cb.check_witness(jj, d_in, d_out, cert.witness), cert)
            certs.append(cert)
        assert certs[1].iterations == certs[0].iterations > 0
        assert dims == [d_in] * (2 * certs[0].iterations)
        assert certs[0].lower <= certs[1].upper and certs[1].lower <= certs[0].upper

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (2, 3), (3, 2)])
    def test_non_hermitian_map_is_bracketed(self, d_in, d_out):
        # a map that does not preserve Hermiticity: Newton on H(J) gives
        # bounds valid for J, and the gap its skew part leaves open is
        # recorded stalled; the witness interval lies inside the recorded
        # one, as aiq verify requires
        m = _random_complex(np.random.default_rng(4 + 10 * d_in + d_out),
                            d_out * d_out, d_in * d_in)
        j = chn.choi_from_superop(m, d_in, d_out)
        assert nl.operator_norm(j - j.conj().T) > 1e-2 * nl.operator_norm(j)
        value, _, _ = sdp_oracle.diamond_norm_sdp_explicit(m, d_in, d_out, tol=1e-9)
        cert = cb.diamond_norm(m, d_in, d_out)
        assert cert.path == "barrier" and cert.stalled
        assert cert.lower <= value <= cert.upper
        lower, upper = cb.check_witness(j, d_in, d_out, cert.witness)
        slack = pipeline.VERIFY_SLACK
        assert cert.lower <= lower + slack and upper - slack <= cert.upper


class TestGenericSdp:
    def test_trace_maximization(self):
        # max Tr(X) s.t. 0 <= X <= I on 2x2: optimum 2
        basis = nl.hermitian_basis(2)
        a_blocks = [[h, h] for h in basis]
        b = np.array([np.trace(h).real for h in basis])
        c = [-np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
        prob = sdp_oracle.SdpProblem((2, 2), c, a_blocks, b)
        pval, dval, gap = sdp_oracle.solve_sdp(prob)
        assert abs(-pval - 2.0) <= 1e-7
        assert abs(gap) <= 1e-7

    def test_largest_eigenvalue(self):
        # min t s.t. t I >= M equals lambda_max(M)
        rng = np.random.default_rng(9)
        m = so.random_hermitian(3, rng)
        lam_max = np.linalg.eigvalsh(m)[-1]
        basis = nl.hermitian_basis(3)
        a_blocks = [[h, -np.trace(h).real * np.ones((1, 1), dtype=complex)] for h in basis]
        b = np.array([-np.real(so.hs_inner(h, m)) for h in basis])
        c = [np.zeros((3, 3), dtype=complex), np.ones((1, 1), dtype=complex)]
        prob = sdp_oracle.SdpProblem((3, 1), c, a_blocks, b)
        pval, dval, gap = sdp_oracle.solve_sdp(prob)
        assert abs(pval - lam_max) <= 1e-6


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestKronFreeKernels:
    @pytest.mark.parametrize("d_in,d_out", [(2, 3), (3, 2), (4, 4)])
    def test_products_and_partial_trace_match_kron(self, d_in, d_out):
        rng = np.random.default_rng(10 * d_in + d_out)
        n = d_in * d_out
        eye = np.eye(d_out)
        m = _random_complex(rng, n, n)
        a = _random_complex(rng, d_in, d_in)
        b = _random_complex(rng, d_in, d_in)
        assert np.allclose(cb._lmul(a, m), nl.kron(a, eye) @ m, rtol=0, atol=1e-12)
        assert np.allclose(cb._rmul(m, b), m @ nl.kron(b, eye), rtol=0, atol=1e-12)
        assert np.allclose(
            cb._ptrace_out(m, d_in, d_out), nl.partial_trace(m, (d_in, d_out), keep=0),
            rtol=0, atol=1e-12,
        )
        # stacks of input-factor operators, as in the Hessian cross blocks
        stack = np.stack([a, b])
        for got, ref in zip(cb._lmul(stack, m), (a, b)):
            assert np.allclose(got, nl.kron(ref, eye) @ m, rtol=0, atol=1e-12)
        for got, ref in zip(cb._rmul(m, stack), (a, b)):
            assert np.allclose(got, m @ nl.kron(ref, eye), rtol=0, atol=1e-12)


def _band_map(d: int) -> np.ndarray:
    """c times the Choi matrix of the identity map on M_d, with c such that
    the Frobenius pair's gap c (d^2 (1 + 1e-9) - 1) is twice the gap target;
    the cheap pair of this J is exact, [c, c]."""
    c = 2 * cb.TARGET_REL_GAP / (d * d * (1 + 1e-9) - 1)
    return c * chn.choi_from_superop(np.eye(d * d, dtype=complex), d, d)


def _recording_decompositions(monkeypatch):
    """The shapes of the matrices that eigh, eigvalsh and svd are called on."""
    shapes = []
    for name in ("eigh", "eigvalsh", "svd"):
        def recorded(m, *args, _f=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(m)[-2:])
            return _f(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


class TestCheapCertificate:
    def test_tiny_map_certified_without_ascent(self, monkeypatch):
        rng = np.random.default_rng(23)
        d_in, d_out = 3, 2
        n = d_in * d_out
        a = _random_complex(rng, n, n)
        j = 1e-12 * a
        shapes = _recording_decompositions(monkeypatch)
        cert = cb.diamond_norm_of_choi(j, d_in, d_out)
        assert cert.iterations == 0 and cert.path == "cheap"
        assert cert.witness.upper_kind == "frobenius" and cert.witness.upper is None
        # two Frobenius norms and no decomposition; the check decomposes
        # only the witness rho, to project it onto the density matrices
        assert cert.lower == pytest.approx(np.linalg.norm(j + j.conj().T) / (2 * d_in), rel=1e-12)
        assert cert.upper == pytest.approx(d_out * np.linalg.norm(j), rel=1e-8)
        assert cert.lower <= cert.upper
        assert cert.gap <= 1e-6
        assert shapes == []
        _assert_reproduces(cb.check_witness(j, d_in, d_out, cert.witness), cert)
        assert shapes == [(d_in, d_in)]

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_frobenius_pair_brackets_the_sdp(self, d_in, d_out, hermitian):
        # the pair at I/d_in is homogeneous in J, so the bracket of the
        # independent solver's interval is checked at scale 1, where its
        # tolerance is far below the margins, and the certificate of the tiny
        # map is that pair scaled
        rng = np.random.default_rng(300 + 10 * d_in + d_out + hermitian)
        n = d_in * d_out
        j = _random_complex(rng, n, n)
        if hermitian:
            j = j + j.conj().T
        ref_lower, ref_upper, _ = sdp_oracle.diamond_norm_sdp_explicit(
            chn.superop_from_choi(j, d_in, d_out), d_in, d_out, tol=1e-9)
        uniform = np.eye(d_in, dtype=complex) / d_in
        lower, upper = cb._frobenius_pair(cb._sandwich_part(j, uniform), j, d_out)
        assert lower <= ref_upper and ref_lower <= upper
        cert = cb.diamond_norm_of_choi(1e-9 * j, d_in, d_out)
        assert cert.path == "cheap" and cert.witness.upper_kind == "frobenius"
        _assert_reproduces((1e-9 * lower, 1e-9 * upper), cert)

    def test_frobenius_gap_twice_the_target_takes_the_cheap_pair(self):
        for d in (2, 3):
            j = _band_map(d)
            lower, upper = cb._frobenius_pair(nl.hermitian_part(j) / d, j, d)
            assert upper - lower == pytest.approx(2 * cb.TARGET_REL_GAP, rel=1e-9)
            cert = cb.diamond_norm_of_choi(j, d, d)
            assert cert.path == "cheap" and cert.iterations == 0
            assert cert.witness.upper_kind == "cheap"
            assert cert.gap <= 1e-15 and lower <= cert.lower <= cert.upper < upper
            _assert_reproduces(cb.check_witness(j, d, d, cert.witness), cert)

    def test_early_exit_does_not_fire_above_gap_target(self):
        # homogeneity at 1e-3 holds only if that map still gets the full solve
        rng = np.random.default_rng(23)
        d_in, d_out = 3, 2
        a = _random_complex(rng, d_in * d_out, d_in * d_out)
        a = a + a.conj().T
        full = cb.diamond_norm_of_choi(a, d_in, d_out)
        scaled = cb.diamond_norm_of_choi(1e-3 * a, d_in, d_out)
        for cert in (full, scaled):
            assert cert.gap <= 1e-6 * max(1.0, cert.lower)
        assert abs(scaled.value - 1e-3 * full.value) <= 1e-6 * max(1.0, scaled.value)


def _assert_reproduces(bounds, cert, tol=1e-9):
    lower, upper = bounds
    assert abs(lower - cert.lower) <= tol * max(1.0, cert.lower)
    assert abs(upper - cert.upper) <= tol * max(1.0, cert.upper)


class TestWitness:
    def test_witness_reproduces_each_path(self):
        rng = np.random.default_rng(5)
        paths = set()
        for d_in, d_out in [(2, 2), (2, 3), (3, 2)]:
            for scale in (1.0, 1e-12):
                n = d_in * d_out
                a = _random_complex(rng, n, n)
                j = scale * (a + a.conj().T)
                cert = cb.diamond_norm_of_choi(j, d_in, d_out)
                paths.add((cert.path, cert.witness.upper_kind))
                _assert_reproduces(cb.check_witness(j, d_in, d_out, cert.witness), cert)
        # the barrier: a difference of two channels at seed 0 of the scan below
        a = chn.gen_random_ucp(2, 2, seed=21)
        b = chn.gen_random_ucp(2, 2, seed=22)
        for seed in range(4):
            mp = chn.gen_random_ucp(2, 2, seed=seed).superop - a.superop
            cert = cb.cb_norm(mp, 2, 2)
            paths.add((cert.path, cert.witness.upper_kind))
            _assert_reproduces(cb.check_cb_witness(mp, 2, 2, cert.witness), cert)
        mp = a.superop - b.superop
        cert = cb.cb_norm(mp, 2, 2)
        _assert_reproduces(cb.check_cb_witness(mp, 2, 2, cert.witness), cert)
        # a map in the band the Frobenius pair leaves open and the cheap pair closes
        j = _band_map(2)
        cert = cb.diamond_norm_of_choi(j, 2, 2)
        paths.add((cert.path, cert.witness.upper_kind))
        _assert_reproduces(cb.check_witness(j, 2, 2, cert.witness), cert)
        assert {("cheap", "frobenius"), ("cheap", "cheap"), ("barrier", "point")} <= paths

    def test_recorded_iterate_reproduces_its_upper_bound(self, perturbed_d4):
        # the dual bound of a recorded barrier iterate is rebuilt from the
        # same decompositions the solve offered it from
        solves = perturbed_d4[1]
        assert len(solves) == 30
        for j, d_in, d_out, cert in solves:
            assert cert.witness.upper_kind == "point"
            rec = json.loads(json.dumps(ser.certificate_to_dict(cert)))
            _, upper = cb.check_witness(j, d_in, d_out, ser.certificate_witness_from_dict(rec))
            assert abs(upper - rec["upper"]) <= 1e-12 * rec["upper"]

    def test_zero_map_witness(self):
        cert = cb.diamond_norm(np.zeros((4, 4)), 2, 2)
        assert cert.path == "cheap"
        assert cb.check_witness(np.zeros((4, 4)), 2, 2, cert.witness) == (0.0, 0.0)

    def test_cb_wrapper_follows_adjoint_convention(self):
        # a map B(C^2) -> B(C^3) on the observable side: rectangular superop
        rng = np.random.default_rng(8)
        m = _random_complex(rng, 9, 4)
        cert = cb.cb_norm(m, 2, 3)
        _assert_reproduces(cb.check_cb_witness(m, 2, 3, cert.witness), cert)
        j = chn.choi_from_superop(m.conj().T, 3, 2)
        _assert_reproduces(cb.check_witness(j, 3, 2, cert.witness), cert)

    def test_barrier_channel_closes_on_the_barrier(self):
        # the (2,2), t=1e-3, seed 3 perturbed pinching: its twirl distance and
        # retract residual close on the barrier; each certificate must overlap
        # the interval (-primal, -dual) of the independent solver on its map
        ch = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-3, seed=3)
        report, art = pipeline.factorize_channel(ch, seed=3)
        d, d_tot = ch.dim_in, art["spec"].rep_dim
        twirl = art["delta"].superop - art["raw"].delta_superop
        retract = art["upsilon"].superop @ art["delta"].superop - chn.pinch_superop((2, 2))
        cases = [
            (report["checkpoints"][-1]["distance_to_raw_cb"], twirl, d_tot, d),
            (report["factorization"]["residual_retract"], retract, d_tot, d_tot),
        ]
        for rec, mp, dim_in, dim_out in cases:
            assert rec["path"] == "barrier" and rec["iterations"] > 0
            assert not rec["stalled"]
            assert rec["gap"] <= 1e-6 * max(1.0, rec["lower"])
            ref_lower, ref_upper, _ = sdp_oracle.diamond_norm_sdp_explicit(
                mp.conj().T, dim_out, dim_in, tol=1e-9)
            assert rec["lower"] <= ref_upper and ref_lower <= rec["upper"]
            lower, upper = cb.check_cb_witness(
                mp, dim_in, dim_out, ser.certificate_witness_from_dict(rec))
            assert abs(lower - rec["lower"]) <= 1e-9 * max(1.0, rec["lower"])
            assert abs(upper - rec["upper"]) <= 1e-9 * max(1.0, rec["upper"])

    def test_projection_neutralises_scaled_lower_witness(self):
        rng = np.random.default_rng(12)
        j = _random_complex(rng, 6, 6)
        cert = cb.diamond_norm_of_choi(j, 2, 3)
        rho = cert.witness.lower
        lower, _ = cb.check_witness(j, 2, 3, cb.Witness(2 * rho, "cheap"))
        assert abs(lower - cert.lower) <= 1e-12 * cert.lower
        # a non-positive part is clipped: adding -|1><1| changes nothing
        shifted = rho - 5 * np.diag([0.0, 1.0])
        lower_s, _ = cb.check_witness(j, 2, 3, cb.Witness(shifted, "cheap"))
        assert lower_s <= cert.upper + 1e-12

    def test_witness_that_does_not_fit_is_refused(self):
        j = _random_complex(np.random.default_rng(1), 4, 4)
        eye = np.eye(2, dtype=complex) / 2
        bad = [
            cb.Witness(np.eye(3) / 3),
            cb.Witness(eye, "point", np.full((2, 2), np.nan)),
            cb.Witness(eye, "center", eye),
            cb.Witness(eye, "point"),
            cb.Witness(eye, "point", np.diag([1.0, 0.0])),
            cb.Witness(eye, "exact"),
            cb.Witness(-eye),
        ]
        for witness in bad:
            with pytest.raises(cb.InvalidWitness):
                cb.check_witness(j, 2, 2, witness)


def _no_move(pt, h_stack):
    """A Newton step stub that never moves rho."""
    return np.zeros_like(pt.rho), 0.0


def _no_step_accepted(pt, h_stack):
    """A Newton step stub whose every step length leaves the cone."""
    d = np.zeros_like(pt.rho)
    d[0, 0] = -1e20
    return d, 1.0


class TestWorkDoneOnce:
    """Each point the path offers is certified once, and the last point of a
    solve is offered whether or not the path stalled."""

    def test_one_dual_bound_per_stage_center(self, monkeypatch):
        # the path offers stage centres and, near its end, every iterate;
        # each is bounded once, from the offered point's decompositions
        a = _random_complex(np.random.default_rng(41), 6, 6)
        j = a + a.conj().T
        centers, bounds = [], []
        solve = cb._barrier_solve

        def counting_solve(*args, on_point, **kwargs):
            def center(point):
                centers.append(1)
                return on_point(point)

            return solve(*args, on_point=center, **kwargs)

        def counting(dual):
            def counted(*args, **kwargs):
                bounds.append(1)
                return dual(*args, **kwargs)
            return counted

        monkeypatch.setattr(cb, "_barrier_solve", counting_solve)
        for name in ("_dual_bound_from_point", "_equal_pair_dual_bound"):
            monkeypatch.setattr(cb, name, counting(getattr(cb, name)))
        cert = cb.diamond_norm_of_choi(j, 2, 3)
        assert cert.path == "barrier" and not cert.stalled
        assert len(centers) >= 2
        # and one for the cheap pair at I/d_in that seeds the solve
        assert len(bounds) == len(centers) + 1

    @pytest.mark.parametrize("stub", ["no_move", "no_step_accepted"])
    def test_last_point_is_offered(self, stub, monkeypatch):
        # no_move is the stub of test_open_gap_is_recorded_stalled: every
        # stage ends at once and the path ends on a center with the gap open.
        # no_step_accepted leaves no trial point positive definite, so the
        # solve stalls at its first step and is not run again.
        ends, offered = [], []
        solve = cb._barrier_solve
        offer = cb._Bounds.offer

        def recording_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            ends.append(out)
            return out

        def recording_offer(self, point):
            offered.append(point)
            return offer(self, point)

        stubs = {"no_move": _no_move, "no_step_accepted": _no_step_accepted}
        monkeypatch.setattr(cb, "_newton_step", stubs[stub])
        monkeypatch.setattr(cb, "_barrier_solve", recording_solve)
        monkeypatch.setattr(cb._Bounds, "offer", recording_offer)
        a = _random_complex(np.random.default_rng(3), 6, 6)
        j = a + a.conj().T
        cert = cb.diamond_norm_of_choi(j, 2, 3)
        assert cert.path == "barrier" and cert.stalled
        assert offered[-1].rho is ends[-1][0]
        if stub == "no_step_accepted":
            assert [out[-1] for out in ends] == [True]
            assert len(offered) == 1

    def test_open_gap_takes_one_solve(self, monkeypatch):
        # under the no_move stub the path ends with the gap open: its one
        # solve gives the certificate, recorded stalled, the last point it
        # ends on is offered, and no second solve runs
        solves, offered = [], []
        solve = cb._barrier_solve

        def recording_solve(*args, on_point, **kwargs):
            def recording(point):
                offered.append(point.rho)
                return on_point(point)

            solves.append(solve(*args, on_point=recording, **kwargs))
            return solves[-1]

        monkeypatch.setattr(cb, "_newton_step", _no_move)
        monkeypatch.setattr(cb, "_barrier_solve", recording_solve)
        a = _random_complex(np.random.default_rng(3), 6, 6)
        j = a + a.conj().T
        cert = cb.diamond_norm_of_choi(j, 2, 3)
        assert len(solves) == 1 and cert.path == "barrier" and cert.stalled
        assert offered[-1] is solves[0][0]
        _assert_reproduces(cb.check_witness(j, 2, 3, cert.witness), cert)

    def test_no_trial_point_off_the_cone(self, monkeypatch):
        # the line search and the restart's predictor start at the first step
        # length that keeps rho positive definite, so no barrier point is
        # evaluated only to be refused
        points = []
        barrier_point = cb._barrier_point

        def recording_point(*args):
            points.append(barrier_point(*args))
            return points[-1]

        monkeypatch.setattr(cb, "_barrier_point", recording_point)
        for j, d_in, d_out in _budget_maps():
            cb.diamond_norm_of_choi(j, d_in, d_out)
        dims, t, seed = _PERTURBED_D4[3]
        pipeline.factorize_channel(chn.gen_perturbed(chn.gen_pinching(dims), t, seed), seed=seed)
        assert len(points) > 100
        assert all(pt is not None for pt in points)

    def test_restart_only_raises_the_barrier(self, monkeypatch):
        # a restart moves rho along the tangent only where F at the new t
        # gains over rho itself; on the seeded maps most restarts move
        restarts = []
        restart = cb._restart

        def recording(j, pt, hess, t, t_new, h_stack, d_out):
            out = restart(j, pt, hess, t, t_new, h_stack, d_out)
            restarts.append((out, cb._at_t(pt, t_new, d_out)))
            return out

        monkeypatch.setattr(cb, "_restart", recording)
        for j, d_in, d_out in _budget_maps():
            cb.diamond_norm_of_choi(j, d_in, d_out)
        moved = [out.value > plain.value for out, plain in restarts]
        assert len(restarts) > 50 and sum(moved) > len(restarts) // 2
        for out, plain in restarts:
            assert out.value >= plain.value
            assert out.value > plain.value or out.rho is plain.rho

    def test_predictor_trials_stay_on_the_cone(self, monkeypatch):
        # a Hessian scaled down by 100 makes the tangent step a hundred
        # times too long, so some of its step lengths leave the cone: their
        # K test skips them unevaluated, every trial point evaluated is
        # positive definite, and with none gaining over rho the restart
        # keeps rho
        trials, kept = [], []
        barrier_point, restart = cb._barrier_point, cb._restart

        def recording_point(*args):
            trials.append(barrier_point(*args))
            return trials[-1]

        def overlong(j, pt, hess, t, t_new, h_stack, d_out):
            monkeypatch.setattr(cb, "_barrier_point", recording_point)
            out = restart(j, pt, None if hess is None else 1e-2 * hess, t, t_new, h_stack, d_out)
            monkeypatch.setattr(cb, "_barrier_point", barrier_point)
            kept.append(out.rho is pt.rho)
            return out

        monkeypatch.setattr(cb, "_restart", overlong)
        for j, d_in, d_out in _budget_maps()[:6]:
            cb.diamond_norm_of_choi(j, d_in, d_out)
        assert len(kept) > 10 and all(kept)
        assert trials and all(pt is not None for pt in trials)
        assert len(trials) < (cb._PREDICTOR_HALVINGS + 1) * len(kept)

    def test_primal_value_takes_one_root_of_an_equal_pair(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = _random_complex(rng, 6, 6)
        j = a + a.conj().T
        rho = _full_density(2, rng)
        sr = cb._density_sqrt(rho)
        # J is Hermitian, so the value is read off the eigenvalues of M
        # (TestHermitianCentre checks them against its singular values)
        want = float(np.sum(np.abs(np.linalg.eigvalsh(nl.hermitian_part(
            cb._lmul(sr, cb._rmul(j, sr)))))))
        roots = []
        density_sqrt = cb._density_sqrt
        monkeypatch.setattr(cb, "_density_sqrt", lambda m: roots.append(1) or density_sqrt(m))
        assert cb._primal_value(j, rho) == want
        assert len(roots) == 1

    def test_hermitian_split_once_per_solve(self, monkeypatch):
        # H(J) and ||J - J^dag||_F / 2 are fixed for a solve: one split for
        # the cheap pair and all the iterates the solve offers
        a = _random_complex(np.random.default_rng(41), 6, 6)
        j = a + a.conj().T
        splits, offers = [], []
        split, bound = cb._split_hermitian, cb._equal_pair_dual_bound
        monkeypatch.setattr(cb, "_split_hermitian", lambda m: splits.append(1) or split(m))
        monkeypatch.setattr(cb, "_equal_pair_dual_bound",
                            lambda *args: offers.append(1) or bound(*args))
        cert = cb.diamond_norm_of_choi(j, 2, 3)
        assert cert.path == "barrier" and not cert.stalled
        assert len(offers) >= 2 and len(splits) == 1

    def test_unit_plan_built_once_per_basis(self):
        # the read-only bases of _trace_free_basis keep their plan; a
        # writable stack gets a fresh one, equal to it
        for dim in (3, 4):
            basis = cb._trace_free_basis(dim)
            plan = cb._unit_plan(basis)
            assert cb._unit_plan(cb._trace_free_basis(dim)) is plan
            fresh = cb._unit_plan(basis.copy())
            assert fresh is not plan
            for got, want in zip(fresh, plan):
                assert np.array_equal(got, want)
            coef, coef_conj, rows, cols = plan
            units = rows * dim + cols
            assert np.array_equal(coef_conj, coef.conj())
            assert np.array_equal(basis.reshape(len(basis), -1)[:, units], coef)
            assert not np.any(np.delete(basis.reshape(len(basis), -1), units, axis=1))


def _svd_dual_bound(j, rho, sigma, d_in, d_out):
    """The dual bound of ``_dual_bound_from_point`` through the SVD of M, with
    Kronecker products."""
    eye = np.eye(d_out)

    def roots(m):
        w, u = np.linalg.eigh(nl.hermitian_part(m))
        return (nl.kron((u * np.sqrt(w)) @ u.conj().T, eye),
                nl.kron((u / np.sqrt(w)) @ u.conj().T, eye))

    (sr, sri), (ss, ssi) = roots(rho), roots(sigma)
    u, s, vh = np.linalg.svd(sr @ j @ ss)
    y0 = nl.hermitian_part(sri @ (u * s) @ u.conj().T @ sri)
    y1 = nl.hermitian_part(ssi @ (vh.conj().T * s) @ vh @ ssi)
    lam_min = np.linalg.eigvalsh(nl.hermitian_part(np.block([[y0, -j], [-j.conj().T, y1]])))[0]
    val = [nl.operator_norm(nl.partial_trace(y, (d_in, d_out), keep=0)) for y in (y0, y1)]
    return 0.5 * sum(val) + max(0.0, -lam_min) * (1 + 1e-9) * d_out


class TestHermitianCentre:
    """An equal pair is bounded from one eigendecomposition of M for H(J),
    for every J."""

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (3, 2), (2, 3)])
    def test_eigh_bounds_match_svd_formulas(self, d_in, d_out):
        rng = np.random.default_rng(90 + 10 * d_in + d_out)
        n = d_in * d_out
        a = _random_complex(rng, n, n)
        j = a + a.conj().T
        rho = 0.7 * nl.random_density(d_in, rng) + 0.3 * np.eye(d_in) / d_in
        root = nl.kron(cb._density_sqrt(rho), np.eye(d_out))
        want = so.trace_norm(root @ j @ root)
        assert abs(cb._primal_value(j, rho) - want) <= 1e-12 * want
        want = _svd_dual_bound(j, rho, rho, d_in, d_out)
        got = cb._dual_bound_from_point(j, rho, d_in, d_out)
        assert abs(got - want) <= 1e-12 * want

    def test_hermitian_test_is_the_operator_norm_test(self):
        # around the 1e-12 threshold, with Hermitian and skew parts that are
        # generic, of rank one (||.|| = ||.||_F) or of flat spectrum
        # (||.|| = ||.||_F / sqrt n)
        rng = np.random.default_rng(97)
        for n in (4, 6, 9):
            a = _random_complex(rng, n, n)
            v = _random_complex(rng, n, 1)
            q = np.linalg.qr(a)[0]
            flat = (q * np.where(np.arange(n) % 2, 1.0, -1.0)) @ q.conj().T
            for base in (a + a.conj().T, v @ v.conj().T, flat):
                for skew in (a - a.conj().T, 1j * (v @ v.conj().T), 1j * flat):
                    skew = skew * nl.operator_norm(base) / nl.operator_norm(skew)
                    for eps in np.logspace(-15, -9, 31):
                        j = base + eps * skew
                        want = nl.operator_norm(j - j.conj().T) <= 1e-12 * nl.operator_norm(j)
                        assert nl.is_hermitian(j, 1e-12) == want

    @pytest.mark.parametrize("d_in,d_out", [(2, 2), (3, 2), (2, 3)])
    def test_equal_pair_bound_takes_one_stacked_eigvalsh(self, d_in, d_out, monkeypatch):
        # the spectra of Y - H and Y + H from one stacked eigvalsh are those
        # of the two separate calls, so the bound is the same bit for bit
        rng = np.random.default_rng(70 + 10 * d_in + d_out)
        n = d_in * d_out
        a = _random_complex(rng, n, n)
        j = a + a.conj().T + 1e-13 * (a - a.conj().T)
        rho = 0.7 * nl.random_density(d_in, rng) + 0.3 * np.eye(d_in) / d_in
        assert nl.is_hermitian(j, 1e-12)
        h, skew = cb._split_hermitian(j)
        pt = cb._decompose(h, nl.hermitian_part(rho))
        sri = pt.roots[1]
        y = nl.hermitian_part(cb._lmul(sri, cb._rmul((pt.u * np.abs(pt.lam)) @ pt.u.conj().T, sri)))
        lam_min = min(np.linalg.eigvalsh(y - h)[0], np.linalg.eigvalsh(y + h)[0]) - skew
        want = cb._dual_value(y, lam_min, d_in, d_out)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        assert cb._equal_pair_dual_bound(h, skew, pt, d_in, d_out) == want
        assert len(calls) == 1

    def test_non_hermitian_equal_pair_takes_the_hermitian_part(self):
        # ||H(M)||_1 < ||M||_1 for a non-Hermitian M: the value at the uniform
        # pair is that of H(J), still a lower bound, and the cheap pair of a
        # map with a skew part adds its Weyl term d_out ||J - J^dag||_F / 2
        d_in = d_out = 2
        rng = np.random.default_rng(95)
        j = _random_complex(rng, 4, 4)
        assert not nl.is_hermitian(j, 1e-12)
        uniform = np.eye(d_in, dtype=complex) / d_in
        sr = cb._density_sqrt(uniform)
        m = cb._lmul(sr, cb._rmul(j, sr))
        value = cb._primal_value(j, uniform)
        assert value == float(np.sum(np.abs(np.linalg.eigvalsh(nl.hermitian_part(m)))))
        assert value < so.trace_norm(m)
        j = _band_map(2) + 1e-8 * _anti_hermitian(rng, 4, 1.0)
        cert = cb.diamond_norm_of_choi(j, d_in, d_out)
        assert cert.path == "cheap" and cert.witness.upper_kind == "cheap"
        skew = cb._split_hermitian(j)[1]
        assert skew > 1e-9
        assert cert.upper - cert.lower == pytest.approx(d_out * skew, rel=1e-6)
        _assert_reproduces(cb.check_witness(j, d_in, d_out, cert.witness), cert, 1e-12)


def _budget_maps():
    """40 seeded Hermitian maps with (d_in, d_out) in {2, 3, 4}^2."""
    out = []
    for k in range(40):
        rng = np.random.default_rng(1000 + k)
        d_in, d_out = 2 + k % 3, 2 + (k // 3) % 3
        a = _random_complex(rng, d_in * d_out, d_in * d_out)
        out.append((a + a.conj().T, d_in, d_out))
    return out


# the perturbed pinchings (blocks, t, seed) of the perturbed-d4 benchmark
# workload; the seed is both the perturbation's and the pipeline's
_PERTURBED_D4 = [
    ((3, 1), 1e-3, 0), ((2, 2), 1e-2, 1), ((3, 1), 5e-2, 2),
    ((2, 2), 1e-3, 3), ((3, 1), 1e-2, 4), ((2, 2), 5e-2, 5),
]


@pytest.fixture(scope="module")
def perturbed_d4():
    """The six perturbed-d4 reports, and (J, d_in, d_out, certificate) of
    every norm the pipeline solved on the barrier for them."""
    solves, reports = [], []
    solve = cb.diamond_norm_of_choi

    def recording(j, d_in, d_out):
        cert = solve(j, d_in, d_out)
        if cert.path == "barrier":
            solves.append((j, d_in, d_out, cert))
        return cert

    cb.diamond_norm_of_choi = recording
    try:
        for dims, t, seed in _PERTURBED_D4:
            ch = chn.gen_perturbed(chn.gen_pinching(dims), t, seed)
            reports.append(pipeline.factorize_channel(ch, seed=seed)[0])
    finally:
        cb.diamond_norm_of_choi = solve
    return reports, solves


class TestNewtonBudget:
    def test_newton_steps_over_seeded_maps(self):
        # the path schedule with the restart's predictor takes 291 Newton
        # steps over these maps (332 without it); a schedule that lengthens
        # the path fails this bound
        total = 0
        for j, d_in, d_out in _budget_maps():
            cert = cb.diamond_norm_of_choi(j, d_in, d_out)
            assert not cert.stalled
            assert cert.gap <= 1e-6 * max(1.0, cert.lower)
            total += cert.iterations
        assert total <= 291

    def test_newton_steps_on_perturbed_d4(self, perturbed_d4):
        # the six perturbed-d4 channels record 30 certificates, every one
        # closed on the barrier, in 284 Newton steps (359 without the
        # restart's predictor); the gauge of the reconstruction moves the
        # Choi matrix of distance_to_raw_cb, whose solve on (3,1) t=1e-2
        # seed 4 takes 16 of them (11 in the gauge of the split-by-split
        # stage 1, which made the total 279)
        certs = [c for report in perturbed_d4[0] for _, c in check_report.certificates(report)]
        assert len(certs) == 30
        assert all(c["path"] == "barrier" and not c["stalled"] for c in certs)
        assert sum(c["iterations"] for c in certs) <= 284

    def test_newton_steps_at_d8(self):
        # the (4,3,1) pinching at t=1e-2, seed 1: five certificates on the
        # barrier at d_in = 8, where a Newton step costs most, in 62 steps
        # (81 without the restart's predictor)
        ch = chn.gen_perturbed(chn.gen_pinching((4, 3, 1)), 1e-2, 1)
        report = pipeline.factorize_channel(ch, seed=1)[0]
        certs = [c for _, c in check_report.certificates(report)]
        assert len(certs) == 5
        assert all(c["path"] == "barrier" and not c["stalled"] for c in certs)
        assert sum(c["iterations"] for c in certs) <= 62
