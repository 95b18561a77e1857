import numpy as np
import pytest

from almostidem import channels as chn
from almostidem import numlin as nl
from almostidem import starcalc as sc

import structure_oracle as so


def gamma0(eta):
    c = np.sqrt(eta * (1 - eta))
    return np.array([[1 - eta, c], [c, eta]], dtype=complex)


def gamma1():
    return np.array([[0, 0], [0, 1]], dtype=complex)


class TestHermEig:
    def test_diagonal(self):
        dec = nl.herm_eig(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        dec = nl.herm_eig(x)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_rank_one_state(self):
        # det gamma0 = (1-eta)eta - eta(1-eta) = 0 and trace 1, so spectrum is (1, 0)
        dec = nl.herm_eig(gamma0(0.04))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = so.random_hermitian(6, rng)
            dec = nl.herm_eig(m)
            u = dec.eigenvectors
            rebuilt = (u * dec.eigenvalues) @ u.conj().T
            assert nl.operator_norm(rebuilt - m) <= 1e-12 * max(nl.operator_norm(m), 1)
            assert nl.operator_norm(u.conj().T @ u - np.eye(6)) <= 1e-12

    def test_not_hermitian(self):
        with pytest.raises(nl.NotHermitian):
            nl.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSqrt:
    def test_diag(self):
        sq, isq = nl.matrix_sqrt_inv_sqrt(np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(sq, np.diag([2.0, 3.0]), atol=1e-12)
        np.testing.assert_allclose(isq, np.diag([0.5, 1 / 3.0]), atol=1e-12)

    def test_identity(self):
        sq, isq = nl.matrix_sqrt_inv_sqrt(np.eye(3, dtype=complex))
        np.testing.assert_allclose(sq, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(isq, np.eye(3), atol=1e-12)

    def test_random_pd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = so.random_hermitian(5, rng)
            m = m @ m.conj().T + 0.1 * np.eye(5)
            sq, isq = nl.matrix_sqrt_inv_sqrt(m)
            assert nl.operator_norm(sq @ sq - m) <= 1e-10 * nl.operator_norm(m)
            assert nl.operator_norm(sq @ isq - np.eye(5)) <= 1e-10 * nl.operator_norm(m)

    def test_not_positive(self):
        with pytest.raises(nl.NotPositive):
            nl.matrix_sqrt_inv_sqrt(np.diag([1.0, -0.5]).astype(complex))


class TestSign:
    def test_diag(self):
        s = nl.matrix_sign(np.diag([3.0, -2.0]).astype(complex))
        np.testing.assert_allclose(s, np.diag([1.0, -1.0]), atol=1e-10)

    def test_near_identity(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        s = nl.matrix_sign(np.eye(2) + 0.1 * x)
        # eigenvalues 1 +- 0.1 are positive, so the sign is the identity
        np.testing.assert_allclose(s, np.eye(2), atol=1e-10)
        assert nl.operator_norm(s @ s - np.eye(2)) <= 1e-10

    def test_theta_diag(self):
        np.testing.assert_allclose(
            nl.theta(np.diag([3.0, -2.0]).astype(complex)), np.diag([1.0, 0.0]), atol=1e-10
        )

    def test_theta_exact_projection(self):
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(nl.theta(2 * p - np.eye(3)), p, atol=1e-10)

    def test_theta_near_projection(self):
        # Hermitian near-projection with ||P^2 - P|| = 0.1; the corrected
        # idempotent stays within ||2P - I|| * O(delta) of P
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = nl.random_unitary(4, rng)
            lam = np.array([1.0, 1.0, 0.0, 0.0])
            noise = 0.1 * np.array([1.0, -1.0, 1.0, -1.0])
            p = (u * (lam + noise)) @ u.conj().T
            delta = nl.operator_norm(p @ p - p)
            assert delta <= 0.12
            pt = nl.theta(2 * p - np.eye(4))
            assert nl.operator_norm(pt @ pt - pt) <= 1e-9
            assert nl.operator_norm(pt @ p - p @ pt) <= 1e-9
            bound = nl.operator_norm(2 * p - np.eye(4)) * 4 * delta
            assert nl.operator_norm(pt - p) <= bound

    def test_sign_properties_random_family(self):
        # 500 random Hermitian M with ||M^2 - I|| <= 0.9
        rng = np.random.default_rng(1234)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            u = nl.random_unitary(dim, rng)
            signs = rng.choice([-1.0, 1.0], size=dim)
            lam = signs * np.sqrt(1 + rng.uniform(-0.9, 0.9, size=dim))
            m = (u * lam) @ u.conj().T
            m = nl.hermitian_part(m)
            assert nl.operator_norm(m @ m - np.eye(dim)) <= 0.95
            s = nl.matrix_sign(m)
            assert nl.operator_norm(s @ s - np.eye(dim)) <= 1e-9
            assert nl.operator_norm(s @ m - m @ s) <= 1e-9 * nl.operator_norm(m)
            t = nl.theta(m)
            assert nl.operator_norm(t @ t - t) <= 1e-9

    @pytest.mark.filterwarnings("ignore:Diagonal number")
    def test_no_convergence_on_imaginary_spectrum(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # eigenvalues +-i
        with pytest.raises((nl.NoConvergence, nl.SingularIterate)):
            nl.matrix_sign(m)

    @pytest.mark.parametrize("m", [
        np.diag([1.0, 0.0]),  # the first iterate is singular
        np.array([[0.0, 1.0], [-1.0, 0.0]]),  # (S + S^-1) / 2 = 0 exactly
    ])
    def test_singular_iterate(self, m):
        with pytest.raises(nl.SingularIterate):
            nl.matrix_sign(m.astype(complex))


class TestTensorOps:
    def test_kron_identity(self):
        np.testing.assert_allclose(nl.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(nl.unvec(nl.vec(x)), x)

    def test_transpose_permutation(self):
        rng = np.random.default_rng(2)
        for dim in (1, 2, 5):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert np.array_equal(nl.vec(x.T), nl.vec(x)[nl.transpose_permutation(dim)])

    def test_vec_kron_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            b = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            left = nl.vec(a @ x @ b)
            right = nl.kron(b.T, a) @ nl.vec(x)
            np.testing.assert_allclose(left, right, atol=1e-12 * max(1, np.abs(left).max()))

    def test_partial_trace_pure(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0  # |00>
        rho = np.outer(v, v.conj())
        np.testing.assert_allclose(
            nl.partial_trace(rho, (2, 2), keep=0), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            for keep in (0, 1, (0, 1)):
                pt = nl.partial_trace(m, (3, 4), keep=keep)
                assert abs(np.trace(pt) - np.trace(m)) <= 1e-12 * max(1, abs(np.trace(m)))

    def test_partial_trace_kron(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = nl.kron(a, b)
        np.testing.assert_allclose(nl.partial_trace(m, (3, 4), keep=0), a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(nl.partial_trace(m, (3, 4), keep=1), b * np.trace(a), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(nl.DimMismatch):
            nl.partial_trace(np.eye(5), (2, 2), keep=0)


class TestNorms:
    def test_operator_norm(self):
        assert nl.operator_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert nl.operator_norm(x) == pytest.approx(1.0)

    def test_trace_norm(self):
        assert nl.trace_norm(np.diag([2.0, -5.0])) == pytest.approx(7.0)

    def test_hs_inner(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[1j, 0], [0, 1]], dtype=complex)
        assert so.hs_inner(a, b) == pytest.approx(np.trace(a.conj().T @ b))

    def test_gamma_difference_norm(self):
        # 2x2 closed form: eigenvalues of the Hermitian difference
        eta = 0.04
        diff = gamma0(eta) - gamma1()
        w = np.linalg.eigvalsh(diff)
        assert nl.operator_norm(diff) == pytest.approx(np.max(np.abs(w)))


# the element _cubic_refine reaches on the perturbed (3,1) pinching at
# t=1e-2, seed 1 (largest entry 1.75e-320), in units of 2^-1074
_SUBNORMAL_RE = [[-2334, 7, 670, 1], [7, -2139, -2681, -8],
                 [670, -2681, -3549, -2], [1, -8, -2, -1]]
_SUBNORMAL_IM = [[0, -2234, -2799, -9], [2234, 0, -632, 0],
                 [2799, 632, 0, -2], [9, 0, 2, 0]]


def _counting_frexp(monkeypatch) -> list:
    """Patch ``np.frexp`` to record each call; the rescaled path takes it."""
    calls = []
    frexp = np.frexp
    monkeypatch.setattr(np, "frexp", lambda *a: calls.append(1) or frexp(*a))
    return calls


def _stacks():
    """(name, stack) of random, rank-one, zero, huge and subnormal stacks."""
    rng = np.random.default_rng(40)
    gauss = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
    u, v = rng.standard_normal((6, 5, 1)), rng.standard_normal((6, 1, 5))
    rank_one = (u + 1j * rng.standard_normal((6, 5, 1))) @ v
    zero = np.zeros((3, 5, 5), dtype=complex)
    subnormal = np.ldexp(np.array(_SUBNORMAL_RE, float), -1074) + 1j * np.ldexp(
        np.array(_SUBNORMAL_IM, float), -1074)
    yield "random", gauss
    yield "real", rng.standard_normal((4, 6, 6))
    yield "rectangular", rng.standard_normal((3, 2, 4, 7)) + 1j * rng.standard_normal((3, 2, 4, 7))
    yield "rank-one", rank_one
    yield "zero", zero
    yield "mixed", np.concatenate([gauss[:2], zero[:1], rank_one[:2]])
    yield "1e300", gauss * 1e300
    yield "1e-300", gauss * 1e-300
    yield "subnormal", gauss * 1e-315
    yield "cubic-refine", subnormal[None]


class TestOperatorNorms:
    """sqrt(lam_max(X^dag X)) after an exact power-of-two rescale: the top
    singular value to 1e-13 relative (or the subnormal spacing), and no
    floating-point exception on the way, at any scale."""

    @pytest.mark.parametrize("name, stack", list(_stacks()), ids=[n for n, _ in _stacks()])
    def test_agrees_with_svd(self, name, stack):
        want = np.linalg.svd(stack, compute_uv=False)[..., 0]
        with np.errstate(all="raise"):
            got = nl.operator_norms(stack)
        assert got.shape == want.shape == stack.shape[:-2]
        assert np.all(np.abs(got - want) <= np.maximum(1e-13 * want, 1e-322))
        if name == "zero":
            assert np.all(got == 0.0)
        if name == "cubic-refine":
            # eigvalsh of the Gram matrix of this element divided by its
            # largest entry did not converge
            assert got[0] > 0

    def test_single_matrix_and_empty(self):
        m = np.array([[3.0, 0.0], [0.0, -4.0]])
        assert nl.operator_norms(m).shape == ()
        assert float(nl.operator_norms(m)) == pytest.approx(4.0, rel=1e-15)
        assert nl.operator_norms(np.zeros((0, 3, 3))).shape == (0,)
        assert np.array_equal(nl.operator_norms(np.zeros((2, 3, 0))), [0.0, 0.0])

    @pytest.mark.parametrize("name", ["random", "real", "rectangular", "rank-one"])
    def test_unscaled_gram_equals_the_scaled_path(self, name):
        # 2^k X has the norms of X times 2^k, bit for bit, whether lam_max
        # lies in the safe range (unscaled Gram) or not (scaled first)
        stack = dict(_stacks())[name]
        tall = stack.swapaxes(-1, -2) if stack.shape[-2] < stack.shape[-1] else stack
        want = nl._scaled_operator_norms(tall)
        for k in range(-440, 441):
            with np.errstate(all="raise"):
                got = nl.operator_norms(stack * 2.0**k)
                scaled = nl._scaled_operator_norms(tall * 2.0**k)
            assert np.array_equal(got, scaled), k
            assert np.array_equal(got, want * 2.0**k), k

    @pytest.mark.parametrize("k, fallback", [(-460, True), (-210, True), (-190, False),
                                             (0, False), (190, False), (210, True),
                                             (460, True)])
    def test_scales_only_off_the_safe_range(self, k, fallback, monkeypatch):
        stack = dict(_stacks())["random"] * 2.0**k
        lam = np.linalg.svd(stack, compute_uv=False)[..., 0] ** 2
        lo, hi = nl.GRAM_SAFE_RANGE
        assert fallback == (lam.min() < lo or lam.max() > hi)
        frexp = _counting_frexp(monkeypatch)
        with np.errstate(all="raise"):
            got = nl.operator_norms(stack)
        assert (len(frexp) > 0) == fallback
        want = np.linalg.svd(stack, compute_uv=False)[..., 0]
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("name", ["zero", "mixed", "subnormal", "cubic-refine"])
    def test_zero_and_tiny_matrices_take_the_scaled_path(self, name, monkeypatch):
        stack = dict(_stacks())[name]
        frexp = _counting_frexp(monkeypatch)
        with np.errstate(all="raise"):
            got = nl.operator_norms(stack)
        assert frexp
        assert np.array_equal(got, nl._scaled_operator_norms(stack))

    def test_benchmark_algebras_take_no_rescale(self, monkeypatch):
        # the sampled and amplified stages of measure_defects on the algebras
        # of the benchmark inputs, and all of measure_defects on the
        # perturbed ones, never leave the safe range
        from test_starcalc import _benchmark_inputs

        frexp = _counting_frexp(monkeypatch)
        for case, (ch, seed) in enumerate(_benchmark_inputs()):
            alg = sc.extract_algebra(sc.idempotentize(ch))
            frexp.clear()
            rng = np.random.default_rng(seed)
            sc._sampled_defects(alg, 100, rng)
            sc._sampled_defects(alg, 50, rng, 2)
            assert not frexp, case
            if case < 6:  # the perturbed-d4 inputs
                sc.measure_defects(alg, samples=100, extension_n=2, seed=seed)
                assert not frexp, case

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        stack = np.ones((3, 4, 4), dtype=complex)
        stack[1, 2, 3] = complex(0.0, bad)
        with np.errstate(invalid="ignore"):
            if np.isnan(bad):  # as the SVD does on NaN
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.svd(stack, compute_uv=False)
            with pytest.raises(np.linalg.LinAlgError):
                nl.operator_norms(stack)


def _svd_hermitian_rule(m, tol, floor):
    return nl.operator_norm(m - m.conj().T) <= tol * max(nl.operator_norm(m), floor)


class TestIsHermitian:
    """The Frobenius-first test decides as the SVD rule
    ||M - M^dag|| <= tol max(||M||, floor) does."""

    @pytest.mark.parametrize("floor", [0.0, 1.0])
    @pytest.mark.parametrize("n", [3, 8])
    def test_decides_as_the_svd_rule(self, n, floor, monkeypatch):
        # around both Frobenius thresholds, bound and sqrt(n) bound, with
        # skew parts of rank one (||.|| = ||.||_F) and of flat spectrum
        # (||.|| = ||.||_F / sqrt n), and sizes on both sides of the floor
        rng = np.random.default_rng(50 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        q = np.linalg.qr(a)[0]
        flat = (q * np.where(np.arange(n) % 2, 1.0, -1.0)) @ q.conj().T
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *x, **k: svds.append(1) or svd(*x, **k))
        decided = {True: 0, False: 0}
        for size in (1e-3, 1.0, 1e3):
            for base in (a + a.conj().T, v @ v.conj().T, flat):
                base = base * size / nl.operator_norm(base)
                for skew in (a - a.conj().T, 1j * (v @ v.conj().T), 1j * flat):
                    skew = skew / np.linalg.norm(skew - skew.conj().T)
                    bound = 1e-9 * max(nl.operator_norm(base), floor)
                    for ratio in np.geomspace(0.1, 10 * n, 25):
                        m = base + ratio * bound * skew
                        before = len(svds)
                        got = nl.is_hermitian(m, 1e-9, floor)
                        took_svd = len(svds) > before
                        assert got == _svd_hermitian_rule(m, 1e-9, floor)
                        decided[got] += 1
                        # ||K||_F at or below the bound (for ||M|| >= floor
                        # its Frobenius lower bound), or above sqrt(n) times
                        # the Frobenius upper bound: no SVD
                        skew_f = np.linalg.norm(m - m.conj().T)
                        if skew_f > 1e-9 * max(np.linalg.norm(m), floor) * np.sqrt(n) * 1.01:
                            assert not took_svd
        assert decided[True] and decided[False]

    def test_exact_hermitian_takes_no_svd(self, monkeypatch):
        m = so.random_hermitian(6, np.random.default_rng(5))
        monkeypatch.setattr(np.linalg, "svd", lambda *x, **k: pytest.fail("svd taken"))
        assert nl.is_hermitian(m, 1e-9) and nl.is_hermitian(m, 1e-9, 1.0)

    def test_channel_and_kraus_checks_refuse_as_before(self):
        # a Choi matrix with a skew part above the threshold, and one with
        # a negative eigenvalue below it
        ch = chn.gen_pinching((2, 1))
        j = ch.choi
        skew = np.zeros_like(j)
        skew[0, 1], skew[1, 0] = 1e-6, -1e-6
        assert not chn.Channel(chn.superop_from_choi(j + skew, 3, 3), 3, 3).is_cp()
        with pytest.raises(chn.NotCP, match="not Hermitian"):
            chn.kraus_from_choi(j + skew, 3, 3)
        neg = j - 1e-6 * np.eye(len(j))
        assert not chn.Channel(chn.superop_from_choi(neg, 3, 3), 3, 3).is_cp()
        with pytest.raises(chn.NotCP, match="negative eigenvalue"):
            chn.kraus_from_choi(neg, 3, 3)
        assert ch.is_cp() and len(chn.kraus_from_choi(j, 3, 3)) == len(ch.kraus)
        assert chn.kraus_from_choi(np.zeros_like(j), 3, 3) == []


def _ref_matrix_sign(m):
    """The scaled Newton iteration with ||S|| taken on every iterate."""
    s = np.asarray(m, dtype=complex)
    n = s.shape[0]
    ident = np.eye(n)
    prev_err, stalls = np.inf, 0
    iterates = []
    for _ in range(nl.NEWTON_MAX_ITER):
        iterates.append(s)
        err = nl.operator_norm(s @ s - ident)
        if err <= 1e-13 * max(1.0, nl.operator_norm(s)) ** 2:
            return s, iterates
        if err >= prev_err:
            stalls += 1
            if stalls >= 3:
                if err <= nl.EQ_TOL:
                    return s, iterates
                raise nl.NoConvergence("stalled")
        else:
            stalls = 0
        prev_err = err
        s_inv = np.linalg.inv(s)
        mu = float(np.exp(-np.linalg.slogdet(s)[1] / n)) if err > 0.1 else 1.0
        s = 0.5 * (mu * s + s_inv / mu)
    raise nl.NoConvergence("cap")


class TestSignIterates:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(60)
        for dim in (2, 5, 9):
            for scale in (1e-3, 1.0, 1e3):
                u = nl.random_unitary(dim, rng)
                lam = rng.choice([-1.0, 1.0], dim) * rng.uniform(0.2, 3.0, dim)
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                yield scale * ((u * lam) @ u.conj().T + 0.1 * g)
        for ch in (chn.gen_pinching((3, 1)),
                   chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=1)):
            m = ch.superop
            yield 2 * m - np.eye(len(m))

    def test_returns_the_reference_iterate_bit_for_bit(self, monkeypatch):
        for m in self._inputs():
            want, iterates = _ref_matrix_sign(m)
            seen = []
            inv = np.linalg.inv
            monkeypatch.setattr(np.linalg, "inv", lambda a: seen.append(a) or inv(a))
            got = nl.matrix_sign(m)
            monkeypatch.undo()
            assert np.array_equal(got, want)
            assert len(seen) == len(iterates) - 1
            assert all(np.array_equal(a, b) for a, b in zip(seen, iterates))


class TestColumnSpace:
    def test_rank(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        m = a @ a.conj().T
        q = nl.column_space(m)
        assert q.shape == (6, 2)
        # projector reproduces the column space
        proj = q @ q.conj().T
        np.testing.assert_allclose(proj @ m, m, atol=1e-10)

    @staticmethod
    def _assert_basis(q, m, rank):
        assert q.shape == (m.shape[0], rank)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(rank), atol=1e-12)
        return q @ q.conj().T

    def test_rank_deficient_rectangular(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        b = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        m = a @ b
        proj = self._assert_basis(nl.column_space(m), m, 3)
        np.testing.assert_allclose(proj @ m, m, atol=1e-10)

    @pytest.mark.parametrize("dims", [(3, 1), (3, 2, 1)])
    def test_tied_column_norms(self, dims):
        # the pinching superoperator: every non-zero column has norm exactly 1
        m = chn.pinch_superop(dims)
        norms = np.linalg.norm(m, axis=0)
        assert set(np.round(norms, 15)) == {0.0, 1.0}
        proj = self._assert_basis(nl.column_space(m), m, sum(d * d for d in dims))
        np.testing.assert_allclose(proj @ m, m, atol=1e-12)

    @pytest.mark.parametrize("factor,rank", [(1.01, 3), (0.99, 2)])
    def test_singular_value_at_threshold(self, factor, rank):
        # singular values 1, 0.5 and rel_tol * factor
        rng = np.random.default_rng(5)
        u, v = nl.random_unitary(5, rng)[:, :3], nl.random_unitary(4, rng)[:, :3]
        rel_tol = 1e-6
        m = (u * [1.0, 0.5, rel_tol * factor]) @ v.conj().T
        proj = self._assert_basis(nl.column_space(m, rel_tol), m, rank)
        np.testing.assert_allclose(proj @ u[:, :rank], u[:, :rank], atol=1e-9)


class TestRealBasis:
    @staticmethod
    def _block_algebra_span(block_dims, seed):
        """Orthonormal, non-Hermitian columns spanning vec(U A U^dag) for the
        block algebra A = M_d1 + M_d2 + ... and a random unitary U."""
        rng = np.random.default_rng(seed)
        dim = sum(block_dims)
        u = nl.random_unitary(dim, rng)
        mats, start = [], 0
        for d in block_dims:
            for j in range(d):
                for k in range(d):
                    e = np.zeros((dim, dim), dtype=complex)
                    e[start + j, start + k] = 1.0
                    mats.append(u @ e @ u.conj().T)
            start += d
        units = np.stack([nl.vec(m) for m in mats], axis=1)
        r = units.shape[1]
        mix = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        return nl.column_space(units @ mix), dim

    @pytest.mark.parametrize("block_dims,seed", [((2, 1), 0), ((2, 2, 1), 1), ((3, 1), 2)])
    def test_hermitian_orthonormal_basis_of_the_span(self, block_dims, seed):
        q, dim = self._block_algebra_span(block_dims, seed)
        r = q.shape[1]
        assert r == sum(d * d for d in block_dims)
        # the mixed columns are not Hermitian, so the basis is not q itself
        assert nl.operator_norm(nl.unvec(q[:, 0]) - nl.unvec(q[:, 0]).conj().T) > 0.1
        b = nl.real_basis(q, nl.transpose_permutation(dim))
        assert b.shape == (dim * dim, r)
        np.testing.assert_allclose(b.conj().T @ b, np.eye(r), atol=1e-12)
        mats = [nl.unvec(b[:, i]) for i in range(r)]
        assert max(nl.operator_norm(m - m.conj().T) for m in mats) < 1e-12
        np.testing.assert_allclose(b @ b.conj().T, q @ q.conj().T, atol=1e-12)

    def test_span_not_closed_under_adjoint_reports_its_real_rank(self):
        # span{E_12}: its Hermitian parts (E_12 + E_21)/2 and -i(E_12 - E_21)/2
        # are independent, so the real rank is 2, not 1
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        b = nl.real_basis(nl.vec(e12)[:, None], nl.transpose_permutation(2))
        assert b.shape[1] == 2

    def test_extract_algebra_refuses_an_image_not_closed_under_adjoint(self):
        # the orthogonal projector onto span{E_11, E_12}: idempotent with
        # spectrum {0, 1}, but its image holds E_12 and not E_21
        units = np.eye(4, dtype=complex)[:, [0, 2]]  # vec E_11, vec E_12
        pm = sc.IdempotentizedMap(units @ units.T, 2, 0.0, None, None)
        with pytest.raises(sc.StarCalcError) as exc:
            sc.extract_algebra(pm)
        assert str(exc.value) == "Hermitian closure changed the algebra dimension 2 -> 3"
