import numpy as np
import pytest

from almostidem import channels as chn
from almostidem import numlin as nl
from almostidem import projections as pj
from almostidem import reconstruction as rc
from almostidem import starcalc as sc


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
            m = nl.random_hermitian(6, rng)
            dec = nl.herm_eig(m)
            assert nl.operator_norm(dec.reconstruct() - m) <= 1e-12 * max(nl.operator_norm(m), 1)
            u = dec.eigenvectors
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
            m = nl.random_hermitian(5, rng)
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
        assert nl.hs_inner(a, b) == pytest.approx(np.trace(a.conj().T @ b))

    def test_gamma_difference_norm(self):
        # 2x2 closed form: eigenvalues of the Hermitian difference
        eta = 0.04
        diff = gamma0(eta) - gamma1()
        w = np.linalg.eigvalsh(diff)
        assert nl.operator_norm(diff) == pytest.approx(np.max(np.abs(w)))


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

    def test_identity_permutation_gives_real_columns(self):
        # coordinates in a Hermitian basis: the span of real vectors, given
        # by complex orthonormal columns
        rng = np.random.default_rng(4)
        real = rng.standard_normal((7, 3))
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = nl.column_space(real @ mix)
        b = nl.real_basis(q)
        assert b.shape == (7, 3) and not np.iscomplexobj(b)
        np.testing.assert_allclose(b.T @ b, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(b @ b.T, q @ q.conj().T, atol=1e-12)

    def test_span_not_closed_under_adjoint_reports_its_real_rank(self):
        # span{E_12}: its Hermitian parts (E_12 + E_21)/2 and -i(E_12 - E_21)/2
        # are independent, so the real rank is 2, not 1
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        b = nl.real_basis(nl.vec(e12)[:, None], nl.transpose_permutation(2))
        assert b.shape[1] == 2
        # and the coordinate span{(1, i)} is not closed under conjugation
        assert nl.real_basis(np.array([[1.0], [1j]]) / np.sqrt(2)).shape[1] == 2

    def test_extract_algebra_refuses_an_image_not_closed_under_adjoint(self):
        # the orthogonal projector onto span{E_11, E_12}: idempotent with
        # spectrum {0, 1}, but its image holds E_12 and not E_21
        units = np.eye(4, dtype=complex)[:, [0, 2]]  # vec E_11, vec E_12
        pm = sc.IdempotentizedMap(units @ units.T, 2, 0.0, None, None)
        with pytest.raises(sc.StarCalcError) as exc:
            sc.extract_algebra(pm)
        assert str(exc.value) == "Hermitian closure changed the algebra dimension 2 -> 3"

    def test_corner_subalgebra_refuses_an_image_not_closed_under_conjugation(self):
        c_p = pj.CompressionMap(None, None, None, None, np.array([[1.0], [1j]]) / np.sqrt(2))
        with pytest.raises(rc.ReconstructionError) as exc:
            rc._corner_subalgebra(None, c_p)
        assert str(exc.value) == (
            "corner image is not closed under the involution: real rank 2 != 1")
