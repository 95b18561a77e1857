import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn

import structure_oracle as so


P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def two_level_example(eta: float) -> chn.Channel:
    """Measure-and-prepare qubit channel with nearly aligned effect states."""
    c = np.sqrt(eta * (1 - eta))
    g0 = np.array([[1 - eta, c], [c, eta]], dtype=complex)
    g1 = np.array([[0, 0], [0, 1]], dtype=complex)
    cols = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
        cols[:, idx] = nl.vec(P0 * np.trace(g0 @ x) + P1 * np.trace(g1 @ x))
    return chn.Channel(cols, 2, 2)


def depolarizing(dim: int = 2) -> chn.Channel:
    cols = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx in range(dim * dim):
        x = nl.unvec(np.eye(dim * dim, dtype=complex)[:, idx], dim, dim)
        cols[:, idx] = nl.vec(np.trace(x) * np.eye(dim) / dim)
    return chn.Channel(cols, dim, dim)


class TestConversions:
    def test_identity_choi_rank_one(self):
        ch = so.identity_channel(2)
        j = ch.choi
        # J = sum_ij E_ij (x) E_ij = |Omega><Omega| for |Omega> = sum_i e_i (x) e_i
        vec_omega = np.zeros(4, dtype=complex)
        for i in range(2):
            vec_omega[i * 2 + i] = 1.0
        np.testing.assert_allclose(j, np.outer(vec_omega, vec_omega.conj()), atol=1e-12)
        w = np.linalg.eigvalsh(j)
        assert np.sum(w > 1e-9) == 1

    def test_depolarizing_choi(self):
        ch = depolarizing(2)
        np.testing.assert_allclose(ch.choi, np.eye(4) / 2, atol=1e-12)
        assert len(ch.kraus) == 4

    def test_two_level_example_kraus_and_stinespring(self):
        ch = two_level_example(0.04)
        ch.require_ucp()
        assert len(ch.kraus) == 2
        v, env = ch.stinespring
        assert env == 2
        assert nl.operator_norm(v.conj().T @ v - np.eye(2)) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = so.random_hermitian(2, rng)
            via_v = v.conj().T @ nl.kron(x, np.eye(env)) @ v
            assert nl.operator_norm(via_v - ch(x)) <= 1e-12

    def test_roundtrips_random(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            dim = int(rng.integers(2, 5))
            rank = int(rng.integers(1, dim + 1))
            ch = chn.gen_random_ucp(dim, rank, seed=int(rng.integers(1 << 31)))
            j = ch.choi
            back = chn.superop_from_choi(j, dim, dim)
            assert nl.operator_norm(back - ch.superop) <= 1e-10
            kraus = ch.kraus
            again = chn.superop_from_kraus(kraus)
            assert nl.operator_norm(again - ch.superop) <= 1e-10
            v, env = ch.stinespring
            assert env == len(kraus)
            x = so.random_hermitian(dim, rng)
            via_v = v.conj().T @ nl.kron(x, np.eye(env)) @ v
            assert nl.operator_norm(via_v - ch(x)) <= 1e-10

    def test_not_cp(self):
        # transpose map is positive but not CP
        dim = 2
        cols = np.zeros((4, 4), dtype=complex)
        for idx in range(4):
            x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
            cols[:, idx] = nl.vec(x.T)
        ch = chn.Channel(cols, 2, 2)
        assert not ch.is_cp()
        with pytest.raises(chn.NotCP):
            _ = ch.kraus


class TestAlgebraOps:
    def test_dual_identity(self):
        ch = so.identity_channel(3)
        assert nl.operator_norm(so.dual(ch).superop - ch.superop) <= 1e-14

    def test_dual_of_ucp_is_cptp(self):
        ch = chn.gen_random_ucp(3, 2, seed=5)
        d = so.dual(ch)
        assert d.is_cp()
        assert d.is_trace_preserving()

    def test_compose_idempotent(self):
        ch = chn.gen_pinching((2, 1))
        sq = so.compose(ch, ch)
        assert nl.operator_norm(sq.superop - ch.superop) <= 1e-10

    def test_tensor_extend(self):
        ch = two_level_example(0.04)
        ext = chn.tensor_extend(ch, 2)
        rng = np.random.default_rng(1)
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1
        for _ in range(5):
            x = so.random_hermitian(2, rng)
            lhs = ext(nl.kron(e11, x))
            rhs = nl.kron(e11, ch(x))
            assert nl.operator_norm(lhs - rhs) <= 1e-12
        # consistency with Kraus: 1 (x) Phi has Kraus I (x) K_a
        direct = chn.superop_from_kraus([nl.kron(np.eye(2), k) for k in ch.kraus])
        assert nl.operator_norm(ext.superop - direct) <= 1e-10

    def test_extend_is_identity_on_matrix_factor(self):
        ch = chn.gen_random_ucp(3, 2, seed=9)
        ext = chn.tensor_extend(ch, 2)
        rng = np.random.default_rng(2)
        a = so.random_hermitian(2, rng)
        x = so.random_hermitian(3, rng)
        assert nl.operator_norm(ext(nl.kron(a, x)) - nl.kron(a, ch(x))) <= 1e-12


class TestUcpInequalities:
    def test_schwarz_inequality(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            dim = int(rng.integers(2, 5))
            ch = chn.gen_random_ucp(dim, int(rng.integers(1, 4)), seed=trial)
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            gap = ch(x.conj().T @ x) - ch(x).conj().T @ ch(x)
            w = np.linalg.eigvalsh(nl.hermitian_part(gap))
            assert w[0] >= -1e-9 * max(1.0, nl.operator_norm(x) ** 2)

    def test_norm_contraction(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            dim = int(rng.integers(2, 5))
            ch = chn.gen_random_ucp(dim, 2, seed=100 + trial)
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert nl.operator_norm(ch(x)) <= nl.operator_norm(x) * (1 + 1e-12)


class TestCarrier:
    def test_depolarizing_full(self):
        assert chn.carrier(depolarizing(3)).shape == (3, 3)

    def test_two_level_example_full(self):
        # Phi^*(I/2) = (gamma0 + gamma1)/2 has rank 2
        assert chn.carrier(two_level_example(0.04)).shape == (2, 2)

    def test_code_subspace(self):
        ch = chn.gen_random_idempotent(((4, 1),), dim=7, seed=0)
        j_m = chn.carrier(ch)
        assert j_m.shape == (7, 4)
        # span characterization: ((1 - Pi) (x) 1_F) V = 0
        v, env = ch.stinespring
        pi = j_m @ j_m.conj().T
        res = nl.kron(np.eye(7) - pi, np.eye(env)) @ v
        assert nl.operator_norm(res) <= 1e-8

    def test_carrier_identity(self):
        ch = chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=3)
        j_m = chn.carrier(ch)
        pi = j_m @ j_m.conj().T
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = so.random_hermitian(7, rng)
            assert nl.operator_norm(ch(x) - ch(pi @ x @ pi)) <= 1e-10 * nl.operator_norm(x)


class TestStarAlgebraDecomposition:
    def test_full_matrix_algebra(self):
        basis = nl.hermitian_basis(3)
        d, e, w = so.decompose_star_algebra(basis)
        assert d == (3,)
        assert e == (1,)

    def test_diagonal_algebra(self):
        basis = [np.diag(row).astype(complex) for row in np.eye(3)]
        d, e, w = so.decompose_star_algebra(basis)
        assert d == (1, 1, 1)
        assert e == (1, 1, 1)

    def test_tensor_factor(self):
        rng = np.random.default_rng(0)
        u = nl.random_unitary(6, rng)
        basis = [
            u @ nl.kron(b, np.eye(3)) @ u.conj().T for b in nl.hermitian_basis(2)
        ]
        d, e, w_blocks = so.decompose_star_algebra(basis)
        assert d == (2,)
        assert e == (3,)
        # conjugation carries every element to the A (x) 1 form
        w = w_blocks[0]
        for b in basis:
            conj = w @ b @ w.conj().T
            a = nl.partial_trace(conj, (2, 3), keep=0) / 3
            assert nl.operator_norm(conj - nl.kron(a, np.eye(3))) <= 1e-8

    def test_mixed_blocks(self):
        rng = np.random.default_rng(1)
        u = nl.random_unitary(5, rng)
        basis = []
        for b in nl.hermitian_basis(2):  # M_2 (x) 1_2 on the first 4 dims
            m = np.zeros((5, 5), dtype=complex)
            m[:4, :4] = nl.kron(b, np.eye(2))
            basis.append(u @ m @ u.conj().T)
        m = np.zeros((5, 5), dtype=complex)
        m[4, 4] = 1.0
        basis.append(u @ m @ u.conj().T)
        d, e, _ = so.decompose_star_algebra(basis)
        assert d == (2, 1)
        assert e == (2, 1)

    def test_not_closed(self):
        bad = [np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)]
        with pytest.raises(so.NotClosed):
            so.decompose_star_algebra(bad)


class TestIdempotentStructure:
    def test_pinching(self):
        ch = chn.gen_pinching((3, 2, 1))
        st = so.idempotent_structure(ch)
        assert st.block_dims == (3, 2, 1)
        assert st.multiplicity_dims == (1, 1, 1)
        assert st.carrier_dim == 6
        assert st.hom_residual <= 1e-8
        assert st.reconstruction_residual <= 1e-6

    def test_depolarizing(self):
        dim = 4
        ch = depolarizing(dim)
        st = so.idempotent_structure(ch)
        assert st.block_dims == (1,)
        assert st.multiplicity_dims == (dim,)
        np.testing.assert_allclose(st.gammas[0], np.eye(dim) / dim, atol=1e-8)

    def test_random_enc_dec(self):
        ch = chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=11)
        assert so.idempotency_residual(ch) <= 1e-10
        st = so.idempotent_structure(ch)
        assert st.block_dims == (2, 1)
        assert st.multiplicity_dims == (2, 3)

    def test_image_block_diagonal_and_star_product(self):
        ch = chn.gen_random_idempotent(((2, 1), (1, 2)), dim=6, seed=4)
        j_m = chn.carrier(ch)
        pi = j_m @ j_m.conj().T
        cols = nl.column_space(ch.superop, 1e-8)
        rng = np.random.default_rng(5)
        for _ in range(5):
            cx = rng.standard_normal(cols.shape[1]) + 1j * rng.standard_normal(cols.shape[1])
            cy = rng.standard_normal(cols.shape[1]) + 1j * rng.standard_normal(cols.shape[1])
            x = nl.unvec(cols @ cx, 6, 6)
            y = nl.unvec(cols @ cy, 6, 6)
            # fixed operators do not mix carrier and its complement
            off = (np.eye(6) - pi) @ x @ pi
            assert nl.operator_norm(off) <= 1e-9 * nl.operator_norm(x)
            # the induced product restricted to the carrier is the operator product
            lhs = j_m.conj().T @ ch(x @ y) @ j_m
            rhs = (j_m.conj().T @ x @ j_m) @ (j_m.conj().T @ y @ j_m)
            assert nl.operator_norm(lhs - rhs) <= 1e-9 * nl.operator_norm(x) * nl.operator_norm(y)

    def test_not_idempotent(self):
        with pytest.raises(so.NotIdempotent):
            so.idempotent_structure(chn.gen_random_ucp(3, 2, seed=0))


class TestEncDec:
    def test_pinching_enc_dec(self):
        ch = chn.gen_pinching((2, 1))
        st = so.idempotent_structure(ch)
        enc, dec = so.make_enc_dec(st)
        t = so.compose(enc, dec)
        assert nl.operator_norm(t.superop - so.dual(ch).superop) <= 1e-8

    def test_dec_enc_identity_and_idempotent(self):
        ch = chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=2)
        st = so.idempotent_structure(ch)
        enc, dec = so.make_enc_dec(st)
        round_trip = so.compose(dec, enc)
        pinch = chn.pinch_superop(st.block_dims)
        assert nl.operator_norm(round_trip.superop - pinch) <= 1e-10
        t = so.compose(enc, dec)
        assert so.idempotency_residual(t) <= 1e-9
        assert t.is_cp()
        assert t.is_trace_preserving()

    def test_fresh_structure_default_s(self):
        ch = chn.gen_random_idempotent(((2, 1),), dim=4, seed=6)
        st = so.idempotent_structure(ch)
        st.sigma_superop = None  # exercise the fallback decoder
        enc, dec = so.make_enc_dec(st)
        round_trip = so.compose(dec, enc)
        pinch = chn.pinch_superop(st.block_dims)
        assert nl.operator_norm(round_trip.superop - pinch) <= 1e-10
        t = so.compose(enc, dec)
        assert so.idempotency_residual(t) <= 1e-9

    def test_invalid_gamma(self):
        ch = chn.gen_random_idempotent(((2, 2),), dim=4, seed=1)
        st = so.idempotent_structure(ch)
        st.gammas[0] = np.diag([2.0, -1.0]).astype(complex)
        with pytest.raises(so.InvalidGamma):
            so.make_enc_dec(st)


class TestGenerators:
    def test_gen_perturbed_zero(self):
        ch = chn.gen_pinching((2, 1))
        same = chn.gen_perturbed(ch, 0.0, seed=0)
        assert nl.operator_norm(same.superop - ch.superop) <= 1e-15

    def test_gen_perturbed_is_ucp(self):
        ch = chn.gen_pinching((2, 2))
        pert = chn.gen_perturbed(ch, 1e-2, seed=3)
        pert.require_ucp()
        # eta <= 2 t (1 + t) by the triangle inequality
        res = so.idempotency_residual(pert)
        assert res <= 4e-2

    def test_gen_random_idempotent_validity(self):
        for seed in range(5):
            ch = chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=seed)
            ch.require_ucp()
            assert so.idempotency_residual(ch) <= 1e-10

    def test_gen_random_ucp_validity(self):
        for seed in range(5):
            ch = chn.gen_random_ucp(4, 3, seed=seed)
            ch.require_ucp()
