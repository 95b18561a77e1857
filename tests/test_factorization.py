import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import starcalc as sc
from almostidem import reconstruction as rc
from almostidem import factorization as fa


def run_pipeline(ch, seed=0, samples=40):
    pm = sc.idempotentize(ch)
    alg = sc.extract_algebra(pm)
    alg.defects = sc.measure_defects(alg, samples=samples, seed=seed)
    spec, v, rep = rc.reconstruct(alg, seed=seed)
    return pm, alg, spec, v, rep


class TestRawFactor:
    def test_identity_channel(self):
        ch = chn.identity_channel(2)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        assert raw.factor_residual <= 1e-8
        assert raw.retract_residual <= 1e-8
        assert raw.unit_distance <= 1e-8
        # B = B(C^2): the factorization is the identity both ways
        assert spec.block_dims == (2,)
        assert nl.operator_norm(raw.delta_superop @ raw.upsilon_superop - np.eye(4)) <= 1e-8

    def test_exact_pinching(self):
        ch = chn.gen_pinching((2, 1))
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        assert raw.factor_residual <= 1e-8
        assert raw.retract_residual <= 1e-8
        # the embedding is the block-diagonal inclusion up to a unitary
        eye_img = nl.unvec(raw.delta_superop @ nl.vec(np.eye(3, dtype=complex)), 3, 3)
        np.testing.assert_allclose(eye_img, np.eye(3), atol=1e-9)

    def test_perturbed_unit_distance(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=1)
        pm, alg, spec, v, rep = run_pipeline(pert)
        raw = fa.raw_factor(v, pm, alg)
        eta = pm.eta.value
        assert raw.unit_distance <= 50 * eta
        assert raw.factor_residual <= 50 * eta

    def test_not_bijective(self):
        ch = chn.gen_pinching((2, 1))
        pm, alg, spec, v, rep = run_pipeline(ch)
        bad = rc.AlmostHom(spec, np.zeros_like(v.coeffs))
        with pytest.raises(fa.NotBijective):
            fa.raw_factor(bad, pm, alg)


class TestTwirl:
    def test_exact_case_unchanged(self):
        ch = chn.gen_pinching((2, 1))
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, info = fa.twirl_to_cp(raw, ch)
        assert nl.operator_norm(delta.superop - raw.delta_superop) <= 1e-8
        assert info["choi_min_before_normalization"] >= -1e-10
        assert delta.is_cp() and delta.is_unital()

    def test_perturbed_stays_close(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=3)
        pm, alg, spec, v, rep = run_pipeline(pert)
        raw = fa.raw_factor(v, pm, alg)
        delta, info = fa.twirl_to_cp(raw, pert)
        eta = pm.eta.value
        assert delta.is_cp() and delta.is_unital()
        assert info["choi_min_before_normalization"] >= -1e-10
        assert info["distance_to_raw_cb"].value <= 50 * eta


def _twirl_sum_by_terms(delta_raw, terms, d, d_tot):
    """The twirl sum written one design term at a time with Kronecker products."""
    out = np.zeros((d * d, d_tot * d_tot), dtype=complex)
    for p_s, u_s in terms:
        right_u = nl.kron(np.conj(u_s), np.eye(d_tot))  # vec(X U^dag) = (conj U (x) I) vec X
        b_s = nl.unvec(delta_raw @ nl.vec(u_s), d, d)     # Delta~(U_s)
        right_b = nl.kron(b_s.T, np.eye(d))               # vec(Y B) = (B^T (x) I) vec Y
        out += p_s * (right_b @ delta_raw @ right_u)
    return out


class TestTwirlSum:
    @pytest.mark.parametrize("dims,d", [((2, 1), 4), ((3, 2, 1), 5), ((2, 2), 3)])
    def test_summed_design_matches_term_loop(self, dims, d):
        spec = rc.BlockSpec(dims)
        d_tot = spec.rep_dim
        rng = np.random.default_rng(sum(dims) + d)
        delta_raw = (rng.standard_normal((d * d, d_tot * d_tot))
                     + 1j * rng.standard_normal((d * d, d_tot * d_tot)))
        terms = rc.pauli_diagonal(spec, 10_000).terms
        got = fa._twirl_sum(delta_raw, terms, d, d_tot)
        ref = _twirl_sum_by_terms(delta_raw, terms, d, d_tot)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)

    def test_twirl_of_raw_factor_matches_term_loop(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=3)
        pm, alg, spec, v, rep = run_pipeline(pert)
        raw = fa.raw_factor(v, pm, alg)
        terms = rc.pauli_diagonal(spec, 10_000).terms
        got = fa._twirl_sum(raw.delta_superop, terms, 3, spec.rep_dim)
        ref = _twirl_sum_by_terms(raw.delta_superop, terms, 3, spec.rep_dim)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)


def _block_choi_by_units(delta, spec, jdx):
    """Choi matrix of the block restriction of Delta, one matrix unit at a time."""
    d_tot, d = spec.rep_dim, delta.dim_out
    d_j, s = spec.block_dims[jdx], spec.slices()[jdx]
    j_mat = np.zeros((d_j * d, d_j * d), dtype=complex)
    for a in range(d_j):
        for b in range(d_j):
            e_ab = np.zeros((d_tot, d_tot), dtype=complex)
            e_ab[s.start + a, s.start + b] = 1.0
            e_small = np.zeros((d_j, d_j), dtype=complex)
            e_small[a, b] = 1.0
            j_mat += nl.kron(e_small, delta(e_ab))
    return j_mat


class TestUpsilon:
    def test_exact_pinching_retraction(self):
        ch = chn.gen_pinching((2, 1))
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, info = fa.build_upsilon(delta, ch, spec, pm.eta.value)
        assert upsilon.is_cp() and upsilon.is_unital()
        retract = upsilon.superop @ delta.superop - chn.pinch_superop(spec.block_dims)
        assert nl.operator_norm(retract) <= 1e-8
        for blk in info["blocks"]:
            assert blk["rj_residual"] <= 1e-8
            assert abs(blk["c_norm"] - 1) <= 1e-8

    def test_trivial_algebra(self):
        # depolarizing: B = C, Upsilon(X) = Tr(rho X), Upsilon Delta = 1 on C
        dim = 3
        cols = np.zeros((dim * dim, dim * dim), dtype=complex)
        for idx in range(dim * dim):
            x = nl.unvec(np.eye(dim * dim, dtype=complex)[:, idx], dim, dim)
            cols[:, idx] = nl.vec(np.trace(x) * np.eye(dim) / dim)
        ch = chn.Channel(cols, dim, dim)
        pm, alg, spec, v, rep = run_pipeline(ch)
        assert spec.block_dims == (1,)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, _ = fa.build_upsilon(delta, ch, spec, pm.eta.value)
        assert nl.operator_norm(upsilon.superop @ delta.superop - np.eye(1)) <= 1e-8
        assert upsilon.is_cp() and upsilon.is_unital()

    def test_multiplicity_detected(self):
        ch = chn.gen_random_idempotent(((2, 2),), dim=4, seed=0)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, info = fa.build_upsilon(delta, ch, spec, pm.eta.value)
        assert info["blocks"][0]["multiplicity"] == 2
        retract = upsilon.superop @ delta.superop - chn.pinch_superop(spec.block_dims)
        assert nl.operator_norm(retract) <= 1e-7

    @pytest.mark.parametrize("dims", [(3, 1), (2, 2), (4, 3, 1), (2, 1)])
    def test_sliced_block_choi_matches_unit_loop(self, dims, monkeypatch):
        # Delta = Ad_U after the pinching, the embedding of a conjugated pinching
        spec = rc.BlockSpec(dims)
        d = spec.rep_dim
        u = nl.random_unitary(d, np.random.default_rng(sum(dims)))
        ad_u = nl.kron(u.conj(), u)  # vec(U X U^dag) = (conj U (x) U) vec X
        pinch = chn.pinch_superop(dims)
        delta = chn.Channel(ad_u @ pinch, d, d)
        ch = chn.Channel(ad_u @ pinch @ ad_u.conj().T, d, d)
        seen = []

        def recording(j_mat, *args):
            seen.append(j_mat)
            return chn.kraus_from_choi(j_mat, *args)

        monkeypatch.setattr(fa, "kraus_from_choi", recording)
        fa.build_upsilon(delta, ch, spec, 0.0)
        assert len(seen) == len(dims)
        for jdx, j_mat in enumerate(seen):
            assert np.array_equal(j_mat, _block_choi_by_units(delta, spec, jdx))


class TestCertify:
    def test_exact_idempotent_residuals(self):
        ch = chn.gen_random_idempotent(((2, 1), (1, 2)), dim=6, seed=2)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, _ = fa.build_upsilon(delta, ch, spec, pm.eta.value)
        cert = fa.certify(delta, upsilon, ch, spec)
        assert cert.residual_factor.upper <= 1e-6
        assert cert.residual_retract.upper <= 1e-6
        assert all(cert.ucp_flags.values())
        assert max(cert.product_residuals.values()) <= 1e-6

    def test_identity_channel_zero_residuals(self):
        ch = chn.identity_channel(2)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, _ = fa.build_upsilon(delta, ch, spec, pm.eta.value)
        cert = fa.certify(delta, upsilon, ch, spec)
        assert cert.residual_factor.upper <= 1e-7
        assert cert.residual_retract.upper <= 1e-7

    def test_perturbed_scaling_within_decade(self):
        pin = chn.gen_pinching((2, 1))
        uppers = {}
        for t in (1e-3, 1e-2):
            pert = chn.gen_perturbed(pin, t, seed=5)
            pm, alg, spec, v, rep = run_pipeline(pert)
            assert spec.block_dims == (2, 1)
            raw = fa.raw_factor(v, pm, alg)
            delta, _ = fa.twirl_to_cp(raw, pert)
            upsilon, _ = fa.build_upsilon(delta, pert, spec, pm.eta.value)
            cert = fa.certify(delta, upsilon, pert, spec)
            uppers[t] = (cert.residual_factor.upper, cert.residual_retract.upper)
            assert cert.residual_factor.upper <= 1.0
            assert cert.residual_retract.upper <= 1.0
            assert all(cert.ucp_flags.values())
        for k in (0, 1):
            ratio = uppers[1e-2][k] / uppers[1e-3][k]
            assert 2 <= ratio <= 50
