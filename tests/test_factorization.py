import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import starcalc as sc
from almostidem import reconstruction as rc
from almostidem import factorization as fa

import structure_oracle as so


def run_pipeline(ch, seed=0, samples=40):
    pm = sc.idempotentize(ch)
    alg = sc.extract_algebra(pm)
    alg.defects = sc.measure_defects(alg, samples=samples, seed=seed)
    spec, v, rep = rc.reconstruct(alg, seed=seed)
    return pm, alg, spec, v, rep


class TestRawFactor:
    def test_identity_channel(self):
        ch = so.identity_channel(2)
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
        # the package sums over matrix units, the loop over the shift/clock
        # design of the same diagonal element
        got = fa._twirl_sum(delta_raw, rc.pauli_diagonal(spec).terms, d, d_tot)
        ref = _twirl_sum_by_terms(delta_raw, so.shift_clock_terms(spec), d, d_tot)
        assert np.allclose(got, ref, rtol=0, atol=1e-12)

    def test_twirl_of_raw_factor_matches_term_loop(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=3)
        pm, alg, spec, v, rep = run_pipeline(pert)
        raw = fa.raw_factor(v, pm, alg)
        got = fa._twirl_sum(raw.delta_superop, rc.pauli_diagonal(spec).terms, 3, spec.rep_dim)
        ref = _twirl_sum_by_terms(raw.delta_superop, so.shift_clock_terms(spec), 3, spec.rep_dim)
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


def _embed_block(x, spec, jdx):
    out = np.zeros((spec.rep_dim, spec.rep_dim), dtype=complex)
    s = spec.slices()[jdx]
    out[s, s] = x
    return out


def _dilation_by_terms(delta, ch, spec, jdx, w_j):
    """(r_j, C_j, L_j) of block j, one design term at a time: the twirl
    r_j = sum_s p_s (U_s (x) 1)^dag W_j W_j^dag (U_s (x) 1), C_j from its partial
    trace, its unit xi_j, and L_j summed with Kronecker products, over the
    block's shift/clock design where the package takes matrix units."""
    d, d_j = ch.dim_in, spec.block_dims[jdx]
    v_iso, env = ch.stinespring
    e_j = w_j.shape[0] // d_j
    terms = so.shift_clock_design(d_j)
    ww = w_j @ w_j.conj().T
    r_j = np.zeros((d_j * e_j, d_j * e_j), dtype=complex)
    for p_s, u_s in terms:
        u_ext = nl.kron(u_s, np.eye(e_j))
        r_j += p_s * (u_ext.conj().T @ ww @ u_ext)
    c_j = nl.partial_trace(r_j, (d_j, e_j), keep=1) / d_j
    xi = np.linalg.svd(c_j)[2].conj().T[:, 0]
    xi = xi * np.exp(-1j * np.angle(xi[np.argmax(np.abs(xi))]))
    l_j = np.zeros((d * env, d_j), dtype=complex)
    for p_s, u_s in terms:
        du = delta(_embed_block(u_s.conj().T, spec, jdx))
        l_j += p_s * nl.kron(du, np.eye(env)) @ v_iso @ w_j.conj().T @ nl.kron(
            u_s, xi.reshape(e_j, 1))
    return r_j, c_j, l_j


# exact pinchings, a block of multiplicity 2, perturbed pinchings
_DILATION_CASES = {
    "(2,1)": lambda: chn.gen_pinching((2, 1)),
    "(3,1)": lambda: chn.gen_pinching((3, 1)),
    "(2,2)x2": lambda: chn.gen_random_idempotent(((2, 2),), dim=4, seed=0),
    "(3,1)@1e-2": lambda: chn.gen_perturbed(chn.gen_pinching((3, 1)), 1e-2, seed=1),
    "(2,2)@1e-2": lambda: chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=1),
}


class TestUpsilon:
    @pytest.mark.parametrize("case", list(_DILATION_CASES))
    def test_closed_form_twirl_matches_term_loops(self, case, monkeypatch):
        ch = _DILATION_CASES[case]()
        pm, alg, spec, v, rep = run_pipeline(ch)
        delta, _ = fa.twirl_to_cp(fa.raw_factor(v, pm, alg), ch)
        kraus_seen, l_seen = [], []
        kraus_from_choi, compression = fa.kraus_from_choi, fa._compression_superop

        def recording_kraus(*args):
            kraus_seen.append(kraus_from_choi(*args))
            return kraus_seen[-1]

        def recording_compression(l_j, d, env):
            l_seen.append(l_j)
            return compression(l_j, d, env)

        monkeypatch.setattr(fa, "kraus_from_choi", recording_kraus)
        monkeypatch.setattr(fa, "_compression_superop", recording_compression)
        _, info = fa.build_upsilon(delta, ch, spec)
        assert len(kraus_seen) == len(l_seen) == len(spec.block_dims)
        if case == "(2,2)x2":
            assert info["blocks"][0]["multiplicity"] == 2
        for jdx, (kraus, l_j, blk) in enumerate(zip(kraus_seen, l_seen, info["blocks"])):
            d_j = spec.block_dims[jdx]
            r_j, c_j, l_ref = _dilation_by_terms(
                delta, ch, spec, jdx, chn.stinespring_from_kraus(kraus))
            # the 1-design identity the closed form rests on: r_j = 1 (x) C_j
            assert np.max(np.abs(r_j - nl.kron(np.eye(d_j), c_j))) <= 1e-12
            assert abs(blk["c_norm"] - nl.operator_norm(c_j)) <= 1e-12
            assert abs(blk["c_xi_norm"] - np.linalg.svd(c_j, compute_uv=False)[0]) <= 1e-12
            assert np.max(np.abs(l_j - l_ref)) <= 1e-12

    def test_exact_pinching_retraction(self):
        ch = chn.gen_pinching((2, 1))
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, info = fa.build_upsilon(delta, ch, spec)
        assert upsilon.is_cp() and upsilon.is_unital()
        retract = upsilon.superop @ delta.superop - chn.pinch_superop(spec.block_dims)
        assert nl.operator_norm(retract) <= 1e-8
        for blk in info["blocks"]:
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
        upsilon, _ = fa.build_upsilon(delta, ch, spec)
        assert nl.operator_norm(upsilon.superop @ delta.superop - np.eye(1)) <= 1e-8
        assert upsilon.is_cp() and upsilon.is_unital()

    def test_multiplicity_detected(self):
        ch = chn.gen_random_idempotent(((2, 2),), dim=4, seed=0)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, info = fa.build_upsilon(delta, ch, spec)
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
        fa.build_upsilon(delta, ch, spec)
        assert len(seen) == len(dims)
        for jdx, j_mat in enumerate(seen):
            assert np.array_equal(j_mat, _block_choi_by_units(delta, spec, jdx))


    @pytest.mark.parametrize("case", ["(3,1)", "(2,2)", "(4,3,1)", "(2,3),(1,2)"])
    def test_block_superop_matches_unit_loop(self, case, monkeypatch):
        # perturbed pinchings, and an idempotent with multiplicities 3 and 2
        if case.startswith("(2,3)"):
            ch = chn.gen_random_idempotent(((2, 3), (1, 2)), dim=8, seed=4)
        else:
            dims = tuple(int(c) for c in case.strip("()").split(","))
            ch = chn.gen_perturbed(chn.gen_pinching(dims), 1e-2, seed=1)
        pm, alg, spec, v, rep = run_pipeline(ch)
        delta, _ = fa.twirl_to_cp(fa.raw_factor(v, pm, alg), ch)
        seen = []
        compression = fa._compression_superop

        def recording(l_j, d, env):
            seen.append((l_j, env))
            return compression(l_j, d, env)

        monkeypatch.setattr(fa, "_compression_superop", recording)
        upsilon, _ = fa.build_upsilon(delta, ch, spec)
        assert len(seen) == len(spec.block_dims)
        # reference: Upsilon'_j(X) = L_j^dag (Phi(X) (x) 1) L_j one matrix unit
        # X at a time, embedded at block j, then normalized as build_upsilon does
        d, d_tot = ch.dim_in, spec.rep_dim
        prime = np.zeros((d_tot * d_tot, d * d), dtype=complex)
        for jdx, (l_j, env) in enumerate(seen):
            for idx in range(d * d):
                x = nl.unvec(np.eye(d * d, dtype=complex)[:, idx], d, d)
                val = l_j.conj().T @ nl.kron(ch(x), np.eye(env)) @ l_j
                prime[:, idx] += nl.vec(_embed_block(val, spec, jdx))
        unit = nl.hermitian_part(nl.unvec(prime @ nl.vec(np.eye(d, dtype=complex)), d_tot, d_tot))
        _, n_inv = nl.matrix_sqrt_inv_sqrt(unit)
        ref = chn.pinch_superop(spec.block_dims) @ nl.kron(n_inv.T, n_inv) @ prime
        assert np.allclose(upsilon.superop, ref, rtol=0, atol=1e-12)


class TestCertify:
    def test_exact_idempotent_residuals(self):
        ch = chn.gen_random_idempotent(((2, 1), (1, 2)), dim=6, seed=2)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, _ = fa.build_upsilon(delta, ch, spec)
        cert = fa.certify(delta, upsilon, ch, spec)
        assert cert.residual_factor.upper <= 1e-6
        assert cert.residual_retract.upper <= 1e-6
        assert all(cert.ucp_flags.values())
        assert max(cert.product_residuals.values()) <= 1e-6

    def test_identity_channel_zero_residuals(self):
        ch = so.identity_channel(2)
        pm, alg, spec, v, rep = run_pipeline(ch)
        raw = fa.raw_factor(v, pm, alg)
        delta, _ = fa.twirl_to_cp(raw, ch)
        upsilon, _ = fa.build_upsilon(delta, ch, spec)
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
            upsilon, _ = fa.build_upsilon(delta, pert, spec)
            cert = fa.certify(delta, upsilon, pert, spec)
            uppers[t] = (cert.residual_factor.upper, cert.residual_retract.upper)
            assert cert.residual_factor.upper <= 1.0
            assert cert.residual_retract.upper <= 1.0
            assert all(cert.ucp_flags.values())
        for k in (0, 1):
            ratio = uppers[1e-2][k] / uppers[1e-3][k]
            assert 2 <= ratio <= 50


def _ref_product_residuals(delta, upsilon, spec, probes, seed):
    """The sampled product condition of ``certify``, one probe and one
    block of M_n (x) B at a time."""
    d, d_tot = delta.dim_out, spec.rep_dim
    rng = np.random.default_rng(seed)
    out = {}
    for n in (1, 2):
        ups_n = chn.extend_superop(upsilon.superop, n, d, d_tot)
        del_n = chn.extend_superop(delta.superop, n, d_tot, d)
        worst = 0.0
        for _ in range(probes):
            x, y = (np.zeros((n * d_tot, n * d_tot), dtype=complex) for _ in range(2))
            for m in (x, y):
                for a in range(n):
                    for b in range(n):
                        m[a * d_tot: (a + 1) * d_tot, b * d_tot: (b + 1) * d_tot] = \
                            so.random_element(spec, rng)
            dx = nl.unvec(del_n @ nl.vec(x), n * d, n * d)
            dy = nl.unvec(del_n @ nl.vec(y), n * d, n * d)
            back = nl.unvec(ups_n @ nl.vec(dx @ dy), n * d_tot, n * d_tot)
            res = nl.operator_norm(back - x @ y)
            worst = max(worst, res / (nl.operator_norm(x) * nl.operator_norm(y)))
        out[n] = worst
    return out


class TestBatchedProductCondition:
    @pytest.mark.parametrize("t", [0.0, 1e-2])
    def test_product_residuals_match_loop(self, t):
        ch = chn.gen_pinching((2, 1))
        if t:
            ch = chn.gen_perturbed(ch, t, seed=5)
        pm, alg, spec, v, rep = run_pipeline(ch)
        delta, _ = fa.twirl_to_cp(fa.raw_factor(v, pm, alg), ch)
        upsilon, _ = fa.build_upsilon(delta, ch, spec)
        for probes, seed in ((10, 0), (3, 7)):
            got = fa.certify(delta, upsilon, ch, spec, probes=probes, seed=seed).product_residuals
            want = _ref_product_residuals(delta, upsilon, spec, probes, seed)
            assert got.keys() == want.keys()
            for n in want:
                # 1e-12 relative, above the roundoff level of the exact input
                assert abs(got[n] - want[n]) <= 1e-12 * want[n] + 1e-14, n
            if t:
                assert min(want.values()) > 1e-4  # the perturbation is seen
