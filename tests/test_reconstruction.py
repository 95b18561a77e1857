import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import starcalc as sc
from almostidem import reconstruction as rc


def alg_of(ch, samples=0):
    alg = sc.extract_algebra(sc.idempotentize(ch))
    if samples:
        alg.defects = sc.measure_defects(alg, samples=samples, seed=0)
    return alg


def exact_inclusion(alg, spec):
    coeffs = np.zeros((alg.dim, spec.rep_dim**2), dtype=complex)
    for (l, j, k) in spec.unit_indices():
        m = spec.unit_matrix(l, j, k)
        coeffs[:, nl.vec(m).argmax()] = alg.coords(m)
    return rc.AlmostHom(spec, coeffs)


class TestBlockSpec:
    def test_dims(self):
        spec = rc.BlockSpec((3, 2, 1))
        assert spec.dim == 14
        assert spec.rep_dim == 6
        assert len(spec.unit_indices()) == 14

    def test_unit_matrix_relations(self):
        spec = rc.BlockSpec((2, 1))
        e = spec.unit_matrix
        np.testing.assert_allclose(e(0, 0, 1) @ e(0, 1, 0), e(0, 0, 0))
        np.testing.assert_allclose(e(0, 0, 1) @ e(1, 0, 0), np.zeros((3, 3)))
        total = sum(e(l, j, j) for (l, j, k) in spec.unit_indices() if j == k)
        np.testing.assert_allclose(total, np.eye(3))


class TestDiagonals:
    def test_single_term_trivial_block(self):
        diag = rc.pauli_diagonal(rc.BlockSpec((1,)))
        assert len(diag.terms) == 1
        p, u = diag.terms[0]
        assert p == 1.0
        np.testing.assert_allclose(u, np.eye(1))

    def test_qubit_block_four_paulis(self):
        diag = rc.pauli_diagonal(rc.BlockSpec((2,)))
        assert len(diag.terms) == 4
        assert all(abs(p - 0.25) < 1e-15 for p, _ in diag.terms)
        res = diag.residuals()
        assert res["pi"] <= 1e-12
        assert res["commutation"] <= 1e-10

    def test_product_diagonal_invariants(self):
        for dims in [(2, 1), (3, 2, 1), (2, 2)]:
            diag = rc.pauli_diagonal(rc.BlockSpec(dims))
            res = diag.residuals(probes=5, seed=0)
            assert abs(res["prob_sum"]) <= 1e-12
            assert res["pi"] <= 1e-10
            assert res["commutation"] <= 1e-10
            for p, u in diag.terms:
                assert nl.operator_norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-12

    @pytest.mark.parametrize("dims", [(4, 3, 1), (5, 1), (2, 2), (3,)])
    def test_product_design_matches_term_by_term_build(self, dims):
        # the product design built one direct sum per (term, block)
        def direct_sum(a, b):
            out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
            out[: a.shape[0], : a.shape[1]] = a
            out[a.shape[0]:, a.shape[1]:] = b
            return out

        ref = [(1.0, np.zeros((0, 0), dtype=complex))]
        for d in dims:
            block_terms = rc.pauli_shift_clock(d)
            if len(dims) > 1:
                block_terms = [(p / 2, u) for p, u in block_terms] + [
                    (p / 2, -u) for p, u in block_terms]
            ref = [(p0 * p1, direct_sum(u0, u1)) for p0, u0 in ref for p1, u1 in block_terms]
        terms = rc.pauli_diagonal(rc.BlockSpec(dims)).terms
        assert len(terms) == len(ref)
        for (p, u), (p_ref, u_ref) in zip(terms, ref):
            assert type(p) is float and p == p_ref
            assert np.array_equal(u, u_ref)

    def test_term_explosion(self):
        with pytest.raises(rc.TermExplosion):
            rc.pauli_diagonal(rc.BlockSpec((6, 6, 6)), term_cap=1000)


class TestMultDefect:
    def test_exact_inclusion(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        v = rc.mult_defect(exact_inclusion(alg, rc.BlockSpec((2, 1))), alg)
        assert v.mult_defect <= 1e-10
        assert v.unit_defect <= 1e-10
        assert 1 - 1e-9 <= v.iso_lower <= v.iso_upper <= 1 + 1e-9

    def test_noise_scale_reflected(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        rng = np.random.default_rng(1)
        base = exact_inclusion(alg, spec)
        noise = 0.01 * (rng.standard_normal(base.coeffs.shape)
                        + 1j * rng.standard_normal(base.coeffs.shape))
        v = rc.mult_defect(rc.AlmostHom(spec, base.coeffs + noise).symmetrized(), alg)
        assert 0.001 <= v.mult_defect <= 0.1

    def test_zero_map_unit_defect(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        v = rc.mult_defect(rc.AlmostHom(spec, np.zeros((alg.dim, 9), dtype=complex)), alg)
        assert abs(v.unit_defect - 1.0) <= 1e-9

    def test_dagger_symmetry_maintained(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        rng = np.random.default_rng(2)
        noisy = exact_inclusion(alg, spec).coeffs + 0.05 * (
            rng.standard_normal((alg.dim, 9)) + 1j * rng.standard_normal((alg.dim, 9))
        )
        v = rc.AlmostHom(spec, noisy).symmetrized()
        assert v.dagger_symmetry_residual() <= 1e-12


class TestImprove:
    def test_quadratic_convergence_on_exact_algebra(self):
        alg = alg_of(chn.gen_pinching((3, 2, 1)))
        spec = rc.BlockSpec((3, 2, 1))
        rng = np.random.default_rng(0)
        base = exact_inclusion(alg, spec)
        noise = 0.01 * (rng.standard_normal(base.coeffs.shape)
                        + 1j * rng.standard_normal(base.coeffs.shape)) / np.sqrt(2)
        v = rc.mult_defect(rc.AlmostHom(spec, base.coeffs + noise).symmetrized(), alg)
        assert 0.02 <= v.mult_defect <= 0.09
        diag = rc.pauli_diagonal(spec)
        defects = [v.mult_defect]
        for round_no in range(5):
            v = rc.improve_homomorphism(v, alg, diag, max_rounds=1)
            defects.append(v.mult_defect)
            if v.mult_defect <= 1e-8:
                break
        assert v.mult_defect <= 1e-8
        assert len(defects) - 1 <= 5
        # quadratic-convergence check: per-round ratio <= 0.2 after round 1
        for a, b in zip(defects[1:-1], defects[2:]):
            assert b <= 0.2 * a

    def test_unit_defect_not_degraded(self):
        # improvement keeps the unit defect at the delta + epsilon level
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=8)
        pm = sc.idempotentize(pert)
        alg = sc.extract_algebra(pm)
        spec = rc.BlockSpec((2, 1))
        rng = np.random.default_rng(3)
        base = exact_inclusion(alg, spec)
        noise = 0.01 * (rng.standard_normal(base.coeffs.shape)
                        + 1j * rng.standard_normal(base.coeffs.shape))
        v = rc.mult_defect(rc.AlmostHom(spec, base.coeffs + noise).symmetrized(), alg)
        start = max(v.mult_defect, v.unit_defect)
        out = rc.improve_homomorphism(v, alg, rc.pauli_diagonal(spec))
        assert out.unit_defect <= max(100 * pm.eta.value, start)

    def test_already_exact_unchanged(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        v0 = rc.mult_defect(exact_inclusion(alg, spec), alg)
        v1 = rc.improve_homomorphism(v0, alg, rc.pauli_diagonal(spec))
        assert np.max(np.abs(v1.coeffs - v0.coeffs)) <= 1e-12

    def test_improve_on_perturbed_algebra_reaches_epsilon_floor(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=3)
        pm = sc.idempotentize(pert)
        alg = sc.extract_algebra(pm)
        eta = pm.eta.value
        spec = rc.BlockSpec((2, 2))
        # the fixed algebra of the perturbed map is close to the pinching one
        rng = np.random.default_rng(0)
        base = exact_inclusion(alg, spec)
        v = rc.mult_defect(rc.AlmostHom(spec, base.coeffs).symmetrized(), alg)
        improved = rc.improve_homomorphism(v, alg, rc.pauli_diagonal(spec))
        assert improved.mult_defect <= max(100 * eta, v.mult_defect)

    def test_threshold_guard(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        # scaling wrecks multiplicativity: g(X, Y) = 2 XY - 4 XY = -2 XY
        v = rc.AlmostHom(spec, 2.0 * exact_inclusion(alg, spec).coeffs)
        with pytest.raises(rc.ImproveFailed):
            rc.improve_homomorphism(v, alg, rc.pauli_diagonal(spec))


class TestMergeAndExtend:
    def test_merge_blocks_of_pinching(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        s1 = rc.BlockSpec((2,))
        s2 = rc.BlockSpec((1,))
        c1 = np.zeros((alg.dim, 4), dtype=complex)
        for (l, j, k) in s1.unit_indices():
            m3 = np.zeros((3, 3), dtype=complex)
            m3[j, k] = 1.0
            c1[:, nl.vec(s1.unit_matrix(l, j, k)).argmax()] = alg.coords(m3)
        c2 = np.zeros((alg.dim, 1), dtype=complex)
        m3 = np.zeros((3, 3), dtype=complex)
        m3[2, 2] = 1.0
        c2[:, 0] = alg.coords(m3)
        v = rc.merge(rc.AlmostHom(s1, c1), rc.AlmostHom(s2, c2), alg)
        assert v.spec.block_dims == (2, 1)
        assert v.mult_defect <= 1e-10
        assert v.unit_defect <= 1e-10

    def test_merge_crosstalk_detected(self):
        alg = alg_of(chn.identity_channel(2))
        # two halves of the SAME block are equivalent: cross corner is not zero
        s1 = rc.BlockSpec((1,))
        c1 = np.zeros((alg.dim, 1), dtype=complex)
        c1[:, 0] = alg.coords(np.diag([1.0, 0.0]).astype(complex))
        c2 = np.zeros((alg.dim, 1), dtype=complex)
        c2[:, 0] = alg.coords(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(rc.CrossTalk):
            rc.merge(rc.AlmostHom(s1, c1), rc.AlmostHom(s1, c2), alg)

    def test_extension_chain_in_full_matrix_algebra(self):
        # M_1 -> M_2 -> M_3 inside B(C^3)
        alg = alg_of(chn.identity_channel(3))
        from almostidem import projections as pj

        units = []
        for i in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, i] = 1.0
            c = np.real(alg.coords(e))
            units.append(pj.DeltaProjection(c, pj.measure_delta(alg, c), alg.norm(c)))
        coeffs = np.zeros((alg.dim, 1), dtype=complex)
        coeffs[:, 0] = units[0].coords
        v = rc.mult_defect(rc.AlmostHom(rc.BlockSpec((1,)), coeffs), alg)
        v = rc.extend_matrix_algebra(v, pj.compression(alg, units[1]), alg)
        assert v.spec.block_dims == (2,)
        assert v.mult_defect <= 1e-8
        v = rc.improve_homomorphism(v, alg, rc.pauli_diagonal(v.spec))
        v = rc.extend_matrix_algebra(v, pj.compression(alg, units[2]), alg)
        assert v.spec.block_dims == (3,)
        assert v.mult_defect <= 1e-8
        # the final map is a bijective near-isomorphism of B(C^3)
        v = rc.mult_defect(v, alg, probes=40)
        assert v.iso_lower >= 1 - 1e-7
        assert v.iso_upper <= 1 + 1e-7

    def test_extension_dim_mismatch(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        from almostidem import projections as pj

        e11 = np.zeros((3, 3), dtype=complex)
        e11[0, 0] = 1.0
        c = np.real(alg.coords(e11))
        p = pj.DeltaProjection(c, 0.0, 1.0)
        e33 = np.zeros((3, 3), dtype=complex)
        e33[2, 2] = 1.0
        c3 = np.real(alg.coords(e33))
        q = pj.DeltaProjection(c3, 0.0, 1.0)
        coeffs = np.zeros((alg.dim, 1), dtype=complex)
        coeffs[:, 0] = p.coords
        v = rc.AlmostHom(rc.BlockSpec((1,)), coeffs)
        # q is inequivalent to p (different blocks): dim S_{P,Q} = 0 != 1
        with pytest.raises(nl.DimMismatch):
            rc.extend_matrix_algebra(v, pj.compression(alg, q), alg)


class TestReconstruct:
    def test_full_matrix_algebra(self):
        alg = alg_of(chn.identity_channel(3))
        spec, v, rep = rc.reconstruct(alg, seed=0)
        assert spec.block_dims == (3,)
        assert rep.mult_defect <= 1e-8
        assert rep.bijective

    def test_pinching(self):
        alg = alg_of(chn.gen_pinching((3, 2, 1)))
        spec, v, rep = rc.reconstruct(alg, seed=0)
        assert spec.block_dims == (3, 2, 1)
        assert rep.mult_defect <= 1e-8
        assert rep.bijective
        assert rep.class_sizes == [3, 2, 1]

    def test_perturbed_pinching_recovers_spec(self):
        pert = chn.gen_perturbed(chn.gen_pinching((3, 2, 1)), 1e-2, seed=5)
        pm = sc.idempotentize(pert)
        alg = sc.extract_algebra(pm)
        alg.defects = sc.measure_defects(alg, samples=60, seed=0)
        spec, v, rep = rc.reconstruct(alg, seed=0)
        assert spec.block_dims == (3, 2, 1)
        eta = pm.eta.value
        assert rep.mult_defect <= 10 * eta
        assert rep.iso_lower >= 1 - 10 * eta
        assert rep.iso_upper <= 1 + 10 * eta

    def test_matches_star_algebra_oracle(self):
        # ground truth from the independent carrier-representation route
        for seed in range(4):
            ch = chn.gen_random_idempotent(((2, 1), (1, 2)), dim=6, seed=seed)
            st = chn.idempotent_structure(ch)
            alg = alg_of(ch)
            spec, v, rep = rc.reconstruct(alg, seed=0)
            assert spec.block_dims == st.block_dims
            assert rep.mult_defect <= 1e-7


# ---------------------------------------------------------------------------
# batched kernels against per-pair / per-term loops
# ---------------------------------------------------------------------------

def mult_defect_per_pair(v, alg, probes=20, seed=0):
    """(mult_defect, unit_defect, iso_lower, iso_upper) pair by pair."""
    spec = v.spec
    units = spec.unit_indices()
    imgs = {u: v.apply(spec.unit_matrix(*u)) for u in units}
    worst = 0.0
    for (l1, j1, k1) in units:
        for (l2, j2, k2) in units:
            prod = (
                imgs[(l1, j1, k2)] if (l1 == l2 and k1 == j2)
                else np.zeros(alg.dim, dtype=complex)
            )
            g = prod - alg.star(imgs[(l1, j1, k1)], imgs[(l2, j2, k2)])
            worst = max(worst, alg.norm(g))
    rng = np.random.default_rng(seed)
    iso_lo, iso_hi = np.inf, 0.0
    for _ in range(probes):
        x = spec.random_element(rng)
        y = spec.random_element(rng)
        nx = max(nl.operator_norm(x[s, s]) for s in spec.slices())
        ny = max(nl.operator_norm(y[s, s]) for s in spec.slices())
        g = v.apply(x @ y) - alg.star(v.apply(x), v.apply(y))
        worst = max(worst, alg.norm(g) / (nx * ny))
        ratio = alg.norm(v.apply(x)) / nx
        iso_lo, iso_hi = min(iso_lo, ratio), max(iso_hi, ratio)
    unit_def = alg.norm(v.apply(spec.unit()) - alg.unit_coords)
    return worst, unit_def, iso_lo, iso_hi


def correction_per_term(coeffs, alg, diag, rep):
    """w'(X) = sum_s p_s v(U_s^dag) * (v(U_s X) - v(U_s) * v(X)), term by term."""
    w_prime = np.zeros_like(coeffs)
    for p_s, u_s in diag.terms:
        vu_dag = coeffs @ nl.vec(u_s.conj().T)
        vu = coeffs @ nl.vec(u_s)
        vux = coeffs @ nl.kron(np.eye(rep), u_s)  # vec(U X) = (I (x) U) vec X
        w_prime += p_s * (alg.lmul(vu_dag) @ (vux - alg.lmul(vu) @ coeffs))
    return w_prime


def symmetrized_per_column(v):
    rep = v.spec.rep_dim
    sym = np.zeros_like(v.coeffs)
    for idx in range(rep * rep):
        x = nl.unvec(np.eye(rep * rep, dtype=complex)[:, idx], rep, rep)
        sym[:, idx] = 0.5 * (v.coeffs[:, idx] + np.conj(v.apply(x.conj().T)))
    return sym


def noisy_inclusion(dims, scale, seed):
    alg = alg_of(chn.gen_pinching(dims))
    spec = rc.BlockSpec(dims)
    rng = np.random.default_rng(seed)
    base = exact_inclusion(alg, spec).coeffs
    noise = scale * (rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape))
    return alg, rc.AlmostHom(spec, base + noise).symmetrized()


class TestBatchedKernels:
    @pytest.mark.parametrize("dims", [(1,), (2, 1), (3, 2, 1)])
    @pytest.mark.parametrize("probes", [0, 20])
    def test_mult_defect_matches_per_pair(self, dims, probes):
        alg, v = noisy_inclusion(dims, 0.05, seed=len(dims) + probes)
        got = rc.mult_defect(v, alg, probes=probes, seed=4)
        ref = mult_defect_per_pair(v, alg, probes=probes, seed=4)
        assert got.mult_defect > 1e-3  # the noise is seen
        for name, want in zip(("mult_defect", "unit_defect", "iso_lower", "iso_upper"), ref):
            value = getattr(got, name)
            if np.isinf(want):
                assert value == want
            else:
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), name

    @pytest.mark.parametrize("exact", [True, False])
    def test_correction_matches_per_term(self, exact):
        dims = (3, 2, 1) if exact else (2, 1)
        alg, v = noisy_inclusion(dims, 0.005, seed=7)
        spec = v.spec
        diag = rc.pauli_diagonal(spec)
        v = rc.mult_defect(v, alg)
        out = rc.improve_homomorphism(v, alg, diag, max_rounds=1)
        assert out.mult_defect < v.mult_defect  # the round was accepted
        w_prime = correction_per_term(v.coeffs, alg, diag, spec.rep_dim)
        perm = nl.transpose_permutation(spec.rep_dim)
        want = v.coeffs + 0.5 * (w_prime + np.conj(w_prime[:, perm]))
        assert np.max(np.abs(out.coeffs - want)) <= 1e-12

    @pytest.mark.parametrize("dims", [(1,), (2, 1), (3, 2, 1), (2, 2)])
    def test_unit_columns_and_products(self, dims):
        spec = rc.BlockSpec(dims)
        units = spec.unit_indices()
        cols = [nl.vec(spec.unit_matrix(*u)).argmax() for u in units]
        assert spec.unit_columns().tolist() == cols
        table = spec.unit_products()
        for a, ua in enumerate(units):
            for b, ub in enumerate(units):
                prod = spec.unit_matrix(*ua) @ spec.unit_matrix(*ub)
                want = units.index((ua[0], ua[1], ub[2])) if prod.any() else -1
                assert table[a, b] == want

    def test_symmetrized_matches_column_loop(self):
        spec = rc.BlockSpec((3, 2, 1))
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((14, 36)) + 1j * rng.standard_normal((14, 36))
        v = rc.AlmostHom(spec, coeffs)
        assert np.array_equal(v.symmetrized().coeffs, symmetrized_per_column(v))
        worst = max(
            np.linalg.norm(v.apply(x.conj().T) - np.conj(v.apply(x)))
            for x in (nl.unvec(e, 6, 6) for e in np.eye(36, dtype=complex))
        )
        assert abs(v.dagger_symmetry_residual() - worst) <= 1e-12 * worst


# ---------------------------------------------------------------------------
# work done once
# ---------------------------------------------------------------------------

def random_element_per_block(spec, rng):
    """One block-diagonal element, drawn block by block: real then imaginary part."""
    m = np.zeros((spec.rep_dim, spec.rep_dim), dtype=complex)
    for s in spec.slices():
        d = s.stop - s.start
        m[s, s] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m


class TestWorkDoneOnce:
    @pytest.mark.parametrize("dims", [(1,), (2, 1), (4, 3, 1)])
    def test_probe_draw_matches_loop(self, dims):
        spec = rc.BlockSpec(dims)
        rng = np.random.default_rng(3)
        got = spec.random_elements(rng, 40)
        ref_rng = np.random.default_rng(3)
        want = np.stack([random_element_per_block(spec, ref_rng) for _ in range(40)])
        assert np.array_equal(got, want)
        assert rng.standard_normal() == ref_rng.standard_normal()  # same stream after
        one_rng = np.random.default_rng(3)
        singles = np.stack([spec.random_element(one_rng) for _ in range(40)])
        assert np.array_equal(singles, want)

    @pytest.mark.parametrize("make", [
        lambda: chn.gen_pinching((4, 3, 1)),
        lambda: chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=3),
    ], ids=["pinching-431", "idempotent-7"])
    def test_each_compression_computed_once(self, monkeypatch, make):
        from almostidem import projections as pj

        alg = alg_of(make())
        seen = {}
        compression = pj.compression

        def counting(alg_, p, q=None):
            key = (p.coords.tobytes(), (p if q is None else q).coords.tobytes())
            seen[key] = seen.get(key, 0) + 1
            return compression(alg_, p, q)

        monkeypatch.setattr(pj, "compression", counting)
        spec, v, rep = rc.reconstruct(alg, seed=0)
        assert rep.bijective
        assert len(rep.class_sizes) > 1 and max(rep.class_sizes) > 1
        assert seen and max(seen.values()) == 1
