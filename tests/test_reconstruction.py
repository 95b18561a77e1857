import functools

import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import starcalc as sc
from almostidem import reconstruction as rc
from almostidem import pipeline
from almostidem import projections as pj

import structure_oracle as so


def alg_of(ch, defects=False):
    pm = sc.idempotentize(ch)
    alg = sc.extract_algebra(pm)
    if defects:
        alg.defects = sc.measure_defects(alg, pm.distance_cb.upper)
    return alg


def exact_inclusion(alg, spec):
    coeffs = np.zeros((alg.dim, spec.rep_dim**2), dtype=complex)
    for (l, j, k) in spec.unit_indices():
        m = so.unit_matrix(spec, l, j, k)
        coeffs[:, nl.vec(m).argmax()] = so.coords(alg, m)
    return rc.AlmostHom(spec, coeffs)


class TestBlockSpec:
    def test_dims(self):
        spec = rc.BlockSpec((3, 2, 1))
        assert spec.dim == 14
        assert spec.rep_dim == 6
        assert len(spec.unit_indices()) == 14

    def test_unit_matrix_relations(self):
        spec = rc.BlockSpec((2, 1))
        e = functools.partial(so.unit_matrix, spec)
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
        # the four terms of a qubit block are its matrix units, weight 1/2
        diag = rc.pauli_diagonal(rc.BlockSpec((2,)))
        assert len(diag.terms) == 4
        assert all(p == 0.5 for p, _ in diag.terms)
        res = so.diagonal_residuals(diag)
        assert res["pi"] == 0.0
        assert res["commutation"] <= 1e-15

    def test_direct_sum_invariants(self):
        for dims in [(2, 1), (3, 2, 1), (2, 2)]:
            spec = rc.BlockSpec(dims)
            diag = rc.pauli_diagonal(spec)
            res = so.diagonal_residuals(diag, probes=5)
            assert res["pi"] <= 1e-15
            assert res["commutation"] <= 1e-10
            # one weight-1/d_l term per matrix unit E_jk of each block, in
            # unit_indices order
            assert len(diag.terms) == sum(d * d for d in dims)
            assert abs(sum(p for p, _ in diag.terms) - spec.rep_dim) <= 1e-12
            for (p, u), (l, j, k) in zip(diag.terms, spec.unit_indices()):
                assert p == 1.0 / dims[l]
                assert np.array_equal(u, so.unit_matrix(spec, l, j, k))

    @pytest.mark.parametrize("dims", [(4, 3, 1), (5, 1), (2, 2), (3,), (1,), (2, 1), (3, 2, 1)])
    def test_direct_sum_matches_product_design(self, dims):
        # the +-doubled product of the shift/clock designs, built one direct
        # sum per (term, block)
        def direct_sum(a, b):
            out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
            out[: a.shape[0], : a.shape[1]] = a
            out[a.shape[0]:, a.shape[1]:] = b
            return out

        ref = [(1.0, np.zeros((0, 0), dtype=complex))]
        for d in dims:
            block_terms = so.shift_clock_design(d)
            if len(dims) > 1:
                block_terms = [(p / 2, u) for p, u in block_terms] + [
                    (p / 2, -u) for p, u in block_terms]
            ref = [(p0 * p1, direct_sum(u0, u1)) for p0, u0 in ref for p1, u1 in block_terms]
        diag = rc.pauli_diagonal(rc.BlockSpec(dims))
        res = so.diagonal_residuals(diag)
        assert res["pi"] <= 1e-15 and res["commutation"] <= 1e-15
        diff = so.design_element(diag.terms) - so.design_element(ref)
        assert np.max(np.abs(diff)) <= 1e-13
        assert len(diag.terms) == sum(d * d for d in dims)

    @pytest.mark.parametrize("dims", [(1,), (2,), (3, 2, 1), (4, 3, 1), (3, 3, 3, 1)])
    def test_element_matches_shift_clock_reference(self, dims):
        spec = rc.BlockSpec(dims)
        got = so.design_element(rc.pauli_diagonal(spec).terms)
        want = so.design_element(so.shift_clock_terms(spec))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_term_count_linear_in_blocks(self):
        # the +-doubled product had 2^4 * 81^3 * 1 terms here
        spec = rc.BlockSpec((9, 9, 9, 1))
        assert len(rc.pauli_diagonal(spec).terms) == 3 * 81 + 1


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
        v = rc.mult_defect(so.symmetrized(rc.AlmostHom(spec, base.coeffs + noise)), alg)
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
        v = so.symmetrized(rc.AlmostHom(spec, noisy))
        # ||v(E^dag) - v(E)^dag|| over the matrix units E
        perm = nl.transpose_permutation(spec.rep_dim)
        assert np.linalg.norm(v.coeffs[:, perm] - np.conj(v.coeffs), axis=0).max() <= 1e-12


class TestImprove:
    def test_quadratic_convergence_on_exact_algebra(self):
        alg = alg_of(chn.gen_pinching((3, 2, 1)))
        spec = rc.BlockSpec((3, 2, 1))
        rng = np.random.default_rng(0)
        base = exact_inclusion(alg, spec)
        noise = 0.01 * (rng.standard_normal(base.coeffs.shape)
                        + 1j * rng.standard_normal(base.coeffs.shape)) / np.sqrt(2)
        v = rc.mult_defect(so.symmetrized(rc.AlmostHom(spec, base.coeffs + noise)), alg)
        assert 0.02 <= v.mult_defect <= 0.09
        defects = [v.mult_defect]
        for round_no in range(5):
            v = rc.improve_homomorphism(v, alg, max_rounds=1)
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
        v = rc.mult_defect(so.symmetrized(rc.AlmostHom(spec, base.coeffs + noise)), alg)
        start = max(v.mult_defect, v.unit_defect)
        out = rc.mult_defect(rc.improve_homomorphism(v, alg), alg)
        assert out.unit_defect <= max(100 * pm.eta.value, start)

    def test_already_exact_unchanged(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        v0 = rc.mult_defect(exact_inclusion(alg, spec), alg)
        v1 = rc.improve_homomorphism(v0, alg)
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
        v = rc.mult_defect(so.symmetrized(rc.AlmostHom(spec, base.coeffs)), alg)
        improved = rc.improve_homomorphism(v, alg)
        assert improved.mult_defect <= max(100 * eta, v.mult_defect)

    def test_threshold_guard(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        spec = rc.BlockSpec((2, 1))
        # scaling wrecks multiplicativity: g(X, Y) = 2 XY - 4 XY = -2 XY
        v = rc.AlmostHom(spec, 2.0 * exact_inclusion(alg, spec).coeffs)
        with pytest.raises(rc.ImproveFailed):
            rc.improve_homomorphism(v, alg)


class TestMergeAndExtend:
    def test_merge_blocks_of_pinching(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        s1 = rc.BlockSpec((2,))
        s2 = rc.BlockSpec((1,))
        c1 = np.zeros((alg.dim, 4), dtype=complex)
        for (l, j, k) in s1.unit_indices():
            m3 = np.zeros((3, 3), dtype=complex)
            m3[j, k] = 1.0
            c1[:, nl.vec(so.unit_matrix(s1, l, j, k)).argmax()] = so.coords(alg, m3)
        c2 = np.zeros((alg.dim, 1), dtype=complex)
        m3 = np.zeros((3, 3), dtype=complex)
        m3[2, 2] = 1.0
        c2[:, 0] = so.coords(alg, m3)
        # merge returns the map unmeasured; these are the probes and seed it measured with
        v = rc.mult_defect(rc.merge(rc.AlmostHom(s1, c1), rc.AlmostHom(s2, c2), alg), alg)
        assert v.spec.block_dims == (2, 1)
        assert v.mult_defect <= 1e-10
        assert v.unit_defect <= 1e-10

    def test_merge_crosstalk_detected(self):
        alg = alg_of(so.identity_channel(2))
        # two halves of the SAME block are equivalent: cross corner is not zero
        s1 = rc.BlockSpec((1,))
        c1 = np.zeros((alg.dim, 1), dtype=complex)
        c1[:, 0] = so.coords(alg, np.diag([1.0, 0.0]).astype(complex))
        c2 = np.zeros((alg.dim, 1), dtype=complex)
        c2[:, 0] = so.coords(alg, np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(rc.CrossTalk):
            rc.merge(rc.AlmostHom(s1, c1), rc.AlmostHom(s1, c2), alg)


def stage2_inputs(alg, seed=0):
    """(classes, the compressions of stage 1) of ``reconstruct``'s first two
    stages at ``seed``."""
    comps, _ = pj.minimal_projections(alg, np.random.default_rng(seed))
    return pj.classify_equivalence(alg, [c.p for c in comps]), comps


def class_map_per_unit(alg, comps):
    """The class map of ``comps``, one corner and one matrix unit at a time."""
    p0, m = comps[0].p, len(comps)
    xs = []
    for c_q in comps[1:]:
        x = pj.compression(alg, p0, c_q.p).image_coords[:, 0]
        q_tilde = c_q.matrix @ c_q.p.coords
        s = np.vdot(q_tilde, c_q.matrix @ alg.star(np.conj(x), x)) / np.vdot(q_tilde, q_tilde)
        xs.append(x / np.sqrt(s.real))
    spec = rc.BlockSpec((m,))
    coeffs = np.zeros((alg.dim, m * m), dtype=complex)
    for j in range(m):
        for k in range(m):
            if j == 0 and k == 0:
                img = comps[0].matrix @ p0.coords
            elif j == 0:
                img = xs[k - 1]
            elif k == 0:
                img = np.conj(xs[j - 1])
            else:
                img = alg.star(np.conj(xs[j - 1]), xs[k - 1])
            coeffs[:, nl.vec(so.unit_matrix(spec, 0, j, k)).argmax()] = img
    return rc.AlmostHom(spec, coeffs)


_CLASS_CASES = {
    "pinching-51": lambda: chn.gen_pinching((5, 1)),
    "perturbed-31": lambda: chn.gen_perturbed(chn.gen_pinching((3, 1)), 1e-2, seed=4),
    "idempotent-7": lambda: chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=3),
}


class TestClassMap:
    """Stage 2: each class map read off the rank-one corners P_0 A P_k."""

    @pytest.mark.parametrize("make", [
        lambda: so.identity_channel(3),
        lambda: chn.gen_pinching((4, 3, 1)),
    ], ids=["identity-3", "pinching-431"])
    def test_exact_before_improvement(self, make):
        # on exact input the matrix units of every class multiply as matrix
        # units before any improvement
        alg = alg_of(make())
        classes, comps = stage2_inputs(alg)
        for cls in classes:
            v = rc.mult_defect(rc.class_map(alg, [comps[j] for j in cls]), alg, probes=40)
            assert v.spec.block_dims == (len(cls),)
            assert v.mult_defect <= 1e-12
            assert 1 - 1e-12 <= v.iso_lower <= v.iso_upper <= 1 + 1e-12
        if len(classes) == 1:
            # B(C^3) is one class, and its map is onto the algebra
            assert v.unit_defect <= 1e-12
            assert np.linalg.matrix_rank(v.coeffs, tol=1e-7) == alg.dim == 9

    @pytest.mark.parametrize("make", [
        lambda: chn.gen_perturbed(chn.gen_pinching((2, 2)), 5e-2, seed=5),
        lambda: chn.gen_perturbed(chn.gen_pinching((3, 2, 1)), 0.08, seed=1),
        lambda: chn.gen_perturbed(chn.gen_pinching((3, 1)), 0.15, seed=1),
    ], ids=["perturbed-22", "in-domain-edge-321", "eta-edge-31"])
    def test_perturbed_starts_far_below_the_gate(self, make):
        # a seventh of improve_homomorphism's 0.35 start gate; the eta edge
        # reads about 0.013
        alg = alg_of(make())
        classes, comps = stage2_inputs(alg, seed=1)
        for cls in classes:
            v = rc.mult_defect(rc.class_map(alg, [comps[j] for j in cls]), alg)
            assert v.mult_defect < 0.05

    @pytest.mark.parametrize("name", sorted(_CLASS_CASES))
    def test_matches_per_unit_loop(self, name):
        alg = alg_of(_CLASS_CASES[name]())
        classes, comps = stage2_inputs(alg)
        assert max(len(cls) for cls in classes) > 1
        for cls in classes:
            got = rc.class_map(alg, [comps[j] for j in cls]).coeffs
            want = class_map_per_unit(alg, [comps[j] for j in cls]).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_inequivalent_projections_raise(self, monkeypatch):
        # a class that joins projections of two blocks has a corner of rank
        # 0, and stage 2 fails with its label
        alg = alg_of(chn.gen_pinching((2, 1)))
        classify = pj.classify_equivalence

        def joined(alg_, family):
            classes = classify(alg_, family)
            assert [len(c) for c in classes] == [2, 1]
            return [[classes[0][0], classes[1][0]], classes[0][1:]]

        monkeypatch.setattr(pj, "classify_equivalence", joined)
        with pytest.raises(rc.StageFailed, match="dim S_") as info:
            rc.reconstruct(alg, seed=0)
        assert info.value.stage == "stage2-matrix-units"
        assert isinstance(info.value.__cause__, nl.DimMismatch)


class TestReconstruct:
    def test_full_matrix_algebra(self):
        alg = alg_of(so.identity_channel(3))
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
        alg.defects = sc.measure_defects(alg, pm.distance_cb.upper)
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
            st = so.idempotent_structure(ch)
            alg = alg_of(ch)
            spec, v, rep = rc.reconstruct(alg, seed=0)
            assert spec.block_dims == st.block_dims
            assert rep.mult_defect <= 1e-7

    def test_in_domain_edge_factorizes(self):
        # (3,2,1) at t=0.08, seed 1 (eta = 0.18), inside the domain: its
        # stage-1 cut has one of the smallest gap ratios measured, about 1e2
        ch = chn.gen_perturbed(chn.gen_pinching((3, 2, 1)), 0.08, seed=1)
        report, _ = pipeline.factorize_channel(ch, seed=1)
        assert report["block_dims"] == [3, 2, 1]
        rec = next(c for c in report["checkpoints"] if c["stage"] == "reconstruction")
        assert rec["stage1_gap_ratio"] >= pj.STAGE1_MIN_GAP_RATIO
        assert pipeline.verify_report(report) == []

    @pytest.mark.parametrize("make", [
        lambda: chn.gen_pinching((1, 1, 1)),
        lambda: chn.gen_perturbed(chn.gen_pinching((1, 1, 1, 1)), 1e-2, seed=1),
    ], ids=["pinching-111", "perturbed-1111"])
    def test_commutative_algebra_factorizes(self, make):
        # every d_k = 1: stage 1 takes the cut into singletons, which records
        # no gap ratio
        report, _ = pipeline.factorize_channel(make(), seed=1)
        dims = report["block_dims"]
        assert len(dims) >= 3 and set(dims) == {1}
        rec = next(c for c in report["checkpoints"] if c["stage"] == "reconstruction")
        assert rec["stage1_gap_ratio"] is None and rec["bijective"]
        assert pipeline.verify_report(report) == []

    @pytest.mark.parametrize("case", range(6))
    def test_defect_estimate_has_margin(self, case):
        # no decision of reconstruct reads the defects: on the perturbed-d4
        # benchmark algebras, with them and without them (alg.defects =
        # None), the result is bit-identical
        from test_starcalc import _benchmark_inputs

        ch, seed = list(_benchmark_inputs())[case]
        pm = sc.idempotentize(ch)
        alg = sc.extract_algebra(pm)
        results = []
        for defects in (sc.measure_defects(alg, pm.distance_cb.upper), None):
            alg.defects = defects
            spec, v, _ = rc.reconstruct(alg, seed=seed)
            results.append((spec.block_dims, v.coeffs))
        assert results[1][0] == results[0][0]
        assert np.array_equal(results[1][1], results[0][1])


# ---------------------------------------------------------------------------
# batched kernels against per-pair / per-term loops
# ---------------------------------------------------------------------------

def mult_defect_per_pair(v, alg, probes=20, seed=0):
    """(mult_defect, unit_defect, iso_lower, iso_upper) pair by pair."""
    spec = v.spec
    units = spec.unit_indices()
    imgs = {u: v.apply(so.unit_matrix(spec, *u)) for u in units}
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
        x = so.random_element(spec, rng)
        y = so.random_element(spec, rng)
        nx = max(nl.operator_norm(x[s, s]) for s in spec.slices())
        ny = max(nl.operator_norm(y[s, s]) for s in spec.slices())
        g = v.apply(x @ y) - alg.star(v.apply(x), v.apply(y))
        worst = max(worst, alg.norm(g) / (nx * ny))
        ratio = alg.norm(v.apply(x)) / nx
        iso_lo, iso_hi = min(iso_lo, ratio), max(iso_hi, ratio)
    unit_def = alg.norm(v.apply(spec.unit()) - alg.unit_coords)
    return worst, unit_def, iso_lo, iso_hi


def correction_per_term(coeffs, alg, terms, rep):
    """w'(X) = sum_s p_s v(U_s^dag) * (v(U_s X) - v(U_s) * v(X)), term by term."""
    w_prime = np.zeros_like(coeffs)
    for p_s, u_s in terms:
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
    return alg, so.symmetrized(rc.AlmostHom(spec, base + noise))


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
        v = rc.mult_defect(v, alg)
        out = rc.improve_homomorphism(v, alg, max_rounds=1)
        assert out.mult_defect < v.mult_defect  # the round was accepted
        # the loop runs over the shift/clock design, the package over matrix
        # units: two designs of the same diagonal element
        w_prime = correction_per_term(v.coeffs, alg, so.shift_clock_terms(spec), spec.rep_dim)
        perm = nl.transpose_permutation(spec.rep_dim)
        want = v.coeffs + 0.5 * (w_prime + np.conj(w_prime[:, perm]))
        assert np.max(np.abs(out.coeffs - want)) <= 1e-12

    @pytest.mark.parametrize("dims", [(1,), (2, 1), (3, 2, 1), (2, 2)])
    def test_unit_columns_and_products(self, dims):
        spec = rc.BlockSpec(dims)
        units = spec.unit_indices()
        cols = [nl.vec(so.unit_matrix(spec, *u)).argmax() for u in units]
        assert spec.unit_columns().tolist() == cols
        table = spec.unit_products()
        for a, ua in enumerate(units):
            for b, ub in enumerate(units):
                prod = so.unit_matrix(spec, *ua) @ so.unit_matrix(spec, *ub)
                want = units.index((ua[0], ua[1], ub[2])) if prod.any() else -1
                assert table[a, b] == want

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matrix_algebra_matches_loop(self, k):
        alg = so.matrix_algebra(k)
        basis = nl.hermitian_basis(k)
        n = len(basis)
        stack = np.stack([nl.vec(b) for b in basis], axis=1)
        want = np.zeros((n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                want[i, j, :] = stack.conj().T @ nl.vec(basis[i] @ basis[j])
        assert np.max(np.abs(alg.star_tensor - want)) <= 1e-15
        unit = np.real(stack.conj().T @ nl.vec(np.eye(k, dtype=complex)))
        assert np.max(np.abs(alg.unit_coords - unit)) <= 1e-15
        rng = np.random.default_rng(k)
        x = rng.standard_normal((4, k, k)) + 1j * rng.standard_normal((4, k, k))
        coords = so.coords(alg, x)
        for xi, ci in zip(x, coords):
            assert np.max(np.abs(ci - [so.hs_inner(b, xi) for b in basis])) <= 1e-14
            assert np.max(np.abs(ci - so.coords(alg, xi))) <= 1e-15

    @pytest.mark.parametrize("k", [1, 3])
    def test_matrix_algebra_is_fresh_over_read_only_data(self, k):
        a, b = so.matrix_algebra(k), so.matrix_algebra(k)
        assert a is not b
        a.defects = sc.measure_defects(a, 0.0)
        assert b.defects is None
        for x, y in [(a.star_tensor, b.star_tensor), (a.unit_coords, b.unit_coords),
                     (a.basis, b.basis)]:
            assert np.shares_memory(x, y) and not x.flags.writeable
        with pytest.raises(ValueError):
            a.star_tensor[0, 0, 0] = 1.0

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matrix_units_of_one_block(self, d):
        # built one unit at a time: (1/d, E_jk), j major
        want = []
        for j in range(d):
            for k in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[j, k] = 1.0
                want.append(e)
        terms = rc.pauli_diagonal(rc.BlockSpec((d,))).terms
        assert len(terms) == d * d
        for (p, u), w in zip(terms, want):
            assert type(p) is float and p == 1.0 / d
            assert u.dtype == complex and np.array_equal(u, w)

    def test_symmetrized_matches_column_loop(self):
        spec = rc.BlockSpec((3, 2, 1))
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((14, 36)) + 1j * rng.standard_normal((14, 36))
        v = rc.AlmostHom(spec, coeffs)
        assert np.array_equal(so.symmetrized(v).coeffs, symmetrized_per_column(v))


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
        singles = np.stack([so.random_element(spec, one_rng) for _ in range(40)])
        assert np.array_equal(singles, want)

    @pytest.mark.parametrize("make", [
        lambda: chn.gen_pinching((4, 3, 1)),
        lambda: chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=3),
    ], ids=["pinching-431", "idempotent-7"])
    def test_each_compression_computed_once(self, monkeypatch, make):
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

    def test_improve_never_measures_a_candidate_twice(self, monkeypatch):
        # a perturbed input, where improvements run several rounds: on an
        # exact one every defect is roundoff and each stops at its target
        alg = alg_of(chn.gen_perturbed(chn.gen_pinching((3, 1)), 1e-2, seed=4), defects=True)
        measured, inside = [], []
        mult_defect = rc._mult_defect
        improve = rc.improve_homomorphism

        def recording(v, alg_, *args, **kwargs):
            if inside:
                measured[-1].append(v.coeffs.tobytes())
            return mult_defect(v, alg_, *args, **kwargs)

        def one_call(*args, **kwargs):
            measured.append([])
            inside.append(1)
            try:
                return improve(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(rc, "_mult_defect", recording)
        monkeypatch.setattr(rc, "improve_homomorphism", one_call)
        rc.reconstruct(alg, seed=0)
        # one improvement per class of more than one projection (the class
        # of three) and one per merge; the singleton class is not improved
        assert len(measured) == 2
        assert all(len(set(keys)) == len(keys) for keys in measured)
        assert max(len(keys) for keys in measured) >= 3

    def test_reconstruct_mult_defect_calls_pinned(self, monkeypatch):
        # the class maps and merges are measured only inside
        # improve_homomorphism, which runs once per class of more than one
        # projection and once per merge; on the exact pinching every measured
        # defect is roundoff, below the 1e-12 target, so each of the 4
        # improvements (classes 4 and 3, two merges) measures once and runs
        # no round; the unit defect and the norm sandwich are measured once,
        # on the final map
        alg = alg_of(chn.gen_pinching((4, 3, 1)))
        calls = {"_mult_defect": 0, "mult_defect": 0}

        def counting(name):
            fn = getattr(rc, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(rc, name, counting(name))
        spec, v, rep = rc.reconstruct(alg, seed=0)
        assert spec.block_dims == (4, 3, 1) and rep.bijective
        assert calls == {"_mult_defect": 5, "mult_defect": 1}

    @pytest.mark.parametrize("make", [
        lambda: chn.gen_perturbed(chn.gen_pinching((2, 2)), 5e-2, seed=5),
        lambda: chn.gen_perturbed(chn.gen_pinching((3, 1)), 1e-2, seed=4),
    ], ids=["perturbed-22", "perturbed-31"])
    def test_one_probe_draw_per_improve_call(self, monkeypatch, make):
        # every candidate of one improvement is measured on the same probe
        # set, drawn and normed once
        alg = alg_of(make(), defects=True)
        draws, rounds, inside = [], [], []
        random_elements = rc.BlockSpec.random_elements
        mult_defect = rc._mult_defect
        improve = rc.improve_homomorphism

        def counting_draw(self, rng, count):
            if inside:
                draws[-1] += 1
            return random_elements(self, rng, count)

        def counting_measure(*args, **kwargs):
            rounds[-1] += 1
            return mult_defect(*args, **kwargs)

        def one_call(*args, **kwargs):
            draws.append(0)
            rounds.append(0)
            inside.append(1)
            try:
                return improve(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(rc.BlockSpec, "random_elements", counting_draw)
        monkeypatch.setattr(rc, "_mult_defect", counting_measure)
        monkeypatch.setattr(rc, "improve_homomorphism", one_call)
        rc.reconstruct(alg, seed=0)
        assert draws and draws == [1] * len(draws)
        assert max(rounds) >= 3
