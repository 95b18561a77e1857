import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import starcalc as sc
from almostidem import projections as pj

import structure_oracle as so


def alg_of(ch: chn.Channel) -> sc.EpsilonAlgebra:
    return sc.extract_algebra(sc.idempotentize(ch))


def unit_coords(alg, i, j):
    e = np.zeros((alg.ambient_dim, alg.ambient_dim), dtype=complex)
    e[i, j] = 1.0
    return so.coords(alg, e)


class TestProjectionSearch:
    """One eigendecomposition of L_x gives every minimal projection
    (:func:`projections.minimal_projections`)."""

    def test_diagonal_algebra(self):
        alg = alg_of(chn.gen_pinching((1, 1)))
        comps, ratio = pj.minimal_projections(alg, np.random.default_rng(0))
        # a commutative algebra is cut into singletons, which keep no gap
        assert ratio is None
        assert [c.rank for c in comps] == [1, 1]
        mats = [alg.element(c.p.coords) for c in comps]
        for c in comps:
            assert c.p.delta <= 1e-9
        # E11 and E22, in some order
        want = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        for m in mats:
            assert min(nl.operator_norm(m - w) for w in want) <= 1e-7
        assert nl.operator_norm(sum(mats) - np.eye(2)) <= 1e-7

    def test_full_matrix_algebra(self):
        alg = alg_of(so.identity_channel(2))
        comps, ratio = pj.minimal_projections(alg, np.random.default_rng(1))
        assert ratio >= pj.STAGE1_MIN_GAP_RATIO
        assert [c.rank for c in comps] == [1, 1]
        for c in comps:
            assert c.p.delta <= 1e-9
            w = np.sort(np.linalg.eigvalsh(alg.element(c.p.coords)))
            np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-7)
        total = sum(c.p.coords for c in comps)
        assert alg.norm(total - alg.unit_coords) <= 1e-7

    def test_perturbed_algebra_delta_order_eta(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=3)
        pm = sc.idempotentize(pert)
        alg = sc.extract_algebra(pm)
        eta = pm.eta.value
        comps, ratio = pj.minimal_projections(alg, np.random.default_rng(0))
        assert ratio >= pj.STAGE1_MIN_GAP_RATIO
        assert [c.rank for c in comps] == [1] * 4
        for c in comps:
            assert c.p.delta <= 100 * eta
            assert alg.norm(c.p.coords) >= 0.5
        total = sum(c.p.coords for c in comps)
        assert alg.norm(total - alg.unit_coords) <= 100 * eta

    def test_exhausted_on_trivial_algebra(self):
        # C I on C^2: its unit is its one minimal projection
        alg = alg_of(chn.gen_pinching((1, 1)))
        basis = alg.unit_element()[None] / np.sqrt(2)
        one_dim = sc.EpsilonAlgebra(alg.ambient_dim, basis, np.array([np.sqrt(2.0)]),
                                    np.full((1, 1, 1), 1 / np.sqrt(2), dtype=complex))
        comps, ratio = pj.minimal_projections(one_dim, np.random.default_rng(0))
        assert ratio is None and [c.rank for c in comps] == [1]
        assert abs(comps[0].p.coords[0] - np.sqrt(2.0)) <= 1e-12
        # the same line with the zero product has no projection of rank 1:
        # every draw is refused, with a typed error
        zero = sc.EpsilonAlgebra(alg.ambient_dim, basis, np.array([np.sqrt(2.0)]),
                                 np.zeros((1, 1, 1), dtype=complex))
        with pytest.raises(pj.NoSpectralCut):
            pj.minimal_projections(zero, np.random.default_rng(0))

    @pytest.mark.parametrize("make,count", [
        (lambda: chn.gen_pinching((2, 1)), 3),
        (lambda: chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=1), 4),
    ], ids=["pinching-21", "perturbed-22"])
    def test_degenerate_cluster_is_not_cut_into_singletons(self, make, count):
        # a singleton of a cluster of size d > 1 refines to a piece whose
        # corner has rank 0, so the cut into singletons, tried last, is refused
        alg = alg_of(make())
        w, vecs = np.linalg.eig(alg.lmul(np.random.default_rng(0).standard_normal(alg.dim)))
        coef = np.linalg.solve(vecs, np.real(alg.unit_coords))
        assert pj._spectral_cuts(np.sort(w.real))[-1][0] is None
        ranks = []
        for j in range(alg.dim):
            p = pj.DeltaProjection(*pj._cubic_refine(alg, np.real(vecs[:, j] * coef[j])))
            ranks.append(pj.compression(alg, p).rank)
        assert 0 in ranks
        comps, ratio = pj.minimal_projections(alg, np.random.default_rng(0))
        assert ratio >= pj.STAGE1_MIN_GAP_RATIO
        assert [c.rank for c in comps] == [1] * count


class TestCompression:
    def test_corner_of_block_algebra(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        c = pj.compression(alg, e11)
        assert c.rank == 1
        assert nl.operator_norm(c.matrix @ c.matrix - c.matrix) <= 1e-9

    def test_cross_block_vanishes(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        e33 = pj.DeltaProjection(unit_coords(alg, 2, 2), 0.0)
        c = pj.compression(alg, e11, e33)
        assert c.rank == 0
        assert pj.compression_rank(alg, e11, e33) == 0

    def test_identity_projection_gives_whole_algebra(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        eye = pj.DeltaProjection(alg.unit_coords, 0.0)
        c = pj.compression(alg, eye)
        assert c.rank == alg.dim
        assert nl.operator_norm(c.matrix - np.eye(alg.dim)) <= 1e-8

    def test_idempotent_and_adjoint_symmetry(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=5)
        alg = alg_of(pert)
        pm = sc.idempotentize(pert)
        eta = pm.eta.value
        p = pj.minimal_projections(alg, np.random.default_rng(2))[0][0].p
        assert p.delta <= 100 * eta
        q = pj.DeltaProjection(
            np.real(alg.unit_coords - p.coords), measure_q := pj.measure_delta(
                alg, np.real(alg.unit_coords - p.coords)
            ),
        )
        c_pq = pj.compression(alg, p, q)
        c_qp = pj.compression(alg, q, p)
        assert nl.operator_norm(c_pq.matrix @ c_pq.matrix - c_pq.matrix) <= 1e-9
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            lhs = np.conj(c_pq.apply(x))        # C_{P,Q}(X)^dag in coordinates
            rhs = c_qp.apply(np.conj(x))        # C_{Q,P}(X^dag)
            assert alg.norm(lhs - rhs) <= 1e-9 * alg.norm(x)
        # near inclusion for nested data: S_{P} elements are nearly fixed by C_{P,P}
        c_p = pj.compression(alg, p)
        for i in range(c_p.rank):
            v = c_p.image_coords[:, i]
            assert alg.norm(c_p.matrix @ v - v) <= 1e-8 * alg.norm(v)

    def test_recorded_lr_distance_small_for_exact(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        c = pj.compression(alg, e11)
        assert lr_distance_per_probe(alg, c) <= 1e-8


class TestCompressedProduct:
    def test_matrix_units(self):
        alg = alg_of(so.identity_channel(2))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        c_11 = pj.compression(alg, e11, e11)
        x = so.coords(alg, np.array([[0, 1], [0, 0]], dtype=complex))  # E12
        y = so.coords(alg, np.array([[0, 0], [1, 0]], dtype=complex))  # E21
        prod = c_11.apply(alg.star(x, y))  # X . Y = C_{P,R}(X * Y)
        e11_mat = alg.element(prod)
        np.testing.assert_allclose(e11_mat, np.diag([1.0, 0.0]), atol=1e-9)

    def test_norm_multiplicativity_through_one_dim_middle(self):
        alg = alg_of(so.identity_channel(3))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        e22 = pj.DeltaProjection(unit_coords(alg, 1, 1), 0.0)
        e33 = pj.DeltaProjection(unit_coords(alg, 2, 2), 0.0)
        c_12 = pj.compression(alg, e11, e22)
        c_23 = pj.compression(alg, e22, e33)
        c_13 = pj.compression(alg, e11, e33)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = c_12.apply(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
            y = c_23.apply(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
            prod = c_13.apply(alg.star(x, y))
            assert abs(alg.norm(prod) - alg.norm(x) * alg.norm(y)) <= 1e-8


class TestHilbertStructure:
    def test_single_corner(self):
        # S_P of P = E11 in B(C^2) is spanned by P, which C_P fixes
        alg = alg_of(so.identity_channel(2))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        c_p = pj.compression(alg, e11)
        assert c_p.rank == 1
        assert np.max(np.abs(c_p.apply(e11.coords) - e11.coords)) <= 1e-9
        assert abs(abs(np.vdot(c_p.image_coords[:, 0], e11.coords)) - 1.0) <= 1e-9

    def test_off_diagonal_corner(self):
        alg = alg_of(so.identity_channel(2))
        e11 = pj.DeltaProjection(unit_coords(alg, 0, 0), 0.0)
        e22 = pj.DeltaProjection(unit_coords(alg, 1, 1), 0.0)
        c_pq = pj.compression(alg, e11, e22)
        assert c_pq.rank == 1
        # the spanning vector is E12 up to phase
        vec = alg.element(c_pq.image_coords[:, 0])
        assert abs(abs(vec[0, 1]) - 1.0) <= 1e-8
        assert nl.operator_norm(vec) <= 1 + 1e-9

    def test_gram_norm_compatibility(self):
        # within the M_2 block of a perturbed (2,1) pinching algebra: the
        # corner scale s = <Q~, C_Q(x^dag * x)> / <Q~, Q~> of the spanning
        # vector x of S_(P,Q) is its squared norm to first order, and the
        # class map sends E_01 to x / sqrt(s)
        from almostidem import reconstruction as rc

        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-3, seed=7)
        alg = alg_of(pert)
        c1 = np.real(unit_coords(alg, 0, 0))
        c2 = np.real(unit_coords(alg, 1, 1))
        e11 = pj.DeltaProjection(c1, pj.measure_delta(alg, c1))
        e22 = pj.DeltaProjection(c2, pj.measure_delta(alg, c2))
        c_pq = pj.compression(alg, e11, e22)
        assert c_pq.rank == 1
        c_p, c_q = pj.compression(alg, e11), pj.compression(alg, e22)
        gram = _ref_gram(alg, c_pq, c_q)
        rng = np.random.default_rng(2)
        for _ in range(5):
            coeff = rng.standard_normal(len(gram)) + 1j * rng.standard_normal(len(gram))
            x = c_pq.image_coords @ coeff
            ip = np.real(coeff.conj() @ gram @ coeff)
            assert abs(ip - alg.norm(x) ** 2) <= 0.2 * alg.norm(x) ** 2
        v = rc.class_map(alg, [c_p, c_q])
        e01 = v.coeffs[:, v.spec.unit_columns()[1]]
        assert np.max(np.abs(e01 - c_pq.image_coords[:, 0] / np.sqrt(gram[0, 0].real))) <= 1e-12

    def test_one_dim_pairs_have_rank_at_most_one(self):
        alg = alg_of(so.identity_channel(3))
        units = [pj.DeltaProjection(unit_coords(alg, i, i), 0.0) for i in range(3)]
        for j in range(3):
            for k in range(3):
                assert pj.compression_rank(alg, units[j], units[k]) <= 1


class TestEquivalence:
    def test_block_partition(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        units = [pj.DeltaProjection(unit_coords(alg, i, i), 0.0) for i in range(3)]
        parts = pj.classify_equivalence(alg, units)
        assert parts == [[0, 1], [2]]

    def test_full_block_single_class(self):
        alg = alg_of(so.identity_channel(3))
        units = [pj.DeltaProjection(unit_coords(alg, i, i), 0.0) for i in range(3)]
        parts = pj.classify_equivalence(alg, units)
        assert parts == [[0, 1, 2]]

    def test_singleton(self):
        alg = alg_of(chn.gen_pinching((2, 1)))
        e33 = pj.DeltaProjection(unit_coords(alg, 2, 2), 0.0)
        assert pj.classify_equivalence(alg, [e33]) == [[0]]

    def test_dimension_additivity(self):
        # dim S_{P,Q} adds over the sub-projections of P and Q
        alg = alg_of(so.identity_channel(3))
        units = [pj.DeltaProjection(unit_coords(alg, i, i), 0.0) for i in range(3)]
        p = pj.DeltaProjection(units[0].coords + units[1].coords, 0.0)
        q = pj.DeltaProjection(units[1].coords + units[2].coords, 0.0)
        total = pj.compression_rank(alg, p, q)
        parts = sum(
            pj.compression_rank(alg, units[j], units[k]) for j in (0, 1) for k in (1, 2)
        )
        assert total == parts == 4


def lr_distance_per_probe(alg, c):
    """The sampled ||L_P R_P - C_P||, one probe and two norms at a time."""
    rng = np.random.default_rng(0)
    lr = alg.lmul(c.p.coords) @ alg.rmul(c.p.coords)
    dist = 0.0
    for _ in range(12):
        x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        dist = max(dist, alg.norm((lr - c.matrix) @ x) / alg.norm(x))
    return dist


def _ref_gram(alg, c_pq, c_q):
    """The Gram matrix <Q~, C_Q(Y_a^dag * Y_b)> / <Q~, Q~> over the basis Y
    of S_(P,Q), Q~ = C_Q(Q), one basis pair at a time."""
    q_tilde = c_q.apply(c_q.p.coords)
    qt_sq = np.vdot(q_tilde, q_tilde)
    basis = c_pq.image_coords
    k = basis.shape[1]
    gram = np.zeros((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            prod = c_q.apply(alg.star(np.conj(basis[:, a]), basis[:, b]))
            gram[a, b] = np.vdot(q_tilde, prod) / qt_sq
    return nl.hermitian_part(gram)


def _eigvals_rank(alg, p, q):
    """dim S_{P,Q} by the rank rule on the full ``eigvals`` spectrum of the
    compression generator."""
    lp, rq = alg.lmul(p.coords), alg.rmul(q.coords)
    return pj._indicator_rank(np.linalg.eigvals(0.5 * (lp @ rq + rq @ lp)))


def _pairwise_classes(alg, projections):
    """The pairwise loop on full ``eigvals`` spectra: one rank per diagonal,
    then per pair."""
    n = len(projections)
    for j, p in enumerate(projections):
        if _eigvals_rank(alg, p, p) != 1:
            raise pj.DegenerateGram(f"projection {j} is not one dimensional")
    groups = [{j} for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            rank = _eigvals_rank(alg, projections[j], projections[k])
            if rank > 1:
                raise pj.AmbiguousRank(
                    f"dim S_(P{j}, P{k}) = {rank} > 1 for one-dimensional projections")
            if rank == 1:
                gj = next(g for g in groups if j in g)
                gk = next(g for g in groups if k in g)
                if gj is not gk:
                    gj |= gk
                    groups.remove(gk)
    return sorted((sorted(g) for g in groups), key=lambda g: (-len(g), g[0]))


def _worker_inputs():
    """(channel, pipeline seed) of the 14 benchmark worker channels: the
    perturbed-d4 and exact-blocks ones, then the perturbed (3,2,1) ones."""
    from test_starcalc import _benchmark_inputs

    yield from _benchmark_inputs()
    for seed in (1, 0, 4):
        yield chn.gen_perturbed(chn.gen_pinching((3, 2, 1)), 1e-2, seed=seed), seed


class TestStackedClassification:
    """classify_equivalence takes every generator's spectrum in one stacked
    call; it must decide as the pairwise loop on full eigvals spectra does."""

    @pytest.mark.parametrize("case", range(14))
    def test_benchmark_families(self, case, monkeypatch):
        from almostidem import reconstruction as rc

        ch, seed = list(_worker_inputs())[case]
        pm = sc.idempotentize(ch)
        alg = sc.extract_algebra(pm)
        # the defects, as the pipeline measures them
        alg.defects = sc.measure_defects(alg, pm.distance_cb.upper)
        seen = []
        classify = pj.classify_equivalence

        def recorded(alg, family):
            seen.append((classify(alg, family), _pairwise_classes(alg, family)))
            return seen[-1][0]

        monkeypatch.setattr(pj, "classify_equivalence", recorded)
        rc.reconstruct(alg, seed=seed)
        assert len(seen) == 1
        got, want = seen[0]
        assert got == want

    @pytest.mark.parametrize("order, exc, message", [
        ((0, 1, 2), pj.AmbiguousRank, "1 eigenvalue indicator(s) inside the gray zone"),
        ((0, 2, 1), pj.DegenerateGram, "projection 1 is not one dimensional"),
    ])
    def test_first_failure_is_the_loops(self, order, exc, message):
        # a grey-zone member (E22 / 2) and a degenerate one (E33 + E44)
        alg = alg_of(chn.gen_pinching((2, 2)))
        e11 = unit_coords(alg, 0, 0)
        members = [e11, 0.5 * unit_coords(alg, 1, 1),
                   unit_coords(alg, 2, 2) + unit_coords(alg, 3, 3)]
        family = [pj.DeltaProjection(members[i], 0.0) for i in order]
        with pytest.raises(exc) as got:
            pj.classify_equivalence(alg, family)
        with pytest.raises(exc) as want:
            _pairwise_classes(alg, family)
        assert message in str(want.value)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_pair_rank_above_one_is_refused(self, monkeypatch):
        # the rule of compression_rank on every pair: a generator with two
        # indicators at 1 is refused with the loop's message
        alg = alg_of(chn.gen_pinching((2, 1)))
        units = [pj.DeltaProjection(unit_coords(alg, i, i), 0.0) for i in range(3)]
        eigvalsh = np.linalg.eigvalsh

        def doubled(a):
            # the spectra of the Hermitian parts, which decide these
            # near-Hermitian generators without an eigvals fallback
            lam = eigvalsh(a)
            lam[3:] = 0.0  # the pairs (0, 1), (0, 2), (1, 2) follow the diagonals
            lam[3:, :2] = 1.0
            return lam

        monkeypatch.setattr(np.linalg, "eigvalsh", doubled)
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: pytest.fail("fallback taken"))
        with pytest.raises(pj.AmbiguousRank) as info:
            pj.classify_equivalence(alg, units)
        assert str(info.value) == "dim S_(P0, P1) = 2 > 1 for one-dimensional projections"

    def test_fallback_decides_where_the_hermitian_part_cannot(self, monkeypatch):
        # G = diag(1, 0, 0) plus a nilpotent coupling of the two zero
        # eigenvalues: its spectrum is 1, 0, 0, but its Hermitian part has
        # the eigenvalues 1 and +-0.3, one of them in the gray zone
        g = np.zeros((3, 3))
        g[0, 0], g[1, 2] = 1.0, 0.6
        with pytest.raises(pj.AmbiguousRank):
            pj._indicator_rank(np.linalg.eigvalsh(0.5 * (g + g.T)))
        gens = np.stack([g, np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])])
        want = [pj._indicator_rank(np.linalg.eigvals(x)) for x in gens]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a))
        spectra = pj._indicator_spectra(gens)
        assert calls == [1]  # only the coupled generator falls back
        assert [pj._indicator_rank(lam) for lam in spectra] == want == [1, 1, 2]


def _ref_spectral_cuts(w):
    """:func:`projections._spectral_cuts` with ``np.unique`` for the distinct
    gaps and the cluster-size counts, as it was written first."""
    gaps = np.diff(w)
    cuts = []
    for g in np.unique(gaps)[1:]:
        edges = np.concatenate([[0], np.flatnonzero(gaps >= g) + 1, [len(w)]])
        sizes, counts = np.unique(np.diff(edges), return_counts=True)
        if np.any(counts % sizes):
            continue
        kept = gaps[gaps < g].max()
        ratio = float(g / kept) if kept > 0 else np.inf
        if ratio >= pj.STAGE1_MIN_GAP_RATIO:
            cuts.append((ratio, edges))
    cuts.sort(key=lambda cut: -cut[0])
    return cuts + [(None, np.arange(len(w) + 1))]


def _assert_same_cuts(w):
    got, want = pj._spectral_cuts(w), _ref_spectral_cuts(w)
    assert [r for r, _ in got] == [r for r, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


class TestSpectralCuts:
    """The cuts from a sorted dedupe and ``np.bincount`` are those of
    ``np.unique``, which imports numpy.ma on first use."""

    @pytest.mark.parametrize("case", range(14))
    def test_benchmark_spectra(self, case, monkeypatch):
        ch, seed = list(_worker_inputs())[case]
        alg = alg_of(ch)
        spectra = []
        cuts = pj._spectral_cuts
        monkeypatch.setattr(pj, "_spectral_cuts", lambda w: spectra.append(w) or cuts(w))
        pj.minimal_projections(alg, np.random.default_rng(seed))
        monkeypatch.undo()
        assert spectra
        for w in spectra:
            _assert_same_cuts(w)

    @pytest.mark.parametrize("w", [
        [0.0], [0.0, 1.0], [0.0, 0.0, 0.0], np.arange(6.0),
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0],
        [0.0, 1e-9, 1.0, 1.0 + 1e-9, 2.0, 2.0 + 1e-9, 3.0, 3.0 + 2e-9],
        [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 5.0, 5.0, 5.0, 5.0],
        [-0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
    ], ids=lambda w: f"n{len(w)}")
    def test_tied_gaps(self, w):
        _assert_same_cuts(np.asarray(w, dtype=float))

    def test_random_integer_spectra(self):
        # small integer spectra: many tied gaps and many valid patterns
        rng = np.random.default_rng(0)
        for _ in range(300):
            _assert_same_cuts(np.sort(rng.integers(0, 6, rng.integers(1, 12)).astype(float)))
