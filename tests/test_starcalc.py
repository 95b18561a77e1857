import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import starcalc as sc

import structure_oracle as so


P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def two_level(eta: float) -> chn.Channel:
    c = np.sqrt(eta * (1 - eta))
    g0 = np.array([[1 - eta, c], [c, eta]], dtype=complex)
    g1 = np.array([[0, 0], [0, 1]], dtype=complex)
    cols = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
        cols[:, idx] = nl.vec(P0 * np.trace(g0 @ x) + P1 * np.trace(g1 @ x))
    return chn.Channel(cols, 2, 2)


def closed_form_tilde(eta: float) -> np.ndarray:
    c = np.sqrt(eta * (1 - eta))
    g0 = np.array([[1 - eta, c], [c, eta]], dtype=complex)
    g1 = np.array([[0, 0], [0, 1]], dtype=complex)
    gamma = (g0 - eta * g1) / (1 - eta)
    cols = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
        cols[:, idx] = nl.vec(P0 * np.trace(gamma @ x) + P1 * np.trace(g1 @ x))
    return cols


class TestIdempotentize:
    def test_exact_idempotent_unchanged(self):
        ch = chn.gen_pinching((2, 1))
        pm = sc.idempotentize(ch)
        assert nl.operator_norm(pm.superop - ch.superop) <= 1e-10
        assert pm.residual <= 1e-9

    def test_two_level_closed_form(self):
        for eta in (0.01, 0.04, 0.1):
            pm = sc.idempotentize(two_level(eta))
            assert np.max(np.abs(pm.superop - closed_form_tilde(eta))) <= 1e-8
            assert pm.residual <= 1e-9
            # the extracted gamma is not positive
            gamma = (np.array([[1 - eta, np.sqrt(eta * (1 - eta))],
                               [np.sqrt(eta * (1 - eta)), eta]])
                     - eta * np.diag([0.0, 1.0])) / (1 - eta)
            assert np.linalg.eigvalsh(gamma)[0] < -1e-6

    def test_unitality_pinned(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=0)
        pm = sc.idempotentize(pert)
        eye = np.eye(4, dtype=complex)
        assert nl.operator_norm(chn.apply_superop(pm.superop, eye) - eye) <= 1e-14
        assert pm.residual <= 1e-9

    def test_involution_commutes(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=3)
        pm = sc.idempotentize(pert)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            image = chn.apply_superop(pm.superop, x)
            assert nl.operator_norm(chn.apply_superop(pm.superop, x.conj().T)
                                    - image.conj().T) <= 1e-10

    def test_eta_too_large(self):
        ch = chn.gen_random_ucp(3, 3, seed=4)  # far from idempotent
        with pytest.raises(sc.EtaTooLarge):
            sc.idempotentize(ch)

    def test_distance_is_order_eta(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=1)
        pm = sc.idempotentize(pert)
        assert pm.distance_cb.value <= 10 * pm.eta.value


class TestExtractAlgebra:
    def test_identity_channel_full_algebra(self):
        alg = sc.extract_algebra(sc.idempotentize(so.identity_channel(2)))
        assert alg.dim == 4

    def test_pinching_block_algebra(self):
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((2, 1))))
        assert alg.dim == 5

    def test_two_level_dim(self):
        alg = sc.extract_algebra(sc.idempotentize(two_level(0.04)))
        assert alg.dim == 2

    def test_basis_invariants(self):
        pm = sc.idempotentize(chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=2))
        alg = sc.extract_algebra(pm)
        n = alg.dim
        for i, b in enumerate(alg.basis):
            assert nl.operator_norm(b - b.conj().T) <= 1e-10
            assert nl.operator_norm(chn.apply_superop(pm.superop, b) - b) <= 1e-9
            for jdx in range(i + 1, n):
                assert abs(so.hs_inner(b, alg.basis[jdx])) <= 1e-10
        # star tensor consistency: products match the map applied to products
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            via_tensor = alg.element(alg.star(x, y))
            direct = chn.apply_superop(pm.superop, alg.element(x) @ alg.element(y))
            assert nl.operator_norm(via_tensor - direct) <= 1e-10 * max(
                1.0, nl.operator_norm(direct)
            )
        # involution symmetry is exact at the tensor level
        t = alg.star_tensor
        assert np.max(np.abs(t - np.conj(np.transpose(t, (1, 0, 2))))) == 0.0

    def test_unit_is_exact(self):
        alg = sc.extract_algebra(
            sc.idempotentize(chn.gen_perturbed(chn.gen_pinching((2, 2)), 5e-3, seed=5))
        )
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            assert alg.norm(alg.star(x, alg.unit_coords) - x) <= 1e-12 * alg.norm(x)
            assert alg.norm(alg.star(alg.unit_coords, x) - x) <= 1e-12 * alg.norm(x)


class TestDefects:
    def test_exact_algebra_defects_vanish(self):
        pm = sc.idempotentize(chn.gen_pinching((2, 1)))
        alg = sc.extract_algebra(pm)
        rep = sc.measure_defects(alg, pm.distance_cb.upper)
        assert max(rep.eps_submult, rep.eps_assoc, rep.eps_cstar, rep.eps_unit) <= 1e-9
        # delta = 0: each upper bound is the roundoff allowance 4 (n + 3 d) eps_mach
        assert pm.distance_cb.upper == 0.0
        assert rep.submult_upper == rep.cstar_upper == 4 * (5 + 9) * np.finfo(float).eps

    def test_perturbed_defects_scale_with_eta(self):
        pin = chn.gen_pinching((2, 2))
        worst_c = 0.0
        for t in (1e-3, 1e-2):
            pert = chn.gen_perturbed(pin, t, seed=7)
            pm = sc.idempotentize(pert)
            alg = sc.extract_algebra(pm)
            rep = sc.measure_defects(alg, pm.distance_cb.upper)
            eta = pm.eta.value
            worst_c = max(worst_c, rep.eps_assoc / eta, rep.cstar_upper / eta,
                          rep.submult_upper / eta)
        assert worst_c <= 100.0

    def test_extension_defects_comparable(self):
        # the certified upper bounds hold on every amplification: sampled
        # triples of M_2 (x) A and M_3 (x) A stay below them
        pert = chn.gen_perturbed(chn.gen_pinching((2, 1)), 1e-2, seed=9)
        pm = sc.idempotentize(pert)
        alg = sc.extract_algebra(pm)
        rep = sc.measure_defects(alg, pm.distance_cb.upper)
        rng = np.random.default_rng(0)
        for n_ext in (2, 3):
            submult, _, cstar = _ref_extension_defects(alg, n_ext, 40, rng)
            assert submult <= rep.submult_upper and cstar <= rep.cstar_upper, n_ext

    def test_direct_sum_norm_identity(self):
        # block-diagonal amplified elements have max-norm of the blocks
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((2, 1))))
        rng = np.random.default_rng(3)
        n = alg.dim
        for _ in range(5):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            block = np.zeros((2, 2, n), dtype=complex)
            block[0, 0] = x
            block[1, 1] = y
            mats = np.einsum("abi,icd->abcd", block, alg.basis)
            big = mats.transpose(0, 2, 1, 3).reshape(2 * alg.ambient_dim, 2 * alg.ambient_dim)
            assert abs(nl.operator_norm(big) - max(alg.norm(x), alg.norm(y))) <= 1e-10


class TestResidualChecks:
    def test_choi_residual_exact(self):
        assert so.choi_residual_check(chn.gen_pinching((2, 1))) <= 1e-7

    def test_choi_residual_sqrt_eta_scaling(self):
        pin = chn.gen_pinching((3, 2, 1))
        vals = {}
        for t in (1e-3, 1e-2):
            pert = chn.gen_perturbed(pin, t, seed=5)
            m = pert.superop
            eta = nl.operator_norm(m @ m - m)  # cheap proxy, same scaling
            vals[t] = (so.choi_residual_check(pert, samples=30), eta)
        slope = np.log(vals[1e-2][0] / vals[1e-3][0]) / np.log(
            vals[1e-2][1] / vals[1e-3][1]
        )
        assert 0.35 <= slope <= 0.65

    def test_phi_associativity_order_eta(self):
        pert = chn.gen_perturbed(chn.gen_pinching((2, 2)), 1e-2, seed=6)
        m = pert.superop
        eta = nl.operator_norm(m @ m - m)
        left, right = so.phi_associativity_defect(pert, samples=20)
        assert left <= 100 * eta
        assert right <= 100 * eta


# Per-sample loop forms of the defects.  The basis and unit loops are the
# references of the batched sweeps in starcalc; the sampled loops on M_1,
# M_2 and M_3 are the test oracle of the certified upper bounds, which no
# sampled value may exceed.  Each returns the (submult, assoc, cstar) maxima.

def _ref_star(alg, x, y):
    return np.einsum("i,j,ijk->k", x, y, alg.star_tensor)


def _ref_gauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ref_basis_defects(alg):
    n = alg.dim
    t = alg.star_tensor
    basis = alg.basis
    basis_norms = np.array([alg.norm(e) for e in np.eye(n)])
    prod = np.einsum("ijk,kab->ijab", t, basis)
    sv = np.array([[nl.operator_norm(prod[i, j]) for j in range(n)] for i in range(n)])
    submult = float(np.max(sv / np.outer(basis_norms, basis_norms) - 1).clip(0))
    cstar = 0.0
    for i in range(n):
        e_i = np.eye(n)[i]
        cstar = max(cstar, 1 - alg.norm(_ref_star(alg, e_i, e_i)) / basis_norms[i] ** 2)
    left = np.einsum("ijm,mkl->ijkl", t, t)
    right = np.einsum("jkm,iml->ijkl", t, t)
    mats = np.einsum("ijkl,lab->ijkab", left - right, basis)
    sv3 = np.linalg.svd(mats, compute_uv=False)[..., 0]
    denom3 = np.einsum("i,j,k->ijk", basis_norms, basis_norms, basis_norms)
    return submult, float(np.max(sv3 / denom3)), max(cstar, 0.0)


def _counting_kernel(monkeypatch):
    """The number of matrices of each ``numlin.operator_norms`` call, in a
    list that fills as the calls come."""
    rows = []
    kernel = nl.operator_norms
    monkeypatch.setattr(nl, "operator_norms",
                        lambda x: rows.append(int(np.prod(np.shape(x)[:-2]))) or kernel(x))
    return rows


def _full_svd_basis_defects(alg, halved=True):
    """The basis sweep with every norm taken, one stacked call per first
    index of the associator: the reference the pruned sweep must match
    exactly.  ``halved`` takes the pairs i <= j and triples k >= i, as
    ``_basis_defects`` does; ``halved=False`` takes all of them."""
    n = alg.dim
    t = alg.star_tensor
    basis_norms = alg.norms(np.eye(n))
    denom = np.outer(basis_norms, basis_norms)
    pairs = np.triu_indices(n) if halved else tuple(np.indices((n, n)).reshape(2, -1))
    sv = alg.norms(t[pairs])
    submult = float(np.max(sv / denom[pairs] - 1).clip(0))
    diag = alg.norms(t[np.arange(n), np.arange(n)])
    cstar = float(max(np.max(1 - diag / basis_norms**2), 0.0))
    assoc = 0.0
    for i in range(n):
        k0 = i if halved else 0
        left = t[i] @ t[:, k0:].reshape(n, -1)
        right = t[:, k0:].reshape(-1, n) @ t[i]
        sv3 = alg.norms(left.reshape(-1, n) - right).reshape(n, n - k0)
        assoc = max(assoc, float(np.max(sv3 / (basis_norms[i] * denom[:, k0:]))))
    return submult, assoc, cstar


def _ref_sampled_defects(alg, samples, rng):
    """Worst defects over ``samples`` random triples of A, through the star tensor."""
    worst = np.zeros(3)
    for _ in range(samples):
        x, y, z = (_ref_gauss(rng, alg.dim) for _ in range(3))
        nx, ny, nz = alg.norm(x), alg.norm(y), alg.norm(z)
        xy = _ref_star(alg, x, y)
        assoc = alg.norm(_ref_star(alg, xy, z) - _ref_star(alg, x, _ref_star(alg, y, z)))
        cstar = 1 - alg.norm(_ref_star(alg, np.conj(x), x)) / nx**2
        worst = np.maximum(worst, [alg.norm(xy) / (nx * ny) - 1, assoc / (nx * ny * nz), cstar])
    return worst


def _block_matrices(alg, coords):
    """Matrices on C^m (x) H of stacked M_m (x) A coordinate blocks (..., m, m, dim)."""
    m, d = coords.shape[-2], alg.ambient_dim
    blocks = np.einsum("...abi,icd->...acbd", coords, alg.basis)
    return blocks.reshape(*coords.shape[:-3], m * d, m * d)


def _ref_extension_defects(alg, n_ext, samples, rng):
    """Worst defects over ``samples`` random triples of M_n_ext (x) A, normed
    as operators on C^n_ext (x) H."""

    def ext_star(xc, yc):
        return np.einsum("abi,bcj,ijk->ack", xc, yc, alg.star_tensor)

    def ext_norm(xc):
        return nl.operator_norm(_block_matrices(alg, xc))

    worst = np.zeros(3)
    for _ in range(samples):
        xc, yc, zc = (_ref_gauss(rng, (n_ext, n_ext, alg.dim)) for _ in range(3))
        nx, ny, nz = ext_norm(xc), ext_norm(yc), ext_norm(zc)
        xy = ext_star(xc, yc)
        assoc = ext_norm(ext_star(xy, zc) - ext_star(xc, ext_star(yc, zc)))
        xdx = ext_star(np.conj(np.transpose(xc, (1, 0, 2))), xc)
        worst = np.maximum(worst, [ext_norm(xy) / (nx * ny) - 1, assoc / (nx * ny * nz),
                                   1 - ext_norm(xdx) / nx**2])
    return worst


def _ref_unit_defect(alg):
    n = alg.dim
    u = alg.unit_coords
    worst = abs(alg.norm(u) - 1.0)
    for e_i in np.eye(n):
        nrm = alg.norm(e_i)
        worst = max(worst, alg.norm(_ref_star(alg, e_i, u) - e_i) / nrm,
                    alg.norm(_ref_star(alg, u, e_i) - e_i) / nrm)
    return worst


def _ref_measure_defects(alg, delta):
    """(submult, assoc, cstar, unit, submult upper, cstar upper)."""
    allowance = 4 * (alg.dim + 3 * alg.ambient_dim) * 2.0**-52
    return (*_ref_basis_defects(alg), _ref_unit_defect(alg),
            delta + allowance, 3 * delta - delta**2 + allowance)


def _ref_product_tensor(pm, basis):
    """The star tensor of ``extract_algebra``, one product at a time."""
    n = len(basis)
    stack_b = np.stack([nl.vec(b) for b in basis], axis=1)
    tensor = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            prod = chn.apply_superop(pm.superop, basis[i] @ basis[j])
            tensor[i, j, :] = stack_b.conj().T @ nl.vec(prod)
    return 0.5 * (tensor + np.conj(np.transpose(tensor, (1, 0, 2))))


def _depolarizing(d):
    vec_i = nl.vec(np.eye(d, dtype=complex))
    return chn.Channel(np.outer(vec_i, vec_i.conj()) / d, d, d)


_ALGEBRAS = {
    "pinching-431": lambda: chn.gen_pinching((4, 3, 1)),
    "perturbed-31": lambda: chn.gen_perturbed(chn.gen_pinching((3, 1)), 1e-2, seed=4),
    "dim-1": lambda: _depolarizing(2),
}


@pytest.fixture(scope="module", params=sorted(_ALGEBRAS))
def projection(request):
    return sc.idempotentize(_ALGEBRAS[request.param]())


@pytest.fixture(scope="module")
def algebra(projection):
    return sc.extract_algebra(projection)


class TestBatchedDefects:
    def test_algebra_sizes(self, algebra):
        assert algebra.dim in (1, 10, 26)

    @pytest.mark.parametrize("name", sorted(_ALGEBRAS))
    def test_product_tensor_matches_loop(self, name):
        pm = sc.idempotentize(_ALGEBRAS[name]())
        alg = sc.extract_algebra(pm)
        want = _ref_product_tensor(pm, alg.basis)
        assert np.max(np.abs(alg.star_tensor - want)) <= 1e-12

    def test_basis_defects_match_loop(self, algebra):
        got, want = sc._basis_defects(algebra), _ref_basis_defects(algebra)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    def test_basis_defects_equal_full_svd_sweep(self, algebra, monkeypatch):
        want = _full_svd_basis_defects(algebra)
        rows = _counting_kernel(monkeypatch)
        got = sc._basis_defects(algebra)
        monkeypatch.undo()
        assert got == want
        if algebra.dim == 26:
            # the full sweep takes n + n^2 + n^3 = 18278 norms
            assert sum(rows) <= 1000

    def test_halved_sweeps_equal_full_sweeps(self, algebra):
        # B_j * B_i is the adjoint of B_i * B_j, and the associator of
        # (k, j, i) minus the adjoint of that of (i, j, k), so the pairs
        # i <= j and the triples k >= i have the norms of all of them
        t = algebra.star_tensor
        assert np.array_equal(t, np.conj(np.transpose(t, (1, 0, 2))))
        got = _full_svd_basis_defects(algebra)
        want = _full_svd_basis_defects(algebra, halved=False)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-14

    def test_unit_defect_matches_loop(self, algebra):
        assert abs(sc._unit_defect(algebra) - _ref_unit_defect(algebra)) <= 1e-12
        # an inexact, non-Hermitian unit, so that the left and right unit
        # defects differ
        rng = np.random.default_rng(11)
        bad = sc.EpsilonAlgebra(algebra.ambient_dim, algebra.basis,
                                algebra.unit_coords + 0.01 * _ref_gauss(rng, algebra.dim),
                                algebra.star_tensor)
        assert abs(sc._unit_defect(bad) - _ref_unit_defect(bad)) <= 1e-12

    @pytest.mark.parametrize("samples,extension_n,seed", [
        (40, 2, 30), (0, 2, 30), (40, 2, 0), (40, 1, 30), (0, 1, 0),
    ])
    def test_measure_defects_match_loop(self, projection, algebra, samples, extension_n, seed):
        for delta in (0.0, 1e-3, 0.3):
            rep = sc.measure_defects(algebra, delta)
            got = (rep.eps_submult, rep.eps_assoc, rep.eps_cstar, rep.eps_unit,
                   rep.submult_upper, rep.cstar_upper)
            assert np.max(np.abs(np.subtract(got, _ref_measure_defects(algebra, delta)))) <= 1e-12
        # the oracle's sampled triples of A and of M_extension_n (x) A stay
        # under the upper bounds read off the algebra's own distance_cb
        rep = sc.measure_defects(algebra, projection.distance_cb.upper)
        rng = np.random.default_rng(seed)
        for m in sorted({1, extension_n}):
            if m == 1:
                submult, _, cstar = _ref_sampled_defects(algebra, samples, rng)
            else:
                submult, _, cstar = _ref_extension_defects(algebra, m, samples, rng)
            assert submult <= rep.submult_upper, m
            assert cstar <= rep.cstar_upper, m

    def test_star_matches_einsum(self, algebra):
        rng = np.random.default_rng(9)
        n = algebra.dim
        x, y = _ref_gauss(rng, (5, n)), _ref_gauss(rng, (5, n))
        stacked = algebra.star(x, y)
        outer = algebra.star(x[:, None, :], y[None, :, :])
        for i in range(5):
            one = algebra.star(x[i], y[i])
            assert one.shape == (n,)
            assert np.max(np.abs(one - _ref_star(algebra, x[i], y[i]))) <= 1e-12
            assert np.max(np.abs(stacked[i] - one)) <= 1e-12
            for j in range(5):
                assert np.max(np.abs(outer[i, j] - _ref_star(algebra, x[i], y[j]))) <= 1e-12


def _benchmark_inputs():
    """(channel, pipeline seed) of the perturbed-d4 and exact-blocks benchmark inputs."""
    for dims, t, seed in [((3, 1), 1e-3, 0), ((2, 2), 1e-2, 1), ((3, 1), 5e-2, 2),
                          ((2, 2), 1e-3, 3), ((3, 1), 1e-2, 4), ((2, 2), 5e-2, 5)]:
        yield chn.gen_perturbed(chn.gen_pinching(dims), t, seed=seed), seed
    for dims, seed in [((4, 3, 1), 0), ((5, 1), 1), ((4, 2), 2)]:
        yield chn.gen_pinching(dims), seed
    for pairs, dim, seed in [(((2, 2), (1, 3)), 7, 3), (((2, 3), (1, 2)), 8, 4)]:
        yield chn.gen_random_idempotent(pairs, dim, seed), seed


def _bracket_inputs():
    """The benchmark inputs and the eta edge, (3,1) at t=0.15 seed 1."""
    yield from _benchmark_inputs()
    yield chn.gen_perturbed(chn.gen_pinching((3, 1)), 0.15, seed=1), 1


class TestCertifiedBrackets:
    """The upper bounds of ``eps_submult`` and ``eps_cstar`` read off
    ``distance_cb``: above the basis sweep, and above every sampled value on
    M_1, M_2 and M_3 of the test oracle."""

    def test_upper_bounds_formula(self):
        eps = np.finfo(float).eps
        assert sc.defect_upper_bounds(0.0, 26, 8) == (200 * eps, 200 * eps)
        submult, cstar = sc.defect_upper_bounds(0.1, 10, 4)
        assert submult == 0.1 + 88 * eps and cstar == 3 * 0.1 - 0.1**2 + 88 * eps

    @pytest.mark.parametrize("case", range(12))
    def test_brackets_hold(self, case):
        ch, seed = list(_bracket_inputs())[case]
        pm = sc.idempotentize(ch)
        alg = sc.extract_algebra(pm)
        rep = sc.measure_defects(alg, pm.distance_cb.upper)
        assert rep.eps_submult <= rep.submult_upper
        assert rep.eps_cstar <= rep.cstar_upper
        if 6 <= case < 11:  # exact input: delta is roundoff, the allowance carries it
            assert pm.distance_cb.upper <= 1e-14
        rng = np.random.default_rng(seed)
        for m, samples in ((1, 100), (2, 50), (3, 30)):
            if m == 1:
                submult, _, cstar = _ref_sampled_defects(alg, samples, rng)
            else:
                submult, _, cstar = _ref_extension_defects(alg, m, samples, rng)
            assert submult <= rep.submult_upper, m
            assert cstar <= rep.cstar_upper, m


class TestMaxNorm:
    """``max_norm`` skips SVDs by the Frobenius bound; it must return
    ``max(floor, (norms(...) / den).max())`` bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stacks(self, algebra, seed):
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((300, algebra.dim)) + 1j * rng.standard_normal(
            (300, algebra.dim))
        coords *= rng.uniform(0.1, 2.0, (300, 1))  # spread the Frobenius norms
        assert algebra.max_norm(coords) == algebra.norms(coords).max()
        # per-row denominators and a floor: max(floor, (norms / den).max())
        den = rng.uniform(0.5, 3.0, 300)
        top = (algebra.norms(coords) / den).max()
        for floor in (0.0, 0.5 * top, top, 2.0 * top):
            assert algebra.max_norm(coords, den, floor) == max(floor, top)

    def test_skips_rows_that_cannot_set_the_maximum(self, monkeypatch):
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((4, 3, 1))))
        assert (alg.dim, alg.ambient_dim) == (26, 8)
        rng = np.random.default_rng(3)
        coords = rng.standard_normal((676, 26)) * np.geomspace(1.0, 1e-3, 676)[:, None]
        norm_rows = _counting_kernel(monkeypatch)
        got = alg.max_norm(coords)
        monkeypatch.undo()
        assert got == alg.norms(coords).max()
        assert 0 < sum(norm_rows) < 676

    def test_rank_one_rows_tie(self):
        # ||X|| = ||X||_F for rank one: every bound is tight and equal
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((4, 3, 1))))
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(40):
            u = np.zeros(8, dtype=complex)
            v = np.zeros(8, dtype=complex)
            u[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rows.append(so.coords(alg, np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v))))
        coords = np.array(rows)
        assert alg.max_norm(coords) == alg.norms(coords).max()
        assert abs(alg.max_norm(coords) - 1.0) <= 1e-12
        # rows of equal weight tie exactly
        den = np.repeat([1.0, 0.5, 2.0, 0.5], 10)
        top = (alg.norms(coords) / den).max()
        for floor in (0.0, top, 1.5):
            assert alg.max_norm(coords, den, floor) == max(floor, top)
        assert abs(top - 2.0) <= 1e-12

    def test_zero_and_single_rows(self, algebra):
        zeros = np.zeros((5, algebra.dim), dtype=complex)
        assert algebra.max_norm(zeros) == algebra.norms(zeros).max() == 0.0
        den = np.arange(1.0, 6.0)
        for floor in (0.0, 0.3):
            assert algebra.max_norm(zeros, den, floor) == max(
                floor, (algebra.norms(zeros) / den).max()) == floor
        one = np.random.default_rng(5).standard_normal((1, algebra.dim))
        assert algebra.max_norm(one) == algebra.norms(one).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows(self, algebra, bad):
        coords = np.random.default_rng(6).standard_normal((20, algebra.dim))
        coords[7, 0] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                algebra.norms(coords).max()
            with pytest.raises(np.linalg.LinAlgError):
                algebra.max_norm(coords)
            with pytest.raises(np.linalg.LinAlgError):
                algebra.max_norm(coords, np.linspace(1.0, 3.0, 20), 0.5)

    def test_floor_above_every_bound_takes_no_svd(self, monkeypatch):
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((4, 3, 1))))
        coords = np.random.default_rng(3).standard_normal((100, alg.dim))
        den = np.linspace(1.0, 2.0, 100)
        # above the bound sqrt(lam_max(G)) ||c|| / den of every row
        floor = float((np.linalg.norm(coords, axis=1) / den).max()) * 1.1
        calls = _counting_kernel(monkeypatch)
        got = alg.max_norm(coords, den, floor)
        monkeypatch.undo()
        assert got == floor == max(floor, (alg.norms(coords) / den).max())
        assert not calls

    def test_builds_matrices_only_for_the_rows_it_takes(self, monkeypatch):
        # the Frobenius bounds come from the coordinates: every row passed to
        # _matrices is a row whose norm is taken
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((4, 3, 1))))
        rng = np.random.default_rng(3)
        coords = rng.standard_normal((676, 26)) * np.geomspace(1.0, 1e-3, 676)[:, None]
        want = alg.norms(coords).max()
        built = []
        matrices = alg._matrices
        monkeypatch.setattr(alg, "_matrices", lambda c: built.append(len(c)) or matrices(c))
        norm_rows = _counting_kernel(monkeypatch)
        got = alg.max_norm(coords)
        monkeypatch.undo()
        assert got == want
        assert 0 < sum(built) == sum(norm_rows) < 676

    def test_gram_of_an_orthonormal_basis_is_the_identity(self, algebra):
        assert algebra.basis_gram is algebra.basis_gram
        assert np.max(np.abs(algebra.basis_gram - np.eye(algebra.dim))) <= 1e-14


def _svd_ext_norms(alg, x):
    """Top singular value of each M_m (x) A element, built block by block."""
    m = x.shape[-2]
    flat = x.reshape(-1, m, m, alg.dim)
    mats = [np.block([[alg.element(e[a, b]) for b in range(m)] for a in range(m)]) for e in flat]
    return np.linalg.svd(np.array(mats), compute_uv=False)[:, 0].reshape(x.shape[:-3])


def _ext_norms(alg, x):
    """Operator norms of stacked M_m (x) A coordinate blocks, as the test
    oracle takes them."""
    return nl.operator_norms(_block_matrices(alg, x))


class TestGramNorms:
    """The norms of amplified elements, sqrt(lam_max(X^dag X)) of the
    matrices ``_block_matrices`` builds, must agree with the SVD to 1e-13
    relative, over the whole range of scales."""

    @staticmethod
    def _stack(alg, m, rng):
        """Random, rank-one, zero and clustered-top M_m (x) A elements."""
        d = alg.ambient_dim
        elems = [_ref_gauss(rng, (m, m, alg.dim)) for _ in range(4)]
        # rank one: alpha (x) u v^dag with u, v inside one block of the algebra
        u, v = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
        u[:2], v[:2] = _ref_gauss(rng, 2), _ref_gauss(rng, 2)
        alpha = np.outer(_ref_gauss(rng, m), _ref_gauss(rng, m))
        elems.append(alpha[:, :, None] * so.coords(alg, np.outer(u, v.conj())))
        elems.append(np.zeros((m, m, alg.dim), dtype=complex))
        # clustered top: I (x) diag with its two largest entries 1e-10 apart,
        # and a unitary multiple of the unit (every singular value equal)
        top = np.linspace(0.2, 1.0, d)
        top[-2] = 1.0 - 1e-10
        diag = so.coords(alg, np.diag(top).astype(complex))
        elems.append(np.eye(m)[:, :, None] * diag)
        elems.append(nl.random_unitary(m, rng)[:, :, None] * alg.unit_coords)
        return np.array(elems)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_agrees_with_svd(self, m, scale):
        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((4, 3, 1))))
        x = self._stack(alg, m, np.random.default_rng(20 + m)) * scale
        got, want = _ext_norms(alg, x), _svd_ext_norms(alg, x)
        assert got.shape == want.shape == (8,)
        assert got[5] == want[5] == 0.0
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        # stacked with leading axes
        both = _ext_norms(alg, np.stack([x[:4], x[4:]]))
        assert np.all(np.abs(both.ravel() - want) <= 1e-13 * want)

    @pytest.mark.parametrize("m", [1, 2])
    def test_agrees_with_svd_on_every_algebra(self, algebra, m):
        x = _ref_gauss(np.random.default_rng(30 + m), (3, 5, m, m, algebra.dim))
        got, want = _ext_norms(algebra, x), _svd_ext_norms(algebra, x)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n_ext", [1, 2])
    def test_non_finite_coordinate_raises(self, algebra, bad, n_ext):
        # as the stacked SVD does: eigvalsh would return NaN silently
        x = _ref_gauss(np.random.default_rng(1), (10, 3, n_ext, n_ext, algebra.dim))
        x[3, 1, 0, 0, 0] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                _ext_norms(algebra, x)

    def test_non_finite_basis_raises(self):
        alg = sc.extract_algebra(sc.idempotentize(_depolarizing(2)))
        bad = sc.EpsilonAlgebra(alg.ambient_dim, np.full((1, 2, 2), np.nan),
                                alg.unit_coords, alg.star_tensor)
        with np.errstate(invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                sc.measure_defects(bad, 0.0)
