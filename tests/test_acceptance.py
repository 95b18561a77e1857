"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from almostidem import numlin as nl
from almostidem import channels as chn
from almostidem import cbnorm
from almostidem import starcalc as sc
from almostidem import reconstruction as rc
from almostidem import factorization as fa
from almostidem.cli import two_level_example

import sdp_oracle
import structure_oracle as so


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} -- {detail}")
    return ok


def closed_form_envelope(eta: float) -> np.ndarray:
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    c = np.sqrt(eta * (1 - eta))
    g0 = np.array([[1 - eta, c], [c, eta]], dtype=complex)
    g1 = np.array([[0, 0], [0, 1]], dtype=complex)
    gamma = (g0 - eta * g1) / (1 - eta)
    cols = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
        cols[:, idx] = nl.vec(p0 * np.trace(gamma @ x) + p1 * np.trace(g1 @ x))
    return cols, gamma


class TestCriterion1TwoLevelExample:
    @pytest.mark.xfail(
        strict=True,
        reason="stated closed-form constant is provably off by a factor 2 "
               "(the defect map is X -> eta Tr((g1-g0)X) P0, whose norm is "
               "eta times the trace norm of g1-g0, i.e. 2 eta sqrt(1-eta); "
               "see the companion test and the decisions ledger)",
    )
    def test_stated_closed_form(self):
        for eta in (0.01, 0.04, 0.1):
            ch = two_level_example(eta)
            m = ch.superop
            cert = cbnorm.cb_norm(m @ m - m, 2, 2)
            assert abs(cert.value - eta * np.sqrt(1 - eta)) <= 1e-6

    def test_corrected_closed_form_and_envelope(self):
        ok = True
        details = []
        for eta in (0.01, 0.04, 0.1):
            t0 = time.time()
            ch = two_level_example(eta)
            m = ch.superop
            cert = cbnorm.cb_norm(m @ m - m, 2, 2)
            expected = 2 * eta * np.sqrt(1 - eta)
            value_ok = abs(cert.value - expected) <= 1e-6 and cert.gap <= 1e-6
            pm = sc.idempotentize(ch)
            closed, gamma = closed_form_envelope(eta)
            envelope_ok = np.max(np.abs(pm.superop - closed)) <= 1e-8
            gamma_ok = np.linalg.eigvalsh(gamma)[0] < -1e-9
            elapsed = time.time() - t0
            time_ok = elapsed < 10.0
            ok = ok and value_ok and envelope_ok and gamma_ok and time_ok
            details.append(
                f"eta={eta}: measured={cert.value:.7f} (2*eta*sqrt(1-eta)="
                f"{expected:.7f}, stated form would be {expected / 2:.7f}), "
                f"envelope_err={np.max(np.abs(pm.superop - closed)):.1e}, "
                f"min_eig(gamma)={np.linalg.eigvalsh(gamma)[0]:.4f}, "
                f"{elapsed:.1f}s"
            )
        assert _report(
            "1 (two-level example, corrected constant)", ok, "; ".join(details)
        )


class TestCriterion2IdempotentStructure:
    def test_structure_recovery(self):
        t0 = time.time()
        pin = chn.gen_pinching((3, 2, 1))
        st1 = so.idempotent_structure(pin)
        pin_ok = st1.block_dims == (3, 2, 1) and st1.multiplicity_dims == (1, 1, 1)

        ch = chn.gen_random_idempotent(((2, 2), (1, 3)), dim=7, seed=11)
        st2 = so.idempotent_structure(ch)
        enc_ok = st2.block_dims == (2, 1) and st2.multiplicity_dims == (2, 3)

        dec_enc_ok = True
        diamond_ok = True
        for ch_i, st in ((pin, st1), (ch, st2)):
            enc, dec = so.make_enc_dec(st)
            round_trip = so.compose(dec, enc)
            pinch = chn.pinch_superop(st.block_dims)
            dec_enc_ok &= nl.operator_norm(round_trip.superop - pinch) <= 1e-10
            t_map = so.compose(enc, dec)
            diff = t_map.superop - so.dual(ch_i).superop
            cert = cbnorm.diamond_norm(diff, ch_i.dim_in, ch_i.dim_in)
            diamond_ok &= cert.upper <= 1e-6
        elapsed = time.time() - t0
        ok = pin_ok and enc_ok and dec_enc_ok and diamond_ok and elapsed < 60
        assert _report(
            "2 (exact idempotent structure)",
            ok,
            f"pinching dims {st1.block_dims}/{st1.multiplicity_dims}, "
            f"random dims {st2.block_dims}/{st2.multiplicity_dims}, "
            f"DecEnc=1: {dec_enc_ok}, |EncDec-Phi*|_D<=1e-6: {diamond_ok}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion3ExactReconstruction:
    def test_twenty_random_exact_idempotents(self):
        t0 = time.time()
        rng = np.random.default_rng(2026)
        failures = []
        worst_defect = 0.0
        for trial in range(20):
            dim = int(rng.integers(2, 9))
            pairs = []
            budget = dim
            while budget > 0:
                d = int(rng.integers(1, min(3, budget) + 1))
                e = int(rng.integers(1, budget // d + 1))
                pairs.append((d, e))
                budget -= d * e
                if rng.random() < 0.4:
                    break
            ch = chn.gen_random_idempotent(tuple(pairs), dim=dim, seed=trial)
            # independent ground truth through the carrier representation
            truth = so.idempotent_structure(ch, seed=1).block_dims
            alg = sc.extract_algebra(sc.idempotentize(ch))
            spec, v, rep = rc.reconstruct(alg, seed=0)
            worst_defect = max(worst_defect, rep.mult_defect)
            if spec.block_dims != truth or rep.mult_defect > 1e-7:
                failures.append((trial, pairs, spec.block_dims, truth, rep.mult_defect))
        elapsed = time.time() - t0
        ok = not failures and elapsed < 600
        assert _report(
            "3 (reconstruction at epsilon = 0)",
            ok,
            f"20/20 specs match the carrier-representation oracle, worst "
            f"defect {worst_defect:.1e}, {elapsed:.1f}s"
            + (f"; failures: {failures}" if failures else ""),
        )


class TestCriterion4PerturbedPipeline:
    def test_full_pipeline_scaling(self):
        t0 = time.time()
        pin = chn.gen_pinching((3, 2, 1))
        uppers = {}
        etas = {}
        spec_ok = True
        for t in (1e-3, 1e-2):
            pert = chn.gen_perturbed(pin, t, seed=5)
            pm = sc.idempotentize(pert)
            etas[t] = pm.eta.value
            alg = sc.extract_algebra(pm)
            alg.defects = sc.measure_defects(alg, pm.distance_cb.upper)
            spec, v, rep = rc.reconstruct(alg, seed=0)
            spec_ok &= spec.block_dims == (3, 2, 1)
            raw = fa.raw_factor(v, pm, alg)
            delta, _ = fa.twirl_to_cp(raw, pert)
            upsilon, _ = fa.build_upsilon(delta, pert, spec)
            cert = fa.certify(delta, upsilon, pert, spec)
            uppers[t] = (cert.residual_factor.upper, cert.residual_retract.upper)
        ordered = all(
            uppers[1e-3][k] <= uppers[1e-2][k] <= 1.0 for k in (0, 1)
        )
        ratios = [uppers[1e-2][k] / uppers[1e-3][k] for k in (0, 1)]
        ratio_ok = all(2 <= r <= 50 for r in ratios)
        elapsed = time.time() - t0
        ok = spec_ok and ordered and ratio_ok and elapsed < 900
        assert _report(
            "4 (perturbed pipeline scaling)",
            ok,
            f"measured eta: {etas[1e-3]:.2e} / {etas[1e-2]:.2e}, "
            f"factor residuals {uppers[1e-3][0]:.2e} -> {uppers[1e-2][0]:.2e}, "
            f"retract residuals {uppers[1e-3][1]:.2e} -> {uppers[1e-2][1]:.2e}, "
            f"decade ratios {ratios[0]:.1f}/{ratios[1]:.1f} in [2, 50], "
            f"{elapsed:.0f}s",
        )


class TestCriterion5DiamondSolver:
    def test_solver_values(self):
        t0 = time.time()
        z = np.diag([1.0, -1.0]).astype(complex)
        diff_z = np.eye(4) - chn.superop_from_kraus([z])
        cert_z = cbnorm.diamond_norm(diff_z, 2, 2)
        see_z = sdp_oracle.diamond_lower_bound_seesaw(diff_z, 2, 2, restarts=20)
        z_ok = abs(cert_z.value - 2.0) <= 1e-6 and abs(see_z - cert_z.value) <= 1e-4

        dim = 2
        dep_cols = np.zeros((4, 4), dtype=complex)
        for idx in range(4):
            x = nl.unvec(np.eye(4, dtype=complex)[:, idx], 2, 2)
            dep_cols[:, idx] = nl.vec(np.trace(x) * np.eye(2) / 2)
        diff_dep = np.eye(4) - dep_cols
        cert_dep = cbnorm.diamond_norm(diff_dep, 2, 2)
        see_dep = sdp_oracle.diamond_lower_bound_seesaw(diff_dep, 2, 2, restarts=20)
        dep_ok = abs(cert_dep.value - 1.5) <= 1e-4 and abs(see_dep - cert_dep.value) <= 1e-4

        worst = 0.0
        for seed in range(100):
            dims = 2 + seed % 3
            ch = chn.gen_random_ucp(dims, 1 + seed % 3, seed=seed)
            cert = cbnorm.cb_norm(ch)
            worst = max(worst, abs(cert.value - 1.0))
        ucp_ok = worst <= 1e-6
        elapsed = time.time() - t0
        ok = z_ok and dep_ok and ucp_ok and elapsed < 300
        assert _report(
            "5 (diamond-norm solver)",
            ok,
            f"|id-Z.Z|={cert_z.value:.8f} (seesaw {see_z:.8f}), "
            f"|id-Dep|={cert_dep.value:.8f} (seesaw {see_dep:.8f}), "
            f"max |cb(UCP)-1| over 100 maps = {worst:.1e}, {elapsed:.0f}s",
        )


class TestCriterion6EpsilonCStarSuite:
    def test_defect_scaling_and_sqrt_law(self):
        t0 = time.time()
        corpus = [
            (chn.gen_pinching((2, 1)), 3e-3, 7),
            (chn.gen_pinching((2, 2)), 3e-3, 11),
            (chn.gen_pinching((3, 2, 1)), 2e-3, 5),
        ]
        c_worst = 0.0
        eta_max = 0.0
        for base, t, seed in corpus:
            pert = chn.gen_perturbed(base, t, seed=seed)
            pm = sc.idempotentize(pert)
            eta = pm.eta.value
            eta_max = max(eta_max, eta)
            alg = sc.extract_algebra(pm)
            # the certified upper bounds of eps_submult and eps_cstar, which
            # hold on every amplification M_m(A), and the sweep's eps_assoc
            rep = sc.measure_defects(alg, pm.distance_cb.upper)
            c_worst = max(
                c_worst, rep.eps_assoc / eta, rep.cstar_upper / eta,
                rep.submult_upper / eta,
            )
            left, right = so.phi_associativity_defect(pert, samples=25, seed=2)
            c_worst = max(c_worst, left / eta, right / eta)
        scaling_ok = c_worst <= 100 and eta_max <= 1e-2

        # two-point log-log slope of the dilation residual against eta
        pin = chn.gen_pinching((3, 2, 1))
        points = {}
        for t in (1e-3, 1e-2):
            pert = chn.gen_perturbed(pin, t, seed=5)
            pm = sc.idempotentize(pert)
            points[t] = (so.choi_residual_check(pert, samples=30), pm.eta.value)
        slope = np.log(points[1e-2][0] / points[1e-3][0]) / np.log(
            points[1e-2][1] / points[1e-3][1]
        )
        slope_ok = 0.35 <= slope <= 0.65
        elapsed = time.time() - t0
        ok = scaling_ok and slope_ok
        assert _report(
            "6 (epsilon-C* property suite)",
            ok,
            f"max defect constant c = {c_worst:.2f} <= 100 over corpus with "
            f"eta <= {eta_max:.2e} (certified upper bounds, every amplification), "
            f"sqrt-law slope {slope:.3f} in [0.35, 0.65], {elapsed:.0f}s",
        )


class TestCriterion7NewtonMachinery:
    def test_sign_family_and_improvement(self):
        t0 = time.time()
        rng = np.random.default_rng(1234)
        worst_sq = worst_comm = worst_theta = 0.0
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            u = nl.random_unitary(dim, rng)
            signs = rng.choice([-1.0, 1.0], size=dim)
            lam = signs * np.sqrt(1 + rng.uniform(-0.9, 0.9, size=dim))
            m = nl.hermitian_part((u * lam) @ u.conj().T)
            s = nl.matrix_sign(m)
            worst_sq = max(worst_sq, nl.operator_norm(s @ s - np.eye(dim)))
            worst_comm = max(
                worst_comm,
                nl.operator_norm(s @ m - m @ s) / nl.operator_norm(m),
            )
            th = nl.theta(m)
            worst_theta = max(worst_theta, nl.operator_norm(th @ th - th))
        sign_ok = worst_sq <= 1e-9 and worst_comm <= 1e-9 and worst_theta <= 1e-9

        alg = sc.extract_algebra(sc.idempotentize(chn.gen_pinching((3, 2, 1))))
        spec = rc.BlockSpec((3, 2, 1))
        coeffs = np.zeros((alg.dim, spec.rep_dim**2), dtype=complex)
        for (l, j, k) in spec.unit_indices():
            m = so.unit_matrix(spec, l, j, k)
            coeffs[:, nl.vec(m).argmax()] = so.coords(alg, m)
        noise = 0.01 * (rng.standard_normal(coeffs.shape)
                        + 1j * rng.standard_normal(coeffs.shape)) / np.sqrt(2)
        v = rc.mult_defect(so.symmetrized(rc.AlmostHom(spec, coeffs + noise)), alg)
        seeded = v.mult_defect
        seeded_ok = 0.02 <= seeded <= 0.09  # the requested 5e-2 scale
        defects = [seeded]
        rounds = 0
        while v.mult_defect > 1e-8 and rounds < 5:
            v = rc.improve_homomorphism(v, alg, max_rounds=1)
            defects.append(v.mult_defect)
            rounds += 1
        improve_ok = v.mult_defect <= 1e-8 and rounds <= 5
        ratio_ok = all(b <= 0.2 * a for a, b in zip(defects[1:-1], defects[2:]))
        elapsed = time.time() - t0
        ok = sign_ok and seeded_ok and improve_ok and ratio_ok
        assert _report(
            "7 (Newton machinery)",
            ok,
            f"500 sign/theta draws: max residuals {worst_sq:.1e}/"
            f"{worst_comm:.1e}/{worst_theta:.1e}; improvement "
            f"{seeded:.3f} -> {v.mult_defect:.1e} in {rounds} rounds "
            f"(ratios {[f'{b/a:.3f}' for a, b in zip(defects[1:-1], defects[2:])]}), "
            f"{elapsed:.0f}s",
        )
