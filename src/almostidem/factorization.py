"""UCP factorization of an almost idempotent map through a block algebra.

Starting from a near-isomorphism v between the reconstructed block algebra B
and the invariant-observable algebra of the map, ``raw_factor`` produces the
linear factorization through the idempotent envelope; ``twirl_to_cp`` repairs
the embedding into a genuinely completely positive unital map by averaging
over the exact shift/clock unitary one-design of B (``pauli_diagonal``);
``build_upsilon`` assembles the reverse UCP map from the dilation data;
``certify`` measures the factorization residuals in completely bounded norm
with certified intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numlin as nl
from . import cbnorm
from .channels import Channel, pinch_superop, extend_superop, kraus_from_choi, \
    stinespring_from_kraus, choi_from_superop
from .starcalc import EpsilonAlgebra, IdempotentizedMap
from .reconstruction import AlmostHom, BlockSpec, pauli_diagonal, pauli_shift_clock


class FactorizationError(Exception):
    pass


class NotBijective(FactorizationError):
    pass


class NormalizationSingular(FactorizationError):
    pass


class RjNotFactorizable(FactorizationError):
    pass


@dataclass
class RawFactorization:
    """Linear (not yet positive) factorization through the idempotent envelope."""

    spec: BlockSpec
    delta_superop: np.ndarray    # B(C^D) -> B(C^d), kills off-block input
    upsilon_superop: np.ndarray  # B(C^d) -> B(C^D), lands on the blocks
    factor_residual: float       # || Delta~ Upsilon~ - Phi~ ||
    retract_residual: float      # || Upsilon~ Delta~ - 1_B ||
    unit_distance: float         # || Delta~(I_B) - I ||


def raw_factor(v: AlmostHom, pm: IdempotentizedMap, alg: EpsilonAlgebra) -> RawFactorization:
    """Split the idempotent envelope as embedding-after-retraction through B."""
    spec = v.spec
    dim = alg.ambient_dim
    d_tot = spec.rep_dim
    basis_stack = np.stack([nl.vec(b) for b in alg.basis], axis=1)  # (d^2, N)
    cols = spec.unit_columns()
    unit_cols = v.coeffs[:, cols]  # (N, N_B)
    if unit_cols.shape[0] != unit_cols.shape[1]:
        raise NotBijective(
            f"map is not square: algebra dim {unit_cols.shape[0]}, "
            f"block dim {unit_cols.shape[1]}"
        )
    cond = np.linalg.cond(unit_cols)
    if not np.isfinite(cond) or cond > 1e8:
        raise NotBijective(f"near-isomorphism is numerically singular (cond {cond:.2e})")

    delta = basis_stack @ v.coeffs  # (d^2, D^2), already zero off-block
    inv_units = np.linalg.inv(unit_cols)
    upsilon = np.zeros((d_tot * d_tot, dim * dim), dtype=complex)
    upsilon[cols] = inv_units @ basis_stack.conj().T @ pm.superop

    factor_res = nl.operator_norm(delta @ upsilon - pm.superop)
    retract_res = nl.operator_norm(upsilon @ delta - pinch_superop(spec.block_dims))
    unit_dist = nl.operator_norm(
        nl.unvec(delta @ nl.vec(spec.unit()), dim, dim) - np.eye(dim)
    )
    return RawFactorization(spec, delta, upsilon, factor_res, retract_res, unit_dist)


def twirl_to_cp(raw: RawFactorization, ch: Channel) -> tuple[Channel, dict]:
    """Average the linear embedding into a UCP map.

    Delta'(X) = sum_s p_s Phi(Delta~(X U_s^dag) Delta~(U_s)) over the exact
    one-design of ``pauli_diagonal`` is completely positive term by term;
    unitality is restored by a symmetric normalization.  ``reconstruct`` has
    already built that design for the same block dims, so its term cap
    cannot trip here.
    """
    spec = raw.spec
    d = ch.dim_in
    d_tot = spec.rep_dim
    diag = pauli_diagonal(spec)
    delta_prime = ch.superop @ _twirl_sum(raw.delta_superop, diag.terms, d, d_tot)

    choi_min = float(
        np.linalg.eigvalsh(
            nl.hermitian_part(choi_from_superop(delta_prime, d_tot, d))
        )[0]
    )
    dp_unit = nl.unvec(delta_prime @ nl.vec(np.eye(d_tot, dtype=complex)), d, d)
    dp_unit = nl.hermitian_part(dp_unit)
    w = np.linalg.eigvalsh(dp_unit)
    if w[0] <= 1e-8:
        raise NormalizationSingular(
            f"Delta'(I) has eigenvalue {w[0]:.2e}; the idempotency defect is too large"
        )
    _, n_inv = nl.matrix_sqrt_inv_sqrt(dp_unit)
    delta_superop = nl.kron(n_inv.T, n_inv) @ delta_prime
    delta = Channel(delta_superop, d_tot, d, ch.tol)
    distance = cbnorm.cb_norm(delta_superop - raw.delta_superop, d_tot, d)
    info = {
        "terms": len(diag.terms),
        "choi_min_before_normalization": choi_min,
        "normalization_distance": nl.operator_norm(n_inv - np.eye(d)),
        "distance_to_raw_cb": distance,
    }
    return delta, info


def build_upsilon(
    delta: Channel,
    ch: Channel,
    spec: BlockSpec,
    eta: float,
    rj_residual_cap: float = 0.25,
    kraus_rel_tol: float = 1e-10,
) -> tuple[Channel, dict]:
    """Reverse UCP map from the dilation data of the embedding.

    Per block: recover the dilation isometry W_j of the block restriction of
    Delta, twirl W_j W_j^dag into 1 (x) C_j with the block one-design, pick a
    maximal-singular-vector unit xi_j, contract the channel isometry V into
    L_j, and set Upsilon_j(X) = L_j^dag (Phi(X) (x) 1) L_j; a final symmetric
    normalization makes the sum unital.
    """
    d = ch.dim_in
    d_tot = spec.rep_dim
    v_iso, env = ch.stinespring
    tol_loose = nl.ToleranceConfig(rank_rel_tol=kraus_rel_tol)
    blocks_info = []
    upsilon_prime = np.zeros((d_tot * d_tot, d * d), dtype=complex)
    slices = spec.slices()
    unit_sum = np.zeros((d, d), dtype=complex)
    choi4 = delta.choi.reshape(d_tot, d, d_tot, d)
    for jdx, (d_j, s) in enumerate(zip(spec.block_dims, slices)):
        # Choi of the block restriction Delta_j : B(L_j) -> B(H)
        j_mat = choi4[s, :, s, :].reshape(d_j * d, d_j * d)
        kraus = kraus_from_choi(j_mat, d_j, d, tol_loose)
        if not kraus:
            raise RjNotFactorizable(f"block {jdx} restriction of Delta vanished")
        w_j = stinespring_from_kraus(kraus)  # C^d -> C^{d_j * e_j}
        e_j = len(kraus)
        unit_sum += w_j.conj().T @ w_j

        terms = pauli_shift_clock(d_j)
        r_j = np.zeros((d_j * e_j, d_j * e_j), dtype=complex)
        ww = w_j @ w_j.conj().T
        for p_s, u_s in terms:
            u_ext = nl.kron(u_s, np.eye(e_j))
            r_j += p_s * (u_ext.conj().T @ ww @ u_ext)
        c_j = nl.partial_trace(r_j, (d_j, e_j), keep=1) / d_j
        rj_residual = nl.operator_norm(r_j - nl.kron(np.eye(d_j), c_j))
        if rj_residual > rj_residual_cap:
            raise RjNotFactorizable(
                f"block {jdx}: twirled dilation is {rj_residual:.3f} away from "
                f"the 1 (x) C form"
            )
        c_norm = nl.operator_norm(c_j)
        u_sv, s_sv, vh_sv = np.linalg.svd(c_j)
        xi = vh_sv.conj().T[:, 0]
        anchor = np.argmax(np.abs(xi))
        xi = xi * np.exp(-1j * np.angle(xi[anchor]))  # deterministic phase

        l_j = np.zeros((d * env, d_j), dtype=complex)
        for p_s, u_s in terms:
            du = delta(_embed_block(u_s.conj().T, spec, jdx))
            l_j += p_s * nl.kron(du, np.eye(env)) @ v_iso @ w_j.conj().T @ nl.kron(
                u_s, xi.reshape(e_j, 1)
            )
        # Upsilon'_j(X) = L_j^dag (Phi(X) (x) 1_F) L_j, embedded at block j
        for idx in range(d * d):
            x = nl.unvec(np.eye(d * d, dtype=complex)[:, idx], d, d)
            val = l_j.conj().T @ nl.kron(ch(x), np.eye(env)) @ l_j
            big = _embed_block(val, spec, jdx)
            upsilon_prime[:, idx] += nl.vec(big)
        blocks_info.append(
            {
                "multiplicity": e_j,
                "rj_residual": rj_residual,
                "c_norm": c_norm,
                "c_xi_norm": float(s_sv[0]),
            }
        )
    unit_defect = nl.operator_norm(unit_sum - np.eye(d))

    up_unit = nl.unvec(upsilon_prime @ nl.vec(np.eye(d, dtype=complex)), d_tot, d_tot)
    up_unit = nl.hermitian_part(up_unit)
    # the unit image is block diagonal; normalize inside the blocks
    w = np.linalg.eigvalsh(up_unit)
    if w[0] <= 1e-8:
        raise NormalizationSingular(
            f"Upsilon'(I) has eigenvalue {w[0]:.2e}; the block data is too degenerate"
        )
    _, n_inv = nl.matrix_sqrt_inv_sqrt(up_unit)
    upsilon_superop = pinch_superop(spec.block_dims) @ nl.kron(n_inv.T, n_inv) @ upsilon_prime
    upsilon = Channel(upsilon_superop, d, d_tot, ch.tol)
    info = {
        "blocks": blocks_info,
        "stinespring_unit_defect": unit_defect,
        "normalization_distance": nl.operator_norm(n_inv - np.eye(d_tot)),
    }
    return upsilon, info


def _twirl_sum(delta_raw: np.ndarray, terms, d: int, d_tot: int) -> np.ndarray:
    """Superoperator of X -> sum_s p_s Delta~(X U_s^dag) Delta~(U_s).

    Term s is (B_s^T (x) I) Delta~ (conj U_s (x) I) with B_s = Delta~(U_s), in
    column-stacking vec.  The design sum goes first:
    W[j, j', l', l] = sum_s p_s B_s[j', j] conj(U_s)[l', l] is one
    (d^2, S) @ (S, D^2) product, and one contraction of W with Delta~ (rows
    (j', r), columns (l', a)) gives the sum.
    """
    p = np.array([p_s for p_s, _ in terms])
    us = np.stack([u_s for _, u_s in terms])                      # (S, D, D)
    b = delta_raw @ us.transpose(0, 2, 1).reshape(len(terms), -1).T  # column s: vec B_s
    w = b @ (p[:, None] * us.conj().reshape(len(terms), -1))
    w = w.reshape(d, d, d_tot, d_tot)
    r4 = delta_raw.reshape(d, d, d_tot, d_tot)
    return np.einsum("jxyl,xrya->jrla", w, r4).reshape(d * d, d_tot * d_tot)


def _embed_block(x: np.ndarray, spec: BlockSpec, jdx: int) -> np.ndarray:
    out = np.zeros((spec.rep_dim, spec.rep_dim), dtype=complex)
    s = spec.slices()[jdx]
    out[s, s] = x
    return out


@dataclass
class FactorizationCertificate:
    spec: BlockSpec
    delta_ch: Channel
    upsilon_ch: Channel
    residual_factor: cbnorm.NormCertificate    # || Delta Upsilon - Phi ||_cb
    residual_retract: cbnorm.NormCertificate   # || Upsilon Delta - 1_B ||_cb
    product_residuals: dict[int, float]        # n -> max_(X,Y) defect of the product law
    ucp_flags: dict[str, bool] = field(default_factory=dict)


def certify(
    delta: Channel,
    upsilon: Channel,
    ch: Channel,
    spec: BlockSpec,
    probes: int = 10,
    seed: int = 0,
    target_rel_gap: float = 1e-6,
) -> FactorizationCertificate:
    """Certified factorization residuals plus the sampled product condition."""
    d = ch.dim_in
    d_tot = spec.rep_dim
    factor_map = delta.superop @ upsilon.superop - ch.superop
    residual_factor = cbnorm.cb_norm(factor_map, d, d, target_rel_gap)
    retract_map = upsilon.superop @ delta.superop - pinch_superop(spec.block_dims)
    residual_retract = cbnorm.cb_norm(retract_map, d_tot, d_tot, target_rel_gap)

    rng = np.random.default_rng(seed)
    product_residuals: dict[int, float] = {}
    for n in (1, 2):
        ups_n = extend_superop(upsilon.superop, n, d, d_tot)
        del_n = extend_superop(delta.superop, n, d_tot, d)
        worst = 0.0
        for _ in range(probes):
            x = _random_block_ext(spec, n, rng)
            y = _random_block_ext(spec, n, rng)
            dx = nl.unvec(del_n @ nl.vec(x), n * d, n * d)
            dy = nl.unvec(del_n @ nl.vec(y), n * d, n * d)
            back = nl.unvec(ups_n @ nl.vec(dx @ dy), n * d_tot, n * d_tot)
            res = nl.operator_norm(back - x @ y)
            worst = max(worst, res / (nl.operator_norm(x) * nl.operator_norm(y)))
        product_residuals[n] = worst

    flags = {
        "delta_cp": delta.is_cp(),
        "delta_unital": delta.is_unital(),
        "upsilon_cp": upsilon.is_cp(),
        "upsilon_unital": upsilon.is_unital(),
    }
    return FactorizationCertificate(
        spec, delta, upsilon, residual_factor, residual_retract,
        product_residuals, flags,
    )


def _random_block_ext(spec: BlockSpec, n: int, rng) -> np.ndarray:
    """Random element of M_n (x) B as a block-compatible matrix."""
    d_tot = spec.rep_dim
    out = np.zeros((n * d_tot, n * d_tot), dtype=complex)
    for a in range(n):
        for b in range(n):
            blk = spec.random_element(rng)
            out[a * d_tot: (a + 1) * d_tot, b * d_tot: (b + 1) * d_tot] = blk
    return out
