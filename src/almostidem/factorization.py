"""UCP factorization of an almost idempotent map through a block algebra.

Starting from a near-isomorphism v between the reconstructed block algebra B
and the invariant-observable algebra of the map, ``raw_factor`` produces the
linear factorization through the idempotent envelope; ``twirl_to_cp`` repairs
the embedding into a genuinely completely positive unital map by averaging
over the matrix-unit diagonal of B, sum_l d_l^2 terms (``pauli_diagonal``);
``build_upsilon`` assembles the reverse UCP map from the dilation data,
twirled in closed form over the same diagonal;
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
from .reconstruction import AlmostHom, BlockSpec, pauli_diagonal


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
    basis_stack = alg.basis.transpose(2, 1, 0).reshape(dim * dim, -1)  # vec B_i as columns
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

    Delta'(X) = sum_s p_s Phi(Delta~(X U_s^dag) Delta~(U_s)) over the
    matrix-unit diagonal of ``pauli_diagonal``: the same map as with any
    unitary 1-design of the blocks, as the sum reads the design only through
    sum_s p_s U_s^dag (x) U_s.  Its complete positivity is measured,
    not assumed (``choi_min_before_normalization`` here, ``ucp_flags`` in
    ``certify``); unitality is restored by a symmetric normalization.
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
    delta = Channel(delta_superop, d_tot, d)
    distance = cbnorm.cb_norm(delta_superop - raw.delta_superop, d_tot, d)
    info = {
        "terms": len(diag.terms),
        "choi_min_before_normalization": choi_min,
        "distance_to_raw_cb": distance,
    }
    return delta, info


def build_upsilon(delta: Channel, ch: Channel, spec: BlockSpec) -> tuple[Channel, dict]:
    """Reverse UCP map from the dilation data of the embedding.

    Per block: recover the dilation isometry W_j of the block restriction of
    Delta, its Kraus rank read at 1e-10 (finer than ``numlin.RANK_REL_TOL``).
    A unitary 1-design of the block twirls W_j W_j^dag into 1 (x) C_j, with
    C_j = Tr_1(W_j W_j^dag) / d_j in closed form.  Pick a
    maximal-singular-vector unit xi_j of C_j, contract the channel isometry V
    into L_j = sum_s p_s (Delta(U_s^dag) (x) 1) V W_j^dag (U_s (x) xi_j) over
    the block's matrix-unit diagonal, (1/d_j, E_ab), where it reads
    L_j = sum_a (Delta(E_ka) (x) 1) V W_j^dag (e_a (x) xi_j) / d_j on column
    k, and set Upsilon_j(X) = L_j^dag (Phi(X) (x) 1) L_j; a final symmetric
    normalization makes the sum unital.
    """
    d = ch.dim_in
    d_tot = spec.rep_dim
    v_iso, env = ch.stinespring
    blocks_info = []
    upsilon_prime = np.zeros((d_tot * d_tot, d * d), dtype=complex)
    choi4 = delta.choi.reshape(d_tot, d, d_tot, d)
    # [x, y, b, k] = Delta(E_kb)[y, x], from the column-stacking superoperator
    delta4 = delta.superop.reshape(d, d, d_tot, d_tot)
    for jdx, (d_j, s) in enumerate(zip(spec.block_dims, spec.slices())):
        # Choi of the block restriction Delta_j : B(L_j) -> B(H)
        j_mat = choi4[s, :, s, :].reshape(d_j * d, d_j * d)
        kraus = kraus_from_choi(j_mat, d_j, d, 1e-10)
        if not kraus:
            raise RjNotFactorizable(f"block {jdx} restriction of Delta vanished")
        w_j = stinespring_from_kraus(kraus)  # C^d -> C^{d_j * e_j}
        e_j = len(kraus)
        c_j = nl.partial_trace(w_j @ w_j.conj().T, (d_j, e_j), keep=1) / d_j
        _, s_sv, vh_sv = np.linalg.svd(c_j)
        xi = vh_sv.conj().T[:, 0]
        anchor = np.argmax(np.abs(xi))
        xi = xi * np.exp(-1j * np.angle(xi[anchor]))  # deterministic phase

        # V W_j^dag (1 (x) xi), rows (x, g) of C^d (x) C^env, columns a of C^{d_j}
        vw_xi = ((v_iso @ w_j.conj().T).reshape(d * env, d_j, e_j) @ xi).reshape(d, env, d_j)
        l_j = np.einsum("xybk,xgb->ygk", delta4[:, :, s, s], vw_xi,
                        optimize=True).reshape(d * env, d_j) / d_j
        # Upsilon'_j(X) = L_j^dag (Phi(X) (x) 1_F) L_j, embedded at block j:
        # rows (l, k) of vec index k + d_tot l with k, l in block j
        upsilon_prime.reshape(d_tot, d_tot, d * d)[s, s] = (
            _compression_superop(l_j, d, env) @ ch.superop).reshape(d_j, d_j, d * d)
        blocks_info.append(
            {
                "multiplicity": e_j,
                "c_norm": float(s_sv[0]),
                "c_xi_norm": float(s_sv[0]),
            }
        )

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
    upsilon = Channel(upsilon_superop, d, d_tot)
    return upsilon, {"blocks": blocks_info}


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


def _compression_superop(l: np.ndarray, d: int, env: int) -> np.ndarray:
    """Superoperator of Y -> L^dag (Y (x) 1_env) L for Y on C^d.

    With L[(a, f), k], entry (k + d_j l, a + d b) is
    sum_f conj(L[(a, f), k]) L[(b, f), l].
    """
    d_j = l.shape[1]
    l3 = l.reshape(d, env, d_j)
    return np.einsum("afk,bfl->lkba", l3.conj(), l3).reshape(d_j * d_j, d * d)


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
) -> FactorizationCertificate:
    """Certified factorization residuals plus the sampled product condition."""
    d = ch.dim_in
    d_tot = spec.rep_dim
    factor_map = delta.superop @ upsilon.superop - ch.superop
    residual_factor = cbnorm.cb_norm(factor_map, d, d)
    retract_map = upsilon.superop @ delta.superop - pinch_superop(spec.block_dims)
    residual_retract = cbnorm.cb_norm(retract_map, d_tot, d_tot)

    rng = np.random.default_rng(seed)
    product_residuals: dict[int, float] = {}
    for n in (1, 2):
        ups_n = extend_superop(upsilon.superop, n, d, d_tot)
        del_n = extend_superop(delta.superop, n, d_tot, d)
        # per probe x then y, each drawn as its n x n blocks row by row: one
        # draw for all of them is the stream of block-by-block draws
        blocks = spec.random_elements(rng, probes * 2 * n * n)
        xy = blocks.reshape(probes, 2, n, n, d_tot, d_tot).transpose(0, 1, 2, 4, 3, 5)
        xy = xy.reshape(probes, 2, n * d_tot, n * d_tot)
        dxy = _apply_superop(del_n, xy, n * d)
        back = _apply_superop(ups_n, dxy[:, 0] @ dxy[:, 1], n * d_tot)
        res, nx, ny = nl.operator_norms(np.stack([back - xy[:, 0] @ xy[:, 1], xy[:, 0], xy[:, 1]]))
        product_residuals[n] = float(np.max(res / (nx * ny), initial=0.0))

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


def _apply_superop(m: np.ndarray, x: np.ndarray, dim_out: int) -> np.ndarray:
    """The map with column-stacking superoperator ``m`` on a stack of matrices."""
    rows = np.swapaxes(x, -1, -2).reshape(*x.shape[:-2], -1)
    return np.swapaxes((rows @ m.T).reshape(*x.shape[:-2], dim_out, dim_out), -1, -2)
