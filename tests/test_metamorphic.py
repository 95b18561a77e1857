"""Metamorphic relations: invariances the paper's objects have exactly.

Each relation runs the whole pipeline on an input and on its transform, and
compares what must agree, so no reference implementation is needed.  The
certified intervals of two maps with the same norm must overlap.
"""

import numpy as np
import pytest

from almostidem import channels as chn
from almostidem import numlin as nl
from almostidem import pipeline


def _factorize(ch, seed):
    report, _ = pipeline.factorize_channel(ch, seed=seed)
    envelope = report["checkpoints"][0]
    return report["factorization"]["block_dims"], envelope["eta"], envelope["distance_cb"]


def _assert_overlap(a, b):
    assert a["lower"] <= b["upper"] and b["lower"] <= a["upper"], (a, b)


def _perturbed(dims, t, seed):
    return chn.gen_perturbed(chn.gen_pinching(dims), t, seed)


@pytest.mark.parametrize("t,seed", [(1e-2, 1), (1e-3, 3)])
def test_ampliation(t, seed):
    # ||.||_cb does not change under Phi -> Phi (x) id_2, so eta and the
    # envelope's distance are those of Phi, and each block doubles
    ch = _perturbed((2, 2), t, seed)
    dims, eta, dist = _factorize(ch, seed)
    dims_2, eta_2, dist_2 = _factorize(chn.tensor_extend(ch, 2), seed)
    assert dims == [2, 2] and dims_2 == [4, 4]
    _assert_overlap(eta, eta_2)
    _assert_overlap(dist, dist_2)


@pytest.mark.parametrize("dims,t,seed", [((3, 1), 1e-2, 4), ((2, 2), 5e-2, 5)])
def test_unitary_covariance(dims, t, seed):
    # Phi_U = U Phi(U^dag . U) U^dag: vec(U Y U^dag) = (conj(U) (x) U) vec(Y)
    ch = _perturbed(dims, t, seed)
    u = nl.random_unitary(ch.dim_in, np.random.default_rng(seed))
    ad = nl.kron(u.conj(), u)
    ch_u = chn.Channel(ad @ ch.superop @ ad.conj().T, ch.dim_in, ch.dim_out)
    block_dims, eta, dist = _factorize(ch, seed)
    block_dims_u, eta_u, dist_u = _factorize(ch_u, seed)
    assert block_dims_u == block_dims
    _assert_overlap(eta, eta_u)
    _assert_overlap(dist, dist_u)
