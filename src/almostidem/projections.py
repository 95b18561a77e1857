"""Approximate projections and their corner subspaces inside an algebra.

A delta-projection is a Hermitian element P with ||P*P - P|| <= delta; the
one-dimensional ones of an algebra come from the eigenvalue clusters of left
multiplication by one generic element.  The
compression map C_{P,Q} = theta(L_P R_Q + R_Q L_P - 1) is an exactly
idempotent operator on the algebra whose image S_{P,Q} plays the role of the
corner P A Q; the equivalence classification of one-dimensional projections
by dim S_{P,Q} in {0, 1}, and the rank-one corners of equivalent pairs, are
the raw material for rebuilding matrix algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin as nl
from .starcalc import EpsilonAlgebra

# generic elements :func:`minimal_projections` draws before it gives up
STAGE1_DRAWS = 4
# smallest gap a spectral cut cuts over the largest gap it keeps
STAGE1_MIN_GAP_RATIO = 10.0


class ProjectionError(Exception):
    pass


class NoSpectralCut(ProjectionError):
    pass


class SignDiverged(ProjectionError):
    pass


class DegenerateGram(ProjectionError):
    pass


class AmbiguousRank(ProjectionError):
    pass


@dataclass
class DeltaProjection:
    coords: np.ndarray
    delta: float = np.nan       # ||P*P - P||, nan where it is not measured

    def __post_init__(self):
        self.coords = np.real(np.asarray(self.coords)).astype(float)


@dataclass
class CompressionMap:
    p: DeltaProjection
    matrix: np.ndarray          # exactly idempotent on algebra coordinates
    image_coords: np.ndarray    # orthonormal columns spanning S_{P,Q}

    @property
    def rank(self) -> int:
        return self.image_coords.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


def measure_delta(alg: EpsilonAlgebra, coords: np.ndarray) -> float:
    return alg.norm(alg.star(coords, coords) - coords)


def _cubic_refine(alg: EpsilonAlgebra, coords: np.ndarray):
    """P <- 3 P*P - 2 P*(P*P) until the projection defect plateaus."""
    p = np.real(coords)
    delta = measure_delta(alg, p)
    for _ in range(60):
        pp = alg.star(p, p)
        p_new = np.real(3 * pp - 2 * alg.star(p, pp))
        d_new = measure_delta(alg, p_new)
        if d_new >= delta * 0.99:
            if d_new < delta:
                p, delta = p_new, d_new
            break
        p, delta = p_new, d_new
    return p, delta


def compression(
    alg: EpsilonAlgebra,
    p: DeltaProjection,
    q: DeltaProjection | None = None,
) -> CompressionMap:
    """Idempotent compression onto the corner S_{P,Q} (S_P when Q omitted)."""
    q = p if q is None else q
    lp = alg.lmul(p.coords)
    rq = alg.rmul(q.coords)
    op = lp @ rq + rq @ lp - np.eye(alg.dim)
    try:
        cmat = nl.theta(op)
    except (nl.NoConvergence, nl.SingularIterate) as exc:
        raise SignDiverged(
            "compression spectrum too close to the imaginary axis; the "
            "projection defects are too large"
        ) from exc
    # an idempotent has singular values >= 1 on its range and ~0 elsewhere
    u_svd, s_svd, _ = np.linalg.svd(cmat)
    image = u_svd[:, : int(np.sum(s_svd > 0.5))]
    return CompressionMap(p, cmat, image)


def minimal_projections(
    alg: EpsilonAlgebra, rng: np.random.Generator,
) -> tuple[list[CompressionMap], float | None]:
    """All one-dimensional projections of the algebra from one generic element.

    In B = (+)_k M_{d_k}, left multiplication by a Hermitian x has each
    eigenvalue of x_k with multiplicity d_k, and its spectral projector onto
    one eigenvalue maps the unit to a minimal projection.  In an epsilon-C*
    algebra the eigenvalues of L_x come in clusters of width O(epsilon)
    about the real axis; one ``eig`` gives the clusters, and each cluster's
    projection P_c = V_c c_c, the Riesz projector of the cluster applied to
    the unit u (V the eigenvectors, V c = u), is refined by
    :func:`_cubic_refine` and compressed once.  It is L_x itself, not its
    Hermitian part: L_x is normal when the ambient Hilbert-Schmidt product,
    for which the basis is orthonormal, is a trace form of the algebra's
    product (as on a pinching's image), and on a random idempotent's image
    it is not.

    The cuts of the spectrum, sorted by real part, are tried in the order of
    :func:`_spectral_cuts`, and the first whose corners S_{P_c} all have
    rank 1 is returned, with the compression of each of its projections in
    spectrum order and its gap ratio (None for the cut into singletons).
    x has coordinates drawn from ``rng``, up to ``STAGE1_DRAWS`` times; the
    first draw with an accepted cut ends the search, and
    :class:`NoSpectralCut` follows the last.
    """
    unit = np.real(alg.unit_coords)
    for _ in range(STAGE1_DRAWS):
        x = rng.standard_normal(alg.dim)
        w, vecs = np.linalg.eig(alg.lmul(x))
        order = np.argsort(w.real, kind="stable")
        w, vecs = w.real[order], vecs[:, order]
        # the coefficients of u over the eigenvectors: P_c u = V_c coef_c
        coef = np.linalg.solve(vecs, unit)
        for ratio, edges in _spectral_cuts(w):
            comps = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                p = DeltaProjection(*_cubic_refine(alg, np.real(vecs[:, lo:hi] @ coef[lo:hi])))
                comps.append(compression(alg, p))
                if comps[-1].rank != 1:
                    break
            else:
                return comps, ratio
    raise NoSpectralCut(
        f"no cut of the spectrum of L_x has rank-one corners in {STAGE1_DRAWS} draws of x")


def _spectral_cuts(w: np.ndarray):
    """(gap ratio, cluster edges) of each cut of the sorted spectrum ``w``
    that :func:`minimal_projections` tries, in the order it tries them.

    The cut at a gap value g cuts every gap of at least g; it is a candidate
    when its clusters come in a valid pattern (clusters of size m in a
    multiple of m, as the d_k clusters of size d_k of each block do) and its
    gap ratio, g over the largest gap it keeps, is at least
    ``STAGE1_MIN_GAP_RATIO``.  The candidates go best ratio first; the cut
    into singletons, which keeps no gap, goes last with ratio None.

    The distinct gaps come from a sorted dedupe and the cluster sizes from
    ``np.bincount``: ``np.unique`` would import ``numpy.ma`` on first use.
    """
    gaps = np.diff(w)
    ordered = np.sort(gaps)
    cuts = []
    # every distinct gap value but the smallest
    for g in ordered[1:][ordered[1:] != ordered[:-1]]:
        edges = np.concatenate([[0], np.flatnonzero(gaps >= g) + 1, [len(w)]])
        counts = np.bincount(np.diff(edges))
        sizes = np.flatnonzero(counts)
        if np.any(counts[sizes] % sizes):
            continue
        kept = gaps[gaps < g].max()
        ratio = float(g / kept) if kept > 0 else np.inf
        if ratio >= STAGE1_MIN_GAP_RATIO:
            cuts.append((ratio, edges))
    cuts.sort(key=lambda cut: -cut[0])
    return cuts + [(None, np.arange(len(w) + 1))]


def compression_rank(
    alg: EpsilonAlgebra, p: DeltaProjection, q: DeltaProjection
) -> int:
    """dim S_{P,Q} decided through the spectrum of the compression generator
    (L_P R_Q + R_Q L_P) / 2, by :func:`_indicator_rank` on
    :func:`_indicator_spectra`."""
    lp = alg.lmul(p.coords)
    rq = alg.rmul(q.coords)
    return _indicator_rank(_indicator_spectra(0.5 * (lp @ rq + rq @ lp)[None])[0])


def _indicator_spectra(gens: np.ndarray) -> np.ndarray:
    """For a stack of generators G, spectra that :func:`_indicator_rank`
    decides as it decides the real parts of ``eigvals(G)``.

    They are ``eigvalsh`` of the Hermitian parts H, except for a G with an
    eigenvalue of H in (0.1 - r, 0.9 + r), r = ||G - H||_F (plus a margin
    for roundoff), which gets the real parts of its ``eigvals``.  Every
    eigenvalue of G lies within ||G - H|| <= r of one of H (Bauer-Fike, H
    normal), and along H + s (G - H), 0 <= s <= 1, the eigenvalues move
    continuously inside those discs; with no eigenvalue of H in the band,
    the discs about the eigenvalues at or below 0.1 - r and at or above
    0.9 + r are disjoint, so G has as many eigenvalues of real part at or
    above 0.9 as H has at or above 0.9 + r, and the rest at or below 0.1.
    """
    herm = 0.5 * (gens + np.conj(np.swapaxes(gens, -1, -2)))
    spectra = np.linalg.eigvalsh(herm)
    r = np.linalg.norm(gens - herm, axis=(-2, -1)) + 1e-12 * np.linalg.norm(herm, axis=(-2, -1))
    near = np.any((spectra > 0.1 - r[:, None]) & (spectra < 0.9 + r[:, None]), axis=-1)
    if near.any():
        spectra[near] = np.real(np.linalg.eigvals(gens[near]))
    return spectra


def _indicator_rank(lam: np.ndarray) -> int:
    """Number of eigenvalue indicators at or above 0.9 in the spectrum ``lam``
    of a compression generator.

    The real parts must sit outside the gray zone [0.1, 0.9]; inside it the
    data cannot support a rank decision and the call fails loudly.
    """
    lam = np.real(lam)
    grey = np.sum((lam > 0.1) & (lam < 0.9))
    if grey:
        raise AmbiguousRank(
            f"{grey} eigenvalue indicator(s) inside the gray zone [0.1, 0.9]"
        )
    return int(np.sum(lam >= 0.9))


def classify_equivalence(
    alg: EpsilonAlgebra,
    projections: list[DeltaProjection],
) -> list[list[int]]:
    """Partition one-dimensional projections by dim S_{P_j, P_k} in {0, 1}.

    L_P and R_P are formed once per projection, each with one einsum over
    the stacked coordinates, and the spectra of the n (n + 1) / 2 generators
    (L_{P_j} R_{P_k} + R_{P_k} L_{P_j}) / 2, j <= k, are taken in one stacked
    call of :func:`_indicator_spectra`.  Each spectrum gets the rank rule of
    :func:`compression_rank`, the diagonal ones first and then the pairs
    (j, k) in order, so the first failure is the one a pairwise loop meets.
    """
    n = len(projections)
    coords = np.array([p.coords for p in projections])
    lmuls = np.einsum("pi,ijk->pkj", coords, alg.star_tensor)
    rmuls = np.einsum("pj,ijk->pki", coords, alg.star_tensor)
    pairs = [(j, j) for j in range(n)] + [(j, k) for j in range(n) for k in range(j + 1, n)]
    lp, rq = lmuls[[j for j, _ in pairs]], rmuls[[k for _, k in pairs]]
    spectra = _indicator_spectra(0.5 * (lp @ rq + rq @ lp))
    for j in range(n):
        if _indicator_rank(spectra[j]) != 1:
            raise DegenerateGram(f"projection {j} is not one dimensional")
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (j, k), lam in zip(pairs[n:], spectra[n:]):
        rank = _indicator_rank(lam)
        if rank > 1:
            raise AmbiguousRank(
                f"dim S_(P{j}, P{k}) = {rank} > 1 for one-dimensional projections"
            )
        if rank == 1:
            ra, rb = find(j), find(k)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for j in range(n):
        groups.setdefault(find(j), []).append(j)
    return sorted(groups.values(), key=lambda g: (-len(g), g[0]))
