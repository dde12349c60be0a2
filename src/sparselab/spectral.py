"""Laplacians and the spectral sparsification error.

The relative spectral error of H against G is the worst deviation from 1 of
the generalized eigenvalues of (L_H, L_G) restricted to the range of L_G.
The reference's type picks the path.  A :class:`Clique` reference needs only
the extreme eigenvalues of L_H on the complement of the all-ones vector,
because the clique Laplacian acts as w*n times the identity there; a
thick-restart Lanczos iteration with a basis of at most 64 vectors finds
them from the edge arrays, with no n x n array and in memory linear in n.  A
:class:`WeightedGraph` reference is whitened with the pseudo-inverse square
root of L_G, a dense solve of at most ``cap`` vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotComparableError, SizeLimitError
from .graph import Clique, WeightedGraph
from .rng import make_generator

DENSE_CAP = 4000
_KERNEL_SPLIT_RTOL = 1e-10  # eigenvalues of L_G below this (relative) are kernel
_KERNEL_CONTAIN_RTOL = 1e-8  # tolerance for kernel(L_G) inside kernel(L_H)
_LANCZOS_RTOL = 1e-13  # extreme Ritz residuals below this times ||L_H|| have converged
_LANCZOS_SEED = 0  # the start vector is fixed, so replays are identical
_BASIS_ROWS = 64  # Lanczos basis rows, the all-ones row included
_KEEP = 8  # at most this many Ritz vectors kept at each end of the spectrum at a restart
_STEPS_PER_VERTEX = 100  # a solve that takes more than this many steps per vertex fails


@dataclass(frozen=True)
class SpectralReport:
    """The spectral error and the solver's own data.

    ``iterations`` and ``residual`` describe the Lanczos solve of the clique
    path: its number of products with L_H, over all its restarts, and the
    larger extreme Ritz residual relative to the Gershgorin bound on ||L_H||.
    The dense whitening solve leaves them None.  They stay out of the JSON
    report.
    """

    epsilon: float
    lambda_min: float
    lambda_max: float
    kernel_ok: bool
    n: int
    method: str
    iterations: int | None = None
    residual: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "kernel_ok": self.kernel_ok,
            "n": self.n,
        }


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """L = D - A with D the diagonal of weighted degrees; rows sum to zero exactly."""
    a = graph.weight_matrix()
    d = a.sum(axis=1)
    lap = -a
    lap[np.diag_indices(graph.n)] = d
    return lap


def _lanczos_extremes(h: WeightedGraph, norm: float, cap: int) -> tuple[float, float, int, float]:
    """Smallest and largest eigenvalue of L_H on the complement of the all-ones vector.

    Thick-restart Lanczos (Wu and Simon, 2000) from a fixed random start, with
    L_H x formed from the edge arrays.  Row 0 of the basis V is the unit
    all-ones vector.  The image L_H v of each new row is kept, and what is
    left of it after two classical Gram-Schmidt passes against V, of norm
    beta, gives the next row.  V has at most 64 rows, and V and the images
    together hold at most cap**2 numbers.  When V is full, or beta is near
    breakdown, a Rayleigh-Ritz step on V (L_H V)' gives Ritz pairs whose
    residuals are beta |s_last|.  Once both extreme residuals are at most
    _LANCZOS_RTOL * norm, it returns.  Otherwise it keeps the smallest and
    largest Ritz vectors, _KEEP at each end and at most a quarter of the
    rows, with their images, and goes on from the residual direction, so the
    Lanczos relation holds across the restart.  The coefficients come from
    ``einsum``, which does not split a sum across BLAS threads, so the result
    is the same on any number of CPUs.  Returns (theta_min, theta_max, steps,
    residual / norm).
    """
    n = h.n
    rows = min(n, _BASIS_ROWS, cap * cap // (2 * n))
    ends = min(_KEEP, (rows - 1) // 4)
    if rows < n and ends < 1:
        raise SizeLimitError(f"cap {cap} leaves {rows} Lanczos rows at n={n}, too few to restart")
    us, vs, ws, _ = h.edge_arrays()
    deg = h.weighted_degrees()
    basis, images = np.zeros((rows, n)), np.zeros((rows, n))
    basis[0] = 1.0 / math.sqrt(n)
    w = make_generator(_LANCZOS_SEED).standard_normal(n)
    k, steps = 1, 0  # basis rows in use; products with L_H
    while True:
        for _ in range(2):
            w -= np.einsum("ij,j->i", basis[:k], w) @ basis[:k]
        b = math.sqrt(np.einsum("i,i", w, w))
        if k == rows or b <= math.sqrt(_LANCZOS_RTOL) * norm:
            m = np.einsum("ij,kj->ik", basis[1:k], images[1:k])
            theta, s = np.linalg.eigh((m + m.T) / 2.0)
            residual = b * float(np.abs(s[-1, [0, -1]]).max()) / norm
            if residual <= _LANCZOS_RTOL:
                return float(theta[0]), float(theta[-1]), steps, residual
            keep = s if k <= 2 * ends + 1 else s[:, np.r_[:ends, -ends:0]]
            kept = 1 + keep.shape[1]
            basis[1:kept], images[1:kept] = keep.T @ basis[1:k], keep.T @ images[1:k]
            k = kept
        if steps == _STEPS_PER_VERTEX * n:
            raise SizeLimitError(f"Lanczos did not converge within {steps} steps at n={n}")
        v = basis[k]
        np.divide(w, b, out=v)
        images[k] = deg * v - np.bincount(us, ws * v[vs], n) - np.bincount(vs, ws * v[us], n)
        w = images[k].copy()
        k, steps = k + 1, steps + 1


def spectral_error(h: WeightedGraph, g: WeightedGraph | Clique, cap: int = DENSE_CAP) -> SpectralReport:
    """Relative spectral error: max |lambda - 1| over generalized eigenvalues
    of (L_H, L_G) on range(L_G).

    ``cap`` bounds the dense whitening solve at cap vertices, and the Lanczos
    basis with its L_H images at cap**2 numbers.  A Lanczos solve raises
    SizeLimitError when cap leaves it too few rows to restart, or when it has
    not converged within _STEPS_PER_VERTEX * n steps, so no unconverged value
    is reported.
    Raises NotComparableError when kernel(L_G) is not contained in kernel(L_H)
    numerically, since no finite relative error exists there.
    """
    if h.n != g.n:
        raise InvalidArgumentError(f"vertex sets differ: {h.n} vs {g.n}")
    n = h.n
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices for a spectral error")
    # Gershgorin bound on ||L_H||: within a factor 2 of the true spectral norm.
    lh_norm = max(2.0 * float(h.weighted_degrees().max(initial=0.0)), np.finfo(float).tiny)

    if isinstance(g, Clique):
        # kernel(L_G) = span(1) lies in kernel(L_H) for every graph
        lo, hi, iterations, residual = _lanczos_extremes(h, lh_norm, cap)
        lam_min, lam_max, method = lo / (g.w * n), hi / (g.w * n), "clique"
    else:
        if n > cap:
            raise SizeLimitError(f"n={n} exceeds dense cap {cap}")
        lh = laplacian(h)
        w, vecs = np.linalg.eigh(laplacian(g))
        kernel = w <= _KERNEL_SPLIT_RTOL * max(float(np.abs(w).max()), np.finfo(float).tiny)
        for v in vecs[:, kernel].T:
            if float(np.linalg.norm(lh @ v)) > _KERNEL_CONTAIN_RTOL * lh_norm:
                raise NotComparableError("kernel of the reference Laplacian is not annihilated by L_H")
        white = vecs[:, ~kernel] / np.sqrt(w[~kernel])
        m = white.T @ lh @ white
        evals = np.linalg.eigvalsh((m + m.T) / 2.0)
        lam_min, lam_max, method = float(evals[0]), float(evals[-1]), "whitening"
        iterations = residual = None
    return SpectralReport(
        epsilon=max(abs(lam_min - 1.0), abs(lam_max - 1.0)),
        lambda_min=lam_min,
        lambda_max=lam_max,
        kernel_ok=True,
        n=n,
        method=method,
        iterations=iterations,
        residual=residual,
    )
