"""Laplacians and the spectral sparsification error.

The relative spectral error of H against G is the worst deviation from 1 of
the generalized eigenvalues of (L_H, L_G) restricted to the range of L_G.
The reference's type picks the path.  A :class:`Clique` reference is a plain
eigensolve of L_H, because the clique Laplacian acts as w*n times the
identity on the complement of the all-ones vector.  A :class:`WeightedGraph`
reference is whitened with the pseudo-inverse square root of L_G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotComparableError, SizeLimitError
from .graph import Clique, WeightedGraph

DENSE_CAP = 4000
_KERNEL_SPLIT_RTOL = 1e-10  # eigenvalues of L_G below this (relative) are kernel
_KERNEL_CONTAIN_RTOL = 1e-8  # tolerance for kernel(L_G) inside kernel(L_H)


@dataclass(frozen=True)
class SpectralReport:
    epsilon: float
    lambda_min: float
    lambda_max: float
    kernel_ok: bool
    n: int
    method: str

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


def spectral_error(h: WeightedGraph, g: WeightedGraph | Clique, cap: int = DENSE_CAP) -> SpectralReport:
    """Relative spectral error: max |lambda - 1| over generalized eigenvalues
    of (L_H, L_G) on range(L_G).

    Raises NotComparableError when kernel(L_G) is not contained in kernel(L_H)
    numerically, since no finite relative error exists there.
    """
    if h.n != g.n:
        raise InvalidArgumentError(f"vertex sets differ: {h.n} vs {g.n}")
    n = h.n
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices for a spectral error")
    if n > cap:
        raise SizeLimitError(f"n={n} exceeds dense cap {cap}")

    lh = laplacian(h)
    # Gershgorin bound on ||L_H||: within a factor 2 of the true spectral norm.
    lh_norm = max(2.0 * float(h.weighted_degrees().max(initial=0.0)), np.finfo(float).tiny)

    if isinstance(g, Clique):
        method = "clique"
        kernel_vecs = np.ones((n, 1)) / np.sqrt(n)  # kernel(L_G) = span(1)
        evals = np.linalg.eigvalsh(lh) / (g.w * n)
        evals = np.delete(evals, int(np.argmin(np.abs(evals))))  # the all-ones direction
    else:
        method = "whitening"
        w, vecs = np.linalg.eigh(laplacian(g))
        kernel = w <= _KERNEL_SPLIT_RTOL * max(float(np.abs(w).max()), np.finfo(float).tiny)
        kernel_vecs = vecs[:, kernel]
        white = vecs[:, ~kernel] / np.sqrt(w[~kernel])
        m = white.T @ lh @ white
        evals = np.linalg.eigvalsh((m + m.T) / 2.0)
    for v in kernel_vecs.T:
        if float(np.linalg.norm(lh @ v)) > _KERNEL_CONTAIN_RTOL * lh_norm:
            raise NotComparableError("kernel of the reference Laplacian is not annihilated by L_H")
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    return SpectralReport(
        epsilon=max(abs(lam_min - 1.0), abs(lam_max - 1.0)),
        lambda_min=lam_min,
        lambda_max=lam_max,
        kernel_ok=True,
        n=n,
        method=method,
    )
