"""Dense symmetric eigendecomposition and spectral sparsification error.

The relative spectral error of H against G is the worst deviation from 1 of
the generalized eigenvalues of (L_H, L_G) restricted to the range of L_G.
It is computed by whitening with the pseudo-inverse square root of L_G; when
G is a uniform-weight clique the whitening collapses to a plain eigensolve
of L_H, because the clique Laplacian acts as a multiple of the identity on
the complement of the all-ones vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotComparableError, SizeLimitError
from .graph import WeightedGraph, uniform_clique_weight

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


def adjacency(graph: WeightedGraph) -> np.ndarray:
    return graph.weight_matrix()


def symmetric_eigenvalues(a, cap: int = DENSE_CAP) -> np.ndarray:
    """All eigenvalues in ascending order (LAPACK dense solver)."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape[0] > cap:
        raise SizeLimitError(f"n={arr.shape[0]} exceeds dense eigensolver cap {cap}")
    return np.linalg.eigvalsh(arr)


def spectral_error(h: WeightedGraph, g: WeightedGraph, method: str = "auto", cap: int = DENSE_CAP) -> SpectralReport:
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
    if method not in ("auto", "whitening", "clique"):
        raise InvalidArgumentError(f"unknown method {method!r}")

    lh = laplacian(h)
    # Gershgorin bound on ||L_H||: within a factor 2 of the true spectral norm.
    lh_norm = max(2.0 * float(h.weighted_degrees().max(initial=0.0)), np.finfo(float).tiny)

    clique_w = uniform_clique_weight(g)
    if method == "clique" and clique_w is None:
        raise InvalidArgumentError("clique method requires a uniform-weight complete reference")
    use_clique = clique_w is not None and method in ("auto", "clique")

    if use_clique:
        # kernel(L_G) = span(1); L_H 1 = 0 exactly by construction of L = D - A.
        ones = np.ones(n) / np.sqrt(n)
        if float(np.linalg.norm(lh @ ones)) > _KERNEL_CONTAIN_RTOL * lh_norm:
            raise NotComparableError("kernel of the reference Laplacian is not annihilated by L_H")
        evals = np.linalg.eigvalsh(lh) / (clique_w * n)
        evals = np.delete(evals, int(np.argmin(np.abs(evals))))  # the all-ones direction
        lam_min, lam_max = float(evals[0]), float(evals[-1])
        return SpectralReport(
            epsilon=max(abs(lam_min - 1.0), abs(lam_max - 1.0)),
            lambda_min=lam_min,
            lambda_max=lam_max,
            kernel_ok=True,
            n=n,
            method="clique",
        )

    lg = laplacian(g)
    w, vecs = np.linalg.eigh(lg)
    scale = max(float(np.abs(w).max()), np.finfo(float).tiny)
    kernel = w <= _KERNEL_SPLIT_RTOL * scale
    kvecs = vecs[:, kernel]
    for j in range(kvecs.shape[1]):
        if float(np.linalg.norm(lh @ kvecs[:, j])) > _KERNEL_CONTAIN_RTOL * lh_norm:
            raise NotComparableError("kernel of the reference Laplacian is not annihilated by L_H")
    rvecs = vecs[:, ~kernel]
    white = rvecs / np.sqrt(w[~kernel])
    m = white.T @ lh @ white
    m = (m + m.T) / 2.0
    evals = np.linalg.eigvalsh(m)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    return SpectralReport(
        epsilon=max(abs(lam_min - 1.0), abs(lam_max - 1.0)),
        lambda_min=lam_min,
        lambda_max=lam_max,
        kernel_ok=True,
        n=n,
        method="whitening",
    )


def regular_clique_epsilon_oracle(h_unscaled: WeightedGraph, d: int) -> float:
    """Independent path for the error of ((n-1)/d) H against the unweighted clique.

    For unweighted d-regular H the generalized eigenvalue attached to an
    adjacency eigenvalue eta (on the complement of all-ones) is
    (n-1)(d - eta)/(d n); the top eigenvalue eta = d is the all-ones direction
    and is excluded.
    """
    n = h_unscaled.n
    deg = h_unscaled.combinatorial_degrees()
    if not np.all(deg == d):
        raise InvalidArgumentError("oracle requires an unweighted d-regular multigraph")
    eta = symmetric_eigenvalues(adjacency(h_unscaled))
    eta = eta[:-1]  # drop the Perron eigenvalue (= d for connected H)
    lam = (n - 1) * (d - eta) / (d * n)
    return float(np.abs(lam - 1.0).max())
