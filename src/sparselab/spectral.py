"""Laplacians and the spectral sparsification error.

The relative spectral error of H against G is the worst deviation from 1 of
the generalized eigenvalues of (L_H, L_G) restricted to the range of L_G.
The reference's type picks the path.  A :class:`Clique` reference needs only
the extreme eigenvalues of L_H on the complement of the all-ones vector,
because the clique Laplacian acts as w*n times the identity there; a Lanczos
iteration finds them from the edge arrays, with no n x n array.  A
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


@dataclass(frozen=True)
class SpectralReport:
    """The spectral error and the solver's own data.

    ``iterations`` and ``residual`` describe the Lanczos solve of the clique
    path: its number of steps, and the larger extreme Ritz residual relative
    to the Gershgorin bound on ||L_H||.  The dense whitening solve leaves them
    None.  They stay out of the JSON report.
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

    Lanczos from a fixed random start, with L_H x formed from the edge
    arrays.  Row 0 of the basis is the unit all-ones vector, and each new
    vector L_H v_k is orthogonalized against the whole basis twice (classical
    Gram-Schmidt); the first pass's coefficient of v_k is alpha_k, the
    remaining norm beta_k.  The basis holds at most cap**2 numbers.  The
    iteration stops when both extreme Ritz residuals beta_k |s_k| are at most
    _LANCZOS_RTOL * norm, or when the basis spans the complement; they are
    tested on the schedule of :func:`_steps_to_converge`, and at once when
    beta_k is small, near an invariant subspace.  The coefficients come from
    ``einsum``, which does not split a sum across BLAS threads, so the result
    is the same on any number of CPUs.  Returns (theta_min, theta_max, steps,
    residual / norm).
    """
    n = h.n
    rows = min(n, cap * cap // n)
    if rows < 2:
        raise SizeLimitError(f"n={n} leaves no room for a Lanczos basis within cap {cap}")
    us, vs, ws, _ = h.edge_arrays()
    deg = h.weighted_degrees()
    basis = np.empty((rows, n))
    basis[0] = 1.0 / math.sqrt(n)
    alpha, beta = np.zeros(rows), np.zeros(rows)
    w = make_generator(_LANCZOS_SEED).standard_normal(n)
    k, test_at, last = 0, 1, None  # Lanczos vectors in basis[1 : k + 1]; when to test next; the last test
    while True:
        for gs_pass in range(2):
            c = np.einsum("ij,j->i", basis[: k + 1], w)
            w -= c @ basis[: k + 1]
            if k and not gs_pass:
                alpha[k - 1] = c[k]  # v_k . L_H v_k
        beta[k] = b = math.sqrt(np.einsum("i,i", w, w))
        near_breakdown = b <= math.sqrt(_LANCZOS_RTOL) * norm
        if k and (near_breakdown or k >= test_at or k == rows - 1):
            t = np.diag(alpha[:k]) + np.diag(beta[1:k], 1) + np.diag(beta[1:k], -1)
            theta, s = np.linalg.eigh(t)
            residual = b * float(np.abs(s[-1, [0, -1]]).max()) / norm
            if residual <= _LANCZOS_RTOL or k == n - 1:
                return float(theta[0]), float(theta[-1]), k, residual
            test_at = k + (1 if near_breakdown else _steps_to_converge(n, k, residual, last))
            last = (k, residual)
        if k == rows - 1:
            raise SizeLimitError(f"Lanczos did not converge within {k} steps, the basis cap {cap}**2 allows at n={n}")
        k += 1
        v = basis[k]
        np.divide(w, b, out=v)
        w = deg * v - np.bincount(us, ws * v[vs], n) - np.bincount(vs, ws * v[us], n)


def _steps_to_converge(n: int, k: int, residual: float, last: tuple[int, float] | None) -> int:
    """Steps to take before the next convergence test, after a failed one at step k.

    The residual's geometric decay since the last test predicts the step
    where it reaches the tolerance.  A test solves the k x k tridiagonal
    problem densely, which costs about as much as k*k/(2n) steps, so tests
    are at least that far apart, and at most k/4.
    """
    most = max(1, k // 4)
    if last is None or not residual < last[1]:
        return most
    rate = math.log(last[1] / residual) / (k - last[0])
    predicted = math.ceil(math.log(residual / _LANCZOS_RTOL) / rate)
    return min(most, max(1, k * k // (2 * n), predicted))


def spectral_error(h: WeightedGraph, g: WeightedGraph | Clique, cap: int = DENSE_CAP) -> SpectralReport:
    """Relative spectral error: max |lambda - 1| over generalized eigenvalues
    of (L_H, L_G) on range(L_G).

    ``cap`` bounds the dense whitening solve at cap vertices and the Lanczos
    basis at cap**2 numbers; a Lanczos solve that has not converged within
    that basis raises SizeLimitError, so no unconverged value is reported.
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
