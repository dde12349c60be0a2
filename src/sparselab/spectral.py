"""The relative spectral error of a graph against a reference.

The relative spectral error of H against G is the worst deviation from 1 of
the generalized eigenvalues of (L_H, L_G) on range(L_G).  One thick-restart
Lanczos iteration on L_G^+ L_H, self-adjoint in the L_G inner product
(Parlett, The Symmetric Eigenvalue Problem, ch. 15), finds both extremes for
either reference type with no n x n array.  A reference supplies only
y -> L_G^+ y: a closed form for a :class:`Clique`, whose L_G is w*n on the
complement of the all-ones vector, and Jacobi-preconditioned conjugate
gradients (Hestenes and Stiefel, 1952) for a :class:`WeightedGraph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotComparableError, SizeLimitError
from .graph import Clique, WeightedGraph, _component_labels
from .rng import make_generator

BASIS_CAP = 4000  # the Lanczos basis and its images hold at most BASIS_CAP**2 numbers
_LANCZOS_RTOL = 1e-13  # extreme Ritz residuals below this times max ||L_G^+ L_H v|| have converged
_LANCZOS_SEED = 0  # the start vector is fixed, so replays are identical
_BASIS_ROWS = 63  # Lanczos basis rows
_KEEP = 8  # at most this many Ritz vectors kept at each end of the spectrum at a restart
_STEPS_PER_VERTEX = 100  # a solve that takes more than this many steps per vertex fails
_CG_RTOL = 1e-14  # backward error at which a conjugate-gradient solve stops
_CG_STEPS_PER_VERTEX = 10  # a conjugate-gradient solve that takes more steps per vertex than this fails


@dataclass(frozen=True)
class SpectralReport:
    """The spectral error, and solver data that stays out of the JSON: ``method``
    ("clique", or "cg" for a graph's conjugate-gradient L_G^+), Lanczos steps over
    all restarts, and the larger extreme Ritz residual relative to max ||L_G^+ L_H v||."""

    epsilon: float
    lambda_min: float
    lambda_max: float
    n: int
    method: str
    iterations: int
    residual: float

    def to_json_dict(self) -> dict:
        # a report exists only for a comparable pair: kernel(L_G) lies in kernel(L_H)
        return {"epsilon": self.epsilon, "lambda_min": self.lambda_min, "lambda_max": self.lambda_max,
                "kernel_ok": True, "n": self.n}


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("i,i", x, y))


def _laplacian_product(graph: WeightedGraph):
    """x -> L x, summing each adjacency row with ``reduceat`` through one bundle-sized buffer."""
    indptr, nbr, wgt = graph.csr()
    deg, buf, rows = graph.weighted_degrees(), np.empty(nbr.size), np.diff(indptr) > 0
    starts, rows = indptr[:-1][rows], slice(None) if rows.all() else rows  # reduceat reads an empty row as one term

    def product(x: np.ndarray) -> np.ndarray:
        y = deg * x  # indices are in range; "clip" only lets take write into the buffer
        y[rows] -= np.add.reduceat(np.multiply(wgt, np.take(x, nbr, out=buf, mode="clip"), out=buf), starts)
        return y

    return product


def _cg_solver(g: WeightedGraph, project):
    """y -> L_G^+ y for y in range(L_G) by Jacobi-preconditioned conjugate gradients, kept in
    range(L_G) by projecting each preconditioned residual.  A solve stops at residual
    _CG_RTOL * (||L_G|| ||x|| + scale), a backward error that rounding lets it reach however
    ill-conditioned L_G is, or raises SizeLimitError after _CG_STEPS_PER_VERTEX * n products."""
    apply, deg = _laplacian_product(g), g.weighted_degrees()
    inv_deg = np.divide(1.0, deg, out=np.zeros(g.n), where=deg > 0)  # isolated vertices are projected out
    norm, budget = 2.0 * float(deg.max()), int(_CG_STEPS_PER_VERTEX * g.n)  # Gershgorin bound on ||L_G||

    def solve(y: np.ndarray, scale: float) -> np.ndarray:
        x, r = np.zeros(g.n), y.copy()
        p = s = project(inv_deg * r)
        rs = _dot(r, s)
        for _ in range(budget):
            if math.sqrt(_dot(r, r)) <= _CG_RTOL * (norm * math.sqrt(_dot(x, x)) + scale):
                return x
            q = apply(p)
            alpha = rs / _dot(p, q)
            x += alpha * p
            r -= alpha * q
            s = project(inv_deg * r)
            rs, rs_old = _dot(r, s), rs
            p = s + (rs / rs_old) * p
        raise SizeLimitError(f"conjugate gradients did not converge within {budget} steps at n={g.n}")

    return solve


def _lanczos_extremes(lh, solve, project, u: np.ndarray, rank: int, cap: int) -> tuple[float, float, int, float]:
    """Smallest and largest eigenvalue of A = L_G^+ L_H on range(L_G), of dimension rank.

    Thick-restart Lanczos (Wu and Simon, 2000) from u = L_G w, w in range(L_G).
    The rows v of V are orthonormal in <x, y> = x' L_G y and kept with their
    images L_G v.  As V lies in range(L_G), <V, L_G^+ L_H v> = V L_H v: the
    first Gram-Schmidt pass gives the new column of T = V L_H V'.  Both passes
    act on the new direction's image u, minus the rows' images; component
    means, which the L_G norm does not see, leave u; w = L_G^+ u has L_G norm
    beta = sqrt(w'u).  When V is full (63 rows, or cap**2 numbers with the
    images) or beta nears breakdown, Ritz pairs of T have residuals
    beta |s_last|; it returns once both extreme ones are at most _LANCZOS_RTOL
    * max ||A v||, else keeps _KEEP Ritz vectors at each end (at most a quarter
    of the rows) and goes on from w, so the Lanczos relation holds.  Dots are
    ``einsum``s, which do not split sums across BLAS threads, so the result is
    the same on any number of CPUs.  Returns (theta_min, theta_max, steps, residual / norm).
    """
    n = u.size
    rows = min(rank, _BASIS_ROWS, cap * cap // (2 * n))
    ends = min(_KEEP, rows // 4)
    if rows < rank and ends < 1:
        raise SizeLimitError(f"cap {cap} leaves {rows} Lanczos rows at n={n}, too few to restart")
    basis, images, t = np.zeros((rows, n)), np.zeros((rows, n)), np.zeros((rows, rows))  # T in its lower triangle
    w = solve(u, math.sqrt(_dot(u, u)))
    b = math.sqrt(max(_dot(w, u), 0.0))
    k, steps, norm = 0, 0, np.finfo(float).tiny  # basis rows in use; products with L_H; max ||A v||
    while True:
        if k == rows or b <= math.sqrt(_LANCZOS_RTOL) * norm:
            theta, s = np.linalg.eigh(t[:k, :k])
            residual = b * float(np.abs(s[-1, [0, -1]]).max()) / norm
            if residual <= _LANCZOS_RTOL:
                return float(theta[0]), float(theta[-1]), steps, residual
            keep = np.r_[:k] if k <= 2 * ends else np.r_[:ends, -ends:0]
            basis[: keep.size], images[: keep.size] = s[:, keep].T @ basis[:k], s[:, keep].T @ images[:k]
            k = keep.size
            t[:k, :k] = np.diag(theta[keep])
        if steps == _STEPS_PER_VERTEX * n:
            raise SizeLimitError(f"Lanczos did not converge within {steps} steps at n={n}")
        np.divide(w, b, out=basis[k])
        np.divide(u, b, out=images[k])
        z = lh(basis[k])
        k, steps = k + 1, steps + 1
        c = t[k - 1, :k] = np.einsum("ij,j->i", basis[:k], z)
        u = z - c @ images[:k]
        u = project(u - np.einsum("ij,j->i", basis[:k], u) @ images[:k])
        w = solve(u, math.sqrt(_dot(z, z)))
        b = math.sqrt(max(_dot(w, u), 0.0))
        norm = max(norm, math.sqrt(_dot(c, c) + b * b))


def spectral_error(h: WeightedGraph, g: WeightedGraph | Clique, cap: int = BASIS_CAP) -> SpectralReport:
    """Relative spectral error: max |lambda - 1| over generalized eigenvalues
    of (L_H, L_G) on range(L_G).

    ``cap`` bounds the Lanczos basis and its images at cap**2 numbers.  Raises
    SizeLimitError when cap leaves too few rows to restart, or the Lanczos or a
    conjugate-gradient solve runs past its step budget, so no unconverged value
    is reported.  kernel(L_G) is spanned by the indicators of G's components, so
    raises NotComparableError exactly when a positive-weight bundle of H joins
    two of them, or G has no positive-weight bundle.
    """
    if h.n != g.n:
        raise InvalidArgumentError(f"vertex sets differ: {h.n} vs {g.n}")
    n = h.n
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices for a spectral error")
    labels = np.zeros(n, dtype=np.int64) if isinstance(g, Clique) else _component_labels(g)
    us, vs, ws, _ = h.edge_arrays()
    joined = (ws > 0) & (labels[us] != labels[vs])
    if joined.any():
        i = int(np.argmax(joined))
        raise NotComparableError(f"bundle ({us[i]}, {vs[i]}) of H joins two components of the reference")
    _, comp = np.unique(labels, return_inverse=True)
    size = np.bincount(comp)
    if size.size == n:
        raise NotComparableError("the reference has no positive-weight bundle")

    def project(x: np.ndarray) -> np.ndarray:
        return x - (np.bincount(comp, x, size.size) / size)[comp]

    clique = isinstance(g, Clique)
    solve = (lambda y, scale: y / (g.w * n)) if clique else _cg_solver(g, project)
    start = project(make_generator(_LANCZOS_SEED).standard_normal(n))
    lo, hi, steps, residual = _lanczos_extremes(_laplacian_product(h), solve, project, start, n - size.size, cap)
    return SpectralReport(epsilon=max(abs(lo - 1.0), abs(hi - 1.0)), lambda_min=lo, lambda_max=hi, n=n,
                          method="clique" if clique else "cg", iterations=steps, residual=residual)
