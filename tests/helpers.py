"""Shared test utilities: independent oracles and random instance builders.

The oracles here deliberately avoid the library's own code paths: cut errors
by direct subset enumeration, erf by Maclaurin series, interior counts by
edge scans, so tests compare two genuinely different routes to each value.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from sparselab.graph import WeightedGraph


def erf_series(x: float, terms: int = 120) -> float:
    """Maclaurin series for erf; cancellation-free only for |x| <= ~2.5."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


def erf_quadrature(x: float, nodes: int = 80) -> float:
    """Gauss-Legendre integration of the Gaussian; near machine precision for |x| <= 6."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = x / 2.0
    pts = half * (t + 1.0)
    return 2.0 / math.sqrt(math.pi) * float(half * (w * np.exp(-pts * pts)).sum())


def erf_inv_bisect(y: float, lo: float = -8.0, hi: float = 8.0, iters: int = 200) -> float:
    """Bisection on math.erf; independent of the Newton implementation."""
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def dict_coalesce(records) -> list[tuple[int, int, float, int]]:
    """Bundles (u, v, weight, multiplicity) of 3- or 4-tuple records, sorted by (u, v).

    The dict accumulation the graph used before it stored arrays: repeated
    pairs are summed in input order, one record at a time.
    """
    bundles: dict[tuple[int, int], tuple[float, int]] = {}
    for rec in records:
        u, v, w, m = rec if len(rec) == 4 else (*rec, 1)
        old = bundles.get((u, v))
        bundles[(u, v)] = (float(w), int(m)) if old is None else (old[0] + float(w), old[1] + int(m))
    return [(u, v, w, m) for (u, v), (w, m) in sorted(bundles.items())]


def brute_cut(graph: WeightedGraph, subset) -> float:
    inside = set(subset)
    total = 0.0
    for e in graph.edges():
        if (e.u in inside) != (e.v in inside):
            total += e.weight
    return total


def brute_cut_error(h: WeightedGraph, g: WeightedGraph) -> tuple[float, tuple[int, ...]]:
    """Worst |cut_H/cut_G - 1| by direct enumeration over subsets containing 0."""
    n = h.n
    best, witness = -1.0, ()
    for size in range(1, n):
        for rest in combinations(range(1, n), size - 1):
            s = (0,) + rest
            if len(s) == n:
                continue
            cg = brute_cut(g, s)
            ch = brute_cut(h, s)
            dev = abs(ch / cg - 1.0)
            if dev > best:
                best, witness = dev, s
    return best, witness


def check_reveal_invariants(trace) -> None:
    """Exact per-step checks of the reveal martingale's increment and ratio bounds."""
    n, k = trace.n, trace.k
    assert np.all(trace.a * n <= k * trace.b), "unmatched ratio exceeded k/n"
    assert np.all(np.abs(trace.y) <= 1.0), "increment left [-1, 1]"
    up = trace.w == 1
    assert np.all(trace.y[up] <= 1.0)
    assert np.all(trace.y[up] >= 1.0 - 2.0 * k / n), "inside-edge increment below 1 - 2k/n"
    assert np.all(trace.y[~up] <= 0.0)
    assert np.all(trace.y[~up] >= -k / n), "outside increment below -k/n"
    if 2 * k < n:
        assert trace.quad_char[-1] <= k * (k - 1) * trace.d / (n - 2 * k), "quadratic characteristic too large"


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int, weighted: bool = True) -> WeightedGraph:
    """Random spanning tree plus extra random edges; positive random weights."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
    for _ in range(extra_edges):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
    return WeightedGraph(n, ((u, v, w) for (u, v), w in edges.items()))


def random_weighted_graph(rng: np.random.Generator, n: int, density: float) -> WeightedGraph:
    """Erdos-Renyi-style weighted graph; may be disconnected."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, float(rng.uniform(0.1, 3.0))))
    return WeightedGraph(n, edges)
