"""Shared test utilities: independent oracles and random instance builders.

The oracles here deliberately avoid the library's own code paths: cut errors
by direct subset enumeration, erf by Maclaurin series, interior counts by
edge scans, so tests compare two genuinely different routes to each value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from sparselab.cuts import CutErrorReport, CutProfile, CutProfileRow, _profile_references
from sparselab.errors import DegenerateInputError, InvalidArgumentError, SizeLimitError
from sparselab.graph import Clique, WeightedGraph, _concat_ranges
from sparselab.nbwalk import FIRST_STEP_UNIFORM, FIRST_STEP_WEIGHT, PseudoGirthReport, _EdgeSpace, _support_vectors, _walk_levels
from sparselab import nbwalk
from sparselab.rng import derive_seed, make_generator

DENSE_CAP = 4000  # the dense oracles stop at this many vertices


def cpus(count: int):
    """Patch the affinity mask that forked splits read to ``count`` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(count)))


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


def bundles(graph: WeightedGraph) -> list[tuple[int, int, float, int]]:
    """The graph's (u, v, weight, multiplicity) bundles as Python numbers, in stored order."""
    return list(zip(*(a.tolist() for a in graph.edge_arrays())))


def brute_cut(graph: WeightedGraph, subset) -> float:
    """Total weight of the bundles with exactly one end in the subset."""
    inside = set(subset)
    total = 0.0
    for u, v, w, _ in bundles(graph):
        if (u in inside) != (v in inside):
            total += w
    return total


def brute_interior(graph: WeightedGraph, subset) -> float:
    """Total weight of the bundles with both ends in the subset."""
    inside = set(subset)
    return sum((w for u, v, w, _ in bundles(graph) if u in inside and v in inside), 0.0)


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


def combinatorial_degrees(graph: WeightedGraph) -> np.ndarray:
    """Per-vertex count of edges, each bundle counted by its multiplicity at both ends."""
    us, vs, _, ms = graph.edge_arrays()
    return np.bincount(us, ms, graph.n) + np.bincount(vs, ms, graph.n)


def weight_matrix(graph: WeightedGraph) -> np.ndarray:
    """Dense symmetric matrix of bundle weights (zero diagonal)."""
    us, vs, ws, _ = graph.edge_arrays()
    a = np.zeros((graph.n, graph.n))
    a[us, vs] = ws
    a[vs, us] = ws
    return a


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """L = D - A with D the diagonal of weighted degrees; rows sum to zero exactly."""
    a = weight_matrix(graph)
    d = a.sum(axis=1)
    lap = -a
    lap[np.diag_indices(graph.n)] = d
    return lap


def symmetric_eigenvalues(a, cap: int = DENSE_CAP) -> np.ndarray:
    """All eigenvalues in ascending order (LAPACK dense solver)."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape[0] > cap:
        raise SizeLimitError(f"n={arr.shape[0]} exceeds dense eigensolver cap {cap}")
    return np.linalg.eigvalsh(arr)


def regular_clique_epsilon_oracle(h_unscaled: WeightedGraph, d: int) -> float:
    """Independent path for the error of ((n-1)/d) H against the unweighted clique.

    For unweighted d-regular H the generalized eigenvalue attached to an
    adjacency eigenvalue eta (on the complement of all-ones) is
    (n-1)(d - eta)/(d n); the top eigenvalue eta = d is the all-ones direction
    and is excluded.
    """
    n = h_unscaled.n
    deg = combinatorial_degrees(h_unscaled)
    if not np.all(deg == d):
        raise InvalidArgumentError("oracle requires an unweighted d-regular multigraph")
    eta = symmetric_eigenvalues(weight_matrix(h_unscaled))
    eta = eta[:-1]  # drop the Perron eigenvalue (= d for connected H)
    lam = (n - 1) * (d - eta) / (d * n)
    return float(np.abs(lam - 1.0).max())


def pair_scan_oracle(h: WeightedGraph, g: WeightedGraph | Clique, row_block: int = 1024):
    """(best, witness, examined) of the singleton and pair scan, over the dense
    weight matrices in row blocks.

    The scan the sampled cut error used before it read the pairs from the
    edge arrays; the witness is a worst singleton, else the first worst pair
    in row order.
    """
    n = h.n
    clique = isinstance(g, Clique)
    dh = h.weighted_degrees()
    dg = np.full(n, g.cut(1)) if clique else g.weighted_degrees()
    if np.any(dg <= 0):
        v = int(np.argmax(dg <= 0))
        raise DegenerateInputError(f"reference cut is zero for S=({v},); no finite relative error exists")
    dev1 = np.abs(dh / dg - 1.0)
    i = int(np.argmax(dev1))
    best, witness = float(dev1[i]), (i,)
    examined = n
    if n >= 3:
        wh, wg = weight_matrix(h), (None if clique else weight_matrix(g))
        for lo in range(0, n, row_block):
            hi = min(lo + row_block, n)
            ch = (dh[lo:hi, None] + dh[None, :]) - 2.0 * wh[lo:hi]
            cg = np.full(ch.shape, g.cut(2)) if clique else (dg[lo:hi, None] + dg[None, :]) - 2.0 * wg[lo:hi]
            iu, iv = np.triu_indices(hi - lo, k=1, m=n)
            keep = iv > iu + lo
            iu, iv = iu[keep], iv[keep]
            ch, cg = ch[iu, iv], cg[iu, iv]
            if np.any(cg <= 0):
                j = int(np.argmax(cg <= 0))
                raise DegenerateInputError(
                    f"reference cut is zero for S=({iu[j] + lo}, {iv[j]}); no finite relative error exists"
                )
            dev = np.abs(ch / cg - 1.0)
            examined += dev.size
            j = int(np.argmax(dev)) if dev.size else 0
            if dev.size and dev[j] > best:
                best = float(dev[j])
                witness = (int(iu[j]) + lo, int(iv[j]))
    return best, witness, examined


def clique_pairs_oracle(h: WeightedGraph, cut2: float) -> tuple[float, tuple[int, int]]:
    """Worst |cut({u, v}) / cut2 - 1| over pairs u < v and its first maximizer in
    row order, from the dense weight matrix of H."""
    dh = h.weighted_degrees()
    iu, iv = np.triu_indices(h.n, k=1)
    dev = np.abs(((dh[iu] + dh[iv]) - 2.0 * weight_matrix(h)[iu, iv]) / cut2 - 1.0)
    j = int(np.argmax(dev))
    return float(dev[j]), (int(iu[j]), int(iv[j]))


def whitening_extremes_oracle(h: WeightedGraph, g: WeightedGraph) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the pencil (L_H, L_G) on range(L_G), by dense whitening.

    The eigenvectors of L_G with eigenvalues above 1e-10 of its largest span
    its range; scaling them by the inverse square roots of their eigenvalues
    whitens L_G, and the extremes are those of L_H in that basis.  The
    spectral error computed both references this way before it ran one
    Lanczos solver for both.
    """
    w, vecs = np.linalg.eigh(laplacian(g))
    kernel = w <= 1e-10 * max(float(np.abs(w).max()), np.finfo(float).tiny)
    white = vecs[:, ~kernel] / np.sqrt(w[~kernel])
    m = white.T @ laplacian(h) @ white
    evals = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(evals[0]), float(evals[-1])


def spectral_extremes_oracle(h: WeightedGraph, g: Clique) -> tuple[float, float]:
    """(lambda_min, lambda_max) of L_H / (w n) on the complement of the all-ones
    vector, from every eigenvalue of the dense Laplacian less the one nearest 0."""
    evals = symmetric_eigenvalues(laplacian(h)) / (g.w * h.n)
    evals = np.delete(evals, int(np.argmin(np.abs(evals))))
    return float(evals[0]), float(evals[-1])


class IncrementalCut:
    """Cut value maintained under single-vertex flips in O(degree) time.

    Used as the independent cross-check for the vectorized enumeration: the
    two paths must agree to float accumulation error.
    """

    def __init__(self, graph: WeightedGraph, members=()):
        self._indptr, self._nbr, self._wgt = graph.csr()
        self._in = np.zeros(graph.n, dtype=bool)
        self.cut = 0.0
        for v in members:
            self.flip(v)

    def flip(self, v: int) -> float:
        lo, hi = self._indptr[v], self._indptr[v + 1]
        nbrs = self._nbr[lo:hi]
        ws = self._wgt[lo:hi]
        inside = self._in[nbrs]
        entering = not self._in[v]
        if entering:
            # edges to outside vertices start crossing, edges to inside stop
            self.cut += float(ws[~inside].sum()) - float(ws[inside].sum())
        else:
            self.cut += float(ws[inside].sum()) - float(ws[~inside].sum())
        self._in[v] = entering
        return self.cut

    def members(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.flatnonzero(self._in))


# -- hypothesis strategies --------------------------------------------------------

# integer weights make exact ties, so first-in-visit-order rules are exercised
_weights = st.one_of(st.integers(1, 3).map(float), st.floats(0.25, 4.0))


@st.composite
def connected_graphs(draw, n=None, max_n=10, weights=_weights):
    """Random spanning tree plus extra edges on 2..max_n vertices, positive weights."""
    if n is None:
        n = draw(st.integers(2, max_n))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(weights)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights), max_size=2 * n))
    for u, v, w in extra:
        if u != v:
            edges[(min(u, v), max(u, v))] = w
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


@st.composite
def graph_pairs(draw, max_n=10, weights=_weights):
    h = draw(connected_graphs(max_n=max_n, weights=weights))
    return h, draw(connected_graphs(h.n, weights=weights))


# -- walk tables and test vectors of one root ------------------------------------------
#
# One-root views of the support engine in sparselab.nbwalk, which only tests read.


@dataclass(frozen=True)
class WalkTable:
    """Vertex-visit probabilities of the non-backtracking walk from one root."""

    root: int
    horizon: int
    tables: tuple[dict[int, float], ...]  # index ell -> {vertex: probability}
    deficiency: tuple[float, ...]  # mass lost to dead ends by step ell

    def mass(self, ell: int) -> float:
        return sum(self.tables[ell].values())


@dataclass(frozen=True)
class WalkVectors:
    root: int
    horizon: int
    f: np.ndarray  # alternating square-root sums
    h: np.ndarray  # plain square-root sums


def _walk_checks(graph: WeightedGraph, r: int, g: int) -> None:
    if g < 0:
        raise InvalidArgumentError(f"horizon must be nonnegative, got {g}")
    if not 0 <= r < graph.n:
        raise InvalidArgumentError(f"root {r} out of range")
    if graph.weighted_degrees()[r] <= 0:
        raise InvalidArgumentError(f"root {r} is isolated")


def nb_walk_probabilities(graph: WeightedGraph, r: int, g: int, first_step: str = FIRST_STEP_WEIGHT) -> WalkTable:
    """Vertex-visit probabilities of the ell-step walk for every ell in [0, g]."""
    _walk_checks(graph, r, g)
    tables = [{int(r): 1.0}]
    deficiency = [0.0]
    index = np.full(graph.n, -1, dtype=np.int32)  # one root: a cell is its vertex
    for cells, marg, lost, _ in _walk_levels(_EdgeSpace(graph), np.array([r]), g, first_step, index):
        tables.append({v: p for v, p in zip(cells.tolist(), marg.tolist()) if p})
        deficiency.append(float(lost[0]))
    return WalkTable(root=r, horizon=g, tables=tuple(tables), deficiency=tuple(deficiency))


def walk_vectors(graph: WeightedGraph, r: int, g: int, first_step: str = FIRST_STEP_WEIGHT) -> WalkVectors:
    """f_r(v) = sum_ell (-1)^ell sqrt(Pr_ell[v]) and h_r(v) = sum_ell sqrt(Pr_ell[v])."""
    _walk_checks(graph, r, g)
    index = np.full(graph.n, -1, dtype=np.int32)
    cells, f_support, h_support, *_ = _support_vectors(_EdgeSpace(graph), np.array([r]), g, first_step, index)
    f, h = np.zeros(graph.n), np.zeros(graph.n)
    f[cells], h[cells] = f_support, h_support
    return WalkVectors(root=r, horizon=g, f=f, h=h)


# -- per-root walk and pseudo-girth oracles -------------------------------------------
#
# A one-root-at-a-time certificate engine: dense walks over every directed
# edge in id order, one BFS per root, and quadratic forms over all n vertices
# and m edges.  The support engine in sparselab.nbwalk agrees with its walk
# tables, dead-end losses, f and h bit for bit, with its ball flags exactly,
# and with its forms to 1e-12, because it sums each root's forms over the
# root's support in another order.


class OracleEdgeSpace:
    """Dense directed-edge walk: edge b is us[b] -> vs[b], edge m + b its reverse."""

    def __init__(self, n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray, wdeg: np.ndarray):
        self.n = n
        self.eu, self.ev, self.ew = us, vs, ws
        self.src = np.concatenate([us, vs])
        self.dst = np.concatenate([vs, us])
        self.w = np.concatenate([ws, ws])
        m = len(us)
        self.m2 = 2 * m
        self.rev = np.concatenate([np.arange(m, 2 * m), np.arange(0, m)])
        self.wdeg = wdeg
        self.deg = np.zeros(n, dtype=np.int64)
        np.add.at(self.deg, self.src, 1)
        self.dead = self.deg[self.dst] == 1
        self.denom = self._leave_one_out_sums()

    @classmethod
    def of(cls, graph: WeightedGraph) -> "OracleEdgeSpace":
        us, vs, ws, _ = graph.edge_arrays()
        positive = ws > 0
        return cls(graph.n, us[positive], vs[positive], ws[positive], graph.weighted_degrees())

    @classmethod
    def of_space(cls, space) -> "OracleEdgeSpace":
        """The edges of an ``nbwalk._EdgeSpace``, read in bundle order off its slots to higher vertices."""
        upper = _concat_ranges(space.out_ptr[:-1], space.up)
        return cls(space.n, np.repeat(np.arange(space.n), space.up), space.dst[upper], space.w[upper], space.wdeg)

    def _leave_one_out_sums(self) -> np.ndarray:
        order = np.argsort(self.dst, kind="stable")
        ws = self.w[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(indptr, self.dst + 1, 1)
        np.cumsum(indptr, out=indptr)
        denom_sorted = np.empty_like(ws)
        for v in range(self.n):
            lo, hi = int(indptr[v]), int(indptr[v + 1])
            if lo == hi:
                continue
            wv = ws[lo:hi]
            pre = np.concatenate(([0.0], np.cumsum(wv[:-1])))
            suf = np.concatenate((np.cumsum(wv[:0:-1])[::-1], [0.0]))
            denom_sorted[lo:hi] = pre + suf
        denom = np.empty_like(ws)
        denom[order] = denom_sorted
        return denom

    def start(self, root: int, first_step: str) -> np.ndarray:
        p = np.zeros(self.m2)
        out = self.src == root
        if first_step == FIRST_STEP_WEIGHT:
            p[out] = self.w[out] / self.wdeg[root]
        elif first_step == FIRST_STEP_UNIFORM:
            p[out] = 1.0 / int(out.sum())
        else:
            raise ValueError(first_step)
        return p

    def step(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        lost = float(p[self.dead].sum())
        contrib = np.zeros_like(p)
        np.divide(p, self.denom, out=contrib, where=~self.dead)
        q = np.bincount(self.dst, weights=contrib, minlength=self.n)
        newp = self.w * (q[self.src] - contrib[self.rev])
        np.maximum(newp, 0.0, out=newp)
        return newp, lost

    def marginal(self, p: np.ndarray) -> np.ndarray:
        return np.bincount(self.dst, weights=p, minlength=self.n)


def walk_tables_oracle(graph: WeightedGraph, r: int, g: int, first_step: str):
    """(tables, deficiency) of the walk from r, one dense step at a time."""
    space = OracleEdgeSpace.of(graph)
    tables = [{int(r): 1.0}]
    deficiency = [0.0]
    if g >= 1:
        p = space.start(r, first_step)
        lost = 0.0
        for _ in range(g):
            marg = space.marginal(p)
            tables.append({int(v): float(marg[v]) for v in np.flatnonzero(marg)})
            deficiency.append(lost)
            p, newly_lost = space.step(p)
            lost += newly_lost
    return tuple(tables), tuple(deficiency)


def vectors_oracle(space: OracleEdgeSpace, r: int, g: int, first_step: str):
    """(f_r, h_r, mass deficit) of one root."""
    f = np.zeros(space.n)
    h = np.zeros(space.n)
    f[r] = 1.0
    h[r] = 1.0
    deficit = 0.0
    if g >= 1:
        p = space.start(r, first_step)
        lost_cum = 0.0
        sign = -1.0
        for ell in range(1, g + 1):
            s = np.sqrt(space.marginal(p))
            f += sign * s
            h += s
            deficit += lost_cum
            sign = -sign
            if ell < g:
                p, newly_lost = space.step(p)
                lost_cum += newly_lost
    return f, h, deficit


def _root_terms_oracle(dense: OracleEdgeSpace, r: int, g: int, first_step: str) -> list[float]:
    """The ten certificate terms of one root, in ``nbwalk._walk_terms`` row
    order and product form: x'L_H x = sum_v wdeg_v x_v^2 - 2 sum_e w_e x_u x_v."""
    n, eu, ev, ew, wdeg = dense.n, dense.eu, dense.ev, dense.ew, dense.wdeg
    f, h, deficit = vectors_oracle(dense, r, g, first_step)
    nf2 = float((f * f).sum())
    nh2 = float((h * h).sum())
    sf = float(f.sum())
    sh = float(h.sum())
    fd = float(np.einsum("n,n->", f * f, wdeg))
    hd = float(np.einsum("n,n->", h * h, wdeg))
    faf = float(np.einsum("m,m->", f[eu] * f[ev], ew))
    hah = float(np.einsum("m,m->", h[eu] * h[ev], ew))
    return [fd - 2.0 * faf, hd - 2.0 * hah, nf2 - sf * sf / n, nh2 - sh * sh / n, hd, 2.0 * (hah - faf), nf2, nh2, sh * sh, deficit]


def root_terms_difference_oracle(dense: OracleEdgeSpace, r: int, g: int, first_step: str) -> list[float]:
    """The same ten terms in edge-difference form, x'L_H x = sum_e w_e (x_u - x_v)^2,
    with BLAS dot products: the forms the certificate used before the product form."""
    n, eu, ev, ew, wdeg = dense.n, dense.eu, dense.ev, dense.ew, dense.wdeg
    f, h, deficit = vectors_oracle(dense, r, g, first_step)
    df = f[eu] - f[ev]
    dh = h[eu] - h[ev]
    nf2 = float(f @ f)
    nh2 = float(h @ h)
    sf = float(f.sum())
    sh = float(h.sum())
    return [
        float((ew * df * df).sum()),
        float((ew * dh * dh).sum()),
        nf2 - sf * sf / n,
        nh2 - sh * sh / n,
        float(wdeg @ (h * h)),
        2.0 * float((ew * (h[eu] * h[ev] - f[eu] * f[ev])).sum()),
        nf2,
        nh2,
        sh * sh,
        deficit,
    ]


def walk_terms_oracle(space, g: int, first_step: str, lo: int, hi: int):
    """Drop-in for ``nbwalk._walk_terms``: the same (10, roots) columns, root
    by root, and the roots' (flags_g, flags_2g, B), by one BFS per root."""
    dense = OracleEdgeSpace.of_space(space)
    graph = WeightedGraph.from_arrays(space.n, dense.eu, dense.ev, dense.ew)
    terms = np.array([_root_terms_oracle(dense, r, g, first_step) for r in range(lo, hi)]).reshape(hi - lo, 10).T
    return terms, ball_flags_oracle(graph, g, np.arange(lo, hi))


def certificate_sums_oracle(terms: np.ndarray, g: int, vprime: np.ndarray):
    """The certificate's ten totals of the (10, n) per-root terms, added root
    by root in Python, the worst V' norm deviation and the largest squared norm."""
    totals = [0.0] * 10
    worst_vprime_dev = 0.0
    worst_norm_sq = 0.0
    for r, column in enumerate(terms.T.tolist()):
        totals = [total + term for total, term in zip(totals, column)]
        nf2, nh2, deficit = column[6], column[7], column[9]
        if vprime[r]:
            expected = (g + 1) - deficit
            worst_vprime_dev = max(worst_vprime_dev, abs(nf2 - expected), abs(nh2 - expected))
        worst_norm_sq = max(worst_norm_sq, nf2, nh2)
    return totals, worst_vprime_dev, worst_norm_sq


def certificate_work_oracle(graph: WeightedGraph, g: int) -> float:
    """``nbwalk.certificate_work`` as one ``sum`` term per depth, with a count that reached n kept
    at n so that the power cannot overflow."""
    n = graph.n
    dbar = graph.csr()[1].size / n
    counts = []
    for ell in range(1, g):
        counts.append(n if counts[-1:] == [n] else min(n, dbar * (dbar - 1) ** (ell - 1)))
    return 32 * n * dbar * (1 + sum(counts))


def neighbors(graph: WeightedGraph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated ``csr`` neighbor lists of the given vertices, in order."""
    indptr, nbr, _ = graph.csr()
    return nbr[_concat_ranges(indptr[vertices], indptr[vertices + 1] - indptr[vertices])]


def bfs_depths(graph: WeightedGraph, start: int, radius: int | None = None) -> np.ndarray:
    """Breadth-first depth from start through positive-weight bundles, up to
    the radius (unbounded if None); vertices not reached are -1."""
    depth = np.full(graph.n, -1, dtype=np.int64)
    depth[start] = 0
    frontier = np.array([start], dtype=np.int64)
    level = 0
    while frontier.size and (radius is None or level < radius):
        level += 1
        flat = neighbors(graph, frontier)
        frontier = np.unique(flat[depth[flat] < 0])
        depth[frontier] = level
    return depth


def connected_component(graph: WeightedGraph, start: int = 0) -> list[int]:
    """Sorted vertex list of the positive-weight component containing start."""
    return [int(v) for v in np.flatnonzero(bfs_depths(graph, start) >= 0)]


def _ball_edges(graph: WeightedGraph, depth: np.ndarray, radius: int) -> tuple[int, int]:
    """(vertices, edges) of the subgraph induced by depth <= radius."""
    members = np.flatnonzero((depth >= 0) & (depth <= radius))
    d = depth[neighbors(graph, members)]
    deg_sum = int(((d >= 0) & (d <= radius)).sum())
    return members.size, deg_sum // 2


def ball_flags_oracle(graph: WeightedGraph, g: int, roots: np.ndarray):
    """Drop-in for ``nbwalk._girth_flags``: one BFS to radius 2g per root."""
    flags_g = np.zeros(len(roots), dtype=bool)
    flags_2g = np.zeros(len(roots), dtype=bool)
    bmax = 0
    for i, r in enumerate(roots):
        depth = bfs_depths(graph, r, 2 * g)
        verts_g, edges_g = _ball_edges(graph, depth, g)
        verts_2g, edges_2g = _ball_edges(graph, depth, 2 * g)
        bmax = max(bmax, verts_g)
        flags_g[i] = edges_g == verts_g - 1
        flags_2g[i] = edges_2g == verts_2g - 1
    return flags_g, flags_2g, bmax


def pseudo_girth_with_flags(graph: WeightedGraph, g: int):
    """``nbwalk.pseudo_girth``'s report and the radius-g flags it computed on the way."""
    made, real = [], nbwalk._girth_report
    with mock.patch.object(nbwalk, "_girth_report", lambda *args: made.append(real(*args)) or made[-1]):
        report = nbwalk.pseudo_girth(graph, g)
    (pair,) = made
    assert pair[0] == report
    return pair


def pseudo_girth_scan_oracle(graph: WeightedGraph, g: int):
    """The report and radius-g flags of :func:`pseudo_girth_with_flags`, one root at a time."""
    n = graph.n
    flags_g, flags_2g, bmax = ball_flags_oracle(graph, g, np.arange(n))
    report = PseudoGirthReport(
        g=g,
        n=n,
        acyclic_g=int(flags_g.sum()),
        acyclic_2g=int(flags_2g.sum()),
        F=n - int(flags_2g.sum()),
        B=bmax,
        violating=tuple(int(r) for r in np.flatnonzero(~flags_2g)[:32]),
    )
    return report, flags_g


# -- appendix grids -------------------------------------------------------------------


def default_appendix_grids(
    ratio_points: int = 40,
    c_points: int = 40,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Dense log-spaced grids: ratios delta/C in (0, 1] with C in [0.1, 1e3] for the
    Taylor form, and delta >= C >= 1 with delta up to 1e6 for the log-linear form."""
    ratios = np.logspace(-3, 0, ratio_points)
    cs = np.logspace(-1, 3, c_points)
    taylor = [(float(r * c), float(c)) for r in ratios for c in cs]
    cs2 = np.logspace(0, 6, c_points)
    loglinear = [
        (float(delta), float(c))
        for c in cs2
        for delta in np.logspace(math.log10(c), 6, ratio_points)
        if delta >= c
    ]
    return taylor, loglinear


# -- one-matching sampler oracle ----------------------------------------------------
#
# The sampler that the batched (d, n) partner table in sparselab.graph replaced:
# one ``rng.permutation(n)`` per matching.  d calls on one generator must give
# the batched table row for row and leave the generator in the same state.


def sample_matching_oracle(rng: np.random.Generator, n: int) -> np.ndarray:
    """Partner array of one uniform perfect matching: shuffle, pair consecutive entries."""
    perm = rng.permutation(n)
    partner = np.empty(n, dtype=np.int64)
    partner[perm[0::2]] = perm[1::2]
    partner[perm[1::2]] = perm[0::2]
    return partner


def empirical_tail_oracle(n: int, k: int, d: int, delta: float, trials: int, seed: int):
    """(exceedances, total interior count) of ``empirical_tail``, one matching at a time."""
    expected = math.comb(k, 2) * d / (n - 1.0)
    exceed = total = 0
    for t in range(trials):
        rng = make_generator(derive_seed(seed, t))
        e = sum(int((sample_matching_oracle(rng, n)[:k] < k).sum()) for _ in range(d)) // 2
        total += e
        if abs(e - expected) >= delta * expected:
            exceed += 1
    return exceed, total


# -- Gray-block exhaustive oracle ------------------------------------------------------
#
# The enumeration that the split kernel in sparselab.cuts replaced: subsets in
# binary-reflected Gray-code order over vertices 1..n-1 with vertex 0 pinned
# inside, evaluated block by block from per-vertex membership bits, and two
# reducers over the blocks.  Every exhaustive report must equal these bit for
# bit, witnesses included.

_BLOCK_BITS = 18


def _gray_blocks(n: int):
    """Yield bitmask-array blocks covering all subsets with vertex 0 inside.

    Bit v of a mask is membership of vertex v.  The sequence walks subsets in
    binary-reflected Gray-code order over vertices 1..n-1; masks include the
    full vertex set once.
    """
    total = 1 << (n - 1)
    step = min(total, 1 << _BLOCK_BITS)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint64)
        gray = idx ^ (idx >> np.uint64(1))
        yield (gray << np.uint64(1)) | np.uint64(1)


def _grouped_edges(graph: WeightedGraph) -> list[tuple[float, list[int], list[int]]]:
    """Edges grouped by identical weight, for cheap integer crossing counts."""
    us, vs, ws, _ = graph.edge_arrays()
    groups: dict[float, list[int]] = {}
    for i, w in enumerate(ws.tolist()):
        groups.setdefault(w, []).append(i)
    return [
        (w, [int(us[i]) for i in ix], [int(vs[i]) for i in ix])
        for w, ix in sorted(groups.items())
    ]


def _membership_bits(masks: np.ndarray, n: int) -> list[np.ndarray]:
    """Per-vertex 0/1 membership arrays (uint8) for a block of subset bitmasks."""
    one = np.uint64(1)
    return [((masks >> np.uint64(v)) & one).astype(np.uint8) for v in range(n)]


def _cut_values_block(groups, bits: list[np.ndarray]) -> np.ndarray:
    """Cut values of one graph for every subset in the block.

    Crossing indicators are xors of the precomputed membership bits, counted
    per weight class in uint16 (safe: a class never exceeds C(30,2) edges).
    """
    size = bits[0].shape
    acc = np.zeros(size, dtype=np.float64)
    for w, gus, gvs in groups:
        counts = np.zeros(size, dtype=np.uint16)
        for u, v in zip(gus, gvs):
            counts += bits[u] ^ bits[v]
        acc += w * counts
    return acc


def gray_scan_oracle(n: int, *graphs: WeightedGraph, ksides: Sequence[int] | None = None):
    """Yield (masks, sizes, [cut values of each graph]) over every proper cut once.

    Masks follow the Gray order of ``_gray_blocks`` with the full vertex set
    dropped; sizes are the int64 popcounts of the masks.  With ``ksides`` set,
    only cuts whose smaller side has one of those sizes are kept, before any
    cut value is computed.
    """
    groups = [_grouped_edges(g) for g in graphs]
    for masks in _gray_blocks(n):
        sizes = np.bitwise_count(masks).astype(np.int64)
        keep = sizes < n if ksides is None else np.isin(np.minimum(sizes, n - sizes), ksides)
        if not keep.all():
            masks, sizes = masks[keep], sizes[keep]
            if not masks.size:
                continue
        bits = _membership_bits(masks, n)
        cuts = [_cut_values_block(gr, bits) for gr in groups]
        del bits, keep  # freed before the yield, so they never coexist with the next block's arrays
        yield masks, sizes, cuts


def _mask_to_subset(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> v) & 1)


class WorstRatioOracle:
    """Running max |num/den - 1| over blocks; the witness is the first maximizer in visit order."""

    def __init__(self):
        self.best = -1.0
        self.mask = None
        self.examined = 0

    def add(self, masks: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
        dev = np.abs(num / den - 1.0)
        i = int(np.argmax(dev))
        if dev[i] > self.best:
            self.best = float(dev[i])
            self.mask = int(masks[i])
        self.examined += masks.size

    def report(self, n: int) -> CutErrorReport:
        return CutErrorReport(
            epsilon=self.best,
            witness=_mask_to_subset(self.mask, n),
            mode="exhaustive",
            subsets_examined=self.examined,
            n=n,
            lower_bound=False,
        )


class SizeExtremesOracle:
    """Per smaller-side size k: raw max and min cut, first argmax mask, and count.

    Deviations are derived once per k at the end: x -> x/ref - 1 is monotone
    under rounding, so max(cut/ref - 1) == max(cut)/ref - 1 exactly.
    """

    def __init__(self, n: int):
        self.n = n
        kmax = n // 2
        self.hi = np.full(kmax + 1, -np.inf)
        self.lo = np.full(kmax + 1, np.inf)
        self.argmax: list[int | None] = [None] * (kmax + 1)
        self.count = np.zeros(kmax + 1, dtype=np.int64)

    def add(self, masks: np.ndarray, sizes: np.ndarray, cuts: np.ndarray) -> None:
        ksides = np.minimum(sizes, self.n - sizes)
        for k in range(1, self.n // 2 + 1):
            sel = ksides == k
            vals = cuts[sel]
            if not vals.size:
                continue
            self.count[k] += vals.size
            j = int(np.argmax(vals))
            if vals[j] > self.hi[k]:
                self.hi[k] = vals[j]
                self.argmax[k] = int(masks[sel][j])
            self.lo[k] = min(self.lo[k], vals.min())

    def rows(self, refs: np.ndarray, argmax_cap: int) -> tuple[CutProfileRow, ...]:
        n = self.n
        rows = []
        for k in range(1, n // 2 + 1):
            sub = None
            if k <= argmax_cap:
                sub = _mask_to_subset(self.argmax[k], n)
                if len(sub) != k:  # stored mask was the large side; report the smaller
                    sub = tuple(v for v in range(n) if v not in sub)
            rows.append(
                CutProfileRow(
                    k=k,
                    alpha=k / n,
                    max_dev=float(self.hi[k] / refs[k] - 1.0),
                    min_dev=float(self.lo[k] / refs[k] - 1.0),
                    argmax_subset=sub,
                    subsets_examined=int(self.count[k]),
                    mode="exhaustive",
                )
            )
        return tuple(rows)


def cut_error_exhaustive_oracle(h: WeightedGraph, g: WeightedGraph | Clique) -> CutErrorReport:
    """``cut_error_exhaustive`` after its argument checks (so every reference cut is positive), over the Gray blocks."""
    n = h.n
    clique = isinstance(g, Clique)
    graphs = (h,) if clique else (h, g)
    worst = WorstRatioOracle()
    for masks, sizes, cuts in gray_scan_oracle(n, *graphs):
        worst.add(masks, cuts[0], g.cut(sizes.astype(np.float64)) if clique else cuts[1])
    return worst.report(n)


def cut_profile_oracle(h: WeightedGraph, d: int, reference: str, argmax_cap: int) -> CutProfile:
    """Exhaustive ``cut_profile`` over the Gray blocks."""
    n = h.n
    extremes = SizeExtremesOracle(n)
    for masks, sizes, (cut_h,) in gray_scan_oracle(n, h):
        extremes.add(masks, sizes, cut_h)
    refs = _profile_references(n, d, reference)
    return CutProfile(n=n, d=d, reference=reference, rows=extremes.rows(refs, argmax_cap))


def regular_vs_clique_oracle(h_raw: WeightedGraph, d: int, reference: str, argmax_cap: int):
    """``regular_vs_clique_exhaustive`` over the Gray blocks."""
    n = h_raw.n
    refs = _profile_references(n, d, reference)
    scale = (n - 1) / d
    worst = WorstRatioOracle()
    extremes = SizeExtremesOracle(n)
    for masks, sizes, (cut_h,) in gray_scan_oracle(n, h_raw):
        sz = sizes.astype(np.float64)
        worst.add(masks, scale * cut_h, sz * (n - sz))
        extremes.add(masks, sizes, cut_h)
    return worst.report(n), CutProfile(n=n, d=d, reference=reference, rows=extremes.rows(refs, argmax_cap))


def extreme_cuts_oracle(h: WeightedGraph, ks) -> list[tuple[float, float]]:
    """``extreme_cuts_at_sizes`` over the Gray blocks, skipping sizes not asked for."""
    extremes = SizeExtremesOracle(h.n)
    for masks, sizes, (cut_h,) in gray_scan_oracle(h.n, h, ksides=ks):
        extremes.add(masks, sizes, cut_h)
    return [(float(extremes.hi[k]), float(extremes.lo[k])) for k in ks]
