"""Shared test utilities: independent oracles and random instance builders.

The oracles here deliberately avoid the library's own code paths: cut errors
by direct subset enumeration, erf by Maclaurin series, interior counts by
edge scans, so tests compare two genuinely different routes to each value.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from sparselab.errors import InvalidArgumentError, SizeLimitError
from sparselab.graph import WeightedGraph, bfs_depths
from sparselab.nbwalk import FIRST_STEP_UNIFORM, FIRST_STEP_WEIGHT, PseudoGirthReport
from sparselab.rng import derive_seed, make_generator
from sparselab.spectral import DENSE_CAP


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
    deg = h_unscaled.combinatorial_degrees()
    if not np.all(deg == d):
        raise InvalidArgumentError("oracle requires an unweighted d-regular multigraph")
    eta = symmetric_eigenvalues(h_unscaled.weight_matrix())
    eta = eta[:-1]  # drop the Perron eigenvalue (= d for connected H)
    lam = (n - 1) * (d - eta) / (d * n)
    return float(np.abs(lam - 1.0).max())


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
def connected_graphs(draw, n=None, max_n=10):
    """Random spanning tree plus extra edges on 2..max_n vertices, positive weights."""
    if n is None:
        n = draw(st.integers(2, max_n))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(_weights)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _weights), max_size=2 * n))
    for u, v, w in extra:
        if u != v:
            edges[(min(u, v), max(u, v))] = w
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


@st.composite
def graph_pairs(draw, max_n=10):
    h = draw(connected_graphs(max_n=max_n))
    return h, draw(connected_graphs(h.n))


# -- per-root walk and pseudo-girth oracles -------------------------------------------
#
# The one-root-at-a-time certificate engine that the block engine in
# sparselab.nbwalk replaced: dense walks over every directed edge in id order,
# one BFS per root, and per-root accumulation of the quadratic forms.  The
# block engine must agree with these bit for bit.


class OracleEdgeSpace:
    """Dense directed-edge walk: edge b is us[b] -> vs[b], edge m + b its reverse."""

    def __init__(self, n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray, wdeg: np.ndarray):
        self.n = n
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


def certificate_sums_oracle(space, g: int, first_step: str, vprime: np.ndarray):
    """Drop-in for ``nbwalk._certificate_sums``: the same totals, root by root."""
    n, eu, ev, ew, wdeg = space.n, space.eu, space.ev, space.ew, space.wdeg
    dense = OracleEdgeSpace(n, eu, ev, ew, wdeg)
    x_lh = x_lk = y_lh = y_lk = y_dh = ymx_ah = 0.0
    trace_x = trace_y = y_j = 0.0
    worst_vprime_dev = 0.0
    worst_norm_sq = 0.0
    total_loss = 0.0
    for r in range(n):
        f, h, deficit = vectors_oracle(dense, r, g, first_step)
        df = f[eu] - f[ev]
        dh = h[eu] - h[ev]
        f_lh = float((ew * df * df).sum())
        h_lh = float((ew * dh * dh).sum())
        nf2 = float(f @ f)
        nh2 = float(h @ h)
        sf = float(f.sum())
        sh = float(h.sum())
        x_lh += f_lh
        y_lh += h_lh
        x_lk += nf2 - sf * sf / n
        y_lk += nh2 - sh * sh / n
        y_dh += float(wdeg @ (h * h))
        ymx_ah += 2.0 * float((ew * (h[eu] * h[ev] - f[eu] * f[ev])).sum())
        trace_x += nf2
        trace_y += nh2
        y_j += sh * sh
        total_loss += deficit
        if vprime[r]:
            expected = (g + 1) - deficit
            worst_vprime_dev = max(worst_vprime_dev, abs(nf2 - expected), abs(nh2 - expected))
        worst_norm_sq = max(worst_norm_sq, nf2, nh2)
    totals = np.array([x_lh, y_lh, x_lk, y_lk, y_dh, ymx_ah, trace_x, trace_y, y_j, total_loss])
    return totals, worst_vprime_dev, worst_norm_sq


def _ball_edges(graph: WeightedGraph, depth: np.ndarray, radius: int) -> tuple[int, int]:
    """(vertices, edges) of the subgraph induced by depth <= radius."""
    members = np.flatnonzero((depth >= 0) & (depth <= radius))
    d = depth[graph.neighbors(members)]
    deg_sum = int(((d >= 0) & (d <= radius)).sum())
    return members.size, deg_sum // 2


def pseudo_girth_scan_oracle(graph: WeightedGraph, g: int, violating_cap: int):
    """Drop-in for ``nbwalk._pseudo_girth_scan``: one BFS to radius 2g per root."""
    n = graph.n
    flags_g = np.zeros(n, dtype=bool)
    flags_2g = np.zeros(n, dtype=bool)
    bmax = 0
    for r in range(n):
        depth = bfs_depths(graph, r, 2 * g)
        verts_g, edges_g = _ball_edges(graph, depth, g)
        verts_2g, edges_2g = _ball_edges(graph, depth, 2 * g)
        bmax = max(bmax, verts_g)
        flags_g[r] = edges_g == verts_g - 1
        flags_2g[r] = edges_2g == verts_2g - 1
    report = PseudoGirthReport(
        g=g,
        n=n,
        acyclic_g=int(flags_g.sum()),
        acyclic_2g=int(flags_2g.sum()),
        F=n - int(flags_2g.sum()),
        B=bmax,
        violating=tuple(int(r) for r in np.flatnonzero(~flags_2g)[:violating_cap]),
    )
    return report, flags_g


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
