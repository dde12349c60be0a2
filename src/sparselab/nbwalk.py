"""Non-backtracking walks, walk-derived test vectors, and the spectral
lower-bound certificate.

The walk state lives on directed edges: from directed edge (u, v) the walk
moves to (v, w) for each neighbor w != u with probability w_{v,w}/(w(v) -
w_{v,u}), the weighted non-backtracking (Hashimoto) operator.  Walks from a
fixed block of roots advance together, and each keeps only the directed
edges that carry its mass, so a step costs time in proportion to the
walks' support, not to the edge count, and never enumerates paths.  Mass
that reaches a degree-one vertex has nowhere to go and is tracked as
deficiency rather than renormalized away.  Pseudo-girth balls grow the same
way, a block of roots per pass, one frontier level at a time.

The certificate aggregates, over every root r, the alternating and plain
square-root sums of the walk tables (f_r and h_r) and their quadratic forms
against L_H, the 1/n-weighted clique Laplacian, D_H and A_H; each root's
forms are dense O(m) sums.  Contiguous ranges of roots run in forked
children, one per CPU, and every root's terms are added in ascending root
order, so the split changes no bit of the report.  The matrices
X = sum f_r f_r' and Y = sum h_r h_r' are PSD by construction, so for any
graph that is an eps spectral sparsifier of the weighted clique,

    (1 + eps)/(1 - eps) >= (X.L_H / X.L_K) (Y.L_K / Y.L_H) = R,

giving the unconditional bound eps >= (R - 1)/(R + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fork import split_ranges
from .errors import DegenerateInputError, InvalidArgumentError, UnsupportedInputError
from .graph import WeightedGraph, _concat_ranges, is_connected

FIRST_STEP_WEIGHT = "weight"  # first edge chosen proportionally to weight
FIRST_STEP_UNIFORM = "uniform"  # first edge uniform over incident edges


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
class TestVectors:
    root: int
    horizon: int
    f: np.ndarray  # alternating square-root sums
    h: np.ndarray  # plain square-root sums


@dataclass(frozen=True)
class PseudoGirthReport:
    g: int
    n: int
    acyclic_g: int  # |V'|: roots whose radius-g ball is cycle-free
    acyclic_2g: int  # |V''|: same at radius 2g
    F: int  # n - |V''|
    B: int  # largest radius-g ball
    violating: tuple[int, ...]  # V''-violating vertices, capped

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "acyclic_g": self.acyclic_g,
            "acyclic_2g": self.acyclic_2g,
            "F": self.F,
            "B": self.B,
            "violating_sample": list(self.violating),
        }


@dataclass(frozen=True)
class IdentityChecks:
    """Numeric checks of the norm and trace identities behind the certificate.

    On an acyclic-ball root every vertex is reached at a single walk length,
    so ||f_r||^2 = ||h_r||^2 = (g+1) minus the walk mass lost to dead ends;
    the trace lower bracket is reduced by the total loss the same way.  On
    graphs of minimum combinatorial degree 2 nothing is lost and these are
    the plain identities.
    """

    max_vprime_norm_dev: float  # worst |norm^2 - (g+1 - loss)| of f_r, h_r over V' roots
    max_norm_sq: float  # worst ||h_r||^2 over all roots
    norm_sq_cap: float  # (g+1)^2
    trace_x: float  # I.X
    trace_y: float  # I.Y
    trace_lower: float  # (1 - F/n) n (g+1) - total mass loss
    trace_upper: float  # (1 + gF/n) n (g+1)
    y_dot_j: float  # Y.J
    y_dot_j_cap: float  # (g+1)^2 B n
    total_mass_loss: float  # sum over roots of per-step dead-end losses
    vprime_norms_ok: bool
    norm_cap_ok: bool
    traces_ok: bool
    y_dot_j_ok: bool

    @property
    def ok(self) -> bool:
        return self.vprime_norms_ok and self.norm_cap_ok and self.traces_ok and self.y_dot_j_ok


@dataclass(frozen=True)
class AssumptionChecks:
    """Diagnostics for the degree and weight conditions the sizing argument uses.

    These gate nothing: the certificate is sound for any graph, the
    assumptions only control how large the certified bound can get.
    """

    d: float
    min_combinatorial_degree: int
    combinatorial_ok: bool  # min degree >= d/4
    min_weighted_degree: float
    max_weighted_degree: float
    weighted_ok: bool  # within [1 - 4/sqrt(d), 1 + 4/sqrt(d)]
    max_edge_weight: float
    edge_weight_ok: bool  # <= 4/sqrt(d)


@dataclass(frozen=True)
class CertificateReport:
    n: int
    g: int
    d: float
    first_step: str
    x_dot_lh: float
    x_dot_lk: float
    y_dot_lh: float
    y_dot_lk: float
    y_dot_dh: float
    ymx_dot_ah: float  # (Y - X) . A_H
    ratio: float
    epsilon_lb: float
    pseudo_girth: PseudoGirthReport
    identity_checks: IdentityChecks
    assumptions: AssumptionChecks

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "d": self.d,
            "first_step": self.first_step,
            "products": {
                "x_dot_lh": self.x_dot_lh,
                "x_dot_lk": self.x_dot_lk,
                "y_dot_lh": self.y_dot_lh,
                "y_dot_lk": self.y_dot_lk,
                "y_dot_dh": self.y_dot_dh,
                "ymx_dot_ah": self.ymx_dot_ah,
            },
            "ratio": self.ratio,
            "epsilon_lb": self.epsilon_lb,
            "pseudo_girth": self.pseudo_girth.to_json_dict(),
            "identity_checks_ok": self.identity_checks.ok,
            "assumptions": {
                "min_combinatorial_degree": self.assumptions.min_combinatorial_degree,
                "combinatorial_ok": self.assumptions.combinatorial_ok,
                "min_weighted_degree": self.assumptions.min_weighted_degree,
                "max_weighted_degree": self.assumptions.max_weighted_degree,
                "weighted_ok": self.assumptions.weighted_ok,
                "max_edge_weight": self.assumptions.max_edge_weight,
                "edge_weight_ok": self.assumptions.edge_weight_ok,
            },
        }


# -- block engine ------------------------------------------------------------------

# Roots per block = _BLOCK_CELLS // max(n, directed edges), at least one.
# A root's ball frontier, walk state or f/h row holds at most that width, so
# a block's arrays stay near this many cells: 2^16 cells kept the peak memory
# of a certificate within 1 MB of a one-root-at-a-time pass, and larger
# blocks were no faster.  Blocks are visited in ascending root order.
_BLOCK_CELLS = 1 << 16

# A root pass of less work than this, n * max(n, directed edges) * g, runs
# in-process; a ball scan alone counts a quarter.  One process against two
# forked workers, 2-core host: certificates of 4.0e6 (C_1000, g=2) took
# 82-120 against 62-88 ms; ball scans of 2.4e7 before the quarter (n=1000,
# d=8, g=3) 121-169 against 85-141 ms.
_PARALLEL_WORK = 1 << 22
# numpy's OpenBLAS threads a dot product of more than 10^4 entries, which
# _block_forms takes of length-n rows, and forked workers that each do so
# oversubscribe the CPUs (n=12000, g=2: 33 s split against 14.6 s in one
# process), so such certificates stay in-process.
_THREADED_DOT = 10_000


def _root_blocks(n: int, width: int, lo: int, hi: int):
    """Consecutive blocks of the roots lo..hi-1, each an int64 array."""
    step = max(1, _BLOCK_CELLS // max(n, width))
    return (np.arange(b, min(b + step, hi)) for b in range(lo, hi, step))


def _fan_out(indptr: np.ndarray, owners: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, slot) for every CSR slot of every item, in input order."""
    counts = indptr[items + 1] - indptr[items]
    return np.repeat(owners, counts), _concat_ranges(indptr[items], counts)


def _leave_one_out_sums(n: int, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    """denom[e] = total weight at dst(e) excluding e itself.

    Built as prefix + suffix sums of the incident weights, in edge order,
    rather than wdeg - w, which cancels catastrophically when one edge
    dominates a vertex's weighted degree.  Each vertex's sums run
    sequentially from its first and from its last edge; one pass of the loop
    handles position j of every vertex with more than j edges.
    """
    order = np.argsort(dst, kind="stable")
    ws = w[order]
    deg = np.bincount(dst, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    tall = np.argsort(-deg, kind="stable")  # vertices by falling degree
    neg_deg = -deg[tall]
    pre = np.zeros_like(ws)
    suf = np.zeros_like(ws)
    for j in range(1, int(deg.max(initial=0))):
        vs = tall[: np.searchsorted(neg_deg, -j)]  # the vertices with more than j edges
        i = indptr[vs] + j
        pre[i] = pre[i - 1] + ws[i - 1]
        i = indptr[vs + 1] - 1 - j
        suf[i] = suf[i + 1] + ws[i + 1]
    denom = np.empty_like(ws)
    denom[order] = pre + suf
    return denom


class _EdgeSpace:
    """Directed edges of a simple graph's positive-weight bundles, shared by all walk queries.

    Directed edge ids follow the bundles: id b is us[b] -> vs[b] and id m + b
    its reverse.  The arrays are stored by slot, sorted by source and then
    by id, so each vertex's out-edges are one CSR range.  Because bundles are
    sorted by (u, v), the in-edges of a vertex come in the same order by slot
    as by id: both sort them by source.
    """

    __slots__ = (
        "n", "m2", "dst", "w", "rev", "denom", "dead", "dead_pos", "num_dead",
        "out_ptr", "wdeg", "deg", "eu", "ev", "ew",
    )

    def __init__(self, graph: WeightedGraph):
        if not graph.is_simple:
            raise UnsupportedInputError("walks need a simple graph; collapse multiedges first")
        us, vs, ws, _ = graph.edge_arrays()
        positive = ws > 0
        us, vs, ws = us[positive], vs[positive], ws[positive]
        n, m = graph.n, len(us)
        self.n, self.m2 = n, 2 * m
        self.eu, self.ev, self.ew = us, vs, ws
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        w = np.concatenate([ws, ws])
        self.wdeg = graph.weighted_degrees()
        self.deg = np.bincount(src, minlength=n)
        dead = self.deg[dst] == 1  # walk mass entering a leaf cannot continue
        order = np.argsort(src, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(2 * m)
        self.dst, self.w, self.dead = dst[order], w[order], dead[order]
        self.rev = slot[np.concatenate([np.arange(m, 2 * m), np.arange(0, m)])[order]]
        self.denom = _leave_one_out_sums(n, dst, w)[order]
        self.dead_pos = (np.cumsum(dead) - 1)[order]  # rank of a dead edge among the dead edges, by id
        self.num_dead = int(dead.sum())
        self.out_ptr = np.concatenate(([0], np.cumsum(self.deg)))


def _walk_levels(space: _EdgeSpace, roots: np.ndarray, g: int, first_step: str):
    """Yield, for ell = 1..g, the (roots, n) panel of ell-step vertex
    probabilities and each root's walk mass lost to dead ends before step ell.

    The state is a sparse list of (root, directed edge, probability) entries
    in (root, slot) order, so vertex sums add the same terms in the same
    order as a dense pass over all directed edges.  One step applies the
    weighted Hashimoto (non-backtracking) operator: from (u, v) to (v, x),
    x != u, with probability w_vx / (w(v) - w_vu).  Mass on an edge into a
    degree-one vertex cannot continue and is lost.
    """
    n, m2, nr = space.n, space.m2, roots.size
    ridx, s = _fan_out(space.out_ptr, np.arange(nr), roots)
    if first_step == FIRST_STEP_WEIGHT:
        p = space.w[s] / space.wdeg[roots][ridx]
    elif first_step == FIRST_STEP_UNIFORM:
        p = 1.0 / space.deg[roots][ridx]
    else:
        raise InvalidArgumentError(f"unknown first-step rule {first_step!r}")
    lost = np.zeros(nr)
    for ell in range(1, g + 1):
        at = ridx * n + space.dst[s]
        yield np.bincount(at, weights=p, minlength=nr * n).reshape(nr, n), lost
        if ell == g:
            return
        dead = space.dead[s]
        if space.num_dead:
            # each root's loss is summed over the row of all dead edges in id order, as a dense pass sums it
            stuck = np.zeros((nr, space.num_dead))
            stuck[ridx[dead], space.dead_pos[s[dead]]] = p[dead]
            lost = lost + stuck.sum(axis=1)
        contrib = np.zeros_like(p)
        np.divide(p, space.denom[s], out=contrib, where=~dead)
        q = np.bincount(at, weights=contrib, minlength=nr * n)
        hot = np.flatnonzero(q)  # (root, vertex) cells that pass mass on
        cell, nxt = _fan_out(space.out_ptr, hot, hot % n)
        nxt_r = cell // n
        keys = ridx * m2 + s
        want = nxt_r * m2 + space.rev[nxt]
        back = np.minimum(np.searchsorted(keys, want), keys.size - 1)  # the reverse edge's entry, if any
        back_contrib = np.where(keys[back] == want, contrib[back], 0.0)
        p = space.w[nxt] * (q[cell] - back_contrib)
        np.maximum(p, 0.0, out=p)  # guard rounding at exact cancellations
        ridx, s = nxt_r, nxt


def _walk_checks(graph: WeightedGraph, r: int, g: int) -> None:
    if g < 0:
        raise InvalidArgumentError(f"horizon must be nonnegative, got {g}")
    if not 0 <= r < graph.n:
        raise InvalidArgumentError(f"root {r} out of range")
    if graph.weighted_degrees()[r] <= 0:
        raise InvalidArgumentError(f"root {r} is isolated")


def nb_walk_probabilities(
    graph: WeightedGraph, r: int, g: int, first_step: str = FIRST_STEP_WEIGHT
) -> WalkTable:
    """Vertex-visit probabilities of the ell-step walk for every ell in [0, g]."""
    _walk_checks(graph, r, g)
    tables = [{int(r): 1.0}]
    deficiency = [0.0]
    for marg, lost in _walk_levels(_EdgeSpace(graph), np.array([r]), g, first_step):
        row = marg[0]
        tables.append({int(v): float(row[v]) for v in np.flatnonzero(row)})
        deficiency.append(float(lost[0]))
    return WalkTable(root=r, horizon=g, tables=tuple(tables), deficiency=tuple(deficiency))


def _vector_panels(space: _EdgeSpace, roots: np.ndarray, g: int, first_step: str):
    """(F, H, deficit): rows f_r and h_r for each root, and the sum over
    ell in [1, g] of the walk mass already lost by step ell (zero on
    min-degree-2 graphs)."""
    f = np.zeros((roots.size, space.n))
    f[np.arange(roots.size), roots] = 1.0
    h = f.copy()
    deficit = np.zeros(roots.size)
    sign = -1.0
    for marg, lost in _walk_levels(space, roots, g, first_step):
        s = np.sqrt(marg)
        f += sign * s
        h += s
        deficit += lost
        sign = -sign
    return f, h, deficit


def test_vectors(graph: WeightedGraph, r: int, g: int, first_step: str = FIRST_STEP_WEIGHT) -> TestVectors:
    """f_r(v) = sum_ell (-1)^ell sqrt(Pr_ell[v]) and h_r(v) = sum_ell sqrt(Pr_ell[v])."""
    _walk_checks(graph, r, g)
    f, h, _ = _vector_panels(_EdgeSpace(graph), np.array([r]), g, first_step)
    return TestVectors(root=r, horizon=g, f=f[0], h=h[0])


# -- pseudo-girth -----------------------------------------------------------------


def _ball_flags(graph: WeightedGraph, g: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, int]:
    """For the roots lo..hi-1: the flags of roots whose radius-g and radius-2g
    balls are acyclic, and the largest radius-g ball.

    The balls of a block of roots grow level by level through positive-weight
    bundles.  Expanding level L counts each root's edges from level L down to
    L-1 once and its edges inside level L twice, so after it the half-edge
    count covers the radius-L ball.  Each ball is connected, so it is
    acyclic exactly when its edge count is one less than its vertex count.
    A root whose radius-g ball has a cycle stops growing: its radius-2g ball
    contains that cycle.
    """
    n = graph.n
    indptr, nbr, _ = graph.csr()
    flags_g = np.zeros(n, dtype=bool)
    flags_2g = np.zeros(n, dtype=bool)
    bmax = 0
    depth = stamp = None
    for roots in _root_blocks(n, nbr.size, lo, hi):
        nr = roots.size
        if depth is None:  # scratch by root * n + vertex, sized by the first (largest) block
            depth = np.full(nr * n, -1, dtype=np.int64)  # -1 outside the balls; reset after each block
            stamp = np.empty(nr * n, dtype=np.int64)
        front = np.arange(nr) * n + roots
        depth[front] = 0
        seen = [front]
        verts = np.ones(nr, dtype=np.int64)
        half = np.zeros(nr, dtype=np.int64)
        for level in range(2 * g + 1):
            cell, slot = _fan_out(indptr, front // n, front % n)
            keys = cell * n + nbr[slot]
            dk = depth[keys]
            if level:
                half += 2 * np.bincount(cell[dk == level - 1], minlength=nr) + np.bincount(cell[dk == level], minlength=nr)
            acyclic = half == 2 * (verts - 1)
            if level == g:
                flags_g[roots] = acyclic
                bmax = max(bmax, int(verts.max()))
            if level == 2 * g:
                flags_2g[roots] = acyclic
                break
            grow = dk < 0
            if level >= g:
                grow &= flags_g[roots][cell]
            new = keys[grow]
            pick = np.arange(new.size)
            stamp[new] = pick
            front = new[stamp[new] == pick]  # one entry per new (root, vertex)
            depth[front] = level + 1
            seen.append(front)
            verts += np.bincount(front // n, minlength=nr)
        depth[np.concatenate(seen)] = -1
    return flags_g[lo:hi], flags_2g[lo:hi], bmax


def _girth_report(n: int, g: int, balls: list, violating_cap: int) -> tuple[PseudoGirthReport, np.ndarray]:
    """The report and the radius-g flags, from :func:`_ball_flags` of consecutive root ranges."""
    flags_g = np.concatenate([b[0] for b in balls])
    flags_2g = np.concatenate([b[1] for b in balls])
    report = PseudoGirthReport(
        g=g,
        n=n,
        acyclic_g=int(flags_g.sum()),
        acyclic_2g=int(flags_2g.sum()),
        F=n - int(flags_2g.sum()),
        B=max(b[2] for b in balls),
        violating=tuple(int(r) for r in np.flatnonzero(~flags_2g)[:violating_cap]),
    )
    return report, flags_g


def _pseudo_girth_scan(graph: WeightedGraph, g: int, violating_cap: int) -> tuple[PseudoGirthReport, np.ndarray]:
    """The report, and the flags of roots whose radius-g ball is acyclic,
    with the roots split by :func:`split_ranges`."""
    if g < 0:
        raise InvalidArgumentError(f"radius must be nonnegative, got {g}")
    if not graph.is_simple:
        raise UnsupportedInputError("pseudo-girth needs a simple graph; collapse multiedges first")
    n = graph.n
    work = n * max(n, graph.csr()[1].size) * g // 4
    balls = split_ranges(partial(_ball_flags, graph, g), n, work, _PARALLEL_WORK)
    return _girth_report(n, g, balls, violating_cap)


def pseudo_girth(graph: WeightedGraph, g: int, violating_cap: int = 32) -> PseudoGirthReport:
    """Cycle-free-ball counts at radii g and 2g, and the largest radius-g ball."""
    return _pseudo_girth_scan(graph, g, violating_cap)[0]


# -- the certificate ----------------------------------------------------------------


def _running_sums(totals: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """totals[i] + terms[i, 0] + terms[i, 1] + ..., added left to right."""
    return np.cumsum(np.column_stack([totals, terms]), axis=1)[:, -1]


def _block_forms(space: _EdgeSpace, f: np.ndarray, h: np.ndarray, deficit: np.ndarray) -> np.ndarray:
    """Per-root terms of the certificate's totals, one column per row of the f/h panels.

    Rows: f'L_H f, h'L_H h, f'L_K f, h'L_K h, h'D_H h, h'A_H h - f'A_H f,
    |f|^2, |h|^2, (1'h)^2 and the mass deficit.  Each is the sum or BLAS dot
    product over the root's row that the root-by-root expression
    ``(ew * df * df).sum()`` or ``f @ f`` computes, so the values are the same
    bit for bit.
    """
    n, eu, ev, ew = space.n, space.eu, space.ev, space.ew
    nf2 = np.vecdot(f, f)
    nh2 = np.vecdot(h, h)
    sf = f.sum(axis=1)
    sh = h.sum(axis=1)
    # four (roots, m) buffers, reused: a ends as f[eu] * f[ev], b as ew * (h[eu] * h[ev] - a)
    a, b, c = f.take(eu, axis=1), f.take(ev, axis=1), np.empty((f.shape[0], eu.size))
    np.subtract(a, b, out=c)
    t = ew * c
    t *= c
    f_lh = t.sum(axis=1)
    a *= b
    h.take(eu, axis=1, out=b, mode="clip")
    h.take(ev, axis=1, out=t, mode="clip")
    np.subtract(b, t, out=c)
    b *= t
    np.multiply(ew, c, out=t)
    t *= c
    h_lh = t.sum(axis=1)
    b -= a
    b *= ew
    return np.stack([
        f_lh,
        h_lh,
        nf2 - sf * sf / n,
        nh2 - sh * sh / n,
        np.vecdot(space.wdeg, h * h),
        2.0 * b.sum(axis=1),
        nf2,
        nh2,
        sh * sh,
        deficit,
    ])


def _walk_terms(space: _EdgeSpace, g: int, first_step: str, lo: int, hi: int) -> np.ndarray:
    """The (10, hi - lo) columns of :func:`_block_forms` for the roots lo..hi-1."""
    blocks = _root_blocks(space.n, space.m2, lo, hi)
    return np.hstack([_block_forms(space, *_vector_panels(space, roots, g, first_step)) for roots in blocks])


def _root_chunk(graph: WeightedGraph, space: _EdgeSpace, g: int, first_step: str, lo: int, hi: int):
    """The ball flags and the walk terms of the roots lo..hi-1."""
    return _ball_flags(graph, g, lo, hi), _walk_terms(space, g, first_step, lo, hi)


def certify_lower_bound(
    graph: WeightedGraph,
    g: int,
    d: float,
    first_step: str = FIRST_STEP_WEIGHT,
    identity_rtol: float = 1e-6,
    norm_atol: float = 1e-9,
) -> CertificateReport:
    """Unconditional lower bound on the spectral error of H against the
    1/n-weighted clique on the same vertices.

    All Frobenius products are accumulated root by root as quadratic forms
    (X.M = sum_r f_r' M f_r), never materializing the n-by-n matrices.
    Terms are added in ascending root order however the roots are split, so results are bitwise stable.
    """
    if graph.n < 3:
        raise InvalidArgumentError(f"certificate needs n >= 3, got {graph.n}")
    if g < 1:
        raise InvalidArgumentError(f"horizon must be >= 1, got {g}")
    if d <= 0:
        raise InvalidArgumentError(f"nominal degree must be positive, got {d}")
    if not graph.is_simple:
        raise UnsupportedInputError("certificate needs a simple graph; collapse multiedges first")
    if not is_connected(graph):
        raise InvalidArgumentError("certificate needs a connected graph")
    n = graph.n
    space = _EdgeSpace(graph)
    work = n * max(n, space.m2) * g if n <= _THREADED_DOT else 0
    chunks = split_ranges(partial(_root_chunk, graph, space, g, first_step), n, work, _PARALLEL_WORK)
    pg, vprime = _girth_report(n, g, [balls for balls, _ in chunks], violating_cap=32)
    # one running sum over every root's terms, in ascending root order
    terms = np.hstack([t for _, t in chunks])
    totals = _running_sums(np.zeros(10), terms)
    nf2, nh2, expected = terms[6], terms[7], (g + 1) - terms[9]
    worst_vprime_dev = float(np.maximum(np.abs(nf2 - expected), np.abs(nh2 - expected))[vprime].max(initial=0.0))
    worst_norm_sq = float(np.maximum(nf2, nh2).max(initial=0.0))
    x_lh, y_lh, x_lk, y_lk, y_dh, ymx_ah, trace_x, trace_y, y_j, total_loss = map(float, totals)
    ew, wdeg = space.ew, space.wdeg

    if y_lh <= 0.0:
        raise DegenerateInputError("Y.L_H is not positive; certificate ratio undefined")
    if x_lk <= 0.0:
        raise DegenerateInputError("X.L_K is not positive; certificate ratio undefined")
    ratio = (x_lh / x_lk) * (y_lk / y_lh)
    if not np.isfinite(ratio):
        raise DegenerateInputError(f"certificate ratio is {ratio}; walk products are not finite")
    eps_lb = max(0.0, (ratio - 1.0) / (ratio + 1.0))

    base = n * (g + 1.0)
    frac = pg.F / n
    trace_lower = (1.0 - frac) * base - total_loss
    trace_upper = (1.0 + g * frac) * base
    norm_cap = (g + 1.0) ** 2
    yj_cap = norm_cap * pg.B * n
    slack = identity_rtol * base
    checks = IdentityChecks(
        max_vprime_norm_dev=worst_vprime_dev,
        max_norm_sq=worst_norm_sq,
        norm_sq_cap=norm_cap,
        trace_x=trace_x,
        trace_y=trace_y,
        trace_lower=trace_lower,
        trace_upper=trace_upper,
        y_dot_j=y_j,
        y_dot_j_cap=yj_cap,
        total_mass_loss=total_loss,
        vprime_norms_ok=worst_vprime_dev <= norm_atol,
        norm_cap_ok=worst_norm_sq <= norm_cap + norm_atol,
        traces_ok=(
            trace_lower - slack <= trace_x <= trace_upper + slack
            and trace_lower - slack <= trace_y <= trace_upper + slack
        ),
        y_dot_j_ok=y_j <= yj_cap + 1e-6,
    )

    cdeg = space.deg
    sqrt_d = float(np.sqrt(d))
    max_w = float(ew.max()) if ew.size else 0.0
    assumptions = AssumptionChecks(
        d=float(d),
        min_combinatorial_degree=int(cdeg.min()),
        combinatorial_ok=bool(cdeg.min() >= d / 4.0),
        min_weighted_degree=float(wdeg.min()),
        max_weighted_degree=float(wdeg.max()),
        weighted_ok=bool(wdeg.min() >= 1.0 - 4.0 / sqrt_d and wdeg.max() <= 1.0 + 4.0 / sqrt_d),
        max_edge_weight=max_w,
        edge_weight_ok=bool(max_w <= 4.0 / sqrt_d),
    )

    return CertificateReport(
        n=n,
        g=g,
        d=float(d),
        first_step=first_step,
        x_dot_lh=x_lh,
        x_dot_lk=x_lk,
        y_dot_lh=y_lh,
        y_dot_lk=y_lk,
        y_dot_dh=y_dh,
        ymx_dot_ah=ymx_ah,
        ratio=ratio,
        epsilon_lb=eps_lb,
        pseudo_girth=pg,
        identity_checks=checks,
        assumptions=assumptions,
    )
