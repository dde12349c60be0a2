"""Non-backtracking walks, walk-derived test vectors, and the spectral
lower-bound certificate.

The walk state lives on directed edges: from directed edge (u, v) the walk
moves to (v, w) for each neighbor w != u with probability w_{v,w}/(w(v) -
w_{v,u}), the weighted non-backtracking (Hashimoto) operator.  Walks from a
block of roots advance together, and each keeps only the directed edges
that carry its mass; their vertex probabilities and test vectors live on
the (root, vertex) cells they reach, numbered by first touch in an int32
scratch, so a root costs time in proportion to its walk and its ball, not
to n.  Mass that reaches a degree-one vertex has nowhere to go and is
tracked as deficiency rather than renormalized away.  Pseudo-girth balls
grow the same way, a block of roots per pass, one frontier level at a time;
from radius g on, only the balls with no cycle yet are fanned out.  A walk's
support is its root's radius-g ball: the certificate reads the radius-g
flags and the largest ball off its walks and grows to 2g only acyclic balls.

The certificate aggregates, over every root r, the alternating and plain
square-root sums of the walk tables (f_r and h_r) and their quadratic forms
against L_H, the 1/n-weighted clique Laplacian, D_H and A_H, each summed
over the root's support with no BLAS call.  Above the fork floor,
contiguous ranges of roots run in forked children, one per CPU, and every
root's terms are added in ascending root order, so the split changes no
bit of the report.
The matrices X = sum f_r f_r' and Y = sum h_r h_r' are PSD by construction,
so for any graph that is an eps spectral sparsifier of the weighted clique,

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
class PseudoGirthReport:
    g: int
    n: int
    acyclic_g: int  # |V'|: roots whose radius-g ball is cycle-free
    acyclic_2g: int  # |V''|: same at radius 2g
    F: int  # n - |V''|
    B: int  # largest radius-g ball
    violating: tuple[int, ...]  # the first 32 V''-violating vertices

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


# -- walk engine -------------------------------------------------------------------

# A walk block holds about _WALK_ENTRIES (root, directed edge) entries over
# its levels, sized by the entries per root of the block before it.  A ball
# block fans out about _BALL_SLOTS CSR slots at its widest level.  Both hold
# at most _BALL_SCRATCH // n roots, so their (root, vertex) int32 scratch has
# at most _BALL_SCRATCH cells.  One process, medians of 5: the walk terms of
# n=2000, d=16, g=3 took 1.65, 1.73 and 1.57 s at 2^15, 2^17 and 2^18
# entries, at traced peaks of 8, 31 and 60 MB; ball scans of n=2000, d=8,
# g=3 took 77, 59 and 55 ms at 2^13, 2^14 and 2^16 slots, at peaks of 1.3,
# 1.5 and 2.1 MB; n=12000, d=4, g=2 took 0.85, 0.55 and 0.41 s at 2^16, 2^17
# and 2^18 scratch cells.
_WALK_ENTRIES = 1 << 15
_BALL_SLOTS = 1 << 14
_BALL_SCRATCH = 1 << 17


def _sized_blocks(n: int, roots: np.ndarray, target: int, sizes: list):
    """Consecutive blocks of ``roots``, each with the int32 scratch of its
    (root position) * n + vertex cells, -1 on entry to each block.

    The caller resets the scratch cells it used and appends a size measure of
    each block to ``sizes`` (a ball scan's widest fan-out, a walk's entries)
    before it takes the next.  The first block holds one root, each later one
    is sized so that its measure comes to about ``target``, by the measure
    per root of the block before, and every block holds at most
    _BALL_SCRATCH // n roots.
    """
    cap = max(1, _BALL_SCRATCH // n)
    scratch = np.full(min(cap, roots.size) * n, -1, dtype=np.int32)
    b, step = 0, 1
    while b < roots.size:
        block = roots[b:b + step]
        yield block, scratch
        b += block.size
        step = min(cap, max(1, target * block.size // max(sizes[-1], 1)))


def _claim(scratch: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Each distinct cell of ``cells`` once, in the order of the entries that claim them.

    Entry i writes -2 - i to its cell, and one write per cell stays; the
    caller then overwrites the claimed cells.  ``scratch`` holds no value
    below -1 on entry.
    """
    claim = -2 - np.arange(cells.size)
    scratch[cells] = claim
    return cells[scratch[cells] == claim]


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
    by id, so each vertex's out-edges are one CSR range, its up[v] edges to
    higher vertices first.  Because bundles are sorted by (u, v), the
    in-edges of a vertex come in the same order by slot as by id: both sort
    them by source.
    """

    __slots__ = (
        "n", "m2", "dst", "w", "rev", "denom", "dead", "dead_pos", "num_dead", "out_ptr", "wdeg", "deg", "up",
    )

    def __init__(self, graph: WeightedGraph):
        if not graph.is_simple:
            raise UnsupportedInputError("walks need a simple graph; collapse multiedges first")
        us, vs, ws, _ = graph.edge_arrays()
        positive = ws > 0
        us, vs, ws = us[positive], vs[positive], ws[positive]
        n, m = graph.n, len(us)
        self.n, self.m2 = n, 2 * m
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        w = np.concatenate([ws, ws])
        self.wdeg = graph.weighted_degrees()
        self.deg = np.bincount(src, minlength=n)
        self.up = np.bincount(us, minlength=n)
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


def _walk_levels(space: _EdgeSpace, roots: np.ndarray, g: int, first_step: str, index: np.ndarray):
    """Yield, for ell = 1..g, the block's support cells, the ell-step vertex
    probabilities on them, each root's walk mass lost to dead ends before
    step ell, and the level's entry count.

    A cell is (root position) * n + vertex.  The support lists the roots' own
    cells, then each cell a level reaches first, in the order its entries
    reach it; ``index``, an int32 scratch of roots.size * n cells that are -1
    on entry, maps each listed cell to its position, and the caller resets
    it.  The state is a sparse list of (root, directed edge, probability)
    entries in (root, slot) order, so a cell's probability adds the same
    terms in the same order as a dense pass over all directed edges.  One
    step applies the weighted Hashimoto (non-backtracking) operator: from
    (u, v) to (v, x), x != u, with probability w_vx / (w(v) - w_vu).  Mass on
    an edge into a degree-one vertex cannot continue and is lost.  A cell
    also fans out, at probability 0, on the step after its first claim if its
    mass underflowed, so the support through level ell is the radius-ell ball.
    """
    n, nr = space.n, roots.size
    ridx, s = _fan_out(space.out_ptr, np.arange(nr), roots)
    if first_step == FIRST_STEP_WEIGHT:
        p = space.w[s] / space.wdeg[roots][ridx]
    elif first_step == FIRST_STEP_UNIFORM:
        p = 1.0 / space.deg[roots][ridx]
    else:
        raise InvalidArgumentError(f"unknown first-step rule {first_step!r}")
    cells = np.arange(nr) * n + roots
    index[cells] = np.arange(nr)
    lost = np.zeros(nr)
    for ell in range(1, g + 1):
        at = ridx * n + space.dst[s]
        new = _claim(index, at[index[at] < 0])
        index[new] = np.arange(cells.size, cells.size + new.size)
        cells = np.concatenate([cells, new])
        at = index[at]
        yield cells, np.bincount(at, weights=p, minlength=cells.size), lost, at.size
        if ell == g:
            return
        dead = space.dead[s]
        if dead.any():
            # a root's loss sums its row over all dead edges in id order, as a dense pass sums it;
            # a root with no dead entry at this step would add a row of zeros, so it gets no row
            hit = ridx[dead]
            first = np.diff(hit, prepend=-1) > 0  # hit is sorted: a root's first dead entry
            row = np.cumsum(first) - 1
            stuck = np.zeros((row[-1] + 1, space.num_dead))
            stuck[row, space.dead_pos[s[dead]]] = p[dead]
            lost = lost.copy()
            lost[hit[first]] += stuck.sum(axis=1)
        contrib = np.zeros_like(p)
        np.divide(p, space.denom[s], out=contrib, where=~dead)
        q = np.bincount(at, weights=contrib, minlength=cells.size).astype(np.float64, copy=False)  # int64 when empty
        live = q != 0
        live[cells.size - new.size:] = True
        hot = np.flatnonzero(live)  # the cells that fan out, sorted so the next state is in (root, slot) order
        hot = hot[np.argsort(cells[hot])]
        hr, hv = np.divmod(cells[hot], n)
        ridx, nxt = _fan_out(space.out_ptr, hr, hv)
        counts = space.deg[hv]
        first = np.full(cells.size, -1)  # a hot cell's first next entry
        first[hot] = np.cumsum(counts) - counts
        diff = q[hot].repeat(counts)
        start = first[at]  # entry (u, v) takes its contribution off next entry (v, u)
        back = start >= 0
        diff[start[back] + space.rev[s[back]] - space.out_ptr[space.dst[s[back]]]] -= contrib[back]
        p = space.w[nxt] * diff
        np.maximum(p, 0.0, out=p)  # guard rounding at exact cancellations
        s = nxt


def _support_vectors(space: _EdgeSpace, roots: np.ndarray, g: int, first_step: str, index: np.ndarray):
    """(cells, f, h, deficit, entries): the support cells of :func:`_walk_levels`, f_r and
    h_r on them, each root's sum over ell in [1, g] of the walk mass already lost by step
    ell (zero on min-degree-2 graphs), and the entry count; ``index`` maps the cells."""
    cells, f, h = np.arange(roots.size) * space.n + roots, np.ones(roots.size), np.ones(roots.size)
    deficit, entries, sign = np.zeros(roots.size), 0, -1.0
    for cells, marg, lost, width in _walk_levels(space, roots, g, first_step, index):
        s = np.sqrt(marg)
        pad = np.zeros(s.size - f.size)
        f = np.concatenate([f, pad]) + sign * s
        h = np.concatenate([h, pad]) + s
        deficit += lost
        entries += width
        sign = -sign
    return cells, f, h, deficit, entries


# -- pseudo-girth -----------------------------------------------------------------


def _ball_flags(graph: WeightedGraph, g: int, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """For the given roots: the flags of roots whose radius-g and radius-2g
    balls are acyclic, and the largest radius-g ball.  ``pseudo_girth`` scans
    every root, the certificate only the roots its walks found acyclic at g.

    The balls of a block of roots grow level by level through positive-weight
    bundles.  Expanding level L counts each root's edges from level L down to
    L-1 once and its edges inside level L twice, so after it the half-edge
    count covers the radius-L ball.  Each ball is connected, so it is
    acyclic exactly when its edge count is one less than its vertex count,
    and a cycle, once found, is in every larger ball.  So from level g on
    only the balls with no cycle yet are fanned out: a ball with a cycle
    within radius g-1 keeps the level-g vertices that level g-1 found, for
    B, and its flags stay False.  Blocks are sized to fan out about
    _BALL_SLOTS slots at their widest level.
    """
    n = graph.n
    indptr, nbr, _ = graph.csr()
    flags_g = np.zeros(roots.size, dtype=bool)
    flags_2g = np.zeros(roots.size, dtype=bool)
    bmax, b, widths = 0, 0, []
    # depth: by root position * n + vertex, the depth within the balls, -1 outside them
    for block, depth in _sized_blocks(n, roots, _BALL_SLOTS, widths):
        nr = block.size
        front = np.arange(nr) * n + block
        depth[front] = 0
        seen = [front]
        verts = np.ones(nr, dtype=np.int64)
        half = np.zeros(nr, dtype=np.int64)
        acyclic = np.ones(nr, dtype=bool)
        widest = 1
        for level in range(2 * g + 1):
            if level == g:
                front = front[acyclic[front // n]]
            cell, slot = _fan_out(indptr, front // n, front % n)
            widest = max(widest, cell.size)
            keys = cell * n + nbr[slot]
            dk = depth[keys]
            if level:
                half += 2 * np.bincount(cell[dk == level - 1], minlength=nr) + np.bincount(cell[dk == level], minlength=nr)
            acyclic &= half == 2 * (verts - 1)  # a stale count is never read: its flag is False already
            if level == g:
                flags_g[b:b + nr] = acyclic
                bmax = max(bmax, int(verts.max()))
            if level == 2 * g:
                flags_2g[b:b + nr] = acyclic
                break
            grow = dk < 0
            if level >= g:
                grow &= acyclic[cell]
            front = _claim(depth, keys[grow])  # one entry per new (root, vertex)
            depth[front] = level + 1
            seen.append(front)
            verts += np.bincount(front // n, minlength=nr)
        depth[np.concatenate(seen)] = -1
        widths.append(widest)
        b += nr
    return flags_g, flags_2g, bmax


def _girth_report(n: int, g: int, balls: list) -> tuple[PseudoGirthReport, np.ndarray]:
    """The report and the radius-g flags, from (flags_g, flags_2g, B) of consecutive root ranges."""
    flags_g = np.concatenate([b[0] for b in balls])
    flags_2g = np.concatenate([b[1] for b in balls])
    report = PseudoGirthReport(
        g=g,
        n=n,
        acyclic_g=int(flags_g.sum()),
        acyclic_2g=int(flags_2g.sum()),
        F=n - int(flags_2g.sum()),
        B=max(b[2] for b in balls),
        violating=tuple(int(r) for r in np.flatnonzero(~flags_2g)[:32]),
    )
    return report, flags_g


def _pseudo_girth_scan(graph: WeightedGraph, g: int) -> tuple[PseudoGirthReport, np.ndarray]:
    """The report, and the flags of roots whose radius-g ball is acyclic,
    with the roots split by :func:`split_ranges`."""
    if g < 0:
        raise InvalidArgumentError(f"radius must be nonnegative, got {g}")
    if not graph.is_simple:
        raise UnsupportedInputError("pseudo-girth needs a simple graph; collapse multiedges first")
    n = graph.n
    work = n * max(n, graph.csr()[1].size) * g // 8  # _fork._PARALLEL_WORK has the units
    balls = split_ranges(lambda lo, hi: _ball_flags(graph, g, np.arange(lo, hi)), n, work)
    return _girth_report(n, g, balls)


def pseudo_girth(graph: WeightedGraph, g: int) -> PseudoGirthReport:
    """Cycle-free-ball counts at radii g and 2g, and the largest radius-g ball."""
    return _pseudo_girth_scan(graph, g)[0]


# -- the certificate ----------------------------------------------------------------


def _running_sums(totals: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """totals[i] + terms[i, 0] + terms[i, 1] + ..., added left to right."""
    return np.cumsum(np.column_stack([totals, terms]), axis=1)[:, -1]


def _walk_terms(space: _EdgeSpace, g: int, first_step: str, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-root terms of the certificate's totals for the roots lo..hi-1, one
    column per root, and each root's support size and edge count inside it.

    Rows: f'L_H f, h'L_H h, f'L_K f, h'L_K h, h'D_H h, h'A_H h - f'A_H f,
    |f|^2, |h|^2, (1'h)^2 and the mass deficit.  f_r and h_r live on the
    root's support, and the forms come from the edge products alone: x'L_H x
    = sum_v wdeg_v x_v^2 - 2 sum_e w_e x_u x_v and (Y - X).A_H sums 2 sum_e
    w_e (h_u h_v - f_u f_v).  Each support cell fans out over its edges to
    higher vertices and finds the other end in the index scratch, so an edge
    inside the support is counted once.  Every per-root sum adds that root's
    terms in the order of its own walk, and no BLAS call is made, so a
    root's terms do not depend on the other roots of its block or on a
    thread count.  Blocks hold about _WALK_ENTRIES walk entries.
    """
    n, wdeg = space.n, space.wdeg
    columns, verts, edges, entries = [], [], [], []
    for roots, index in _sized_blocks(n, np.arange(lo, hi), _WALK_ENTRIES, entries):
        cells, f, h, deficit, width = _support_vectors(space, roots, g, first_step, index)
        rid, v = np.divmod(cells, n)
        up = space.up[v]
        slot = _concat_ranges(space.out_ptr[v], up)  # each cell's edges to higher vertices
        other = index[np.repeat(cells - v, up) + space.dst[slot]]
        index[cells] = -1
        inside = np.flatnonzero(other >= 0)
        owner = np.repeat(np.arange(cells.size), up)[inside]
        other, w = other[inside], space.w[slot[inside]]
        up_f = np.bincount(owner, f[other] * w, minlength=cells.size)  # sum over v > u of w_uv f_v
        up_h = np.bincount(owner, h[other] * w, minlength=cells.size)
        ff, hh = f * f, h * h
        per_root = partial(np.bincount, rid, minlength=roots.size)
        verts.append(per_root())
        edges.append(np.bincount(rid[owner], minlength=roots.size))
        nf2, nh2 = per_root(ff), per_root(hh)
        sf, sh = per_root(f), per_root(h)
        fd, hd = per_root(ff * wdeg[v]), per_root(hh * wdeg[v])
        faf, hah = per_root(f * up_f), per_root(h * up_h)
        columns.append(np.stack([
            fd - 2.0 * faf,
            hd - 2.0 * hah,
            nf2 - sf * sf / n,
            nh2 - sh * sh / n,
            hd,
            2.0 * (hah - faf),
            nf2,
            nh2,
            sh * sh,
            deficit,
        ]))
        entries.append(width)
    return np.hstack(columns), np.concatenate(verts), np.concatenate(edges)


def _root_chunk(graph: WeightedGraph, space: _EdgeSpace, g: int, first_step: str, lo: int, hi: int):
    """The ball flags and the walk terms of the roots lo..hi-1: the radius-g flags and B from the walk
    supports, the radius-2g flags from a scan of the balls acyclic at g (a cycle within g is within 2g)."""
    terms, verts, edges = _walk_terms(space, g, first_step, lo, hi)
    flags_g = edges == verts - 1  # a support is a connected ball: acyclic with one edge fewer than vertices
    flags_2g = np.zeros_like(flags_g)
    flags_2g[flags_g] = _ball_flags(graph, g, lo + np.flatnonzero(flags_g))[1]
    return (flags_g, flags_2g, int(verts.max())), terms


def certify_lower_bound(
    graph: WeightedGraph,
    g: int,
    d: float,
    first_step: str = FIRST_STEP_WEIGHT,
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
    if not 0 < d < np.inf:
        raise InvalidArgumentError(f"nominal degree must be positive and finite, got {d}")
    if not graph.is_simple:
        raise UnsupportedInputError("certificate needs a simple graph; collapse multiedges first")
    if not is_connected(graph):
        raise InvalidArgumentError("certificate needs a connected graph")
    n = graph.n
    space = _EdgeSpace(graph)
    # 32 per expected walk entry (see _fork._PARALLEL_WORK): a tree-like ball of mean degree dbar
    # has dbar (dbar - 1)^(ell - 1) cells at depth ell, and each one below depth g fans out dbar entries
    dbar = space.m2 / n
    work = 32 * n * dbar * (1 + sum(min(n, dbar * (dbar - 1) ** (ell - 1)) for ell in range(1, g)))
    chunks = split_ranges(partial(_root_chunk, graph, space, g, first_step), n, work)
    pg, vprime = _girth_report(n, g, [balls for balls, _ in chunks])
    # one running sum over every root's terms, in ascending root order
    terms = np.hstack([t for _, t in chunks])
    totals = _running_sums(np.zeros(10), terms)
    nf2, nh2, expected = terms[6], terms[7], (g + 1) - terms[9]
    worst_vprime_dev = float(np.maximum(np.abs(nf2 - expected), np.abs(nh2 - expected))[vprime].max(initial=0.0))
    worst_norm_sq = float(np.maximum(nf2, nh2).max(initial=0.0))
    x_lh, y_lh, x_lk, y_lk, y_dh, ymx_ah, trace_x, trace_y, y_j, total_loss = map(float, totals)
    wdeg = space.wdeg

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
    slack = 1e-6 * base  # relative tolerance of the trace brackets
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
        vprime_norms_ok=worst_vprime_dev <= 1e-9,
        norm_cap_ok=worst_norm_sq <= norm_cap + 1e-9,
        traces_ok=(
            trace_lower - slack <= trace_x <= trace_upper + slack
            and trace_lower - slack <= trace_y <= trace_upper + slack
        ),
        y_dot_j_ok=y_j <= yj_cap + 1e-6,
    )

    cdeg = space.deg
    sqrt_d = float(np.sqrt(d))
    max_w = float(space.w.max(initial=0.0))
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
