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
tracked as deficiency rather than renormalized away.  One growth function
takes a block's balls from a given radius to 2g, from radius g on fanning
out only acyclic balls.  A walk's support is its root's radius-g ball: the
certificate reads the radius-g flags and B off it and grows the acyclic
balls on in the same scratch; ``pseudo_girth`` grows them from radius 0.

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

import math
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

# A certificate block holds about _WALK_ENTRIES (root, directed edge) walk
# entries over its levels, sized by the entries per root of the block before;
# its acyclic balls then grow on in the same scratch.  A pseudo_girth block
# fans out about _BALL_SLOTS CSR slots at its widest level.  Either holds at
# most _BALL_SCRATCH // n roots, so its one (root, vertex) int32 scratch has
# at most _BALL_SCRATCH cells.  One process, medians of 5: the walk terms of
# n=2000, d=16, g=3 took 1.65, 1.73 and 1.57 s at 2^15, 2^17 and 2^18
# entries, at traced peaks of 8, 31 and 60 MB; ball scans of n=2000, d=8,
# g=3 took 77, 59 and 55 ms at 2^13, 2^14 and 2^16 slots, at peaks of 1.3,
# 1.5 and 2.1 MB, and 125 against 93 ms (paired medians of 31) when sized by
# their total fan-out at 2^15 slots; n=12000, d=4, g=2 took 0.85, 0.55 and
# 0.41 s at 2^16, 2^17 and 2^18 scratch cells.
_WALK_ENTRIES = 1 << 15
_BALL_SLOTS = 1 << 14
_BALL_SCRATCH = 1 << 17


def _sized_blocks(n: int, roots: np.ndarray, target: int, sizes: list):
    """Consecutive blocks of ``roots``, each with the int32 scratch of its
    (root position) * n + vertex cells, -1 on entry to each block.

    The caller resets the cells it used and appends a size measure of each
    block to ``sizes`` (a ball growth's widest fan-out, a walk's entries).
    The first block holds one root; each later one is sized so that its
    measure comes to about ``target`` at the measure per root of the block
    before, with at most _BALL_SCRATCH // n roots.
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
    """Each distinct cell of ``cells`` once, in the order of the entries that claim them:
    entry i writes -2 - i to its cell and one write per cell stays, so ``scratch`` holds
    no value below -1 on entry; the caller then overwrites the claimed cells."""
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
    its reverse.  The arrays are stored by slot, as ``graph.csr()`` stores
    (and shares) out_ptr, dst and w: sorted by source and then by id, so each
    vertex's out-edges are one CSR range, its up[v] edges to higher vertices
    first.  Because bundles are sorted by (u, v), the in-edges of a vertex
    come in the same order by slot as by id: both sort them by source.
    """

    __slots__ = (
        "n", "m2", "dst", "w", "rev", "denom", "dead", "dead_pos", "num_dead", "out_ptr", "wdeg", "deg", "up",
    )

    def __init__(self, graph: WeightedGraph):
        if not graph.is_simple:
            raise UnsupportedInputError("walks need a simple graph; collapse multiedges first")
        us, vs, ws, _ = graph.edge_arrays()
        us, vs = us[ws > 0], vs[ws > 0]
        n, m = graph.n, len(us)
        self.n, self.m2 = n, 2 * m
        self.out_ptr, self.dst, self.w = graph.csr()
        self.wdeg = graph.weighted_degrees()
        self.deg = np.diff(self.out_ptr)
        self.up = np.bincount(us, minlength=n)
        src = np.repeat(np.arange(n), self.deg)
        back = src > self.dst  # slots to higher vertices list the bundles in order, the rest by (vs, us)
        bundle = np.zeros_like(src)
        bundle[~back], bundle[back] = np.arange(m), np.argsort(vs, kind="stable")
        ids = bundle + m * back
        slot = np.empty_like(ids)
        slot[ids] = np.arange(2 * m)
        self.rev = slot[bundle + m * ~back]
        self.dead = self.deg[self.dst] == 1  # walk mass entering a leaf cannot continue
        self.denom = _leave_one_out_sums(n, self.dst[slot], self.w[slot])[ids]  # summed in id order
        self.dead_pos = (np.cumsum(self.dead[slot]) - 1)[ids]  # rank of a dead edge among the dead edges, by id
        self.num_dead = int(self.dead.sum())


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
    """(cells, f, h, deficit, entries, lo): the support cells of :func:`_walk_levels`, f_r and
    h_r on them, each root's sum over ell in [1, g] of the walk mass already lost by step
    ell (zero on min-degree-2 graphs), the entry count, and the position of the first cell
    at depth g; ``index`` maps the cells."""
    cells, f, h = np.arange(roots.size) * space.n + roots, np.ones(roots.size), np.ones(roots.size)
    deficit, entries, sign, lo = np.zeros(roots.size), 0, -1.0, 0
    for cells, marg, lost, width in _walk_levels(space, roots, g, first_step, index):
        s = np.sqrt(marg)
        lo, pad = f.size, np.zeros(s.size - f.size)
        f = np.concatenate([f, pad]) + sign * s
        h = np.concatenate([h, pad]) + s
        deficit += lost
        entries += width
        sign = -sign
    return cells, f, h, deficit, entries, lo


# -- pseudo-girth -----------------------------------------------------------------


def _ball_flags(indptr, nbr, g: int, level: int, index: np.ndarray, cells: np.ndarray, front: np.ndarray, verts, acyclic):
    """Grow a block's balls from radius ``level`` to 2g through the CSR
    adjacency (indptr, nbr), reset ``index``, and return the flags of the
    roots whose radius-g and radius-2g balls are acyclic, the largest
    radius-g ball and the widest level's fan-out.

    ``cells`` lists the (root position) * n + vertex cells within radius
    ``level``, ``front`` those at depth ``level``, and ``index`` is >= 0 at
    each; ``verts`` and ``acyclic``, updated in place, hold each ball's
    vertex count and whether it has no cycle.  A ball is connected, so when
    it is acyclic to radius L-1, each of its level-L cells has one claimed
    neighbour, its parent, and any further one closes a cycle.  A cycle
    stays in every larger ball; so from level g on only acyclic balls fan
    out, and a ball with a cycle within g-1 keeps, for B, the level-g cells
    that level g-1 claimed.
    """
    n, nr, start = indptr.size - 1, verts.size, level
    seen, widest = [cells], 0
    while True:
        if level == g:
            front = front[acyclic[front // n]] if acyclic.any() else front[:0]
        cell, slot = _fan_out(indptr, front // n, front % n)
        widest = max(widest, cell.size)
        keys = cell * n + nbr[slot]
        grow = index[keys] < 0
        if level > start:  # a ball left out of the fan-out has its flag False already
            acyclic &= np.bincount(cell[~grow], minlength=nr) == added
        if level == g:
            flags_g, bmax = acyclic.copy(), int(verts.max())
        if level == 2 * g or level >= g and not front.size:  # no ball grows past this level
            break
        if level >= g:
            grow &= acyclic[cell]
        front = _claim(index, keys[grow])  # one entry per new (root, vertex)
        index[front] = 0
        seen.append(front)
        added = np.bincount(front // n, minlength=nr)
        verts += added
        level += 1
    index[np.concatenate(seen)] = -1
    return flags_g, acyclic, bmax, widest


def _concat_balls(balls: list) -> tuple[np.ndarray, np.ndarray, int]:
    """(flags_g, flags_2g, B) of consecutive root ranges, from each range's own, or none."""
    flags_g, flags_2g, bmax = zip(*balls, (np.zeros(0, bool), np.zeros(0, bool), 0))
    return np.concatenate(flags_g), np.concatenate(flags_2g), max(bmax)


def _girth_report(n: int, g: int, balls: list) -> tuple[PseudoGirthReport, np.ndarray]:
    """The report and the radius-g flags, from (flags_g, flags_2g, B) of consecutive root ranges."""
    flags_g, flags_2g, bmax = _concat_balls(balls)
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


def _girth_flags(graph: WeightedGraph, g: int, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(flags_g, flags_2g, B) of the given roots, their balls grown from radius 0 a block at a time."""
    balls, widths = [], []
    for block, index in _sized_blocks(graph.n, roots, _BALL_SLOTS, widths):
        nr = block.size
        cells = np.arange(nr) * graph.n + block
        index[cells] = 0
        *flags, widest = _ball_flags(*graph.csr()[:2], g, 0, index, cells, cells, np.ones(nr, int), np.ones(nr, bool))
        balls.append(flags)
        widths.append(widest)
    return _concat_balls(balls)


def pseudo_girth(graph: WeightedGraph, g: int) -> PseudoGirthReport:
    """Cycle-free-ball counts at radii g and 2g, and the largest radius-g ball, with the roots
    split by :func:`split_ranges`."""
    if g < 0:
        raise InvalidArgumentError(f"radius must be nonnegative, got {g}")
    if not graph.is_simple:
        raise UnsupportedInputError("pseudo-girth needs a simple graph; collapse multiedges first")
    n = graph.n
    work = n * max(n, graph.csr()[1].size) * g // 8  # _fork._PARALLEL_WORK has the units
    balls = split_ranges(lambda lo, hi: _girth_flags(graph, g, np.arange(lo, hi)), n, work)
    return _girth_report(n, g, balls)[0]


# -- the certificate ----------------------------------------------------------------


def _walk_terms(space: _EdgeSpace, g: int, first_step: str, lo: int, hi: int) -> tuple[np.ndarray, tuple]:
    """Per-root terms of the certificate's totals for the roots lo..hi-1, one
    column per root, and their (flags_g, flags_2g, B).

    Rows: f'L_H f, h'L_H h, f'L_K f, h'L_K h, h'D_H h, h'A_H h - f'A_H f,
    |f|^2, |h|^2, (1'h)^2 and the mass deficit.  f_r and h_r live on the
    root's support, and the forms come from the edge products alone: x'L_H x
    = sum_v wdeg_v x_v^2 - 2 sum_e w_e x_u x_v and (Y - X).A_H sums 2 sum_e
    w_e (h_u h_v - f_u f_v).  Each support cell fans out over its edges to
    higher vertices and finds the other end in the index scratch, so an edge
    inside the support is counted once.  Every per-root sum adds that root's
    terms in the order of its own walk, and no BLAS call is made, so a
    root's terms do not depend on the other roots of its block or on a
    thread count.  Blocks hold about _WALK_ENTRIES walk entries.  A support
    is its root's radius-g ball, numbered by depth, so :func:`_ball_flags`
    grows the balls acyclic at g on to 2g from it, in the same scratch.
    """
    n, wdeg = space.n, space.wdeg
    columns, balls, entries = [], [], []
    for roots, index in _sized_blocks(n, np.arange(lo, hi), _WALK_ENTRIES, entries):
        cells, f, h, deficit, width, last = _support_vectors(space, roots, g, first_step, index)
        rid, v = np.divmod(cells, n)
        up = space.up[v]
        slot = _concat_ranges(space.out_ptr[v], up)  # each cell's edges to higher vertices
        other = index[np.repeat(cells - v, up) + space.dst[slot]]
        inside = np.flatnonzero(other >= 0)
        owner = np.repeat(np.arange(cells.size), up)[inside]
        other, w = other[inside], space.w[slot[inside]]
        per_root = partial(np.bincount, rid, minlength=roots.size)
        verts = per_root()
        acyclic = np.bincount(rid[owner], minlength=roots.size) == verts - 1  # one edge fewer than vertices
        balls.append(_ball_flags(space.out_ptr, space.dst, g, g, index, cells, cells[last:], verts, acyclic)[:3])
        up_f = np.bincount(owner, f[other] * w, minlength=cells.size)  # sum over v > u of w_uv f_v
        up_h = np.bincount(owner, h[other] * w, minlength=cells.size)
        ff, hh = f * f, h * h
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
    return np.hstack(columns), _concat_balls(balls)


def certificate_work(graph: WeightedGraph, g: int) -> float:
    """The certificate's work in ``_fork._PARALLEL_WORK`` units, 32 per expected walk entry: a
    tree-like ball of mean degree dbar has min(n, dbar q^(ell - 1)) cells at depth ell, with
    q = dbar - 1, and each one below depth g fans out dbar entries.

    The counts are a geometric series in q up to depth k, the last below n: ceil(log_q(n / dbar))
    if q > 1, else g - 1; each deeper depth adds n.  Near q = 1, q^k - 1 loses digits, but the
    relative error stays below about n * 1e-16, since |q - 1| >= 2/n when q != 1.
    """
    n = graph.n
    dbar = graph.csr()[1].size / n
    q, depths = dbar - 1, max(g - 1, 0)
    k = min(depths, math.ceil(math.log(n / dbar, q))) if q > 1 else depths
    series = k if q == 1 else (q**k - 1) / (q - 1)
    return 32 * n * dbar * (1 + dbar * series + (depths - k) * n)


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
    chunks = split_ranges(partial(_walk_terms, space, g, first_step), n, certificate_work(graph, g))
    pg, vprime = _girth_report(n, g, [balls for _, balls in chunks])
    # one running sum over every root's terms, in ascending root order, added left to right
    terms = np.hstack([t for t, _ in chunks])
    totals = np.cumsum(np.column_stack([np.zeros(10), terms]), axis=1)[:, -1]
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

    sqrt_d = float(np.sqrt(d))
    max_w = float(space.w.max(initial=0.0))
    assumptions = AssumptionChecks(
        d=float(d),
        min_combinatorial_degree=int(space.deg.min()),
        combinatorial_ok=bool(space.deg.min() >= d / 4.0),
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
