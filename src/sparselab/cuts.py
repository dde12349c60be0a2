"""Cut values, cut-sparsification error, and per-size deviation profiles.

Every exhaustive measurement reads one kernel, ``_SplitCuts``: it splits V
into A = {0..a-1}, with vertex 0 pinned inside, and B, and evaluates
cut(S) = u_A[S_A] + u_B[S_B] - 2 x_A^T W_AB x_B with one GEMM per row slab of
at most ``_SLAB_CELLS`` cells, so each unordered proper cut is seen once.
Its per-class crossing counts are integers below 2^24, exact in float32 and
kept so through the block reductions; arithmetic on them is done in float64.
Rows and columns are sorted by popcount: against a clique, whose cut depends
only on |S|, each (|S_A|, |S_B|) block needs only its raw max and min cut; a
general reference keeps an elementwise ratio.  A witness is the first extreme
cell in Gray-code order over vertices 1..n-1, found by evaluating again only
the blocks that reach the extreme (against a clique, by raw-cut thresholds).

A reference is a :class:`WeightedGraph` or a :class:`Clique`; a clique's
cuts come from its closed form w*k*(n-k), so it is never enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, SizeLimitError
from .graph import Clique, WeightedGraph, _component_labels, _concat_ranges
from .rng import derive_seed, make_generator

EXHAUSTIVE_CAP = 30

# Per-size reference values for deviation profiles of a nominal-degree-d graph:
#   "density":     d * k * (n - k) / n        (relative-volume form)
#   "expectation": d * k * (n - k) / (n - 1)  (exact matching-model mean)
REF_DENSITY = "density"
REF_EXPECTATION = "expectation"

# cells per slab of split cut values: 512 KB of float32 counts per graph
_SLAB_CELLS = 1 << 17


@dataclass(frozen=True)
class CutErrorReport:
    """Worst relative cut deviation of H against reference graph G."""

    epsilon: float
    witness: tuple[int, ...] | None
    mode: str
    subsets_examined: int
    n: int
    lower_bound: bool  # sampled mode can only certify a lower bound on the true error

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "witness": list(self.witness) if self.witness is not None else None,
            "mode": self.mode,
            "subsets_examined": self.subsets_examined,
            "n": self.n,
            "lower_bound": self.lower_bound,
        }


@dataclass(frozen=True)
class CutProfileRow:
    k: int
    alpha: float
    max_dev: float
    min_dev: float
    argmax_subset: tuple[int, ...] | None
    subsets_examined: int
    mode: str


@dataclass(frozen=True)
class CutProfile:
    n: int
    d: int
    reference: str
    rows: tuple[CutProfileRow, ...] = field(default_factory=tuple)

    def row(self, k: int) -> CutProfileRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise KeyError(k)

    def max_abs_deviation(self) -> float:
        return max(max(abs(r.max_dev), abs(r.min_dev)) for r in self.rows)

    def to_csv(self) -> str:
        lines = ["k,alpha,max_dev,min_dev,mode,samples"]
        for r in self.rows:
            lines.append(f"{r.k},{r.alpha!r},{r.max_dev!r},{r.min_dev!r},{r.mode},{r.subsets_examined}")
        return "\n".join(lines) + "\n"


# -- split enumeration ---------------------------------------------------------


def _split_point(n: int) -> int:
    """Size a of the part A = {0..a-1}: 2^(a-1) rows against 2^(n-a) columns."""
    return (n + 1) // 2


def _by_popcount(masks: np.ndarray, classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks stably sorted by popcount, and where each popcount 0..classes-1 starts (then the end)."""
    counts = np.bitwise_count(masks)
    order = np.argsort(counts, kind="stable")
    return masks[order], np.searchsorted(counts[order], np.arange(classes + 1))


def _gray_rank(masks: np.ndarray) -> np.ndarray:
    """Position of each mask in the Gray visit order: the inverse Gray code (a prefix xor) of mask >> 1."""
    rank = masks >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        rank = rank ^ (rank >> shift)
    return rank


def _weight_classes(graph: WeightedGraph) -> list[tuple[float, np.ndarray]]:
    """(w, per-bundle multiplier) pairs in increasing w: the cut is sum(w * crossing count) in this order.

    Integer weights with a total below 2^23 are one class, whose partial sums are integers below
    2^24, exact in float32 in any order; a larger integer total below 2^50 sums to the same integer.
    """
    ws = graph.edge_arrays()[2]
    if np.array_equal(ws, np.rint(ws)) and ws.sum() < 2.0**23:
        return [(1.0, ws)]
    ordered = np.sort(ws)  # np.unique's values, without the numpy.ma import its first call costs
    return [(w, (ws == w).astype(np.float64)) for w in ordered[np.append(True, np.diff(ordered) != 0)]]


class _SplitCuts:
    """Exact cut values of graphs on n vertices over the split V = A + B, A = {0..a-1}.

    A subset S holding vertex 0 is a row S_A (2^(a-1) of them) and a column S_B (2^(n-a)), both
    sorted by popcount, so each (kA, kB) block of sizes is a row range times a column range.  Per
    weight class the crossing count u_A[S_A] + u_B[S_B] - 2 x_A^T W_AB x_B is an exact integer in
    float32; u_A rides in the GEMM as a last column of ``pa`` against a row of ones in ``xbt``.
    ``dtype`` is the first graph's cut dtype: float32 when it is one integer class, whose counts are
    its cuts, so ``extremes`` adds u_B after its row reduction, exactly.  ``valid`` lists the blocks of
    proper cuts (all but the full vertex set's); ``size``, ``kside`` and ``count`` are per valid block.
    """

    def __init__(self, n: int, graphs: Sequence[WeightedGraph]):
        self.n = n
        self.a = a = _split_point(n)
        self.rows, self.ra = _by_popcount(np.arange(1 << (a - 1), dtype=np.int64) * 2 + 1, a + 1)
        self.cols, self.cb = _by_popcount(np.arange(1 << (n - a), dtype=np.int64), n - a + 1)
        xa = ((self.rows[:, None] >> np.arange(a)) & 1).astype(np.float64)
        self.xbt = (((self.cols | 1 << (n - a)) >> np.arange(n - a + 1)[:, None]) & 1).astype(np.float32)  # ones last
        xb = self.xbt[:-1].T.astype(np.float64)
        self.terms = []
        for g in graphs:
            us, vs, _, _ = g.edge_arrays()
            terms = []
            for w, mult in _weight_classes(g):
                wm = np.zeros((n, n))
                wm[us, vs] = mult
                wm += wm.T
                deg = wm.sum(axis=1)
                ua = xa @ deg[:a] - ((xa @ wm[:a, :a]) * xa).sum(axis=1)
                ub = xb @ deg[a:] - ((xb @ wm[a:, a:]) * xb).sum(axis=1)
                pa = np.column_stack([-2.0 * (xa @ wm[:a, a:]), ua]).astype(np.float32)  # u_A against the ones
                terms.append((w, pa, ub.astype(np.float32)))
            self.terms.append(terms)
        self.dtype = np.dtype(np.float32 if len(self.terms[0]) == 1 and self.terms[0][0][0] == 1.0 else np.float64)
        count = np.outer(np.diff(self.ra), np.diff(self.cb))
        count[a, n - a] = 0
        self.valid = np.nonzero(count)
        self.count = count[self.valid]
        self.size = self.valid[0] + self.valid[1]
        self.kside = np.minimum(self.size, n - self.size)
        self.every = [(ka, 0, n - a) for ka in range(1, a + 1)]

    def _cuts(self, terms, r: slice, c: slice, column: bool) -> np.ndarray:
        acc = None  # the first term stands for 0.0 + term, which equals it: terms are >= +0.0
        for w, pa, ub in terms:
            cnt = pa[r] @ self.xbt[:, c]
            if len(terms) == 1 and w == 1.0:  # one integer class: its float32 counts are the cuts
                return np.add(cnt, ub[c], out=cnt) if column else cnt
            cnt += ub[c]
            part = np.multiply(w, cnt, dtype=np.float64)
            acc = part if acc is None else acc + part
        return acc

    def _slabs(self, blocks, column: bool = True):
        """Yield (kA, kB0, kB1, rows, columns, cuts of each graph) over row slabs of blocks (kA, kB0, kB1)."""
        for ka, kb0, kb1 in blocks:
            c = slice(self.cb[kb0], self.cb[kb1 + 1])
            step = max(1, _SLAB_CELLS // (c.stop - c.start))
            for r0 in range(self.ra[ka], self.ra[ka + 1], step):
                r = slice(r0, min(r0 + step, self.ra[ka + 1]))
                yield ka, kb0, kb1, r, c, [self._cuts(t, r, c, column) for t in self.terms]

    def tables(self, blocks, cells, ops, column: np.ndarray | None = None) -> list[np.ndarray]:
        """Per valid block, each ufunc of ops (np.maximum or np.minimum) folded over cells(cuts); a ``column``
        term, u_B of one integer class, is left out of the slabs and added after the row fold."""
        out = [np.full((self.a + 1, self.n - self.a + 1), -np.inf if op is np.maximum else np.inf) for op in ops]
        for ka, kb0, kb1, r, c, cuts in self._slabs(blocks, column is None):
            starts = self.cb[kb0 : kb1 + 1] - c.start
            for table, op, x in zip(out, ops, cells(cuts)):
                part, reduced = table[ka, kb0 : kb1 + 1], op.reduce(x, axis=0)
                if column is not None:
                    reduced += column[c]
                op(part, op.reduceat(reduced, starts), out=part)
            del cuts, x  # freed before the next slab's GEMM, which then reuses their pages
        return [t[self.valid] for t in out]

    def _blocks(self, sel: np.ndarray) -> list[tuple[int, int, int]]:
        return [(ka, kb, kb) for ka, kb in zip(self.valid[0][sel], self.valid[1][sel])]

    def extremes(self, sel: np.ndarray | None = None) -> list[np.ndarray]:
        """Raw maximum and minimum cut of the first graph per valid block (only the selected ones are filled)."""
        blocks = self.every if sel is None else self._blocks(sel)
        column = self.terms[0][0][2] if self.dtype == np.float32 else None  # integer cuts: exact either way
        return self.tables(blocks, lambda cuts: (cuts[0], cuts[0]), (np.maximum, np.minimum), column)

    def first(self, sel: np.ndarray, hit) -> int | None:
        """Mask of least Gray rank among the cells of the selected valid blocks where hit(size, cuts) holds."""
        best = (np.inf, None)
        for ka, kb, _, r, c, cuts in self._slabs(self._blocks(sel)):
            i, j = np.nonzero(hit(ka + kb, cuts))
            del cuts  # freed before the next slab's GEMM, as in tables
            if i.size:
                masks = self.rows[r][i] | (self.cols[c][j] << self.a)
                rank = _gray_rank(masks)
                t = int(np.argmin(rank))
                best = min(best, (int(rank[t]), int(masks[t])))
        return best[1]


def _mask_to_subset(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> v) & 1)


def _ratio_dev(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.abs(np.divide(num, den, dtype=np.float64) - 1.0)


def _exhaustive_report(split: _SplitCuts, best: float, mask: int) -> CutErrorReport:
    n = split.n
    return CutErrorReport(float(best), _mask_to_subset(mask, n), "exhaustive", 2 ** (n - 1) - 1, n, lower_bound=False)


def _least_where(pred, dtype: np.dtype, shape) -> np.ndarray:
    """Per entry, the least x in [+0, +inf] of a float dtype where the monotone pred holds; +inf when none below."""
    bits = np.dtype(f"u{dtype.itemsize}")
    lo, hi = np.zeros(shape, bits), np.full(shape, np.array(np.inf, dtype).view(bits))
    while np.any(lo < hi):
        mid = lo + (hi - lo) // 2
        ok = pred(mid.view(dtype))
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return hi.view(dtype)


def _clique_ratio(split: _SplitCuts, hi: np.ndarray, lo: np.ndarray, scale: float, refs: np.ndarray) -> CutErrorReport:
    """Worst |scale*cut / refs[|S|] - 1| from each block's raw cut extremes; the witness by raw-cut thresholds.

    At a fixed size r(x) = fl(fl(scale*x)/ref) - 1 is monotone in the cut x, so a block's extreme is at its max or min
    cut, and as no cell exceeds best, a cell reaches it exactly when x >= t_hi, the least x with r(x) >= best, or
    x < t_lo, the least x with r(x) > -best; both are bisected per size over the bit patterns of the cut dtype."""

    def signed(cut, size):
        return np.divide(np.float64(scale) * cut, refs[size], dtype=np.float64) - 1.0

    dev = np.maximum(np.abs(signed(hi, split.size)), np.abs(signed(lo, split.size)))
    best = dev.max()
    bound = np.array([[best], [np.nextafter(-best, np.inf)]])  # r(x) > -best is r(x) >= the next float up
    t_hi, t_lo = _least_where(lambda x: signed(x, slice(1, split.n)) >= bound, split.dtype, (2, split.n - 1))
    mask = split.first(dev == best, lambda size, cuts: (cuts[0] >= t_hi[size - 1]) | (cuts[0] < t_lo[size - 1]))
    return _exhaustive_report(split, best, mask)


def _profile_rows(split: _SplitCuts, hi: np.ndarray, lo: np.ndarray, refs: np.ndarray, argmax_cap: int):
    """Per smaller-side size k: extreme deviations from the raw cut extremes, and the first argmax."""
    n = split.n
    rows = []
    for k in range(1, n // 2 + 1):
        sel = split.kside == k
        top, bottom = hi[sel].max(), lo[sel].min()
        sub = None
        if k <= argmax_cap:
            sub = _mask_to_subset(split.first(sel & (hi == top), lambda size, cuts: cuts[0] == top), n)
            if len(sub) != k:  # the maximizer is the large side; report the smaller
                sub = tuple(v for v in range(n) if v not in sub)
        max_dev, min_dev = float(top / refs[k] - 1.0), float(bottom / refs[k] - 1.0)
        rows.append(CutProfileRow(k, k / n, max_dev, min_dev, sub, int(split.count[sel].sum()), "exhaustive"))
    return tuple(rows)


def _require_same_vertices(h: WeightedGraph, g: WeightedGraph | Clique) -> None:
    if h.n != g.n:
        raise InvalidArgumentError(f"vertex sets differ: {h.n} vs {g.n}")


def _require_connected_reference(g: WeightedGraph | Clique) -> None:
    first = True if isinstance(g, Clique) else _component_labels(g) == 0
    if not np.all(first):  # the witness is vertex 0's component, or its complement if that is smaller
        witness = np.flatnonzero(first if first.sum() <= g.n // 2 else ~first).tolist()
        raise DegenerateInputError(
            f"reference graph is disconnected; cut of S={tuple(witness)} is zero, no finite relative error exists"
        )


def cut_error_exhaustive(h: WeightedGraph, g: WeightedGraph | Clique) -> CutErrorReport:
    """Exact worst relative cut deviation max_S |cut_H(S)/cut_G(S) - 1|.

    Visits all 2^(n-1) - 1 unordered nonempty proper cuts.  The witness is
    the first maximizer in visit order.
    """
    _require_same_vertices(h, g)
    n = h.n
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices for a proper cut")
    if n > EXHAUSTIVE_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}; use cut_error_sampled")
    _require_connected_reference(g)

    if isinstance(g, Clique):
        split = _SplitCuts(n, (h,))
        return _clique_ratio(split, *split.extremes(), 1.0, g.cut(np.arange(n + 1, dtype=np.float64)))
    split = _SplitCuts(n, (h, g))
    with np.errstate(divide="ignore", invalid="ignore"):  # cut_G is 0 on the full vertex set, never read
        (dev,) = split.tables(split.every, lambda cuts: (_ratio_dev(*cuts),), (np.maximum,))
    best = dev.max()  # the witness is the first cell reaching it in Gray visit order
    return _exhaustive_report(split, best, split.first(dev == best, lambda size, cuts: _ratio_dev(*cuts) == best))


# -- sampled error -------------------------------------------------------------


def _clique_pairs(h: WeightedGraph, dh: np.ndarray, cut2: float) -> tuple[float, tuple[int, int]]:
    """Worst |cut({u, v}) / cut2 - 1| over pairs u < v of H against a clique, and
    its first maximizer in row order, from the edge arrays alone.

    A bundle's pair has cut dh[u] + dh[v] - 2 w.  Any other pair has cut
    dh[u] + dh[v], and x -> |x / cut2 - 1| falls and then rises, also after
    rounding, so those pairs peak at their largest or smallest degree sum.
    A vertex's best partner in either order of degrees is among the first
    (bundles at it) + 2 vertices of that order.  The first maximizer among
    the pairs without a bundle lies in a row whose extreme sums reach the
    peak; only such rows are scanned, in slabs.
    """
    n = h.n
    us, vs, ws, _ = h.edge_arrays()
    keys = np.append(us * n + vs, -1)  # the sorted bundle keys, and -1 for a lookup past the last

    def dev(cut):
        return np.abs(cut / cut2 - 1.0)

    joined = dev((dh[us] + dh[vs]) - 2.0 * ws)
    counts = np.minimum(np.bincount(us, minlength=n) + np.bincount(vs, minlength=n) + 2, n)
    owner = np.repeat(np.arange(n), counts)
    slot = _concat_ranges(np.zeros(n, dtype=np.int64), counts)
    apart = []
    for order in (np.argsort(-dh, kind="stable"), np.argsort(dh, kind="stable")):
        lo, hi = np.minimum(owner, order[slot]), np.maximum(owner, order[slot])
        pair = lo * n + hi
        free = (lo != hi) & (keys[np.searchsorted(keys[:-1], pair)] != pair)
        apart.append(dev(dh[lo[free]] + dh[hi[free]]).max(initial=-np.inf))
    worst_joined = joined.max(initial=-np.inf)
    best = max(worst_joined, *apart)

    first = []
    if worst_joined == best:
        i = int(np.argmax(joined == best))
        first.append((int(us[i]), int(vs[i])))
    if max(apart) == best:
        top = np.maximum.accumulate(dh[::-1])[::-1]
        bottom = np.minimum.accumulate(dh[::-1])[::-1]
        rows = np.flatnonzero(np.maximum(dev(dh[:-1] + top[1:]), dev(dh[:-1] + bottom[1:])) >= best)
        step = max(1, _SLAB_CELLS // n)
        for r0 in range(0, rows.size, step):
            r = rows[r0 : r0 + step]
            hit = (dev(dh[r, None] + dh) == best) & (np.arange(n) > r[:, None])
            at = np.searchsorted(r, us)
            inside = np.append(r, -1)[at] == us
            hit[at[inside], vs[inside]] = False
            if hit.any():
                i, v = divmod(int(np.argmax(hit)), n)
                first.append((int(r[i]), v))
                break
    return float(best), min(first)


def _pair_scan(h: WeightedGraph, g: WeightedGraph | Clique):
    """Best deviation over all singleton and pair cuts, via closed forms.

    cut({u}) is the weighted degree; cut({u, v}) = deg(u) + deg(v) - 2 w(u, v).
    A clique reference uses its cut values w*k*(n-k) and the edge arrays of
    H (:func:`_clique_pairs`); a graph reference scans the pairs in row slabs
    of at most ``_SLAB_CELLS`` cells, whose weights are scattered from each
    graph's adjacency rows.  The witness is a worst singleton, else the first
    worst pair in row order.
    Returns (best deviation, witness subset, number of subsets examined).
    """
    n = h.n
    clique = isinstance(g, Clique)
    dh = h.weighted_degrees()
    dg = np.full(n, g.cut(1)) if clique else g.weighted_degrees()  # positive: the reference is connected
    dev1 = np.abs(dh / dg - 1.0)
    i = int(np.argmax(dev1))
    best, witness = float(dev1[i]), (i,)
    examined = n
    if n >= 3 and clique:  # pairs are proper subsets only when n >= 3
        pair, pair_witness = _clique_pairs(h, dh, g.cut(2))
        examined += n * (n - 1) // 2
        if pair > best:
            best, witness = pair, pair_witness
    elif n >= 3:
        step = max(1, _SLAB_CELLS // n)
        for lo in range(0, n - 1, step):
            r = np.arange(lo, min(lo + step, n - 1))
            ch, cg = ((d[r, None] + d) - 2.0 * _row_weights(x, r) for x, d in ((h, dh), (g, dg)))
            iu, iv = np.nonzero(np.arange(n) > r[:, None])  # pairs u < v in row order
            ch, cg = ch[iu, iv], cg[iu, iv]
            if np.any(cg <= 0):
                j = int(np.argmax(cg <= 0))
                raise DegenerateInputError(
                    f"reference cut is zero for S=({r[iu[j]]}, {iv[j]}); no finite relative error exists"
                )
            dev = np.abs(ch / cg - 1.0)
            examined += dev.size
            j = int(np.argmax(dev))
            if dev[j] > best:
                best, witness = float(dev[j]), (int(r[iu[j]]), int(iv[j]))
    return best, witness, examined


def _row_weights(graph: WeightedGraph, rows: np.ndarray) -> np.ndarray:
    """Bundle weights from the consecutive vertices ``rows`` to every vertex, as a (rows, n) array."""
    indptr, nbr, wgt = graph.csr()
    span, out = slice(indptr[rows[0]], indptr[rows[-1] + 1]), np.zeros((rows.size, graph.n))
    out[np.repeat(np.arange(rows.size), np.diff(indptr[rows[0] : rows[-1] + 2])), nbr[span]] = wgt[span]
    return out


def _subset_cuts(graph: WeightedGraph, subsets: np.ndarray, batch: int = 128) -> np.ndarray:
    """Cut values for the rows of a (count, k) array of subsets, in membership-matrix batches."""
    us, vs, ws, _ = graph.edge_arrays()
    out = np.empty(len(subsets))
    for lo in range(0, len(subsets), batch):
        chunk = subsets[lo : lo + batch]
        memb = np.zeros((len(chunk), graph.n), dtype=bool)
        memb[np.arange(len(chunk))[:, None], chunk] = True
        crossing = memb[:, us] ^ memb[:, vs]
        out[lo : lo + len(chunk)] = crossing @ ws
    return out


def _size_k_subsets(n: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, k) array of uniform size-k subsets, each sorted; every subset when C(n, k) <= count."""
    if math.comb(n, k) <= count:
        # full enumeration fallback; cheap because comb(n, k) is small here
        return np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(-1, k)
    draws = [rng.choice(n, size=k, replace=False) for _ in range(count)]
    return np.sort(np.array(draws, dtype=np.int64).reshape(count, k), axis=1)


def cut_error_sampled(
    h: WeightedGraph,
    g: WeightedGraph | Clique,
    samples_per_size: int,
    sizes: Sequence[int],
    seed: int,
) -> CutErrorReport:
    """Lower bound on the cut error from singletons, pairs, and sampled subsets.

    All singleton and pair cuts are always included (small sets dominate the
    hard regime); each requested size contributes ``samples_per_size`` uniform
    subsets, or full enumeration when that many subsets do not exist.
    """
    _require_same_vertices(h, g)
    n = h.n
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices for a proper cut")
    if samples_per_size < 0:
        raise InvalidArgumentError("samples_per_size must be nonnegative")
    _require_connected_reference(g)
    best, witness, examined = _pair_scan(h, g)
    for k in sorted(set(int(k) for k in sizes)):
        if not 1 <= k <= n - 1:
            raise InvalidArgumentError(f"subset size {k} not in [1, {n - 1}]")
        if k in (1, 2) or samples_per_size == 0:
            continue
        subsets = _size_k_subsets(n, k, samples_per_size, make_generator(derive_seed(seed, k)))
        ch = _subset_cuts(h, subsets)
        cg = np.full(len(subsets), g.cut(k), dtype=np.float64) if isinstance(g, Clique) else _subset_cuts(g, subsets)
        dev = np.abs(ch / cg - 1.0)
        examined += len(subsets)
        j = int(np.argmax(dev)) if len(subsets) else 0
        if len(subsets) and dev[j] > best:
            best = float(dev[j])
            witness = tuple(subsets[j].tolist())
    return CutErrorReport(
        epsilon=best,
        witness=witness,
        mode="sampled",
        subsets_examined=examined,
        n=n,
        lower_bound=True,
    )


# -- per-size deviation profile ------------------------------------------------


def _profile_references(n: int, d: int, reference: str) -> np.ndarray:
    ks = np.arange(n + 1, dtype=np.float64)
    if reference == REF_DENSITY:
        return d * ks * (n - ks) / n
    if reference == REF_EXPECTATION:
        return d * ks * (n - ks) / (n - 1)
    raise InvalidArgumentError(f"unknown reference {reference!r}")


def cut_profile(
    h: WeightedGraph,
    d: int,
    reference: str = REF_DENSITY,
    samples_per_size: int = 200,
    seed: int = 0,
    argmax_cap: int = 4,
) -> CutProfile:
    """Extremal signed relative cut deviations per subset size k in [1, n/2].

    Exhaustive for n <= EXHAUSTIVE_CAP (every unordered cut once, attributed to its
    smaller side; balanced cuts counted once via the vertex-0 convention),
    sampled otherwise.  The reference value for size k is d*k*(n-k)/n by
    default, or the exact matching-model expectation d*k*(n-k)/(n-1).
    """
    n = h.n
    kmax = n // 2
    if kmax < 1:
        raise InvalidArgumentError("profile needs n >= 2")
    refs = _profile_references(n, d, reference)
    if n <= EXHAUSTIVE_CAP:
        split = _SplitCuts(n, (h,))
        return CutProfile(n=n, d=d, reference=reference, rows=_profile_rows(split, *split.extremes(), refs, argmax_cap))

    if samples_per_size < 1:
        raise InvalidArgumentError(f"sampled profile needs at least one sample per size, got {samples_per_size}")
    rows = []
    for k in range(1, kmax + 1):
        subsets = _size_k_subsets(n, k, samples_per_size, make_generator(derive_seed(seed, k)))
        dev = _subset_cuts(h, subsets) / refs[k] - 1.0
        argmax = tuple(subsets[int(np.argmax(dev))].tolist()) if k <= argmax_cap else None
        rows.append(CutProfileRow(k, k / n, float(dev.max()), float(dev.min()), argmax, len(subsets), "sampled"))
    return CutProfile(n=n, d=d, reference=reference, rows=tuple(rows))


def regular_vs_clique_exhaustive(
    h_raw: WeightedGraph,
    d: int,
    reference: str = REF_DENSITY,
    argmax_cap: int = 4,
) -> tuple[CutErrorReport, CutProfile]:
    """One exhaustive pass producing both clique-sparsifier measurements.

    From a single enumeration of the raw d-regular graph's cuts: the exact
    cut error of ((n-1)/d) H against the unweighted clique (whose size-k cuts
    are k(n-k)), and the per-size deviation profile of H itself.
    """
    n = h_raw.n
    if n > EXHAUSTIVE_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    refs = _profile_references(n, d, reference)
    split = _SplitCuts(n, (h_raw,))
    hi, lo = split.extremes()
    profile = CutProfile(n=n, d=d, reference=reference, rows=_profile_rows(split, hi, lo, refs, argmax_cap))
    return _clique_ratio(split, hi, lo, (n - 1) / d, Clique(n, 1.0).cut(np.arange(n + 1.0))), profile


def extreme_cuts_at_sizes(h: WeightedGraph, ks: Sequence[int]) -> list[tuple[float, float]]:
    """(max, min) cut value over subsets of each size in ks, from one exhaustive enumeration."""
    n = h.n
    for k in ks:
        if not 1 <= k <= n // 2:
            raise InvalidArgumentError(f"size {k} not in [1, n/2]")
    if n > EXHAUSTIVE_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    split = _SplitCuts(n, (h,))
    hi, lo = split.extremes(np.isin(split.kside, ks))
    return [(float(hi[split.kside == k].max()), float(lo[split.kside == k].min())) for k in ks]


def extreme_cuts_at_size(h: WeightedGraph, k: int, samples: int, seed: int = 0) -> tuple[float, float]:
    """(max, min) cut value over `samples` random subsets of size k; extreme_cuts_at_sizes is exhaustive."""
    n = h.n
    if not 1 <= k <= n // 2:
        raise InvalidArgumentError(f"size {k} not in [1, n/2]")
    if samples < 1:
        raise InvalidArgumentError("sampled extremes need at least one sample")
    subsets = _size_k_subsets(n, k, samples, make_generator(seed))
    vals = _subset_cuts(h, subsets)
    return float(vals.max()), float(vals.min())
