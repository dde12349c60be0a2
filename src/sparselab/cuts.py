"""Cut values, cut-sparsification error, and per-size deviation profiles.

Every exhaustive measurement reads one enumeration, ``_exhaustive_cuts``: it
walks the subsets in binary-reflected Gray-code order over vertices 1..n-1
with vertex 0 pinned inside, drops the full vertex set, and yields blocks of
(bitmasks, subset sizes, cut values of each requested graph), so each
unordered nonempty proper cut {S, V-S} is seen exactly once.  Two reducers
fold the blocks: ``_WorstRatio`` keeps max |num/den - 1| and its first
maximizer in visit order, and ``_SizeExtremes`` keeps the raw maximum and
minimum cut per smaller-side size, from which the per-size deviation rows
are derived once at the end.

A reference is a :class:`WeightedGraph` or a :class:`Clique`; a clique's
cuts come from its closed form w*k*(n-k), so it is never enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, SizeLimitError
from .graph import Clique, WeightedGraph, connected_component, is_connected
from .rng import derive_seed, make_generator

EXHAUSTIVE_CAP = 30

# Per-size reference values for deviation profiles of a nominal-degree-d graph:
#   "density":     d * k * (n - k) / n        (relative-volume form)
#   "expectation": d * k * (n - k) / (n - 1)  (exact matching-model mean)
REF_DENSITY = "density"
REF_EXPECTATION = "expectation"

_BLOCK_BITS = 18


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


# -- pointwise cut evaluation -------------------------------------------------


def _membership(n: int, subset: Iterable[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for v in subset:
        if not 0 <= v < n:
            raise InvalidArgumentError(f"vertex {v} out of range for n={n}")
        mask[v] = True
    return mask


def cut_value(graph: WeightedGraph, subset: Iterable[int]) -> float:
    """Total weight of bundles with exactly one endpoint in the subset."""
    mask = _membership(graph.n, subset)
    us, vs, ws, _ = graph.edge_arrays()
    crossing = mask[us] ^ mask[vs]
    return float(ws[crossing].sum())


def interior_edge_weight(graph: WeightedGraph, subset: Iterable[int]) -> float:
    """Total weight of bundles with both endpoints in the subset."""
    mask = _membership(graph.n, subset)
    us, vs, ws, _ = graph.edge_arrays()
    inside = mask[us] & mask[vs]
    return float(ws[inside].sum())


# -- vectorized subset enumeration --------------------------------------------


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


def _exhaustive_cuts(n: int, *graphs: WeightedGraph, ksides: Sequence[int] | None = None):
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


class _WorstRatio:
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


class _SizeExtremes:
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


def _require_same_vertices(h: WeightedGraph, g: WeightedGraph | Clique) -> None:
    if h.n != g.n:
        raise InvalidArgumentError(f"vertex sets differ: {h.n} vs {g.n}")


def _require_connected_reference(g: WeightedGraph | Clique) -> None:
    if not isinstance(g, Clique) and not is_connected(g):
        comp = connected_component(g, 0)
        witness = comp if len(comp) <= g.n // 2 else sorted(set(range(g.n)) - set(comp))
        raise DegenerateInputError(
            f"reference graph is disconnected; cut of S={tuple(witness)} is zero, no finite relative error exists"
        )


def cut_error_exhaustive(h: WeightedGraph, g: WeightedGraph | Clique, cap: int = EXHAUSTIVE_CAP) -> CutErrorReport:
    """Exact worst relative cut deviation max_S |cut_H(S)/cut_G(S) - 1|.

    Visits all 2^(n-1) - 1 unordered nonempty proper cuts.  The witness is
    the first maximizer in visit order.
    """
    _require_same_vertices(h, g)
    n = h.n
    if n < 2:
        raise InvalidArgumentError("need at least 2 vertices for a proper cut")
    if n > cap:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {cap}; use cut_error_sampled")
    _require_connected_reference(g)

    clique = isinstance(g, Clique)
    graphs = (h,) if clique else (h, g)
    worst = _WorstRatio()
    for masks, sizes, cuts in _exhaustive_cuts(n, *graphs):
        cut_g = g.cut(sizes.astype(np.float64)) if clique else cuts[1]
        zero_ref = cut_g <= 0.0
        if zero_ref.any():
            bad = int(masks[np.argmax(zero_ref)])
            raise DegenerateInputError(
                f"reference cut is zero for S={_mask_to_subset(bad, n)}; no finite relative error exists"
            )
        worst.add(masks, cuts[0], cut_g)
    return worst.report(n)


# -- sampled error -------------------------------------------------------------


def _pair_scan(h: WeightedGraph, g: WeightedGraph | Clique, row_block: int = 1024):
    """Best deviation over all singleton and pair cuts, via closed forms.

    cut({u}) is the weighted degree; cut({u, v}) = deg(u) + deg(v) - 2 w(u, v).
    A clique reference uses its cut values w*k*(n-k) directly.
    Returns (best deviation, witness subset, number of subsets examined).
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
    if n >= 3:  # pairs are proper subsets only when n >= 3
        wh = h.weight_matrix()
        wg = None if clique else g.weight_matrix()
        for lo in range(0, n, row_block):
            hi = min(lo + row_block, n)
            ch = (dh[lo:hi, None] + dh[None, :]) - 2.0 * wh[lo:hi]
            cg = np.full_like(ch, g.cut(2)) if clique else (dg[lo:hi, None] + dg[None, :]) - 2.0 * wg[lo:hi]
            iu, iv = np.triu_indices(hi - lo, k=1, m=n)
            keep = iv > iu + lo  # u < v with global indices
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


def _subset_cuts(graph: WeightedGraph, subsets: Sequence[Sequence[int]], batch: int = 128) -> np.ndarray:
    """Cut values for a list of subsets, evaluated in membership-matrix batches."""
    us, vs, ws, _ = graph.edge_arrays()
    out = np.empty(len(subsets))
    for lo in range(0, len(subsets), batch):
        chunk = subsets[lo : lo + batch]
        memb = np.zeros((len(chunk), graph.n), dtype=bool)
        for i, s in enumerate(chunk):
            memb[i, np.fromiter(s, dtype=np.int64, count=len(s))] = True
        crossing = memb[:, us] ^ memb[:, vs]
        out[lo : lo + len(chunk)] = crossing @ ws
    return out


def _size_k_subsets(n: int, k: int, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    if math.comb(n, k) <= count:
        # full enumeration fallback; cheap because comb(n, k) is small here
        from itertools import combinations

        return [tuple(c) for c in combinations(range(n), k)]
    return [tuple(sorted(int(x) for x in rng.choice(n, size=k, replace=False))) for _ in range(count)]


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
        if np.any(cg <= 0):
            j = int(np.argmax(cg <= 0))
            raise DegenerateInputError(
                f"reference cut is zero for S={subsets[j]}; no finite relative error exists"
            )
        dev = np.abs(ch / cg - 1.0)
        examined += len(subsets)
        j = int(np.argmax(dev)) if len(subsets) else 0
        if len(subsets) and dev[j] > best:
            best = float(dev[j])
            witness = subsets[j]
    return CutErrorReport(
        epsilon=best,
        witness=tuple(witness),
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
    cap: int = EXHAUSTIVE_CAP,
    samples_per_size: int = 200,
    seed: int = 0,
    argmax_cap: int = 4,
) -> CutProfile:
    """Extremal signed relative cut deviations per subset size k in [1, n/2].

    Exhaustive for n <= cap (every unordered cut once, attributed to its
    smaller side; balanced cuts counted once via the vertex-0 convention),
    sampled otherwise.  The reference value for size k is d*k*(n-k)/n by
    default, or the exact matching-model expectation d*k*(n-k)/(n-1).
    """
    n = h.n
    kmax = n // 2
    if kmax < 1:
        raise InvalidArgumentError("profile needs n >= 2")
    refs = _profile_references(n, d, reference)
    if n <= cap:
        extremes = _SizeExtremes(n)
        for masks, sizes, (cut_h,) in _exhaustive_cuts(n, h):
            extremes.add(masks, sizes, cut_h)
        return CutProfile(n=n, d=d, reference=reference, rows=extremes.rows(refs, argmax_cap))

    rows = []
    for k in range(1, kmax + 1):
        subsets = _size_k_subsets(n, k, samples_per_size, make_generator(derive_seed(seed, k)))
        dev = _subset_cuts(h, subsets) / refs[k] - 1.0
        j = int(np.argmax(dev))
        rows.append(
            CutProfileRow(
                k=k,
                alpha=k / n,
                max_dev=float(dev.max()),
                min_dev=float(dev.min()),
                argmax_subset=subsets[j] if k <= argmax_cap else None,
                subsets_examined=len(subsets),
                mode="sampled",
            )
        )
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
    scale = (n - 1) / d
    worst = _WorstRatio()
    extremes = _SizeExtremes(n)
    for masks, sizes, (cut_h,) in _exhaustive_cuts(n, h_raw):
        sz = sizes.astype(np.float64)
        worst.add(masks, scale * cut_h, sz * (n - sz))
        extremes.add(masks, sizes, cut_h)
    return worst.report(n), CutProfile(n=n, d=d, reference=reference, rows=extremes.rows(refs, argmax_cap))


def extreme_cuts_at_sizes(h: WeightedGraph, ks: Sequence[int]) -> list[tuple[float, float]]:
    """(max, min) cut value over subsets of each size in ks, from one exhaustive enumeration."""
    n = h.n
    for k in ks:
        if not 1 <= k <= n // 2:
            raise InvalidArgumentError(f"size {k} not in [1, n/2]")
    if n > EXHAUSTIVE_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    extremes = _SizeExtremes(n)
    for masks, sizes, (cut_h,) in _exhaustive_cuts(n, h, ksides=ks):
        extremes.add(masks, sizes, cut_h)
    return [(float(extremes.hi[k]), float(extremes.lo[k])) for k in ks]


def extreme_cuts_at_size(
    h: WeightedGraph,
    k: int,
    exhaustive: bool,
    samples: int = 0,
    seed: int = 0,
) -> tuple[float, float]:
    """(max, min) cut value over subsets of size k, exhaustive or sampled."""
    if exhaustive:
        return extreme_cuts_at_sizes(h, [k])[0]
    n = h.n
    if not 1 <= k <= n // 2:
        raise InvalidArgumentError(f"size {k} not in [1, n/2]")
    if samples < 1:
        raise InvalidArgumentError("sampled extremes need at least one sample")
    subsets = _size_k_subsets(n, k, samples, make_generator(seed))
    vals = _subset_cuts(h, subsets)
    return float(vals.max()), float(vals.min())
