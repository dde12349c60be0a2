"""Weighted undirected multigraphs and their generators.

A :class:`WeightedGraph` is four numpy arrays ``(us, vs, ws, ms)``: one
entry per bundle of parallel edges, with ``u < v``, the accumulated weight
and the multiplicity, sorted by the key ``u*n + v``.  Every constructor
validates and coalesces its input through one routine, which sums repeated
pairs in input order.  This keeps the union-of-matchings model exact:
sampling d perfect matchings can place the same vertex pair in several
matchings, and cut and Laplacian computations must count that pair with its
full accumulated weight.  The d matchings are drawn together: one private
helper shuffles d rows of ``range(n)`` in blocks, and a matching pairs
consecutive entries of its row.  The partner table scatters those pairs;
the martingale tail counts them on the shuffled rows directly, from the
same draws.

Vertex indices are 0-based everywhere.  Graphs are immutable values after
construction: the arrays are read-only, and derived arrays are cached and
safe to share across threads.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError, ParseError, UnsupportedInputError
from .rng import make_generator


@dataclass(frozen=True)
class Edge:
    """One bundle of parallel edges between u < v."""

    u: int
    v: int
    weight: float
    multiplicity: int


@dataclass(frozen=True)
class DegreeReport:
    """Per-vertex weighted and combinatorial degrees with summary stats."""

    weighted: np.ndarray
    combinatorial: np.ndarray
    weighted_min: float
    weighted_max: float
    weighted_mean: float
    combinatorial_min: int
    combinatorial_max: int
    combinatorial_mean: float


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _coalesce(n: int, us, vs, ws, ms) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate edge records and merge repeated pairs into sorted bundles.

    The first bad record raises InvalidArgumentError, and so does a total
    weight that overflows to infinity.  Weights and multiplicities of a
    repeated pair are summed in input order (``bincount`` adds sequentially),
    so they equal a record-by-record accumulation bit for bit; a pairwise
    reduction would not.
    """
    us = np.asarray(us, dtype=np.int64).ravel()
    vs = np.asarray(vs, dtype=np.int64).ravel()
    ws = np.asarray(ws, dtype=np.float64).ravel()
    ms = np.ones(us.size, dtype=np.int64) if ms is None else np.asarray(ms, dtype=np.int64).ravel()
    if not us.size == vs.size == ws.size == ms.size:
        raise InvalidArgumentError(f"edge arrays differ in length: {us.size}, {vs.size}, {ws.size}, {ms.size}")
    bad = np.stack([~((0 <= us) & (us < vs) & (vs < n)), ~(np.isfinite(ws) & (ws >= 0.0)), ms < 1])
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        u, v, w, m = int(us[i]), int(vs[i]), float(ws[i]), int(ms[i])
        reason = (f"violates 0 <= u < v < n={n}", f"has invalid weight {w}", f"has multiplicity {m} < 1")
        raise InvalidArgumentError(f"edge ({u}, {v}) {reason[int(np.argmax(bad[:, i]))]}")
    keys, inv = np.unique(us * n + vs, return_inverse=True)
    ws = np.bincount(inv, weights=ws, minlength=keys.size).astype(np.float64, copy=False)  # int64 when empty
    ms = np.bincount(inv, weights=ms, minlength=keys.size).astype(np.int64)
    with np.errstate(over="ignore"):
        total = ws.sum()
    if not np.isfinite(total):
        # cut sums would overflow too, and inf/inf ratios have no witness
        raise InvalidArgumentError(f"total edge weight {total} is not finite")
    return keys // n, keys % n, ws, ms


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s+c) for each (s, c); vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return rep + np.arange(total, dtype=np.int64)


class WeightedGraph:
    """Immutable weighted multigraph with bundled parallel edges.

    Parameters
    ----------
    n : vertex count, positive.
    edges : iterable of (u, v, weight) or (u, v, weight, multiplicity).
        Repeated (u, v) pairs are accumulated into one bundle.
        :meth:`from_arrays` takes the same data as columns.
    matchings : optional decomposition metadata, a sequence of perfect
        matchings (each a sequence of (u, v) pairs) whose union is the graph.
        Kept by the random-regular generator so prefixes can be re-extracted;
        stored as a read-only int array of shape (matchings, n/2, 2).
    """

    __slots__ = ("n", "matchings", "_us", "_vs", "_ws", "_ms", "_csr", "_wdeg", "_cdeg")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple] = (),
        matchings: Sequence[Sequence[tuple[int, int]]] | None = None,
    ):
        records = (rec if len(rec) == 4 else (*rec, 1) for rec in edges)
        us, vs, ws, ms = list(zip(*records, strict=True)) or ((), (), (), ())
        self._store(n, us, vs, ws, ms, matchings)

    @classmethod
    def from_arrays(cls, n: int, us, vs, ws, ms=None, matchings=None) -> WeightedGraph:
        """Graph from edge columns; ``ms`` defaults to multiplicity 1 per record."""
        graph = cls.__new__(cls)
        graph._store(n, us, vs, ws, ms, matchings)
        return graph

    def _store(self, n, us, vs, ws, ms, matchings) -> None:
        if not isinstance(n, (int, np.integer)) or n <= 0:
            raise InvalidArgumentError(f"vertex count must be a positive integer, got {n!r}")
        self.n = int(n)
        self._us, self._vs, self._ws, self._ms = map(_readonly, _coalesce(self.n, us, vs, ws, ms))
        self.matchings = (
            _readonly(np.sort(np.asarray(matchings, dtype=np.int64), axis=-1)) if matchings is not None else None
        )
        self._csr = self._wdeg = self._cdeg = None

    # -- basic views --------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        for u, v, w, m in zip(self._us.tolist(), self._vs.tolist(), self._ws.tolist(), self._ms.tolist()):
            yield Edge(u, v, w, m)

    @property
    def num_bundles(self) -> int:
        return self._us.size

    @property
    def total_weight(self) -> float:
        return float(self._ws.sum())

    @property
    def is_simple(self) -> bool:
        return bool(np.all(self._ms == 1))

    def bundle(self, u: int, v: int) -> tuple[float, int]:
        """(weight, multiplicity) of the bundle between u and v, or (0.0, 0)."""
        key = min(u, v) * self.n + max(u, v)
        keys = self._us * self.n + self._vs
        i = int(np.searchsorted(keys, key))
        if i < keys.size and keys[i] == key:
            return float(self._ws[i]), int(self._ms[i])
        return 0.0, 0

    def weight(self, u: int, v: int) -> float:
        return self.bundle(u, v)[0]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(us, vs, weights, multiplicities) in sorted bundle order; read-only."""
        return self._us, self._vs, self._ws, self._ms

    def _vertex_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-vertex sum of a bundle quantity over both endpoints."""
        deg = np.zeros(self.n, dtype=values.dtype)
        np.add.at(deg, self._us, values)
        np.add.at(deg, self._vs, values)
        return deg

    def weighted_degrees(self) -> np.ndarray:
        if self._wdeg is None:
            self._wdeg = self._vertex_sums(self._ws)
        return self._wdeg

    def combinatorial_degrees(self) -> np.ndarray:
        if self._cdeg is None:
            self._cdeg = self._vertex_sums(self._ms)
        return self._cdeg

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency as (indptr, neighbor, weight) arrays, cached.

        Zero-weight bundles are left out: they carry no cut weight, no walk
        mass and no connectivity.
        """
        if self._csr is None:
            positive = self._ws > 0
            us, vs, ws = self._us[positive], self._vs[positive], self._ws[positive]
            src = np.concatenate([us, vs])
            order = np.argsort(src, kind="stable")
            dst = np.concatenate([vs, us])[order]
            wgt = np.concatenate([ws, ws])[order]
            self._csr = (np.searchsorted(src[order], np.arange(self.n + 1)), dst, wgt)
        return self._csr

    def neighbors(self, vertices: np.ndarray) -> np.ndarray:
        """Concatenated :meth:`csr` neighbor lists of the given vertices, in order."""
        indptr, nbr, _ = self.csr()
        return nbr[_concat_ranges(indptr[vertices], indptr[vertices + 1] - indptr[vertices])]

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric matrix of bundle weights (zero diagonal)."""
        us, vs, ws, _ = self.edge_arrays()
        a = np.zeros((self.n, self.n))
        a[us, vs] = ws
        a[vs, us] = ws
        return a

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self.edge_arrays(), other.edge_arrays()))

    def __hash__(self):
        return hash((self.n, *(a.tobytes() for a in self.edge_arrays())))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, bundles={self.num_bundles}, total_weight={self.total_weight:g})"


@dataclass(frozen=True)
class Clique:
    """The complete graph K_n with every edge at weight w, as a value.

    Measurements against a clique read it through closed forms (a size-k
    cut is w*k*(n-k); the Laplacian is w*n on the complement of the
    all-ones vector), so its n(n-1)/2 bundles are never built.
    """

    n: int
    w: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise InvalidArgumentError(f"clique needs n >= 2, got {self.n!r}")
        if not 0 < self.w < np.inf:
            raise InvalidArgumentError(f"clique weight must be positive and finite, got {self.w}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "w", float(self.w))

    def cut(self, k):
        """Cut value of any size-k vertex subset; k may be an array of sizes."""
        return self.w * k * (self.n - k)


# -- generators -------------------------------------------------------------


def make_clique(n: int, weight: float) -> WeightedGraph:
    """Complete graph K_n with every edge at the given weight, built bundle by bundle."""
    Clique(n, weight)  # the same checks on n and weight
    us, vs = np.triu_indices(n, 1)
    return WeightedGraph.from_arrays(n, us, vs, np.full(us.size, float(weight)))


def make_cycle(n: int, weight: float = 1.0) -> WeightedGraph:
    """Cycle C_n with uniform edge weight."""
    if n < 3:
        raise InvalidArgumentError(f"cycle needs n >= 3, got {n}")
    if not weight > 0:
        raise InvalidArgumentError(f"cycle weight must be positive, got {weight}")
    us = np.append(np.arange(n - 1), 0)
    vs = np.append(np.arange(1, n), n - 1)
    return WeightedGraph.from_arrays(n, us, vs, np.full(n, float(weight)))


# Rows per ``permuted`` call = _SHUFFLE_CELLS // n, at least one, so a table
# of at most 2^14 cells takes one call.  One call over a large table took
# about twice as long as one row at a time (n = 1e5, d = 8, numpy 2.4);
# blocks of 2^14 cells were no slower than rows.
_SHUFFLE_CELLS = 1 << 14


def _shuffled_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """d independent shuffles of ``range(n)``, shape (d, n); the one shuffle path.

    Row-wise ``permuted`` calls over blocks of rows take the same draws, in
    the same order, as d calls of ``rng.permutation(n)``.
    """
    perm = np.empty((d, n), dtype=np.int64)
    perm[:] = np.arange(n)
    step = max(1, _SHUFFLE_CELLS // n)
    for lo in range(0, d, step):
        block = perm[lo : lo + step]
        rng.permuted(block, axis=1, out=block)
    return perm


def sample_matching_partners(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Partner table, shape (d, n), of d independent uniform perfect matchings.

    Each row shuffles the vertex list (Fisher-Yates, :func:`_shuffled_rows`)
    and pairs consecutive entries, which is exactly uniform over perfect
    matchings on n (even) vertices.
    """
    perm = _shuffled_rows(rng, n, d)
    partners = np.empty((d, n), dtype=np.int64)
    rows = np.arange(d)[:, None]
    partners[rows, perm[:, 0::2]] = perm[:, 1::2]
    partners[rows, perm[:, 1::2]] = perm[:, 0::2]
    return partners


def sample_regular_multigraph(n: int, d: int, seed: int) -> WeightedGraph:
    """Union of d independent uniform perfect matchings on n vertices.

    Every vertex gets combinatorial degree exactly d; a pair matched in t of
    the matchings becomes one bundle with weight t and multiplicity t.  The
    per-matching edge lists are retained as decomposition metadata.
    Deterministic given the seed.
    """
    if n < 2 or n % 2 != 0:
        raise InvalidArgumentError(f"matching model needs even n >= 2, got {n}")
    if d < 1:
        raise InvalidArgumentError(f"degree must be >= 1, got {d}")
    return union_of_matchings(sample_matching_partners(make_generator(seed), n, d))


def union_of_matchings(partners: np.ndarray) -> WeightedGraph:
    """Unit-weight union of perfect matchings given as partner arrays, one row each.

    The matchings are kept as decomposition metadata.
    """
    d, n = partners.shape
    lower = np.arange(n) < partners
    us = np.broadcast_to(np.arange(n), partners.shape)[lower]
    vs = partners[lower]
    matchings = np.stack([us, vs], axis=-1).reshape(d, n // 2, 2)
    return WeightedGraph.from_arrays(n, us, vs, np.ones(us.size), matchings=matchings)


def scale_weights(graph: WeightedGraph, c: float) -> WeightedGraph:
    """Multiply every bundle weight by c > 0; multiplicities unchanged.

    Decomposition metadata is dropped: after scaling, matching edge lists no
    longer describe unit-weight occurrences.
    """
    if not c > 0:
        raise InvalidArgumentError(f"scale factor must be positive, got {c}")
    us, vs, ws, ms = graph.edge_arrays()
    return WeightedGraph.from_arrays(graph.n, us, vs, ws * c, ms)


def first_matchings_subgraph(graph: WeightedGraph, d: int) -> WeightedGraph:
    """Union of the first d matchings of a matching-decomposed graph."""
    if graph.matchings is None:
        raise UnsupportedInputError("graph carries no matching decomposition metadata")
    if not 1 <= d <= len(graph.matchings):
        raise InvalidArgumentError(f"prefix length {d} not in [1, {len(graph.matchings)}]")
    prefix = graph.matchings[:d]
    us, vs = prefix.reshape(-1, 2).T
    return WeightedGraph.from_arrays(graph.n, us, vs, np.ones(us.size), matchings=prefix)


def collapse_multiedges(graph: WeightedGraph) -> WeightedGraph:
    """Simple-graph view: each bundle becomes one edge of the accumulated weight.

    Cut values and Laplacian quadratic forms are unchanged.
    """
    us, vs, ws, _ = graph.edge_arrays()
    return WeightedGraph.from_arrays(graph.n, us, vs, ws)


def degree_report(graph: WeightedGraph) -> DegreeReport:
    wd = graph.weighted_degrees()
    cd = graph.combinatorial_degrees()
    return DegreeReport(
        weighted=wd,
        combinatorial=cd,
        weighted_min=float(wd.min()) if graph.n else 0.0,
        weighted_max=float(wd.max()) if graph.n else 0.0,
        weighted_mean=float(wd.mean()) if graph.n else 0.0,
        combinatorial_min=int(cd.min()) if graph.n else 0,
        combinatorial_max=int(cd.max()) if graph.n else 0,
        combinatorial_mean=float(cd.mean()) if graph.n else 0.0,
    )


# -- structure queries ------------------------------------------------------


def bfs_depths(graph: WeightedGraph, start: int, radius: int | None = None) -> np.ndarray:
    """Breadth-first depth from start through positive-weight bundles, up to
    the radius (unbounded if None); vertices not reached are -1."""
    depth = np.full(graph.n, -1, dtype=np.int64)
    depth[start] = 0
    frontier = np.array([start], dtype=np.int64)
    level = 0
    while frontier.size and (radius is None or level < radius):
        level += 1
        flat = graph.neighbors(frontier)
        frontier = np.unique(flat[depth[flat] < 0])
        depth[frontier] = level
    return depth


def is_connected(graph: WeightedGraph) -> bool:
    """Connectivity through positive-weight bundles."""
    return len(connected_component(graph)) == graph.n


def connected_component(graph: WeightedGraph, start: int = 0) -> list[int]:
    """Sorted vertex list of the positive-weight component containing start."""
    return [int(v) for v in np.flatnonzero(bfs_depths(graph, start) >= 0)]


def uniform_clique_weight(graph: WeightedGraph) -> float | None:
    """The common edge weight if the graph is a complete uniform clique, else None."""
    n = graph.n
    if n < 2 or graph.num_bundles != n * (n - 1) // 2:
        return None
    _, _, ws, _ = graph.edge_arrays()
    w0 = ws[0]
    if w0 > 0 and bool(np.all(ws == w0)):
        return float(w0)
    return None


# -- persistence ------------------------------------------------------------


def write_edge_list(graph: WeightedGraph, dest) -> None:
    """Plain-text edge list: header ``n <N>``, one ``u v weight mult`` line per bundle.

    ``dest`` is a path or an open text stream.  Weights are printed with the
    shortest decimal that round-trips exactly.
    """
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", encoding="utf-8") as fh:
        fh.write(f"n {graph.n}\n")
        for e in graph.edges():
            fh.write(f"{e.u} {e.v} {e.weight!r} {e.multiplicity}\n")


def read_edge_list(path) -> WeightedGraph:
    """Inverse of :func:`write_edge_list`; raises ParseError with line numbers."""
    n = None
    records = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ParseError("expected header 'n <count>'", lineno)
                try:
                    n = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad vertex count {parts[1]!r}", lineno) from None
                if n <= 0:
                    raise ParseError(f"vertex count must be positive, got {n}", lineno)
                continue
            if len(parts) != 4:
                raise ParseError(f"expected 'u v weight mult', got {len(parts)} fields", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2])
                m = int(parts[3])
            except ValueError:
                raise ParseError(f"unparseable edge fields {parts!r}", lineno) from None
            if not 0 <= u < v < n:
                raise ParseError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}", lineno)
            if w < 0 or not np.isfinite(w):
                raise ParseError(f"invalid weight {w}", lineno)
            if m < 1:
                raise ParseError(f"invalid multiplicity {m}", lineno)
            if (u, v) in seen:
                raise ParseError(f"duplicate pair ({u}, {v})", lineno)
            seen.add((u, v))
            records.append((u, v, w, m))
    if n is None:
        raise ParseError("missing 'n <count>' header")
    us, vs, ws, ms = zip(*records) if records else ((), (), (), ())
    return WeightedGraph.from_arrays(n, us, vs, ws, ms)
