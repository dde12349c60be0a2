"""Weighted undirected multigraphs and their generators.

A :class:`WeightedGraph` stores each parallel bundle once, as a single edge
record carrying accumulated weight and a multiplicity count.  This keeps the
union-of-matchings model exact: sampling d perfect matchings can place the
same vertex pair in several matchings, and cut and Laplacian computations
must count that pair with its full accumulated weight.

Vertex indices are 0-based everywhere.  Graphs are immutable values after
construction; derived arrays are cached and safe to share across threads.
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


class WeightedGraph:
    """Immutable weighted multigraph with bundled parallel edges.

    Parameters
    ----------
    n : vertex count, positive.
    edges : iterable of (u, v, weight) or (u, v, weight, multiplicity).
        Repeated (u, v) pairs are accumulated into one bundle.
    matchings : optional decomposition metadata, a sequence of perfect
        matchings (each a sequence of (u, v) pairs) whose union is the graph.
        Kept by the random-regular generator so prefixes can be re-extracted.
    """

    __slots__ = ("n", "matchings", "_bundles", "_arrays", "_csr", "_wdeg", "_cdeg")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple] = (),
        matchings: Sequence[Sequence[tuple[int, int]]] | None = None,
    ):
        if not isinstance(n, (int, np.integer)) or n <= 0:
            raise InvalidArgumentError(f"vertex count must be a positive integer, got {n!r}")
        bundles: dict[tuple[int, int], tuple[float, int]] = {}
        for rec in edges:
            if len(rec) == 3:
                u, v, w = rec
                m = 1
            else:
                u, v, w, m = rec
            u, v, m = int(u), int(v), int(m)
            w = float(w)
            if not (0 <= u < v < int(n)):
                raise InvalidArgumentError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}")
            if w < 0.0 or not np.isfinite(w):
                raise InvalidArgumentError(f"edge ({u}, {v}) has invalid weight {w}")
            if m < 1:
                raise InvalidArgumentError(f"edge ({u}, {v}) has multiplicity {m} < 1")
            old = bundles.get((u, v))
            if old is None:
                bundles[(u, v)] = (w, m)
            else:
                bundles[(u, v)] = (old[0] + w, old[1] + m)
        self.n = int(n)
        self._bundles = dict(sorted(bundles.items()))
        self.matchings = (
            tuple(tuple((int(a), int(b)) if a < b else (int(b), int(a)) for a, b in mt) for mt in matchings)
            if matchings is not None
            else None
        )
        self._arrays = None
        self._csr = None
        self._wdeg = None
        self._cdeg = None

    # -- basic views --------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        for (u, v), (w, m) in self._bundles.items():
            yield Edge(u, v, w, m)

    @property
    def num_bundles(self) -> int:
        return len(self._bundles)

    @property
    def total_weight(self) -> float:
        return float(sum(w for w, _ in self._bundles.values()))

    @property
    def is_simple(self) -> bool:
        return all(m == 1 for _, m in self._bundles.values())

    def bundle(self, u: int, v: int) -> tuple[float, int]:
        """(weight, multiplicity) of the bundle between u and v, or (0.0, 0)."""
        if u > v:
            u, v = v, u
        return self._bundles.get((u, v), (0.0, 0))

    def weight(self, u: int, v: int) -> float:
        return self.bundle(u, v)[0]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(us, vs, weights, multiplicities) in sorted bundle order, cached."""
        if self._arrays is None:
            if self._bundles:
                us = np.fromiter((u for u, _ in self._bundles), dtype=np.int64, count=len(self._bundles))
                vs = np.fromiter((v for _, v in self._bundles), dtype=np.int64, count=len(self._bundles))
                ws = np.fromiter((w for w, _ in self._bundles.values()), dtype=np.float64, count=len(self._bundles))
                ms = np.fromiter((m for _, m in self._bundles.values()), dtype=np.int64, count=len(self._bundles))
            else:
                us = np.empty(0, dtype=np.int64)
                vs = np.empty(0, dtype=np.int64)
                ws = np.empty(0, dtype=np.float64)
                ms = np.empty(0, dtype=np.int64)
            self._arrays = (us, vs, ws, ms)
        return self._arrays

    def weighted_degrees(self) -> np.ndarray:
        if self._wdeg is None:
            us, vs, ws, _ = self.edge_arrays()
            deg = np.zeros(self.n)
            np.add.at(deg, us, ws)
            np.add.at(deg, vs, ws)
            self._wdeg = deg
        return self._wdeg

    def combinatorial_degrees(self) -> np.ndarray:
        if self._cdeg is None:
            us, vs, _, ms = self.edge_arrays()
            deg = np.zeros(self.n, dtype=np.int64)
            np.add.at(deg, us, ms)
            np.add.at(deg, vs, ms)
            self._cdeg = deg
        return self._cdeg

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bundle adjacency as (indptr, neighbor, weight) arrays, cached."""
        if self._csr is None:
            us, vs, ws, _ = self.edge_arrays()
            src = np.concatenate([us, vs])
            dst = np.concatenate([vs, us])
            wgt = np.concatenate([ws, ws])
            order = np.argsort(src, kind="stable")
            src, dst, wgt = src[order], dst[order], wgt[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.add.at(indptr, src + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._csr = (indptr, dst, wgt)
        return self._csr

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
        return self.n == other.n and self._bundles == other._bundles

    def __hash__(self):
        return hash((self.n, tuple(self._bundles.items())))

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, bundles={self.num_bundles}, total_weight={self.total_weight:g})"


# -- generators -------------------------------------------------------------


def make_clique(n: int, weight: float) -> WeightedGraph:
    """Complete graph K_n with every edge at the given weight."""
    if n < 2:
        raise InvalidArgumentError(f"clique needs n >= 2, got {n}")
    if not weight > 0:
        raise InvalidArgumentError(f"clique weight must be positive, got {weight}")
    return WeightedGraph(n, ((u, v, weight) for u in range(n) for v in range(u + 1, n)))


def make_cycle(n: int, weight: float = 1.0) -> WeightedGraph:
    """Cycle C_n with uniform edge weight."""
    if n < 3:
        raise InvalidArgumentError(f"cycle needs n >= 3, got {n}")
    if not weight > 0:
        raise InvalidArgumentError(f"cycle weight must be positive, got {weight}")
    edges = [(i, i + 1, weight) for i in range(n - 1)] + [(0, n - 1, weight)]
    return WeightedGraph(n, edges)


def sample_matching_partners(rng: np.random.Generator, n: int) -> np.ndarray:
    """Partner array of a uniform perfect matching on n (even) vertices.

    A Fisher-Yates shuffle of the vertex list followed by pairing consecutive
    entries; exactly uniform over perfect matchings.
    """
    perm = rng.permutation(n)
    partner = np.empty(n, dtype=np.int64)
    partner[perm[0::2]] = perm[1::2]
    partner[perm[1::2]] = perm[0::2]
    return partner


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
    rng = make_generator(seed)
    matchings = []
    edges = []
    for _ in range(d):
        partner = sample_matching_partners(rng, n)
        pairs = [(u, int(partner[u])) for u in range(n) if u < partner[u]]
        matchings.append(pairs)
        edges.extend((u, v, 1.0, 1) for u, v in pairs)
    return WeightedGraph(n, edges, matchings=matchings)


def scale_weights(graph: WeightedGraph, c: float) -> WeightedGraph:
    """Multiply every bundle weight by c > 0; multiplicities unchanged.

    Decomposition metadata is dropped: after scaling, matching edge lists no
    longer describe unit-weight occurrences.
    """
    if not c > 0:
        raise InvalidArgumentError(f"scale factor must be positive, got {c}")
    return WeightedGraph(graph.n, ((e.u, e.v, e.weight * c, e.multiplicity) for e in graph.edges()))


def first_matchings_subgraph(graph: WeightedGraph, d: int) -> WeightedGraph:
    """Union of the first d matchings of a matching-decomposed graph."""
    if graph.matchings is None:
        raise UnsupportedInputError("graph carries no matching decomposition metadata")
    if not 1 <= d <= len(graph.matchings):
        raise InvalidArgumentError(f"prefix length {d} not in [1, {len(graph.matchings)}]")
    prefix = graph.matchings[:d]
    edges = [(u, v, 1.0, 1) for mt in prefix for u, v in mt]
    return WeightedGraph(graph.n, edges, matchings=prefix)


def collapse_multiedges(graph: WeightedGraph) -> WeightedGraph:
    """Simple-graph view: each bundle becomes one edge of the accumulated weight.

    Cut values and Laplacian quadratic forms are unchanged.
    """
    return WeightedGraph(graph.n, ((e.u, e.v, e.weight, 1) for e in graph.edges()))


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


def is_connected(graph: WeightedGraph) -> bool:
    """Connectivity through positive-weight bundles."""
    n = graph.n
    if n == 1:
        return True
    indptr, nbr, wgt = graph.csr()
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    reached = 1
    while frontier:
        nxt = []
        for u in frontier:
            for j in range(indptr[u], indptr[u + 1]):
                if wgt[j] > 0 and not seen[nbr[j]]:
                    seen[nbr[j]] = True
                    reached += 1
                    nxt.append(int(nbr[j]))
        frontier = nxt
    return reached == n


def connected_component(graph: WeightedGraph, start: int = 0) -> list[int]:
    """Sorted vertex list of the positive-weight component containing start."""
    indptr, nbr, wgt = graph.csr()
    seen = np.zeros(graph.n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for j in range(indptr[u], indptr[u + 1]):
                if wgt[j] > 0 and not seen[nbr[j]]:
                    seen[nbr[j]] = True
                    nxt.append(int(nbr[j]))
        frontier = nxt
    return [int(v) for v in np.flatnonzero(seen)]


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
    edges = []
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
            edges.append((u, v, w, m))
    if n is None:
        raise ParseError("missing 'n <count>' header")
    return WeightedGraph(n, edges)
