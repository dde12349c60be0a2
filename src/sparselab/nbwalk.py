"""Non-backtracking walks, walk-derived test vectors, and the spectral
lower-bound certificate.

The walk state lives on directed edges: from directed edge (u, v) the walk
moves to (v, w) for each neighbor w != u with probability w_{v,w}/(w(v) -
w_{v,u}).  A step is one sparse pass over the directed edge list, so a
g-step table costs O(g m) and never enumerates paths.  Mass that reaches a
degree-one vertex has nowhere to go and is tracked as deficiency rather
than renormalized away.

The certificate aggregates, over every root r, the alternating and plain
square-root sums of the walk tables (f_r and h_r) and their quadratic forms
against L_H, the 1/n-weighted clique Laplacian, D_H and A_H.  The matrices
X = sum f_r f_r' and Y = sum h_r h_r' are PSD by construction, so for any
graph that is an eps spectral sparsifier of the weighted clique,

    (1 + eps)/(1 - eps) >= (X.L_H / X.L_K) (Y.L_K / Y.L_H) = R,

giving the unconditional bound eps >= (R - 1)/(R + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, UnsupportedInputError
from .graph import WeightedGraph, bfs_depths, is_connected

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


# -- directed-edge walk engine ---------------------------------------------------


class _EdgeSpace:
    """Directed-edge arrays of a simple graph's positive-weight bundles, shared by all walk queries."""

    __slots__ = ("n", "m2", "src", "dst", "w", "rev", "wdeg", "deg", "eu", "ev", "ew", "dead", "denom")

    def __init__(self, graph: WeightedGraph):
        if not graph.is_simple:
            raise UnsupportedInputError("walks need a simple graph; collapse multiedges first")
        us, vs, ws, _ = graph.edge_arrays()
        positive = ws > 0
        us, vs, ws = us[positive], vs[positive], ws[positive]
        self.n = graph.n
        self.eu, self.ev, self.ew = us, vs, ws
        self.src = np.concatenate([us, vs])
        self.dst = np.concatenate([vs, us])
        self.w = np.concatenate([ws, ws])
        m = len(us)
        self.m2 = 2 * m
        self.rev = np.concatenate([np.arange(m, 2 * m), np.arange(0, m)])
        self.wdeg = graph.weighted_degrees()
        self.deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(self.deg, self.src, 1)
        self.dead = self.deg[self.dst] == 1  # walk mass entering a leaf cannot continue
        self.denom = self._leave_one_out_sums()

    def _leave_one_out_sums(self) -> np.ndarray:
        """denom[e] = total weight at dst(e) excluding e itself.

        Built as prefix + suffix sums of the incident weights rather than
        wdeg - w, which cancels catastrophically when one edge dominates a
        vertex's weighted degree.
        """
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
            raise InvalidArgumentError(f"unknown first-step rule {first_step!r}")
        return p

    def step(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        """Advance the directed-edge distribution once; returns (new p, lost mass).

        Mass on an edge into a degree-one vertex cannot continue and is lost.
        """
        lost = float(p[self.dead].sum())
        contrib = np.zeros_like(p)
        np.divide(p, self.denom, out=contrib, where=~self.dead)
        q = np.bincount(self.dst, weights=contrib, minlength=self.n)
        newp = self.w * (q[self.src] - contrib[self.rev])
        np.maximum(newp, 0.0, out=newp)  # guard rounding at exact cancellations
        return newp, lost

    def marginal(self, p: np.ndarray) -> np.ndarray:
        return np.bincount(self.dst, weights=p, minlength=self.n)


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
    space = _EdgeSpace(graph)
    tables = [{int(r): 1.0}]
    deficiency = [0.0]
    if g >= 1:
        p = space.start(r, first_step)
        lost = 0.0
        for _ in range(g):
            marg = space.marginal(p)
            nz = np.flatnonzero(marg)
            tables.append({int(v): float(marg[v]) for v in nz})
            deficiency.append(lost)
            p, newly_lost = space.step(p)
            lost += newly_lost
    return WalkTable(root=r, horizon=g, tables=tuple(tables), deficiency=tuple(deficiency))


def _vectors_from_space(space: _EdgeSpace, r: int, g: int, first_step: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(f_r, h_r, mass deficit): the deficit sums, over ell in [1, g], the walk
    mass already lost to dead ends by step ell; it is zero on min-degree-2 graphs."""
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


def test_vectors(graph: WeightedGraph, r: int, g: int, first_step: str = FIRST_STEP_WEIGHT) -> TestVectors:
    """f_r(v) = sum_ell (-1)^ell sqrt(Pr_ell[v]) and h_r(v) = sum_ell sqrt(Pr_ell[v])."""
    _walk_checks(graph, r, g)
    f, h, _ = _vectors_from_space(_EdgeSpace(graph), r, g, first_step)
    return TestVectors(root=r, horizon=g, f=f, h=h)


# -- pseudo-girth -----------------------------------------------------------------


def _ball_edges(graph: WeightedGraph, depth: np.ndarray, radius: int) -> tuple[int, int]:
    """(vertices, edges) of the subgraph induced by depth <= radius."""
    members = np.flatnonzero((depth >= 0) & (depth <= radius))
    d = depth[graph.neighbors(members)]
    deg_sum = int(((d >= 0) & (d <= radius)).sum())
    return members.size, deg_sum // 2


def _pseudo_girth_scan(graph: WeightedGraph, g: int, violating_cap: int) -> tuple[PseudoGirthReport, np.ndarray]:
    """One BFS per root: the report, and the flags of roots whose radius-g ball is acyclic.

    Balls grow through positive-weight bundles only (see :func:`bfs_depths`).
    Each ball is connected, so the induced subgraph is acyclic exactly when
    its edge count is one less than its vertex count.
    """
    if g < 0:
        raise InvalidArgumentError(f"radius must be nonnegative, got {g}")
    if not graph.is_simple:
        raise UnsupportedInputError("pseudo-girth needs a simple graph; collapse multiedges first")
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


def pseudo_girth(graph: WeightedGraph, g: int, violating_cap: int = 32) -> PseudoGirthReport:
    """Cycle-free-ball counts at radii g and 2g, and the largest radius-g ball."""
    return _pseudo_girth_scan(graph, g, violating_cap)[0]


# -- the certificate ----------------------------------------------------------------


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
    Roots are processed in ascending order so results are bitwise stable.
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
    pg, vprime = _pseudo_girth_scan(graph, g, violating_cap=32)

    eu, ev, ew = space.eu, space.ev, space.ew
    wdeg = space.wdeg

    x_lh = x_lk = y_lh = y_lk = y_dh = ymx_ah = 0.0
    trace_x = trace_y = y_j = 0.0
    worst_vprime_dev = 0.0
    worst_norm_sq = 0.0
    total_loss = 0.0
    for r in range(n):
        f, h, deficit = _vectors_from_space(space, r, g, first_step)
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
