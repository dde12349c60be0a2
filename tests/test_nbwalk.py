import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab.errors import DegenerateInputError, InvalidArgumentError, UnsupportedInputError
from sparselab.graph import (
    WeightedGraph,
    collapse_multiedges,
    Clique,
    first_matchings_subgraph,
    make_clique,
    make_cycle,
    sample_regular_multigraph,
    scale_weights,
    write_edge_list,
)
from sparselab import _fork, nbwalk
from sparselab.cli import main
from sparselab.nbwalk import FIRST_STEP_UNIFORM, FIRST_STEP_WEIGHT, certify_lower_bound, pseudo_girth
from sparselab.rng import derive_seed, make_generator
from sparselab.spectral import spectral_error

from helpers import (
    OracleEdgeSpace,
    ball_flags_oracle,
    bfs_depths,
    certificate_sums_oracle,
    certificate_work_oracle,
    cpus,
    nb_walk_probabilities,
    pseudo_girth_scan_oracle,
    pseudo_girth_with_flags,
    random_connected_graph,
    root_terms_difference_oracle,
    vectors_oracle,
    walk_terms_oracle,
    walk_tables_oracle,
    walk_vectors,
)


class TestWalkProbabilities:
    def test_cycle_moves_deterministically(self):
        g = make_cycle(12, 1.0)
        wt = nb_walk_probabilities(g, 3, 5)
        for ell in range(1, 6):
            table = wt.tables[ell]
            assert set(table) == {(3 - ell) % 12, (3 + ell) % 12}
            assert all(p == pytest.approx(0.5, abs=1e-15) for p in table.values())

    def test_star_two_step_spreads_over_other_leaves(self):
        star = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        wt = nb_walk_probabilities(star, 1, 2)
        assert wt.tables[1] == {0: 1.0}
        assert wt.tables[2] == {2: pytest.approx(0.5), 3: pytest.approx(0.5)}
        assert wt.deficiency[2] == 0.0

    def test_path_dead_end_records_deficiency(self):
        path = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        wt = nb_walk_probabilities(path, 0, 3)
        assert wt.tables[1] == {1: 1.0}
        assert wt.tables[2] == {2: 1.0}
        assert wt.tables[3] == {}  # all mass stuck at the leaf
        assert wt.deficiency[3] == pytest.approx(1.0)
        assert wt.mass(3) + wt.deficiency[3] == pytest.approx(1.0, abs=1e-15)

    def test_mass_conserved_on_min_degree_two(self):
        g = collapse_multiedges(sample_regular_multigraph(100, 5, seed=3))
        for r in (0, 17, 99):
            wt = nb_walk_probabilities(g, r, 4)
            for ell in range(5):
                assert wt.mass(ell) == pytest.approx(1.0, abs=1e-10)
                assert wt.deficiency[ell] == 0.0

    def test_mass_plus_deficiency_is_one(self):
        rng = make_generator(8)
        g = random_connected_graph(rng, 30, 10)  # trees have many leaves
        wt = nb_walk_probabilities(g, 0, 6)
        for ell in range(7):
            assert wt.mass(ell) + wt.deficiency[ell] == pytest.approx(1.0, abs=1e-12)

    def test_extreme_weight_ratios_stay_conserved(self):
        # 12 decades of weight spread: leave-one-out denominators keep the
        # tables sane; conservation degrades gracefully to ~1e-10
        rng = make_generator(321)
        edges = {}
        n = 30
        for v in range(1, n):
            u = int(rng.integers(0, v))
            edges[(u, v)] = float(10.0 ** rng.uniform(-6, 6))
        for _ in range(40):
            u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            edges.setdefault((u, v), float(10.0 ** rng.uniform(-6, 6)))
        g = WeightedGraph(n, ((u, v, w) for (u, v), w in edges.items()))
        for rule in ("weight", "uniform"):
            wt = nb_walk_probabilities(g, 0, 5, first_step=rule)
            for ell in range(6):
                assert wt.mass(ell) + wt.deficiency[ell] == pytest.approx(1.0, abs=1e-9)

    def test_weight_proportional_first_step(self):
        g = WeightedGraph(3, [(0, 1, 3.0), (0, 2, 1.0)])
        wt = nb_walk_probabilities(g, 0, 1)
        assert wt.tables[1] == {1: pytest.approx(0.75), 2: pytest.approx(0.25)}

    def test_uniform_first_step_flag(self):
        g = WeightedGraph(3, [(0, 1, 3.0), (0, 2, 1.0)])
        wt = nb_walk_probabilities(g, 0, 1, first_step="uniform")
        assert wt.tables[1] == {1: pytest.approx(0.5), 2: pytest.approx(0.5)}

    def test_errors(self):
        g = make_cycle(6, 1.0)
        with pytest.raises(InvalidArgumentError):
            nb_walk_probabilities(g, 0, -1)
        iso = WeightedGraph(3, [(1, 2, 1.0)])
        with pytest.raises(InvalidArgumentError):
            nb_walk_probabilities(iso, 0, 2)
        multi = WeightedGraph(4, [(0, 1, 2.0, 2), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        with pytest.raises(UnsupportedInputError):
            nb_walk_probabilities(multi, 0, 2)


class TestTestVectors:
    def test_cycle_closed_form(self):
        tv = walk_vectors(make_cycle(50, 0.5), 0, 3)
        assert tv.f[0] == 1.0 and tv.h[0] == 1.0
        for ell in (1, 2, 3):
            expect = (-1.0) ** ell / math.sqrt(2.0)
            assert tv.f[ell] == pytest.approx(expect, abs=1e-14)
            assert tv.f[50 - ell] == pytest.approx(expect, abs=1e-14)
            assert tv.h[ell] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_norms_on_acyclic_ball_roots(self):
        g = collapse_multiedges(sample_regular_multigraph(600, 4, seed=6))
        flags = pseudo_girth(g, 2)
        rng = make_generator(0)
        checked = 0
        for r in rng.permutation(600)[:40]:
            tv = walk_vectors(g, int(r), 2)
            n2f, n2h = float(tv.f @ tv.f), float(tv.h @ tv.h)
            assert n2h <= 9.0 + 1e-9  # (g+1)^2 cap holds for every root
            assert abs(tv.f) .max() <= abs(tv.h).max() + 1e-15
            checked += 1
        assert checked == 40
        assert flags.acyclic_g > 0

    def test_entrywise_f_below_h(self):
        rng = make_generator(4)
        g = random_connected_graph(rng, 40, 30)
        tv = walk_vectors(g, 5, 4)
        assert np.all(np.abs(tv.f) <= tv.h + 1e-12)

    def test_support_in_ball(self):
        g = make_cycle(30, 1.0)
        tv = walk_vectors(g, 0, 3)
        support = set(np.flatnonzero(tv.h != 0.0).tolist())
        assert support <= {0, 1, 2, 3, 27, 28, 29}


class TestPseudoGirth:
    def test_long_cycle_entirely_acyclic(self):
        # n > 4g + 1: even the radius-2g balls are paths
        rep = pseudo_girth(make_cycle(20, 1.0), 2)
        assert rep.acyclic_g == 20 and rep.acyclic_2g == 20
        assert rep.F == 0
        assert rep.B == 5  # radius-2 ball on a cycle has 5 vertices

    def test_short_cycle_wraps(self):
        # n <= 2g + 1: the whole cycle sits inside every ball
        rep = pseudo_girth(make_cycle(5, 1.0), 2)
        assert rep.acyclic_g == 0 and rep.F == 5

    def test_k4_radius_one(self):
        rep = pseudo_girth(make_clique(4, 1.0), 1)
        assert rep.acyclic_g == 0
        assert rep.F == 4
        assert rep.B == 4
        assert rep.violating == (0, 1, 2, 3)

    def test_vprime_contains_vdoubleprime(self):
        for seed in range(4):
            g = collapse_multiedges(sample_regular_multigraph(200, 4, seed=seed))
            rep = pseudo_girth(g, 2)
            assert rep.acyclic_2g <= rep.acyclic_g
            assert 0 <= rep.F <= rep.n
            assert rep.B <= rep.n

    def test_sparse_random_regular_mostly_acyclic(self):
        # heuristic rate: a radius-2g ball sees a cycle with probability
        # about deg^(4g)/n, so F/n stays small while n >> deg^(4g)
        fractions = []
        for seed in range(5):
            g = collapse_multiedges(sample_regular_multigraph(1500, 4, seed=derive_seed(9, seed)))
            rep = pseudo_girth(g, 1)
            fractions.append(rep.F / rep.n)
        assert np.median(fractions) < 0.25

    def test_cycle_inside_radius_g_minus_one_is_not_forgotten(self):
        # triangle 0-1-2 with a pendant 3 on vertex 1, root 0, g = 2: the
        # radius-1 ball holds the triangle, and level 2 adds only the pendant,
        # as a tree would.  A scan that stops fanning out this ball must keep
        # its flag False, not recompute it from level 2 alone.
        graph = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
        flags_g, flags_2g, bmax = nbwalk._girth_flags(graph, 2, np.arange(1))
        assert not flags_g[0] and not flags_2g[0] and bmax == 4
        report = pseudo_girth(graph, 2)
        assert report == pseudo_girth_scan_oracle(graph, 2)[0]
        assert report.acyclic_g == 0 and report.B == 4

    def test_cyclic_balls_stop_fanning_out(self):
        # every radius-3 ball here has a cycle; growing each one to radius 3,
        # as a scan without the early stop does, fans out every CSR slot of
        # every vertex within radius 3 of every root
        graph = collapse_multiedges(sample_regular_multigraph(2000, 8, 0))
        deg = np.diff(graph.csr()[0])
        full = sum(int(deg[bfs_depths(graph, r, 3) >= 0].sum()) for r in range(graph.n))
        slots = []
        fan_out = nbwalk._fan_out

        def counting(indptr, owners, items):
            cell, slot = fan_out(indptr, owners, items)
            slots.append(cell.size)
            return cell, slot

        with mock.patch.object(nbwalk, "_fan_out", counting):
            flags_g, _, _ = nbwalk._girth_flags(graph, 3, np.arange(graph.n))
        assert not flags_g.any()
        assert 3 * sum(slots) <= full

    def test_dense_regime_saturates(self):
        # when deg^(4g) >> n the same heuristic predicts cycles everywhere
        g = collapse_multiedges(sample_regular_multigraph(5000, 6, seed=derive_seed(60, 0)))
        rep = pseudo_girth(g, 2)
        assert rep.F == rep.n


class TestCertificate:
    def test_perfect_sparsifier_certifies_nothing(self):
        n = 40
        cert = certify_lower_bound(make_clique(n, 1.0 / n), 2, n - 1)
        assert cert.ratio == pytest.approx(1.0, abs=1e-9)
        assert cert.epsilon_lb == pytest.approx(0.0, abs=1e-9)

    def test_cycle_certificate_sound_and_positive(self):
        n = 200
        h = make_cycle(n, 0.5)
        cert = certify_lower_bound(h, 10, 2)
        spec = spectral_error(h, Clique(n, 1.0 / n))
        assert 0.0 < cert.epsilon_lb <= spec.epsilon + 1e-6

    def test_soundness_across_random_graphs(self):
        rng = make_generator(14)
        for trial in range(12):
            n = int(rng.integers(8, 60))
            h = random_connected_graph(rng, n, int(rng.integers(n // 2, 3 * n)))
            g = int(rng.choice([1, 2, 3, 5]))
            cert = certify_lower_bound(h, g, max(2.0, 4.0 * h.num_bundles / n))
            spec = spectral_error(h, Clique(n, 1.0 / n))
            assert cert.epsilon_lb <= spec.epsilon + 1e-6, f"trial {trial} unsound"

    def test_identity_checks_hold_on_regular_graph(self):
        n, d = 300, 8
        h = collapse_multiedges(scale_weights(sample_regular_multigraph(n, d, seed=2), (n - 1) / (d * n)))
        cert = certify_lower_bound(h, 2, d)
        assert cert.identity_checks.ok
        assert cert.identity_checks.trace_lower <= cert.identity_checks.trace_x <= cert.identity_checks.trace_upper
        assert cert.identity_checks.y_dot_j <= cert.identity_checks.y_dot_j_cap + 1e-6
        assert cert.assumptions.combinatorial_ok
        for product in (cert.x_dot_lh, cert.x_dot_lk, cert.y_dot_lh, cert.y_dot_lk):
            assert product > 0.0

    def test_f_and_h_coincide_squared_on_acyclic_roots(self):
        g = collapse_multiedges(sample_regular_multigraph(400, 4, seed=12))
        rep = pseudo_girth(g, 2)
        assert rep.acyclic_g > 0
        checked = 0
        for r in range(g.n):
            if checked >= 25:
                break
            tv = walk_vectors(g, r, 2)
            if abs(float(tv.f @ tv.f) - 3.0) < 1e-9:  # an acyclic-ball root
                assert np.all(np.abs(tv.f ** 2 - tv.h ** 2) <= 1e-12)
                checked += 1
        assert checked == 25

    def test_identity_checks_account_for_dead_end_loss(self):
        # a path graph: every interior ball is acyclic but walks die at the
        # two leaves, so the norm identity holds only after loss accounting
        n = 13
        h = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        cert = certify_lower_bound(h, 3, 2.0)
        assert cert.identity_checks.total_mass_loss > 0.0
        assert cert.identity_checks.ok
        spec = spectral_error(h, Clique(n, 1.0 / n))
        assert cert.epsilon_lb <= spec.epsilon + 1e-6

    def test_assumption_diagnostics_flag_heavy_edges(self):
        # one giant edge weight breaks the per-edge cap but not the certificate
        h = WeightedGraph(4, [(0, 1, 5.0), (1, 2, 0.1), (2, 3, 0.1), (0, 3, 0.1), (0, 2, 0.1)])
        cert = certify_lower_bound(h, 1, 100.0)
        assert not cert.assumptions.edge_weight_ok
        assert cert.epsilon_lb >= 0.0

    def test_matrix_free_products_match_dense(self):
        rng = make_generator(15)
        h = random_connected_graph(rng, 18, 25)
        n, g = 18, 3
        cert = certify_lower_bound(h, g, 3.0)
        lap = np.zeros((n, n))
        us, vs, ws, _ = h.edge_arrays()
        for u, v, w in zip(us, vs, ws):
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
        lk = np.eye(n) - np.ones((n, n)) / n
        x = np.zeros((n, n))
        y = np.zeros((n, n))
        for r in range(n):
            tv = walk_vectors(h, r, g)
            x += np.outer(tv.f, tv.f)
            y += np.outer(tv.h, tv.h)
        assert cert.x_dot_lh == pytest.approx(float((x * lap).sum()), rel=1e-9)
        assert cert.x_dot_lk == pytest.approx(float((x * lk).sum()), rel=1e-9)
        assert cert.y_dot_lh == pytest.approx(float((y * lap).sum()), rel=1e-9)
        assert cert.y_dot_lk == pytest.approx(float((y * lk).sum()), rel=1e-9)
        dh = np.diag(np.diag(lap))
        ah = dh - lap
        assert cert.y_dot_dh == pytest.approx(float((y * dh).sum()), rel=1e-9)
        assert cert.ymx_dot_ah == pytest.approx(float(((y - x) * ah).sum()), rel=1e-9)

    def test_bitwise_reproducible(self):
        h = make_cycle(100, 0.5)
        a = certify_lower_bound(h, 5, 2)
        b = certify_lower_bound(h, 5, 2)
        assert a.epsilon_lb == b.epsilon_lb
        assert a.x_dot_lh == b.x_dot_lh

    def test_unit_degree_regular_golden(self):
        # frozen after the first verified run (seed fixed by the derivation chain)
        n, d = 1000, 12
        h = collapse_multiedges(
            scale_weights(sample_regular_multigraph(n, d, seed=derive_seed(1200, 0)), (n - 1) / (d * n))
        )
        cert = certify_lower_bound(h, 2, d)
        spec = spectral_error(h, Clique(n, 1.0 / n))
        assert 0.0 < cert.epsilon_lb <= spec.epsilon
        assert cert.epsilon_lb == pytest.approx(0.37771360892681277, abs=1e-12)

    def test_zero_weight_bundle_is_ignored(self):
        # a 5-cycle whose closing edge has weight 0 is the 5-vertex path to
        # every walk and every ball; the 0-weight edge must never reach the
        # walk's leave-one-out division
        path = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        cycle = WeightedGraph(5, path + [(0, 4, 0.0)])
        for g in (1, 2, 3):
            with np.errstate(all="raise"):
                cert = certify_lower_bound(cycle, g, 2.0)
            assert math.isfinite(cert.ratio) and cert.identity_checks.ok
            assert cert == certify_lower_bound(WeightedGraph(5, path), g, 2.0)
        assert pseudo_girth(cycle, 2) == pseudo_girth(WeightedGraph(5, path), 2)

    def test_non_finite_ratio_is_degenerate(self):
        with np.errstate(all="ignore"), pytest.raises(DegenerateInputError):
            certify_lower_bound(make_cycle(6, 1e307), 1, 2.0)  # finite total weight, overflowing walk products

    def test_errors(self):
        with pytest.raises(InvalidArgumentError):
            certify_lower_bound(make_clique(2, 0.5), 2, 1.0)
        disconnected = WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
        with pytest.raises(InvalidArgumentError):
            certify_lower_bound(disconnected, 2, 2.0)
        with pytest.raises(UnsupportedInputError):
            certify_lower_bound(sample_regular_multigraph(6, 4, seed=1), 2, 4.0)


def test_first_step_open_choice_changes_tables_not_soundness():
    rng = make_generator(44)
    h = random_connected_graph(rng, 25, 20)
    spec = spectral_error(h, Clique(25, 1.0 / 25))
    for rule in ("weight", "uniform"):
        cert = certify_lower_bound(h, 2, 3.0, first_step=rule)
        assert cert.epsilon_lb <= spec.epsilon + 1e-6


# -- the block engine against the per-root oracles ------------------------------

_weights = st.one_of(st.integers(1, 3).map(float), st.floats(1e-3, 1e3))
_first_steps = st.sampled_from([FIRST_STEP_WEIGHT, FIRST_STEP_UNIFORM])
# blocks of 1, 2 or 3 roots put ball frontiers and walk states on both sides of block edges
_roots_per_block = st.sampled_from([1, 2, 3])
_examples = settings(max_examples=60, deadline=None)


@st.composite
def walk_graphs(draw, connected=True):
    """Simple weighted graphs on 3..12 vertices: a positive-weight spanning
    tree when connected (so leaves are common), plus extra edges, some of
    weight 0."""
    n = draw(st.integers(3, 12))
    edges = {}
    if connected:
        for v in range(1, n):
            edges[(draw(st.integers(0, v - 1)), v)] = draw(_weights)
    extra_weight = st.one_of(st.just(0.0), _weights)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), extra_weight), max_size=2 * n))
    for u, v, w in extra:
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), w)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def _blocks_of(graph, roots):
    """Patch the block cap so that ball and walk blocks hold at most the given number of roots."""
    return mock.patch.object(nbwalk, "_BALL_SCRATCH", roots * graph.n)


def _per_root():
    """Patch the certificate to run on the one-root-at-a-time oracle."""
    return mock.patch.object(nbwalk, "_walk_terms", walk_terms_oracle)


def _assert_close_to_oracle(report, oracle, g):
    """The report equals the oracle's, but for its walk sums, which agree to
    1e-12 of their scale: the support engine adds each root's terms over its
    support, in another order than the oracle's sums over all n vertices and
    m edges.  Weighted forms scale with Y.D_H, plain ones with I.Y, squared
    norms with (g+1)^2.  The mass losses are exact.  The ratio and eps_lb follow from the report's own
    products, which can cancel (Y.L_H can be far below Y.D_H), so they are
    recomputed from them exactly."""
    if not isinstance(oracle, nbwalk.CertificateReport):
        assert report == oracle
        return
    checks, want = report.identity_checks, oracle.identity_checks
    weighted, plain, norm = oracle.y_dot_dh, want.trace_y, (g + 1.0) ** 2
    scales = {
        "x_dot_lh": weighted, "y_dot_lh": weighted, "y_dot_dh": weighted, "ymx_dot_ah": weighted,
        "x_dot_lk": plain, "y_dot_lk": plain,
    }
    check_scales = {
        "trace_x": plain, "trace_y": plain, "y_dot_j": want.y_dot_j, "max_vprime_norm_dev": norm, "max_norm_sq": norm,
    }
    for name, scale in scales.items():
        assert abs(getattr(report, name) - getattr(oracle, name)) <= 1e-12 * scale, name
    for name, scale in check_scales.items():
        assert abs(getattr(checks, name) - getattr(want, name)) <= 1e-12 * scale, name
    ratio = (report.x_dot_lh / report.x_dot_lk) * (report.y_dot_lk / report.y_dot_lh)
    assert (report.ratio, report.epsilon_lb) == (ratio, max(0.0, (ratio - 1.0) / (ratio + 1.0)))
    same_checks = replace(checks, **{name: getattr(want, name) for name in check_scales})
    same_sums = {name: getattr(oracle, name) for name in [*scales, "ratio", "epsilon_lb"]}
    assert replace(report, identity_checks=same_checks, **same_sums) == oracle


def _assert_python_sums(report, graph, g, first_step):
    """The report's totals are the engine's per-root terms added one root at a time in Python."""
    vprime = pseudo_girth_scan_oracle(graph, g)[1]
    terms = nbwalk._walk_terms(nbwalk._EdgeSpace(graph), g, first_step, 0, graph.n)[0]
    totals, worst_dev, worst_norm = certificate_sums_oracle(terms, g, vprime)
    checks = report.identity_checks
    assert [
        report.x_dot_lh, report.y_dot_lh, report.x_dot_lk, report.y_dot_lk, report.y_dot_dh, report.ymx_dot_ah,
        checks.trace_x, checks.trace_y, checks.y_dot_j, checks.total_mass_loss,
    ] == totals
    assert (checks.max_vprime_norm_dev, checks.max_norm_sq) == (worst_dev, worst_norm)


def _certify(*args, **kwargs):
    try:
        return certify_lower_bound(*args, **kwargs)
    except DegenerateInputError as exc:
        return type(exc)


class TestCertificateSoundness:
    @_examples
    @given(graph=walk_graphs(), g=st.integers(1, 3), d=st.floats(1.0, 12.0), first_step=_first_steps)
    def test_lower_bound_never_exceeds_spectral_error(self, graph, g, d, first_step):
        # the 1e-6 margin is criterion 05's
        cert = _certify(graph, g, d, first_step=first_step)
        if isinstance(cert, nbwalk.CertificateReport):
            assert cert.epsilon_lb <= spectral_error(graph, Clique(graph.n, 1.0 / graph.n)).epsilon + 1e-6


class TestBlockEngineProperties:
    @_examples
    @given(graph=walk_graphs(), g=st.integers(1, 3), first_step=_first_steps, roots=_roots_per_block)
    def test_certificate_equals_per_root_oracle(self, graph, g, first_step, roots):
        with _blocks_of(graph, roots):
            block = _certify(graph, g, 3.0, first_step=first_step)
        with _per_root():
            oracle = _certify(graph, g, 3.0, first_step=first_step)
        _assert_close_to_oracle(block, oracle, g)
        if isinstance(block, nbwalk.CertificateReport):
            _assert_python_sums(block, graph, g, first_step)

    @_examples
    @given(graph=walk_graphs(), g=st.integers(1, 3), first_step=_first_steps, roots=_roots_per_block)
    def test_root_terms_do_not_depend_on_blocks(self, graph, g, first_step, roots):
        space = nbwalk._EdgeSpace(graph)
        terms, balls = nbwalk._walk_terms(space, g, first_step, 0, graph.n)  # default blocks: one root, then the rest
        with _blocks_of(graph, roots):
            block_terms, block_balls = nbwalk._walk_terms(space, g, first_step, 0, graph.n)
        assert np.array_equal(block_terms, terms) and all(map(np.array_equal, block_balls, balls))

    @_examples
    @given(graph=st.one_of(walk_graphs(), walk_graphs(connected=False)), g=st.integers(0, 3), roots=_roots_per_block)
    def test_pseudo_girth_equals_per_root_bfs(self, graph, g, roots):
        with _blocks_of(graph, roots):
            report, flags = pseudo_girth_with_flags(graph, g)
        oracle_report, oracle_flags = pseudo_girth_scan_oracle(graph, g)
        assert report == oracle_report
        assert np.array_equal(flags, oracle_flags)

    @_examples
    @given(graph=walk_graphs(), g=st.integers(1, 4), first_step=_first_steps, roots=_roots_per_block)
    def test_certificate_pseudo_girth_equals_the_full_scan(self, graph, g, first_step, roots):
        # the certificate reads the radius-g flags and B off its walk supports and
        # grows on to radius 2g only the balls acyclic at g; the public scan grows every ball from 0
        with _blocks_of(graph, roots):
            cert = _certify(graph, g, 3.0, first_step=first_step)
            _, balls = nbwalk._walk_terms(nbwalk._EdgeSpace(graph), g, first_step, 0, graph.n)
            report, flags = pseudo_girth_with_flags(graph, g)
        if isinstance(cert, nbwalk.CertificateReport):
            assert cert.pseudo_girth == pseudo_girth(graph, g)
        chunk_report, chunk_flags = nbwalk._girth_report(graph.n, g, [balls])
        assert chunk_report == report
        assert np.array_equal(chunk_flags, flags)

    @_examples
    @given(graph=st.one_of(walk_graphs(), walk_graphs(connected=False)), g=st.integers(0, 3), roots=_roots_per_block, data=st.data())
    def test_ball_flags_of_a_root_subset(self, graph, g, roots, data):
        subset = np.array(sorted(data.draw(st.sets(st.integers(0, graph.n - 1)))), dtype=np.int64)
        with _blocks_of(graph, roots):
            flags_g, flags_2g, _ = nbwalk._girth_flags(graph, g, np.arange(graph.n))
            sub_g, sub_2g, bmax = nbwalk._girth_flags(graph, g, subset)
        assert np.array_equal(sub_g, flags_g[subset]) and np.array_equal(sub_2g, flags_2g[subset])
        assert bmax == ball_flags_oracle(graph, g, subset)[2]

    @pytest.mark.parametrize("first_step", [FIRST_STEP_WEIGHT, FIRST_STEP_UNIFORM])
    def test_underflowed_cells_still_fan_out(self, first_step):
        # from root 0 the mass on 2 -> 3 is 1e-200 * 1e-200, which underflows to 0, yet the
        # triangle {4, 5, 6} is within radius 5; a walk that fans out only the cells with mass
        # leaves it out of the support and calls roots 0, 1 and 9 acyclic at g = 5
        graph = WeightedGraph(10, [
            (0, 1, 1.0), (1, 2, 1e-200), (1, 9, 1.0), (2, 3, 1e-200), (2, 8, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0),
        ])
        space = nbwalk._EdgeSpace(graph)
        for g in range(3, 7):
            _, balls = nbwalk._walk_terms(space, g, first_step, 0, graph.n)
            for scan in (nbwalk._girth_flags(graph, g, np.arange(graph.n)), ball_flags_oracle(graph, g, np.arange(graph.n))):
                assert np.array_equal(balls[0], scan[0]) and np.array_equal(balls[1], scan[1]) and balls[2] == scan[2]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_lollipops_equal_per_root_bfs(self, g):
        # a path of t edges from vertex 0 into a cycle of length c: seen from the path's end, an odd
        # cycle closes by an edge inside a level and an even one by a vertex with two parents, at
        # depth t + c // 2, which runs over level g + 1 (the first level past the walk) up to 2g
        for t in range(2 * g + 1):
            for c in range(3, 4 * g + 3):
                path = [(i, i + 1, 1.0) for i in range(t)]
                cycle = [(t + i, t + i + 1, 1.0) for i in range(c - 1)] + [(t, t + c - 1, 1.0)]
                graph = WeightedGraph(t + c, path + cycle)
                want = ball_flags_oracle(graph, g, np.arange(graph.n))
                _, balls = nbwalk._walk_terms(nbwalk._EdgeSpace(graph), g, FIRST_STEP_WEIGHT, 0, graph.n)
                assert all(map(np.array_equal, balls, want)), (t, c)
                report = pseudo_girth_scan_oracle(graph, g)[0]
                assert pseudo_girth(graph, g) == report, (t, c)
                cert = _certify(graph, g, 3.0)  # the triangle at g = 3 has X.L_K = 0
                assert cert is DegenerateInputError or cert.pseudo_girth == report, (t, c)

    def test_certificate_grows_no_ball_from_radius_zero(self):
        # the certificate continues its balls from the walks' level-g cells; pseudo_girth starts at 0
        levels = []
        grow = nbwalk._ball_flags

        def recording(indptr, nbr, g, level, *args):
            levels.append((g, level))
            return grow(indptr, nbr, g, level, *args)

        view = collapse_multiedges(first_matchings_subgraph(sample_regular_multigraph(1000, 16, seed=8), 4))
        with mock.patch.object(nbwalk, "_ball_flags", recording):
            for graph, g in ((view, 2), (view, 3), (make_cycle(40), 5)):
                cert = certify_lower_bound(graph, g, 4.0)
                assert cert.pseudo_girth.acyclic_g > 0 and levels and all(lv == (g, g) for lv in levels)
                levels.clear()
            pseudo_girth(view, 2)
        assert levels and all(lv == (2, 0) for lv in levels)

    @_examples
    @given(graph=walk_graphs(), g=st.integers(0, 3), first_step=_first_steps, data=st.data())
    def test_walk_tables_and_vectors_equal_dense_walk(self, graph, g, first_step, data):
        r = data.draw(st.integers(0, graph.n - 1))
        wt = nb_walk_probabilities(graph, r, g, first_step)
        assert (wt.tables, wt.deficiency) == walk_tables_oracle(graph, r, g, first_step)
        tv = walk_vectors(graph, r, g, first_step)
        f, h, _ = vectors_oracle(OracleEdgeSpace.of(graph), r, g, first_step)
        assert np.array_equal(tv.f, f) and np.array_equal(tv.h, h)

    @_examples
    @given(graph=walk_graphs(), g=st.integers(1, 3), first_step=_first_steps)
    def test_product_forms_match_edge_difference_forms(self, graph, g, first_step):
        # x'L_H x = sum wdeg x^2 - 2 sum w x_u x_v may cancel where the
        # edge-difference form sum w (x_u - x_v)^2 cannot, so the L_H, D_H and
        # A_H forms agree to 1e-12 of h'D_H h and the norms to 1e-12 of |h|^2
        space = nbwalk._EdgeSpace(graph)
        terms = nbwalk._walk_terms(space, g, first_step, 0, graph.n)[0]
        dense = OracleEdgeSpace.of(graph)
        weighted, plain = [0, 1, 4, 5], [2, 3, 6, 7, 8]
        for r in range(graph.n):
            old = np.array(root_terms_difference_oracle(dense, r, g, first_step))
            gap = np.abs(terms[:, r] - old)
            assert np.all(gap[weighted] <= 1e-12 * old[4]) and np.all(gap[plain] <= 1e-12 * old[7])
            assert gap[9] == 0.0

    @pytest.mark.parametrize("first_step", [FIRST_STEP_WEIGHT, FIRST_STEP_UNIFORM])
    def test_default_blocks_equal_per_root_oracle(self, first_step):
        # many roots per block at the default constant: a tree-like graph and a
        # 6-cycle whose vertex 0 holds 40 leaves (mass is lost, and a root's
        # loss sums many dead edges), and a collapsed regular graph (no loss)
        rng = make_generator(5)
        pendant = random_connected_graph(rng, 150, 60)
        cycle = [(i, i + 1, 1.0) for i in range(5)] + [(0, 5, 1.0)]
        broom = WeightedGraph(46, cycle + [(0, v, float(rng.uniform(0.1, 2.0))) for v in range(6, 46)])
        regular = collapse_multiedges(sample_regular_multigraph(300, 4, seed=8))
        for graph in (pendant, broom, regular):
            block = certify_lower_bound(graph, 3, 4.0, first_step=first_step)
            with _per_root():
                oracle = certify_lower_bound(graph, 3, 4.0, first_step=first_step)
            _assert_close_to_oracle(block, oracle, 3)
            _assert_python_sums(block, graph, 3, first_step)
            assert (block.identity_checks.total_mass_loss > 0.0) == (graph is not regular)


# -- roots split across forked workers ------------------------------------------


def _fail_in_worker(*args):
    raise DegenerateInputError(f"raised in process {os.getpid()}")


class TestParallelRoots:
    # blocks of 1..3 roots put chunk edges inside blocks; W = 3 exceeds the CPUs here
    @settings(max_examples=30, deadline=None)
    @given(graph=walk_graphs(), g=st.integers(1, 3), first_step=_first_steps, roots=_roots_per_block)
    def test_worker_count_does_not_change_the_certificate(self, graph, g, first_step, roots):
        with _blocks_of(graph, roots):
            in_process = _certify(graph, g, 3.0, first_step=first_step)
            for workers in (1, 2, 3):
                with cpus(workers), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
                    assert _certify(graph, g, 3.0, first_step=first_step) == in_process

    @settings(max_examples=30, deadline=None)
    @given(graph=st.one_of(walk_graphs(), walk_graphs(connected=False)), g=st.integers(0, 3), roots=_roots_per_block)
    def test_worker_count_does_not_change_pseudo_girth(self, graph, g, roots):
        with _blocks_of(graph, roots):
            report, flags = pseudo_girth_with_flags(graph, g)
            for workers in (1, 2, 3):
                with cpus(workers), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
                    split_report, split_flags = pseudo_girth_with_flags(graph, g)
                assert split_report == report
                assert np.array_equal(split_flags, flags)

    def test_worker_error_keeps_its_type_and_exit_code(self, tmp_path, capsys):
        h = tmp_path / "h.edges"
        write_edge_list(make_cycle(50, 0.5), h)
        with cpus(2), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
            with mock.patch.object(nbwalk, "_walk_terms", _fail_in_worker):
                with pytest.raises(DegenerateInputError, match="raised in process") as err:
                    certify_lower_bound(make_cycle(50, 0.5), 2, 2.0)
                code = main(["certify", "--h-file", str(h), "--g", "2", "--d", "2"])
        assert not str(err.value).endswith(f" {os.getpid()}")  # it came from a worker
        assert code == 4  # DegenerateInputError's exit code
        assert "raised in process" in capsys.readouterr().err

    def test_small_root_sets_stay_in_process(self):
        # below the floor no worker is forked, whatever the CPU count; that includes the
        # certificate of separation's n = 1000, d = 4 graph at g = 2 (about 2e4 walk entries)
        graph = collapse_multiedges(sample_regular_multigraph(300, 4, seed=8))
        view = collapse_multiedges(first_matchings_subgraph(sample_regular_multigraph(1000, 16, seed=8), 4))
        with cpus(2), mock.patch.object(nbwalk, "_walk_terms", _fail_in_worker):
            with pytest.raises(DegenerateInputError, match=f"process {os.getpid()}$"):
                certify_lower_bound(graph, 3, 4.0)
            with pytest.raises(DegenerateInputError, match=f"process {os.getpid()}$"):
                certify_lower_bound(view, 2, 4.0)
        with cpus(2), mock.patch.object(nbwalk, "_girth_flags", _fail_in_worker):
            with pytest.raises(DegenerateInputError, match=f"process {os.getpid()}$"):
                pseudo_girth(graph, 3)

    def test_work_estimate_matches_the_per_depth_sum_on_benchmark_views(self):
        # the estimate decides whether the certificate forks: on the four benchmark workloads' certificate
        # views the closed form stays within rounding of one count per depth and decides the same
        n = 1000
        separation = first_matchings_subgraph(sample_regular_multigraph(n, 16, derive_seed(0, 0)), 4)
        graphs = [
            collapse_multiedges(scale_weights(separation, (n - 1) / (4 * n))),
            collapse_multiedges(sample_regular_multigraph(24, 8, derive_seed(0, 0))),
            collapse_multiedges(sample_regular_multigraph(2000, 8, 0)),
            collapse_multiedges(sample_regular_multigraph(200, 16, 0)),
        ]
        for graph in graphs:
            for g in range(1, 13):
                work, oracle = nbwalk.certificate_work(graph, g), certificate_work_oracle(graph, g)
                assert work == pytest.approx(oracle, rel=1e-12)
                assert (work < _fork._PARALLEL_WORK) == (oracle < _fork._PARALLEL_WORK)

    @settings(max_examples=60, deadline=None)
    @given(graph=walk_graphs(), g=st.integers(1, 3000))
    @example(graph=collapse_multiedges(first_matchings_subgraph(sample_regular_multigraph(40, 8, 1), 4)), g=1000)
    @example(graph=make_cycle(30), g=3000)  # a count of 2 at every depth
    @example(graph=WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]), g=3000)  # falling counts
    def test_work_estimate_at_deep_horizons_adds_one_count_per_depth(self, graph, g):
        # the old power overflowed from g = 647 on a 4-regular graph; the closed form takes no step per
        # depth: a geometric series, then n for each saturated depth
        assert nbwalk.certificate_work(graph, g) == pytest.approx(certificate_work_oracle(graph, g), rel=1e-12)

    def test_work_estimate_of_a_long_path_at_a_huge_horizon(self):
        # counts fall by q = dbar - 1 < 1 per depth; a step per depth took seconds at g = 1e7
        n = 20_000
        path = WeightedGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
        dbar = 2 * (n - 1) / n
        assert nbwalk.certificate_work(path, 10**9) == pytest.approx(32 * n * dbar * (1 + dbar / (2 - dbar)), rel=1e-12)

    def test_certificates_above_ten_thousand_vertices_fork(self):
        # 12 000 vertices of degree 4 at g = 2 make about 2.4e5 walk entries, above the floor
        # of 2^17; a 10 001-vertex cycle at g = 1, with 2e4, runs in-process
        graph = collapse_multiedges(sample_regular_multigraph(12_000, 4, seed=0))
        with cpus(2), mock.patch.object(nbwalk, "_walk_terms", _fail_in_worker):
            with pytest.raises(DegenerateInputError, match="raised in process") as err:
                certify_lower_bound(graph, 2, 4.0)
            with pytest.raises(DegenerateInputError, match=f"process {os.getpid()}$"):
                certify_lower_bound(make_cycle(10_001), 1, 2.0)
        assert not str(err.value).endswith(f" {os.getpid()}")
