import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.errors import DegenerateInputError, InvalidArgumentError, UnsupportedInputError
from sparselab.graph import (
    WeightedGraph,
    collapse_multiedges,
    Clique,
    make_clique,
    make_cycle,
    sample_regular_multigraph,
    scale_weights,
)
from sparselab import nbwalk
from sparselab.nbwalk import (
    FIRST_STEP_UNIFORM,
    FIRST_STEP_WEIGHT,
    certify_lower_bound,
    nb_walk_probabilities,
    pseudo_girth,
)

walk_vectors = nbwalk.test_vectors  # aliased so pytest does not collect it
from sparselab.rng import derive_seed, make_generator
from sparselab.spectral import spectral_error

from helpers import (
    OracleEdgeSpace,
    certificate_sums_oracle,
    pseudo_girth_scan_oracle,
    random_connected_graph,
    vectors_oracle,
    walk_tables_oracle,
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
    """Patch the block constant so that blocks hold the given number of roots."""
    _, _, ws, _ = graph.edge_arrays()
    width = max(graph.n, 2 * int((ws > 0).sum()))
    return mock.patch.object(nbwalk, "_BLOCK_CELLS", roots * width)


def _per_root():
    """Patch the certificate to run on the one-root-at-a-time oracles."""
    return mock.patch.multiple(
        nbwalk, _certificate_sums=certificate_sums_oracle, _pseudo_girth_scan=pseudo_girth_scan_oracle
    )


def _certify(*args, **kwargs):
    try:
        return certify_lower_bound(*args, **kwargs)
    except DegenerateInputError as exc:
        return type(exc)


class TestBlockEngineProperties:
    @_examples
    @given(graph=walk_graphs(), g=st.integers(1, 3), first_step=_first_steps, roots=_roots_per_block)
    def test_certificate_equals_per_root_oracle(self, graph, g, first_step, roots):
        with _blocks_of(graph, roots):
            block = _certify(graph, g, 3.0, first_step=first_step)
        with _per_root():
            oracle = _certify(graph, g, 3.0, first_step=first_step)
        assert block == oracle

    @_examples
    @given(graph=st.one_of(walk_graphs(), walk_graphs(connected=False)), g=st.integers(0, 3), roots=_roots_per_block)
    def test_pseudo_girth_equals_per_root_bfs(self, graph, g, roots):
        with _blocks_of(graph, roots):
            report, flags = nbwalk._pseudo_girth_scan(graph, g, 32)
        oracle_report, oracle_flags = pseudo_girth_scan_oracle(graph, g, 32)
        assert report == oracle_report
        assert np.array_equal(flags, oracle_flags)

    @_examples
    @given(graph=walk_graphs(), g=st.integers(0, 3), first_step=_first_steps, data=st.data())
    def test_walk_tables_and_vectors_equal_dense_walk(self, graph, g, first_step, data):
        r = data.draw(st.integers(0, graph.n - 1))
        wt = nb_walk_probabilities(graph, r, g, first_step)
        assert (wt.tables, wt.deficiency) == walk_tables_oracle(graph, r, g, first_step)
        tv = walk_vectors(graph, r, g, first_step)
        f, h, _ = vectors_oracle(OracleEdgeSpace.of(graph), r, g, first_step)
        assert np.array_equal(tv.f, f) and np.array_equal(tv.h, h)

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
            assert block == oracle
            assert (block.identity_checks.total_mass_loss > 0.0) == (graph is not regular)
