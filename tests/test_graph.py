import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import graph
from sparselab.errors import InvalidArgumentError, ParseError, UnsupportedInputError
from sparselab.graph import (
    Clique,
    WeightedGraph,
    collapse_multiedges,
    degree_report,
    first_matchings_subgraph,
    is_connected,
    make_clique,
    make_cycle,
    read_edge_list,
    sample_matching_partners,
    sample_regular_multigraph,
    scale_weights,
    uniform_clique_weight,
    union_of_matchings,
    write_edge_list,
)
from sparselab.cuts import cut_value
from sparselab.rng import derive_seed, make_generator

from helpers import dict_coalesce, random_connected_graph, sample_matching_oracle


class TestWeightedGraph:
    def test_accumulates_parallel_edges(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0, 2)])
        (e,) = list(g.edges())
        assert (e.weight, e.multiplicity) == (3.0, 3)

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidArgumentError):
            WeightedGraph(3, [(1, 1, 1.0)])
        with pytest.raises(InvalidArgumentError):
            WeightedGraph(3, [(2, 1, 1.0)])
        with pytest.raises(InvalidArgumentError):
            WeightedGraph(3, [(0, 3, 1.0)])
        with pytest.raises(InvalidArgumentError):
            WeightedGraph(3, [(0, 1, -0.5)])
        with pytest.raises(InvalidArgumentError):
            WeightedGraph(0)

    def test_rejects_total_weight_that_overflows(self):
        # each weight is finite, but every sum over them (a cut, a degree) is inf
        for build in (
            lambda: WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e308)]),
            lambda: WeightedGraph(2, [(0, 1, 1e308), (0, 1, 1e308)]),
            lambda: make_cycle(6, 1e308),
            lambda: scale_weights(make_cycle(6, 1.0), 1e308),
        ):
            with pytest.raises(InvalidArgumentError, match="total edge weight inf is not finite"):
                build()
        assert WeightedGraph(3, [(0, 1, 1e308), (1, 2, 7e307)]).total_weight == 1.7e308

    def test_handshake_identity(self):
        g = sample_regular_multigraph(20, 5, seed=3)
        rep = degree_report(g)
        assert rep.weighted.sum() == pytest.approx(2 * g.total_weight, rel=1e-12)

    def test_bundle_degrees_count_multiplicity(self):
        rep = degree_report(WeightedGraph(2, [(0, 1, 3.0, 3)]))
        assert np.allclose(rep.weighted, 3.0)
        assert np.all(rep.combinatorial == 3)


class TestClique:
    def test_triangle(self):
        g = make_clique(3, 1.0)
        assert g.num_bundles == 3
        assert all(e.weight == 1.0 for e in g.edges())

    def test_quarter_weight_degrees(self):
        rep = degree_report(make_clique(4, 0.25))
        assert np.allclose(rep.weighted, 0.75)
        assert rep.combinatorial_min == rep.combinatorial_max == 3

    def test_singleton_cut(self):
        g = make_clique(5, 1.0)
        assert cut_value(g, [0]) == pytest.approx(4.0)

    def test_rejects_small_or_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            make_clique(1, 1.0)
        with pytest.raises(InvalidArgumentError):
            make_clique(4, 0.0)

    def test_uniform_clique_detection(self):
        assert uniform_clique_weight(make_clique(6, 0.5)) == 0.5
        assert uniform_clique_weight(sample_regular_multigraph(6, 2, 0)) is None

    @pytest.mark.parametrize("n, w", [(1, 1.0), (4, 0.0), (4, math.nan), (4, -1.0), (4, math.inf), (4.0, 1.0)])
    def test_clique_value_rejects_bad_arguments(self, n, w):
        with pytest.raises(InvalidArgumentError):
            Clique(n, w)

    def test_clique_value_cuts_match_the_built_clique(self):
        c = Clique(np.int64(6), 1)
        assert (type(c.n), type(c.w)) == (int, float) and c == Clique(6, 1.0)
        assert [c.cut(k) for k in range(7)] == [cut_value(make_clique(6, 1.0), range(k)) for k in range(7)]


class TestRegularSampler:
    def test_two_vertices_collapse_to_one_bundle(self):
        g = sample_regular_multigraph(2, 3, seed=123)
        (e,) = list(g.edges())
        assert (e.u, e.v, e.weight, e.multiplicity) == (0, 1, 3.0, 3)

    def test_degrees_and_total_weight(self):
        g = sample_regular_multigraph(10, 4, seed=7)
        assert np.all(g.combinatorial_degrees() == 4)
        assert g.total_weight == pytest.approx(20.0)

    def test_every_vertex_degree_d(self):
        for seed in range(5):
            g = sample_regular_multigraph(100, 7, seed=derive_seed(5, seed))
            assert np.all(g.combinatorial_degrees() == 7)

    def test_rejects_odd_n(self):
        with pytest.raises(InvalidArgumentError):
            sample_regular_multigraph(7, 3, seed=0)

    def test_deterministic_given_seed(self):
        assert sample_regular_multigraph(40, 6, seed=9) == sample_regular_multigraph(40, 6, seed=9)
        assert sample_regular_multigraph(40, 6, seed=9) != sample_regular_multigraph(40, 6, seed=10)

    def test_parallel_edge_rate_matches_collision_expectation(self):
        # E[sum over bundles of C(mult, 2)] equals C(d,2) * (n/2) / (n-1):
        # each unordered pair of matchings shares (n/2)/(n-1) edges on average.
        n, d, seeds = 1000, 8, 100
        total = 0
        for t in range(seeds):
            g = sample_regular_multigraph(n, d, seed=derive_seed(77, t))
            total += sum(math.comb(e.multiplicity, 2) for e in g.edges())
        mean = total / seeds
        expected = math.comb(d, 2) * (n / 2) / (n - 1)
        sigma = math.sqrt(expected / seeds)  # Poisson-scale fluctuation of the mean
        assert abs(mean - expected) < 5 * sigma


class TestMatchingSampler:
    @settings(max_examples=150, deadline=None)
    @given(
        half=st.integers(1, 200), d=st.integers(1, 20), seed=st.integers(0, 2 ** 64 - 1),
        cells=st.sampled_from([1, 7, 300, graph._SHUFFLE_CELLS]),
    )
    def test_table_equals_one_matching_at_a_time(self, half, d, seed, cells):
        # small cell counts split the table into blocks of rows, one shuffle call each
        n = 2 * half
        batched, oracle = make_generator(seed), make_generator(seed)
        with mock.patch.object(graph, "_SHUFFLE_CELLS", cells):
            table = sample_matching_partners(batched, n, d)
        assert table.shape == (d, n) and table.dtype == np.int64
        assert np.array_equal(table, np.stack([sample_matching_oracle(oracle, n) for _ in range(d)]))
        assert batched.bit_generator.state == oracle.bit_generator.state
        # each row is a fixed-point-free involution: a perfect matching
        assert np.all(table != np.arange(n))
        assert np.array_equal(np.take_along_axis(table, table, axis=1), np.broadcast_to(np.arange(n), (d, n)))

    def test_regular_multigraph_is_union_of_oracle_matchings(self):
        rng = make_generator(11)
        partners = np.stack([sample_matching_oracle(rng, 100) for _ in range(7)])
        g, expected = sample_regular_multigraph(100, 7, seed=11), union_of_matchings(partners)
        assert g == expected and np.array_equal(g.matchings, expected.matchings)


class TestScaleWeights:
    def test_identity_scale(self):
        g = make_clique(4, 1.0)
        assert scale_weights(g, 1.0) == g

    def test_regular_scaled_to_clique_degrees(self):
        g = scale_weights(sample_regular_multigraph(10, 4, seed=1), 9 / 4)
        assert np.allclose(g.weighted_degrees(), 9.0)

    def test_cycle_halved(self):
        from sparselab.graph import make_cycle

        g = scale_weights(make_cycle(6, 1.0), 0.5)
        assert np.allclose(g.weighted_degrees(), 1.0)

    def test_composition_exact_on_dyadics(self):
        g = WeightedGraph(4, [(0, 1, 3.0), (1, 2, 0.5), (2, 3, 1.25)])
        assert scale_weights(scale_weights(g, 0.5), 4.0) == scale_weights(g, 2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            scale_weights(make_clique(3, 1.0), 0.0)


class TestFirstMatchings:
    def test_full_prefix_is_identity(self):
        g = sample_regular_multigraph(10, 6, seed=4)
        assert first_matchings_subgraph(g, 6) == g

    def test_single_matching(self):
        g = sample_regular_multigraph(10, 6, seed=4)
        m1 = first_matchings_subgraph(g, 1)
        assert m1.num_bundles == 5
        assert np.all(m1.combinatorial_degrees() == 1)

    def test_prefix_equals_replayed_generator(self):
        big = sample_regular_multigraph(200, 16, seed=3)
        assert first_matchings_subgraph(big, 4) == sample_regular_multigraph(200, 4, seed=3)

    def test_errors(self):
        g = sample_regular_multigraph(10, 6, seed=4)
        with pytest.raises(InvalidArgumentError):
            first_matchings_subgraph(g, 7)
        with pytest.raises(UnsupportedInputError):
            first_matchings_subgraph(make_clique(4, 1.0), 1)


class TestCollapse:
    def test_bundle_becomes_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 3.0, 3)])
        c = collapse_multiedges(g)
        (e,) = list(c.edges())
        assert (e.weight, e.multiplicity) == (3.0, 1)

    def test_identity_on_simple(self):
        g = make_clique(5, 0.3)
        assert collapse_multiedges(g) == g

    def test_preserves_all_cuts(self):
        g = sample_regular_multigraph(12, 6, seed=2)
        c = collapse_multiedges(g)
        from itertools import combinations

        for size in range(1, 7):
            for s in combinations(range(12), size):
                assert cut_value(g, s) == pytest.approx(cut_value(c, s), abs=1e-12)

    def test_preserves_half_cut_at_n50(self):
        g = sample_regular_multigraph(50, 10, seed=2)
        s = range(25)
        assert cut_value(g, s) == pytest.approx(cut_value(collapse_multiedges(g), s))


class TestPersistence:
    def test_empty_graph_roundtrip(self, tmp_path):
        path = tmp_path / "empty.edges"
        write_edge_list(WeightedGraph(5), path)
        assert read_edge_list(path) == WeightedGraph(5)
        assert path.read_text().strip() == "n 5"

    def test_k3_three_lines(self, tmp_path):
        path = tmp_path / "k3.edges"
        write_edge_list(make_clique(3, 1.0), path)
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 4  # header + 3 edges

    def test_regular_roundtrip_identical(self, tmp_path):
        g = sample_regular_multigraph(40, 6, seed=9)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_roundtrip_hundred_random_graphs(self, tmp_path):
        rng = make_generator(2024)
        for i in range(100):
            n = int(rng.integers(2, 30))
            g = random_connected_graph(rng, n, int(rng.integers(0, 3 * n)))
            path = tmp_path / f"g{i}.edges"
            write_edge_list(g, path)
            assert read_edge_list(path) == g, f"round trip failed for graph {i}"

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 4\n0 1 1.0 1\n0 1 2.0 1\n")
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            read_edge_list(path)
        path.write_text("n 4\n0 nope 1.0 1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_edge_list(path)
        path.write_text("0 1 1.0 1\n")
        with pytest.raises(ParseError, match="header"):
            read_edge_list(path)

    def test_comments_and_blank_lines_ok(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# a comment\nn 3\n\n0 2 1.5 1\n# tail\n")
        g = read_edge_list(path)
        assert g.weight(0, 2) == 1.5


def test_is_connected():
    assert is_connected(make_clique(5, 1.0))
    assert not is_connected(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert not is_connected(WeightedGraph(2, [(0, 1, 0.0)]))  # zero-weight bundles do not connect


# -- coalescing against the dict accumulation ----------------------------------

# dyadic weights sum exactly; arbitrary ones make the summation order visible
_weights = st.one_of(st.integers(0, 64).map(lambda k: k / 8), st.floats(0.0, 1e6))


@st.composite
def edge_records(draw):
    """(n, records): 3- and 4-tuples over few pairs, so pairs repeat."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda p: p[0] < p[1])
    record = st.one_of(
        st.tuples(pair, _weights).map(lambda r: (*r[0], r[1])),
        st.tuples(pair, _weights, st.integers(1, 5)).map(lambda r: (*r[0], r[1], r[2])),
    )
    return n, draw(st.lists(record, max_size=30))


def _columns(records):
    us, vs, ws, ms = zip(*[r if len(r) == 4 else (*r, 1) for r in records]) if records else ((), (), (), ())
    return list(us), list(vs), list(ws), list(ms)


class TestCoalesceProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=edge_records())
    def test_matches_dict_accumulation(self, data):
        n, records = data
        g = WeightedGraph(n, records)
        assert [(e.u, e.v, e.weight, e.multiplicity) for e in g.edges()] == dict_coalesce(records)
        us, vs, ws, ms = g.edge_arrays()
        assert (us.dtype, vs.dtype, ws.dtype, ms.dtype) == (np.int64, np.int64, np.float64, np.int64)
        assert np.all(np.diff(us * n + vs) > 0)
        assert WeightedGraph.from_arrays(n, *_columns(records)) == g

    @pytest.mark.parametrize(
        "bad",
        [(1, 1, 1.0, 1), (2, 1, 1.0, 1), (-1, 1, 1.0, 1), (0, 9, 1.0, 1), (0, 1, -0.5, 1),
         (0, 1, math.nan, 1), (0, 1, math.inf, 1), (0, 1, 1.0, 0), (0, 1, 1.0, -2)],
    )
    @settings(max_examples=20, deadline=None)
    @given(data=edge_records(), where=st.integers(0, 30))
    def test_bad_records_raise(self, bad, data, where):
        n, records = data
        records = records[:where] + [bad] + records[where:]
        pair = f"({bad[0]}, {bad[1]})"
        with pytest.raises(InvalidArgumentError, match=re.escape(pair)):
            WeightedGraph(n, records)
        with pytest.raises(InvalidArgumentError, match=re.escape(pair)):
            WeightedGraph.from_arrays(n, *_columns(records))
