import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import cuts, graph
from sparselab.errors import DegenerateInputError, InvalidArgumentError, ParseError, UnsupportedInputError
from sparselab.graph import (
    MAX_VERTICES,
    Clique,
    WeightedGraph,
    collapse_multiedges,
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
from sparselab.rng import derive_seed, make_generator

from helpers import (
    brute_cut,
    bundles,
    combinatorial_degrees,
    connected_component,
    dict_coalesce,
    random_connected_graph,
    sample_matching_oracle,
)


class TestWeightedGraph:
    def test_accumulates_parallel_edges(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0, 2)])
        assert bundles(g) == [(0, 1, 3.0, 3)]

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
        assert g.weighted_degrees().sum() == pytest.approx(2 * g.total_weight, rel=1e-12)

    def test_bundle_degrees_count_multiplicity(self):
        g = WeightedGraph(2, [(0, 1, 3.0, 3)])
        assert np.allclose(g.weighted_degrees(), 3.0)
        assert np.all(combinatorial_degrees(g) == 3)


class TestClique:
    def test_triangle(self):
        g = make_clique(3, 1.0)
        assert g.num_bundles == 3
        assert g.edge_arrays()[2].tolist() == [1.0, 1.0, 1.0]

    def test_quarter_weight_degrees(self):
        g = make_clique(4, 0.25)
        assert np.allclose(g.weighted_degrees(), 0.75)
        assert np.all(combinatorial_degrees(g) == 3)

    def test_singleton_cut(self):
        g = make_clique(5, 1.0)
        assert brute_cut(g, [0]) == pytest.approx(4.0)

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
        assert [c.cut(k) for k in range(7)] == [brute_cut(make_clique(6, 1.0), range(k)) for k in range(7)]


class TestRegularSampler:
    def test_two_vertices_collapse_to_one_bundle(self):
        g = sample_regular_multigraph(2, 3, seed=123)
        assert bundles(g) == [(0, 1, 3.0, 3)]

    def test_degrees_and_total_weight(self):
        g = sample_regular_multigraph(10, 4, seed=7)
        assert np.all(combinatorial_degrees(g) == 4)
        assert g.total_weight == pytest.approx(20.0)

    def test_every_vertex_degree_d(self):
        for seed in range(5):
            g = sample_regular_multigraph(100, 7, seed=derive_seed(5, seed))
            assert np.all(combinatorial_degrees(g) == 7)

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
            total += sum(math.comb(m, 2) for m in g.edge_arrays()[3].tolist())
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
        assert np.all(combinatorial_degrees(m1) == 1)

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
        assert bundles(c) == [(0, 1, 3.0, 1)]

    def test_identity_on_simple(self):
        g = make_clique(5, 0.3)
        assert collapse_multiedges(g) == g

    def test_preserves_all_cuts(self):
        g = sample_regular_multigraph(12, 6, seed=2)
        c = collapse_multiedges(g)
        from itertools import combinations

        for size in range(1, 7):
            for s in combinations(range(12), size):
                assert brute_cut(g, s) == pytest.approx(brute_cut(c, s), abs=1e-12)

    def test_preserves_half_cut_at_n50(self):
        g = sample_regular_multigraph(50, 10, seed=2)
        s = range(25)
        assert brute_cut(g, s) == pytest.approx(brute_cut(collapse_multiedges(g), s))


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

    _GOOD = ["# edges", "n 6", "0 1 1.0 1", "", "1 2 0.5 2", "2 3 1.5 1", "# more", "3 4 2.0 1", "4 5 1.0 3"]

    @pytest.mark.parametrize("bad, message", [
        ("0 5 1.0", "expected 'u v weight mult', got 3 fields"),
        ("0 5 1.0 1 7", "expected 'u v weight mult', got 5 fields"),
        ("0 x 1.0 1", "unparseable edge fields \\['0', 'x', '1.0', '1'\\]"),
        ("0 5 heavy 1", "unparseable edge fields"),
        ("0 5 1.0 1.5", "unparseable edge fields"),
        ("5 0 1.0 1", "edge \\(5, 0\\) violates 0 <= u < v < n=6"),
        ("0 6 1.0 1", "edge \\(0, 6\\) violates"),
        ("-1 2 1.0 1", "edge \\(-1, 2\\) violates"),
        ("0 5 -2.0 1", "invalid weight -2.0"),
        ("0 5 nan 1", "invalid weight nan"),
        ("0 5 inf 1", "invalid weight inf"),
        ("0 5 1.0 0", "invalid multiplicity 0"),
        ("1 2 3.0 1", "duplicate pair \\(1, 2\\)"),
    ])
    def test_bad_line_in_the_middle_names_its_line(self, tmp_path, bad, message):
        # the bad line is line 7 of 10; a later bad line of another kind must not win
        lines = self._GOOD[:6] + [bad] + self._GOOD[6:] + ["9 9 -1 0"]
        path = tmp_path / "bad.edges"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^line 7: {message}") as err:
            read_edge_list(path)
        assert err.value.line_number == 7

    @pytest.mark.parametrize("bad, message", [
        ("1 2 -1.0 1", "invalid weight -1.0"),  # a repeated pair with a bad weight: the weight is found first
        ("2 1 1.0 0", "edge \\(2, 1\\) violates"),  # a bad range and a bad multiplicity: the range first
        ("1 2 1.0 0", "invalid multiplicity 0"),
    ])
    def test_a_line_with_two_faults_names_the_first(self, tmp_path, bad, message):
        path = tmp_path / "bad.edges"
        path.write_text("\n".join(self._GOOD + [bad]) + "\n")
        with pytest.raises(ParseError, match=f"^line 10: {message}"):
            read_edge_list(path)

    def test_a_pair_past_n_is_out_of_range_not_a_repeat(self, tmp_path):
        # 0 * 6 + 8 is the key of the good line "1 2 0.5 2", 1 * 6 + 2: the range check comes first
        path = tmp_path / "bad.edges"
        path.write_text("\n".join(self._GOOD + ["0 8 1.0 1"]) + "\n")
        with pytest.raises(ParseError, match="^line 10: edge \\(0, 8\\) violates 0 <= u < v < n=6$"):
            read_edge_list(path)

    def test_a_multiplicity_past_int64_is_refused_at_its_line(self, tmp_path):
        # checked as the line is parsed, so it comes before the later bad line, in file order
        path = tmp_path / "bad.edges"
        path.write_text("\n".join(self._GOOD + [f"0 5 1.0 {2**64}", "0 x 1.0 1"]) + "\n")
        with pytest.raises(ParseError, match=f"^line 10: invalid multiplicity {2**64}$"):
            read_edge_list(path)
        path.write_text("\n".join(self._GOOD + [f"0 5 1.0 {2**63 - 1}"]) + "\n")
        assert (0, 5, 1.0, 2**63 - 1) in bundles(read_edge_list(path))  # exact, not rounded through a float

    def test_a_vertex_count_whose_pair_keys_wrap_is_refused(self, tmp_path):
        # at n = 4e9 the key u * n + v wraps in int64 and would give these bundles negative vertex ids;
        # neither the read nor the constructor allocates anything n-sized before refusing
        assert MAX_VERTICES == 3_037_000_499 and MAX_VERTICES**2 < 2**63 <= (MAX_VERTICES + 1) ** 2
        path = tmp_path / "wrap.edges"
        path.write_text("n 4000000000\n3999999997 3999999999 1.0 1\n3999999998 3999999999 2.0 1\n")
        with pytest.raises(ParseError, match="^line 1: vertex count must be in"):
            read_edge_list(path)
        with pytest.raises(InvalidArgumentError, match=f"in \\[1, {MAX_VERTICES}\\], got 4000000000$"):
            WeightedGraph.from_arrays(4_000_000_000, [3999999997, 3999999998], [3999999999] * 2, [1.0, 2.0])
        top = WeightedGraph.from_arrays(MAX_VERTICES, [MAX_VERTICES - 3, MAX_VERTICES - 2], [MAX_VERTICES - 1] * 2, [1.0, 2.0])
        assert bundles(top) == [(MAX_VERTICES - 3, MAX_VERTICES - 1, 1.0, 1), (MAX_VERTICES - 2, MAX_VERTICES - 1, 2.0, 1)]

    def test_reading_keeps_no_record_per_line(self, tmp_path):
        # about 2e4 bundles; a tuple per line in a list and a pair per line in a set peaked at 430 B a line,
        # and the set of repeat keys, kept alive while the columns were coalesced, at 231
        g = sample_regular_multigraph(5000, 8, seed=0)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        read_edge_list(path)  # imports done before tracing
        tracemalloc.start()
        try:
            read = read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == g
        assert peak <= 215 * (g.num_bundles + 1), f"{peak / (g.num_bundles + 1):.0f} B a line"

    def test_written_lines_are_the_bundles_in_order(self, tmp_path):
        g = WeightedGraph(7, [(0, 6, 0.1, 3), (2, 3, 5e-324, 1), (1, 4, 1.7976931348623157e308, 2), (0, 1, 1 / 3, 1)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        lines = [f"{u} {v} {w!r} {m}\n" for u, v, w, m in bundles(g)]
        assert path.read_text() == "n 7\n" + "".join(lines)

    def test_good_lines_between_comments_and_blanks_read_as_one_graph(self, tmp_path):
        path = tmp_path / "good.edges"
        path.write_text("\r\n".join(self._GOOD) + "\r\n")
        assert read_edge_list(path) == WeightedGraph(
            6, [(0, 1, 1.0, 1), (1, 2, 0.5, 2), (2, 3, 1.5, 1), (3, 4, 2.0, 1), (4, 5, 1.0, 3)]
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_roundtrip_extreme_weights(self, tmp_path_factory, data):
        small = st.one_of(
            st.just(0.0),
            st.floats(5e-324, 2.2250738585072014e-308),  # subnormal, and the smallest normal
            st.floats(1e-6, 1e6),
        )
        n = data.draw(st.integers(2, 12), label="n")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
        edges = []
        for i, (u, v) in enumerate(data.draw(st.lists(pairs, unique=True, max_size=20), label="pairs")):
            # one bundle near 1e308, and perhaps one ulp below it: the total stays finite
            w = data.draw(small | st.floats(1e307, 8e307) if i == 0 else small, label="weight")
            if i % 2 and data.draw(st.booleans(), label="ulp"):
                w = math.nextafter(edges[-1][2], 0.0)  # one ulp below the previous bundle's weight
            edges.append((u, v, w, data.draw(st.integers(1, 5), label="mult")))
        g = WeightedGraph(n, edges)
        path = tmp_path_factory.getbasetemp() / "roundtrip.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_comments_and_blank_lines_ok(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# a comment\nn 3\n\n0 2 1.5 1\n# tail\n")
        g = read_edge_list(path)
        assert bundles(g) == [(0, 2, 1.5, 1)]

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read .*No such file"):
            read_edge_list(tmp_path / "missing.edges")

    def test_directory_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read .*Is a directory"):
            read_edge_list(tmp_path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bytes.edges"
        path.write_bytes(b"n 3\n0 1 1.0 1\n# \xff\n")
        with pytest.raises(ParseError, match="cannot read .*can't decode byte 0xff"):
            read_edge_list(path)

    def test_unwritable_path_is_an_invalid_argument(self, tmp_path):
        for dest in (tmp_path / "missing" / "g.edges", tmp_path):
            with pytest.raises(InvalidArgumentError, match=f"cannot write the edge list: .*{re.escape(str(dest))}"):
                write_edge_list(make_cycle(4), dest)


def test_is_connected():
    assert is_connected(make_clique(5, 1.0))
    assert not is_connected(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert not is_connected(WeightedGraph(2, [(0, 1, 0.0)]))  # zero-weight bundles do not connect


# -- component labels against the BFS oracle ---------------------------------------


@st.composite
def labelling_graphs(draw):
    """Random graphs with zero-weight bundles and isolated vertices, and long
    paths under a random relabelling, cut into a few pieces now and then."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs = list(zip(order, order[1:]))
        weights = [0.0 if draw(st.integers(0, 15)) == 0 else 1.0 for _ in pairs]
    else:
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=2 * n))
        weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(min(u, v), max(u, v), w) for (u, v), w in zip(pairs, weights)])


class TestComponentLabels:
    @settings(max_examples=120, deadline=None)
    @given(g=labelling_graphs())
    def test_labels_match_breadth_first_search(self, g):
        labels = graph._component_labels(g)
        assert labels.tolist() == [connected_component(g, v)[0] for v in range(g.n)]
        comp = connected_component(g, 0)
        assert is_connected(g) == (len(comp) == g.n)
        if len(comp) == g.n:
            cuts._require_connected_reference(g)
            return
        witness = comp if len(comp) <= g.n // 2 else sorted(set(range(g.n)) - set(comp))
        with pytest.raises(DegenerateInputError) as err:
            cuts._require_connected_reference(g)
        assert str(err.value) == (
            f"reference graph is disconnected; cut of S={tuple(witness)} is zero, no finite relative error exists"
        )

    def test_relabelled_long_path(self):
        n = 5000
        order = make_generator(3).permutation(n)
        us, vs = np.minimum(order[:-1], order[1:]), np.maximum(order[:-1], order[1:])
        path = WeightedGraph.from_arrays(n, us, vs, np.ones(n - 1))
        assert is_connected(path)
        cut = WeightedGraph.from_arrays(n, us, vs, np.where(np.arange(n - 1) == n // 3, 0.0, 1.0))
        head, tail = order[: n // 3 + 1], order[n // 3 + 1 :]
        expected = np.empty(n, dtype=np.int64)
        expected[head], expected[tail] = head.min(), tail.min()
        assert np.array_equal(graph._component_labels(cut), expected)
        assert connected_component(cut, int(tail[0])) == sorted(tail.tolist())


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
        assert bundles(g) == dict_coalesce(records)
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
