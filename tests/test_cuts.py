import math
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import cuts
from sparselab.cuts import (
    REF_DENSITY,
    REF_EXPECTATION,
    cut_error_exhaustive,
    cut_error_sampled,
    cut_profile,
    extreme_cuts_at_size,
    extreme_cuts_at_sizes,
    regular_vs_clique_exhaustive,
)
from sparselab.errors import DegenerateInputError, InvalidArgumentError, SizeLimitError
from sparselab.graph import (
    Clique,
    WeightedGraph,
    first_matchings_subgraph,
    make_clique,
    make_cycle,
    sample_regular_multigraph,
    scale_weights,
)
from sparselab.rng import derive_seed, make_generator
from sparselab.spectral import spectral_error

from helpers import (
    IncrementalCut,
    brute_cut,
    brute_cut_error,
    brute_interior,
    clique_pairs_oracle,
    connected_graphs,
    cut_error_exhaustive_oracle,
    cut_profile_oracle,
    extreme_cuts_oracle,
    graph_pairs,
    gray_scan_oracle,
    pair_scan_oracle,
    random_connected_graph,
    regular_vs_clique_oracle,
)


def cut_value(graph: WeightedGraph, subset) -> float:
    """cut(S) through the sampled mode's batch kernel."""
    return float(cuts._subset_cuts(graph, np.array([list(subset)], dtype=np.int64))[0])


class TestCutValue:
    def test_clique_singleton(self):
        assert cut_value(make_clique(5, 1.0), [0]) == pytest.approx(4.0)

    def test_clique_identity_all_sizes(self):
        g = make_clique(8, 1.0)
        for k in range(1, 8):
            assert cut_value(g, range(k)) == pytest.approx(k * (8 - k))

    def test_cycle_adjacent_pair(self):
        assert cut_value(make_cycle(4, 1.5), [0, 1]) == pytest.approx(3.0)

    def test_empty_and_full_are_zero(self):
        g = make_clique(5, 1.0)
        assert cut_value(g, []) == 0.0
        assert cut_value(g, range(5)) == 0.0

    def test_multiplicity_counts_through_weight(self):
        g = WeightedGraph(4, [(0, 1, 1.0, 1), (0, 1, 1.0, 1), (2, 3, 1.0, 1)])
        assert cut_value(g, [0]) == pytest.approx(2.0)


class TestInteriorEdgeWeight:
    def test_k4_triple(self):
        assert brute_interior(make_clique(4, 1.0), [0, 1, 2]) == pytest.approx(3.0)

    def test_small_sets_trivial(self):
        g = make_clique(6, 1.0)
        assert brute_interior(g, []) == 0.0
        assert brute_interior(g, [3]) == 0.0

    def test_regularity_identity(self):
        g = sample_regular_multigraph(20, 5, seed=1)
        s = range(10)
        assert cut_value(g, s) + 2 * brute_interior(g, s) == pytest.approx(10 * 5)

    def test_regularity_identity_every_size(self):
        g = sample_regular_multigraph(16, 4, seed=8)
        rng = make_generator(0)
        for _ in range(50):
            k = int(rng.integers(1, 16))
            s = rng.choice(16, size=k, replace=False)
            assert cut_value(g, s) + 2 * brute_interior(g, s) == pytest.approx(k * 4)


class TestExhaustiveError:
    def test_self_sparsification(self):
        g = make_clique(6, 1.0)
        rep = cut_error_exhaustive(g, g)
        assert rep.epsilon == 0.0
        assert rep.subsets_examined == 2 ** 5 - 1

    def test_c4_vs_k4(self):
        rep = cut_error_exhaustive(make_cycle(4, 1.5), Clique(4, 1.0))
        assert rep.epsilon == pytest.approx(0.5, abs=1e-12)
        assert rep.witness == (0, 2)

    def test_matches_brute_force(self):
        rng = make_generator(31)
        for _ in range(10):
            n = int(rng.integers(4, 11))
            h = random_connected_graph(rng, n, int(rng.integers(0, n)))
            g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
            expected, _ = brute_cut_error(h, g)
            assert cut_error_exhaustive(h, g).epsilon == pytest.approx(expected, rel=1e-12)

    def test_matches_profile_max_with_expectation_reference(self):
        h_raw = sample_regular_multigraph(16, 4, seed=5)
        h = scale_weights(h_raw, 15 / 4)
        rep = cut_error_exhaustive(h, Clique(16, 1.0))
        prof = cut_profile(h_raw, 4, reference=REF_EXPECTATION)
        assert rep.epsilon == pytest.approx(prof.max_abs_deviation(), rel=1e-12)

    def test_vertex_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            cut_error_exhaustive(make_clique(4, 1.0), make_clique(5, 1.0))
        for measure in (cut_error_exhaustive, lambda h, g: cut_error_sampled(h, g, 10, [2], seed=0)):
            with pytest.raises(InvalidArgumentError, match="vertex sets differ"):
                measure(make_clique(4, 1.0), Clique(5, 1.0))

    def test_degenerate_reference_names_witness(self):
        h = make_clique(4, 1.0)
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DegenerateInputError, match="S="):
            cut_error_exhaustive(h, g)

    def test_size_cap(self):
        g = make_clique(31, 1.0)
        with pytest.raises(SizeLimitError, match="sampled"):
            cut_error_exhaustive(g, g)


class TestIncrementalCut:
    def test_full_gray_walk_matches_scratch_small(self):
        rng = make_generator(17)
        for n in (6, 9, 12):
            h = random_connected_graph(rng, n, 2 * n)
            inc = IncrementalCut(h)
            # walk the full binary-reflected Gray sequence over all n vertices
            for step in range(1, 2 ** n):
                v = (step & -step).bit_length() - 1
                got = inc.flip(v)
                expected = brute_cut(h, inc.members())
                assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_random_flips_match_scratch_n30(self):
        rng = make_generator(18)
        h = random_connected_graph(rng, 30, 60)
        inc = IncrementalCut(h)
        for _ in range(2000):
            v = int(rng.integers(0, 30))
            got = inc.flip(v)
        expected = brute_cut(h, inc.members())
        assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))


class TestSampledError:
    def test_identical_graphs_zero(self):
        g = sample_regular_multigraph(40, 4, seed=0)
        rep = cut_error_sampled(g, g, samples_per_size=10, sizes=[5, 10], seed=1)
        assert rep.epsilon == 0.0
        assert rep.lower_bound

    def test_enumeration_fallback_matches_exhaustive(self):
        rng = make_generator(9)
        h = random_connected_graph(rng, 12, 20)
        g = random_connected_graph(rng, 12, 30)
        exact = cut_error_exhaustive(h, g)
        # samples exceed C(12, k) for every k, so each size enumerates fully
        sampled = cut_error_sampled(h, g, samples_per_size=1000, sizes=range(1, 7), seed=0)
        assert sampled.epsilon == pytest.approx(exact.epsilon, rel=1e-12)

    def test_sampled_never_exceeds_exhaustive(self):
        rng = make_generator(10)
        for _ in range(5):
            h = random_connected_graph(rng, 14, 25)
            g = random_connected_graph(rng, 14, 30)
            exact = cut_error_exhaustive(h, g).epsilon
            sampled = cut_error_sampled(h, g, samples_per_size=20, sizes=[3, 5, 7], seed=3).epsilon
            assert sampled <= exact + 1e-12

    def test_deterministic_given_seed(self):
        h = sample_regular_multigraph(60, 6, seed=1)
        g = Clique(60, 1.0)
        a = cut_error_sampled(h, g, 50, [10, 20, 30], seed=5)
        b = cut_error_sampled(h, g, 50, [10, 20, 30], seed=5)
        assert a.epsilon == b.epsilon and a.witness == b.witness


@st.composite
def pair_scan_graphs(draw):
    """Graphs on 3..16 vertices: d-regular unions of matchings, where every pair
    without a bundle ties, scaled by exact or inexact factors; or random
    multigraphs with zero-weight bundles, often disconnected."""
    if draw(st.booleans()):
        n = 2 * draw(st.integers(2, 8))
        h = sample_regular_multigraph(n, draw(st.integers(1, n - 1)), draw(st.integers(0, 2**32)))
        return scale_weights(h, draw(st.sampled_from([1.0, 0.5, (n - 1) / 3, 19 / 8])))
    n = draw(st.integers(3, 16))
    weight = st.one_of(st.just(0.0), st.integers(1, 3).map(float), st.floats(0.25, 4.0))
    records = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight), max_size=n * n // 2))
    return WeightedGraph(n, [(min(u, v), max(u, v), w) for u, v, w in records if u != v])


class TestCliquePairScan:
    @settings(max_examples=150, deadline=None)
    @given(h=pair_scan_graphs(), w=st.sampled_from([1.0, 0.3, 1 / 7]), slab=st.sampled_from([None, 1]))
    def test_equals_the_dense_scan(self, h, w, slab):
        g = Clique(h.n, w)
        with mock.patch.object(cuts, "_SLAB_CELLS", slab or cuts._SLAB_CELLS):  # 1: one row per slab
            assert cuts._pair_scan(h, g) == pair_scan_oracle(h, g)
            # the pairs alone, also where a singleton is worse than every pair
            assert cuts._clique_pairs(h, h.weighted_degrees(), g.cut(2)) == clique_pairs_oracle(h, g.cut(2))

    @pytest.mark.parametrize(
        "h, w",
        [
            (WeightedGraph(3, []), 1.0),
            (WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]), 1.0),
            (WeightedGraph(3, [(1, 2, 0.0)]), 1.0),
            (WeightedGraph(3, [(0, 2, 2.0)]), 1.0),
            # every degree is 3: the zero-weight bundle (0, 1) ties the pairs without one and comes first
            (WeightedGraph(4, [(0, 1, 0.0), (0, 2, 3.0), (1, 3, 3.0)]), 0.25),
            (scale_weights(sample_regular_multigraph(1000, 4, 1), 999 / 4), 1.0),
        ],
        ids=["n3-empty", "n3-complete", "n3-zero-bundle", "n3-one-edge", "zero-bundle-tie", "regular-n1000"],
    )
    def test_equals_the_dense_scan_on_fixed_graphs(self, h, w):
        assert cuts._pair_scan(h, Clique(h.n, w)) == pair_scan_oracle(h, Clique(h.n, w))

    def test_regular_ties_take_the_first_pair_without_a_bundle(self):
        # against K_6 a pair cuts 8; on C_6 of weight 3 a pair cuts 12, or 6 with an edge,
        # and a vertex cuts 6 against 5: the pairs without an edge all tie at the worst, 1/2
        best, witness, examined = cuts._pair_scan(make_cycle(6, 3.0), Clique(6, 1.0))
        assert (best, witness, examined) == (0.5, (0, 2), 6 + 15)


class TestGraphPairScan:
    @settings(max_examples=50, deadline=None)
    @given(pair=graph_pairs(max_n=12), slab=st.sampled_from([None, 1, 20]))
    def test_equals_the_dense_scan(self, pair, slab):
        h, g = pair
        with mock.patch.object(cuts, "_SLAB_CELLS", slab or cuts._SLAB_CELLS):  # 1: one row per slab
            assert cuts._pair_scan(h, g) == pair_scan_oracle(h, g)
            assert cuts._pair_scan(g, h) == pair_scan_oracle(g, h)

    def test_first_zero_reference_pair_is_named(self):
        # {1, 2} is a component of the reference, so its pair cut is zero; slabs of one row
        h, g = make_cycle(5, 1.0), WeightedGraph(5, [(0, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0), (1, 2, 1.0)])
        with mock.patch.object(cuts, "_SLAB_CELLS", 1), pytest.raises(DegenerateInputError, match=r"S=\(1, 2\)"):
            cuts._pair_scan(h, g)
        with pytest.raises(DegenerateInputError, match=r"S=\(1, 2\)"):
            pair_scan_oracle(h, g)

    def test_slabs_hold_no_dense_matrix(self):
        # the dense scan held two n x n matrices, 2 * 8 * 2000**2 bytes = 64 MB at n = 2000
        g = sample_regular_multigraph(2000, 16, 0)
        h = scale_weights(first_matchings_subgraph(g, 4), 4.0)
        tracemalloc.start()
        try:
            cuts._pair_scan(h, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCutProfile:
    def test_clique_zero_under_expectation_reference(self):
        n = 10
        prof = cut_profile(make_clique(n, 1.0), n - 1, reference=REF_EXPECTATION)
        for row in prof.rows:
            assert row.max_dev == pytest.approx(0.0, abs=1e-12)
            assert row.min_dev == pytest.approx(0.0, abs=1e-12)

    def test_single_matching_n4(self):
        # any perfect matching on 4 vertices: balanced cuts are 0 or 2 vs reference 1
        g = sample_regular_multigraph(4, 1, seed=2)
        prof = cut_profile(g, 1, reference=REF_DENSITY)
        row = prof.row(2)
        assert row.max_dev == pytest.approx(1.0)
        assert row.min_dev == pytest.approx(-1.0)
        assert row.subsets_examined == 3  # C(4,2)/2 balanced cuts

    def test_subsets_examined_counts(self):
        n = 12
        prof = cut_profile(sample_regular_multigraph(n, 3, seed=4), 3)
        for row in prof.rows:
            expected = math.comb(n, row.k) if row.k < n // 2 else math.comb(n, row.k) // 2
            assert row.subsets_examined == expected

    def test_argmax_subset_reproduces_deviation(self):
        n, d = 14, 4
        h = sample_regular_multigraph(n, d, seed=6)
        prof = cut_profile(h, d, argmax_cap=7)
        for row in prof.rows:
            assert row.argmax_subset is not None
            ref = d * row.k * (n - row.k) / n
            assert brute_cut(h, row.argmax_subset) / ref - 1.0 == pytest.approx(row.max_dev, rel=1e-12)

    def test_sampled_mode_beyond_cap(self):
        h = sample_regular_multigraph(40, 4, seed=3)
        prof = cut_profile(h, 4, samples_per_size=30, seed=9)
        assert all(r.mode == "sampled" for r in prof.rows)
        assert len(prof.rows) == 20

    def test_csv_shape(self):
        prof = cut_profile(sample_regular_multigraph(8, 3, seed=1), 3)
        lines = prof.to_csv().strip().splitlines()
        assert lines[0] == "k,alpha,max_dev,min_dev,mode,samples"
        assert len(lines) == 5


class TestCombinedScan:
    def test_matches_separate_paths(self):
        n, d = 16, 4
        h_raw = sample_regular_multigraph(n, d, seed=5)
        err, prof = regular_vs_clique_exhaustive(h_raw, d, reference=REF_EXPECTATION)
        separate = cut_error_exhaustive(scale_weights(h_raw, (n - 1) / d), Clique(n, 1.0))
        assert err.epsilon == pytest.approx(separate.epsilon, rel=1e-12)
        assert err.epsilon == pytest.approx(prof.max_abs_deviation(), rel=1e-12)
        sep_prof = cut_profile(h_raw, d, reference=REF_EXPECTATION)
        for a, b in zip(prof.rows, sep_prof.rows):
            assert a.max_dev == pytest.approx(b.max_dev, rel=1e-12)
            assert a.min_dev == pytest.approx(b.min_dev, rel=1e-12)


class TestExtremeCuts:
    def test_exhaustive_matches_enumeration(self):
        h = sample_regular_multigraph(12, 4, seed=7)
        for k in (2, 4, 6):
            hi, lo = extreme_cuts_at_sizes(h, [k])[0]
            vals = [brute_cut(h, s) for s in combinations(range(12), k)]
            if k == 6:  # balanced cuts are halved; both sides give the same value
                assert hi == pytest.approx(max(vals))
                assert lo == pytest.approx(min(vals))
            else:
                assert hi == pytest.approx(max(vals))
                assert lo == pytest.approx(min(vals))

    def test_sampled_within_exhaustive(self):
        h = sample_regular_multigraph(18, 5, seed=11)
        hi_e, lo_e = extreme_cuts_at_sizes(h, [9])[0]
        hi_s, lo_s = extreme_cuts_at_size(h, 9, samples=200, seed=1)
        assert lo_e - 1e-12 <= lo_s and hi_s <= hi_e + 1e-12


def test_gray_visit_matches_incremental_stream():
    # the oracle's block enumerator and the incremental walker follow the same
    # Gray sequence over vertices 1..n-1 with vertex 0 pinned inside; the
    # enumerator skips the full vertex set
    n = 10
    rng = make_generator(55)
    h = random_connected_graph(rng, n, 15)
    masks, stream = [], []
    for block, _, (cut_h,) in gray_scan_oracle(n, h):
        masks.extend(block.tolist())
        stream.extend(cut_h.tolist())
    inc = IncrementalCut(h, members=[0])
    walked_masks, walked = [1], [inc.cut]
    for step in range(1, 2 ** (n - 1)):
        v = (step & -step).bit_length()  # Gray flip over vertices 1..n-1
        cut = inc.flip(v)
        mask = sum(1 << u for u in inc.members())
        if mask != (1 << n) - 1:
            walked_masks.append(mask)
            walked.append(cut)
    assert masks == walked_masks
    assert np.allclose(stream, walked, atol=1e-9)


# -- properties of the one exhaustive kernel -----------------------------------

# the split point a in 1..n (drawn as a remainder mod n) and the slab size:
# one row, 7 cells, or the default; small slabs spread every block over many
# slabs, so the block reductions carry their state across slabs
_splits = st.tuples(st.integers(0, 2**16), st.sampled_from([1, 7, cuts._SLAB_CELLS]))
_references = st.sampled_from([REF_DENSITY, REF_EXPECTATION])
_examples = settings(max_examples=50, deadline=None)


@contextmanager
def _kernel(split):
    draw, slab = split
    with mock.patch.object(cuts, "_split_point", lambda n: 1 + draw % n), mock.patch.object(cuts, "_SLAB_CELLS", slab):
        yield


def _close(x):
    return pytest.approx(x, rel=1e-12, abs=1e-12)


class TestExhaustiveProperties:
    @_examples
    @given(h=connected_graphs(), split=_splits)
    def test_generator_yields_each_proper_cut_once(self, h, split):
        # every mask with vertex 0 inside is one cell of one slab, with the
        # oracle's cut value bit for bit; only the full vertex set's block is
        # not valid
        n = h.n
        oracle = {}
        for masks, _, (cut_h,) in gray_scan_oracle(n, h):
            oracle.update(zip(masks.tolist(), cut_h.tolist()))
        seen = {}
        with _kernel(split):
            kernel = cuts._SplitCuts(n, (h,))
            for _, _, _, r, c, (cut_h,) in kernel._slabs(kernel.every):
                masks = kernel.rows[r][:, None] | (kernel.cols[c] << kernel.a)[None, :]
                for m, v in zip(masks.ravel().tolist(), cut_h.ravel().tolist()):
                    assert m not in seen
                    seen[m] = v
        full = (1 << n) - 1
        assert seen.pop(full) == 0.0
        assert seen == oracle
        for m, c in seen.items():
            assert c == _close(brute_cut(h, [v for v in range(n) if m >> v & 1]))
        assert int(kernel.count.sum()) == 2 ** (n - 1) - 1
        assert kernel.size.max() < n

    @_examples
    @given(pair=graph_pairs(), clique_reference=st.booleans(), split=_splits)
    def test_cut_error_matches_brute_force(self, pair, clique_reference, split):
        h, g = pair
        if clique_reference:
            g = make_clique(h.n, 0.7)  # the oracle reads a clique reference as a graph
        with _kernel(split):
            rep = cut_error_exhaustive(h, Clique(h.n, 0.7) if clique_reference else g)
        expected, _ = brute_cut_error(h, g)
        assert rep.epsilon == _close(expected)
        assert rep.subsets_examined == 2 ** (h.n - 1) - 1
        assert 0 in rep.witness
        assert abs(brute_cut(h, rep.witness) / brute_cut(g, rep.witness) - 1.0) == _close(rep.epsilon)

    @_examples
    @given(h=connected_graphs(), d=st.integers(1, 9), reference=_references, split=_splits)
    def test_size_extremes_match_brute_force(self, h, d, reference, split):
        n = h.n
        with _kernel(split):
            prof = cut_profile(h, d, reference=reference, argmax_cap=n)
            extremes = [extreme_cuts_at_sizes(h, [k])[0] for k in range(1, n // 2 + 1)]
            ks = list(range(n // 2, 0, -2))  # one enumeration for several sizes, in any order
            assert extreme_cuts_at_sizes(h, ks) == [extremes[k - 1] for k in ks]
        assert [row.k for row in prof.rows] == list(range(1, n // 2 + 1))
        for row, (hi, lo) in zip(prof.rows, extremes):
            k = row.k
            vals = [brute_cut(h, s) for s in combinations(range(n), k)]
            ref = d * k * (n - k) / (n if reference == REF_DENSITY else n - 1)
            assert (hi, lo) == (_close(max(vals)), _close(min(vals)))
            assert row.max_dev == _close(max(vals) / ref - 1.0)
            assert row.min_dev == _close(min(vals) / ref - 1.0)
            assert row.subsets_examined == (math.comb(n, k) if 2 * k < n else math.comb(n, k) // 2)
            assert len(row.argmax_subset) == k
            assert brute_cut(h, row.argmax_subset) == _close(max(vals))

    @_examples
    @given(h=connected_graphs(), d=st.integers(1, 9), reference=_references, split=_splits)
    def test_combined_scan_matches_separate_paths(self, h, d, reference, split):
        n = h.n
        with _kernel(split):
            err, prof = regular_vs_clique_exhaustive(h, d, reference=reference)
            separate = cut_error_exhaustive(scale_weights(h, (n - 1) / d), Clique(n, 1.0))
            assert prof == cut_profile(h, d, reference=reference)
        assert err.epsilon == _close(separate.epsilon)
        assert err.subsets_examined == separate.subsets_examined


# integer weights whose totals fall on both sides of 2^23 on up to 10 vertices,
# with cuts above 2^24 that float32 would round
_large_integers = st.one_of(st.integers(1, 3), st.integers(2**18, 2**22)).map(float)


def _assert_cells_equal_the_oracle(h):
    n = h.n
    oracle = {}
    for masks, _, (cut_h,) in gray_scan_oracle(n, h):
        oracle.update(zip(masks.tolist(), cut_h.tolist()))
    kernel = cuts._SplitCuts(n, (h,))
    seen = {}
    for _, _, _, r, c, (cut_h,) in kernel._slabs(kernel.every):
        masks = kernel.rows[r][:, None] | (kernel.cols[c] << kernel.a)[None, :]
        seen.update(zip(masks.ravel().tolist(), cut_h.ravel().tolist()))
    assert seen.pop((1 << n) - 1) == 0.0
    assert seen == oracle


class TestKernelMatchesOracle:
    """Every exhaustive report equals the Gray-block oracle's with ==, witnesses included."""

    @_examples
    @given(pair=graph_pairs(), w=st.floats(0.1, 10.0), scale=st.sampled_from([1.0, 19 / 8]), split=_splits)
    def test_cut_error_reports(self, pair, w, scale, split):
        h, g = scale_weights(pair[0], scale), pair[1]
        with _kernel(split):
            for reference in (Clique(h.n, w), g):
                assert cut_error_exhaustive(h, reference) == cut_error_exhaustive_oracle(h, reference)

    @_examples
    @given(h=connected_graphs(), d=st.integers(1, 9), reference=_references, data=st.data(), split=_splits)
    def test_profiles_and_extremes(self, h, d, reference, data, split):
        n = h.n
        ks = data.draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4))
        with _kernel(split):
            assert cut_profile(h, d, reference, argmax_cap=n) == cut_profile_oracle(h, d, reference, n)
            got = regular_vs_clique_exhaustive(h, d, reference, argmax_cap=n)
            assert got == regular_vs_clique_oracle(h, d, reference, n)
            assert extreme_cuts_at_sizes(h, ks) == extreme_cuts_oracle(h, ks)

    @_examples
    @given(pair=graph_pairs(weights=_large_integers), d=st.integers(1, 9), data=st.data(), split=_splits)
    def test_integer_weights_around_the_float32_limit(self, pair, d, data, split):
        # totals on both sides of 2^23: below it one integer class counts in
        # float32, above it one 0/1 class per weight sums in float64; every
        # cell and every report must equal the oracle's bit for bit
        h, g = pair
        n = h.n
        ks = data.draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4))
        with _kernel(split):
            _assert_cells_equal_the_oracle(h)
            for reference in (Clique(n, 1.0), Clique(n, 3.5), g):
                assert cut_error_exhaustive(h, reference) == cut_error_exhaustive_oracle(h, reference)
            assert cut_profile(h, d, REF_DENSITY, argmax_cap=n) == cut_profile_oracle(h, d, REF_DENSITY, n)
            assert extreme_cuts_at_sizes(h, ks) == extreme_cuts_oracle(h, ks)

    def test_integer_total_above_the_float32_limit(self):
        # odd weights near 2^22: many cuts exceed 2^24 and are odd, so float32
        # counts of one integer class would round them
        n = 12
        odd = [2**22 + 2 * i + 1 for i in range(n)]
        cycle = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        h = WeightedGraph(n, [(u, v, w) for (u, v), w in zip(cycle, odd)] + [(0, 6, 2**22 + 5.0), (3, 9, 7.0)])
        g = WeightedGraph(n, [(u, v, 2**23 - 1 + u + v) for u, v in cycle])
        assert h.total_weight >= 2**23 and len(cuts._weight_classes(h)) > 1
        for a in (1, 6, 12):
            with _kernel((a - 1, cuts._SLAB_CELLS)):
                _assert_cells_equal_the_oracle(h)
                for reference in (Clique(n, 1.0), g):
                    assert cut_error_exhaustive(h, reference) == cut_error_exhaustive_oracle(h, reference)

    def test_one_integer_class_below_2_to_23(self):
        below = WeightedGraph(3, [(0, 1, 2.0**22), (1, 2, 2.0**22 - 1)])
        above = WeightedGraph(3, [(0, 1, 2.0**22), (1, 2, 2.0**22)])
        assert [w for w, _ in cuts._weight_classes(below)] == [1.0]
        assert [w for w, _ in cuts._weight_classes(above)] == [2.0**22]

    def test_memory_is_bounded_by_slabs(self):
        # one unslabbed 2^12 x 2^13 float64 block alone would take 256 MB
        h = sample_regular_multigraph(26, 8, seed=0)
        tracemalloc.start()
        try:
            eps = cut_error_exhaustive(h, Clique(26, 1.0)).epsilon
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        with mock.patch.object(cuts, "_SLAB_CELLS", 1):  # one row per slab
            assert cut_error_exhaustive(h, Clique(26, 1.0)).epsilon == eps

    def test_the_benchmark_graph_at_n_24(self):
        # the witness scan there covers one wide block of 638 154 cells; the examples above stop at n = 10
        h = sample_regular_multigraph(24, 8, derive_seed(0, 0))
        assert regular_vs_clique_exhaustive(h, 8) == regular_vs_clique_oracle(h, 8, REF_DENSITY, 4)

    @pytest.mark.parametrize("w", [1e20, 1e-20])
    def test_extreme_clique_weights(self, w):
        # against 1e20 every deviation rounds to 1.0, so every cell ties and the
        # witness is the first cut in Gray order; against 1e-20 the ratios reach 1e20
        n = 10
        one_class = sample_regular_multigraph(n, 4, seed=3)
        classes = scale_weights(one_class, 0.75)
        assert len(cuts._weight_classes(one_class)) == 1 and len(cuts._weight_classes(classes)) > 1
        for h in (one_class, classes):
            got = cut_error_exhaustive(h, Clique(n, w))
            assert got == cut_error_exhaustive_oracle(h, Clique(n, w))
            if w > 1.0:
                assert got.epsilon == 1.0 and got.witness == (0,)

    @_examples
    @given(
        values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
        scale=st.floats(1e-3, 1e3),
        ref=st.floats(1e-3, 1e6),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_thresholds_pick_the_cells_that_reach_the_worst_deviation(self, values, scale, ref, dtype):
        # |r(x)| == best for a cell exactly when x >= t_hi or x < t_lo, r(x) = fl(fl(scale*x)/ref) - 1;
        # each cell's neighbours in the dtype are cells too, so ties and one-step misses show
        x = np.array(values, dtype=dtype)
        x = np.concatenate([x, np.nextafter(x, dtype(np.inf)), np.nextafter(x, dtype(0))])
        signed = lambda v: np.divide(np.float64(scale) * v, ref, dtype=np.float64) - 1.0  # noqa: E731
        best = np.abs(signed(x)).max()
        t_hi = cuts._least_where(lambda v: signed(v) >= best, x.dtype, 1)[0]
        t_lo = cuts._least_where(lambda v: signed(v) > -best, x.dtype, 1)[0]
        assert ((x >= t_hi) | (x < t_lo)).tolist() == (np.abs(signed(x)) == best).tolist()
        for t, reached in ((t_hi, lambda r: r >= best), (t_lo, lambda r: r > -best)):
            assert t == np.inf or reached(signed(t))
            assert t == 0 or not reached(signed(np.nextafter(t, dtype(0))))


class TestSubsetSampling:
    @pytest.mark.parametrize("n, k, seed", [(1000, 4, 0), (1000, 64, 1), (1000, 500, 2), (2000, 1000, 3), (30, 15, 4), (6, 2, 5)])
    def test_same_subsets_as_sorted_tuples(self, n, k, seed):
        count = 20
        rng = make_generator(seed)
        if math.comb(n, k) <= count:
            expected = list(combinations(range(n), k))
        else:
            expected = [tuple(sorted(int(x) for x in rng.choice(n, size=k, replace=False))) for _ in range(count)]
        rng_new = make_generator(seed)
        got = cuts._size_k_subsets(n, k, count, rng_new)
        assert got.shape == (len(expected), k)
        assert [tuple(row) for row in got.tolist()] == expected
        assert rng_new.integers(1 << 62) == rng.integers(1 << 62)  # the stream continues where it did

    def test_subset_cuts_match_cut_value(self):
        h = random_connected_graph(make_generator(12), 40, 80)
        subsets = cuts._size_k_subsets(40, 7, 300, make_generator(3))
        got = cuts._subset_cuts(h, subsets)
        assert got.tolist() == pytest.approx([brute_cut(h, s) for s in subsets.tolist()], rel=1e-12)


class TestReferenceProperties:
    @_examples
    @given(h=connected_graphs(max_n=12), w=st.floats(0.1, 10.0), seed=st.integers(0, 2**32))
    def test_clique_value_matches_clique_graph(self, h, w, seed):
        clique, graph = Clique(h.n, w), make_clique(h.n, w)
        assert abs(cut_error_exhaustive(h, clique).epsilon - cut_error_exhaustive(h, graph).epsilon) <= 1e-9
        a = cut_error_sampled(h, clique, 5, range(1, h.n), seed)
        b = cut_error_sampled(h, graph, 5, range(1, h.n), seed)
        assert abs(a.epsilon - b.epsilon) <= 1e-9 and a.subsets_examined == b.subsets_examined
        a, b = spectral_error(h, clique), spectral_error(h, graph)
        assert (a.method, b.method) == ("clique", "cg")
        assert abs(a.epsilon - b.epsilon) <= 1e-9
