import math
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
    cut_value,
    extreme_cuts_at_size,
    extreme_cuts_at_sizes,
    interior_edge_weight,
    regular_vs_clique_exhaustive,
)
from sparselab.errors import DegenerateInputError, InvalidArgumentError, SizeLimitError
from sparselab.graph import Clique, WeightedGraph, make_clique, make_cycle, sample_regular_multigraph, scale_weights
from sparselab.rng import make_generator
from sparselab.spectral import spectral_error

from helpers import IncrementalCut, brute_cut, brute_cut_error, connected_graphs, graph_pairs, random_connected_graph


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
        assert interior_edge_weight(make_clique(4, 1.0), [0, 1, 2]) == pytest.approx(3.0)

    def test_small_sets_trivial(self):
        g = make_clique(6, 1.0)
        assert interior_edge_weight(g, []) == 0.0
        assert interior_edge_weight(g, [3]) == 0.0

    def test_regularity_identity(self):
        g = sample_regular_multigraph(20, 5, seed=1)
        s = range(10)
        assert cut_value(g, s) + 2 * interior_edge_weight(g, s) == pytest.approx(10 * 5)

    def test_regularity_identity_every_size(self):
        g = sample_regular_multigraph(16, 4, seed=8)
        rng = make_generator(0)
        for _ in range(50):
            k = int(rng.integers(1, 16))
            s = rng.choice(16, size=k, replace=False)
            assert cut_value(g, s) + 2 * interior_edge_weight(g, s) == pytest.approx(k * 4)


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
            assert cut_value(h, row.argmax_subset) / ref - 1.0 == pytest.approx(row.max_dev, rel=1e-12)

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
            hi, lo = extreme_cuts_at_size(h, k, exhaustive=True)
            vals = [brute_cut(h, s) for s in combinations(range(12), k)]
            if k == 6:  # balanced cuts are halved; both sides give the same value
                assert hi == pytest.approx(max(vals))
                assert lo == pytest.approx(min(vals))
            else:
                assert hi == pytest.approx(max(vals))
                assert lo == pytest.approx(min(vals))

    def test_sampled_within_exhaustive(self):
        h = sample_regular_multigraph(18, 5, seed=11)
        hi_e, lo_e = extreme_cuts_at_size(h, 9, exhaustive=True)
        hi_s, lo_s = extreme_cuts_at_size(h, 9, exhaustive=False, samples=200, seed=1)
        assert lo_e - 1e-12 <= lo_s and hi_s <= hi_e + 1e-12


def test_gray_visit_matches_incremental_stream():
    # the block enumerator and the incremental walker follow the same Gray
    # sequence over vertices 1..n-1 with vertex 0 pinned inside; the
    # enumerator skips the full vertex set
    n = 10
    rng = make_generator(55)
    h = random_connected_graph(rng, n, 15)
    masks, stream = [], []
    for block, _, (cut_h,) in cuts._exhaustive_cuts(n, h):
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


# -- properties of the one exhaustive enumeration ------------------------------

# small blocks force the reducers to carry their state across many blocks
_block_bits = st.sampled_from([1, 2, 3, cuts._BLOCK_BITS])
_references = st.sampled_from([REF_DENSITY, REF_EXPECTATION])
_examples = settings(max_examples=50, deadline=None)


def _close(x):
    return pytest.approx(x, rel=1e-12, abs=1e-12)


class TestExhaustiveProperties:
    @_examples
    @given(h=connected_graphs(), block_bits=_block_bits)
    def test_generator_yields_each_proper_cut_once(self, h, block_bits):
        n = h.n
        seen = []
        with mock.patch.object(cuts, "_BLOCK_BITS", block_bits):
            for masks, sizes, (cut_h,) in cuts._exhaustive_cuts(n, h):
                for m, size, c in zip(masks.tolist(), sizes.tolist(), cut_h.tolist()):
                    subset = [v for v in range(n) if m >> v & 1]
                    assert size == len(subset)
                    assert c == _close(brute_cut(h, subset))
                seen.extend(masks.tolist())
        assert sorted(seen) == list(range(1, (1 << n) - 1, 2))  # bit 0 set, full set excluded

    @_examples
    @given(pair=graph_pairs(), clique_reference=st.booleans(), block_bits=_block_bits)
    def test_cut_error_matches_brute_force(self, pair, clique_reference, block_bits):
        h, g = pair
        if clique_reference:
            g = make_clique(h.n, 0.7)  # the oracle reads a clique reference as a graph
        with mock.patch.object(cuts, "_BLOCK_BITS", block_bits):
            rep = cut_error_exhaustive(h, Clique(h.n, 0.7) if clique_reference else g)
        expected, _ = brute_cut_error(h, g)
        assert rep.epsilon == _close(expected)
        assert rep.subsets_examined == 2 ** (h.n - 1) - 1
        assert 0 in rep.witness
        assert abs(brute_cut(h, rep.witness) / brute_cut(g, rep.witness) - 1.0) == _close(rep.epsilon)

    @_examples
    @given(h=connected_graphs(), d=st.integers(1, 9), reference=_references, block_bits=_block_bits)
    def test_size_extremes_match_brute_force(self, h, d, reference, block_bits):
        n = h.n
        with mock.patch.object(cuts, "_BLOCK_BITS", block_bits):
            prof = cut_profile(h, d, reference=reference, argmax_cap=n)
            extremes = [extreme_cuts_at_size(h, k, exhaustive=True) for k in range(1, n // 2 + 1)]
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
    @given(h=connected_graphs(), d=st.integers(1, 9), reference=_references, block_bits=_block_bits)
    def test_combined_scan_matches_separate_paths(self, h, d, reference, block_bits):
        n = h.n
        with mock.patch.object(cuts, "_BLOCK_BITS", block_bits):
            err, prof = regular_vs_clique_exhaustive(h, d, reference=reference)
            separate = cut_error_exhaustive(scale_weights(h, (n - 1) / d), Clique(n, 1.0))
            assert prof == cut_profile(h, d, reference=reference)
        assert err.epsilon == _close(separate.epsilon)
        assert err.subsets_examined == separate.subsets_examined


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
        assert (a.method, b.method) == ("clique", "whitening")
        assert abs(a.epsilon - b.epsilon) <= 1e-9
