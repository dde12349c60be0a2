import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import _fork, martingale
from sparselab.bounds import phi_matching
from sparselab.cli import main
from sparselab.errors import InvalidArgumentError, SizeLimitError
from sparselab.graph import union_of_matchings
from sparselab.martingale import binomial_tail_ge, empirical_tail, simulate_reveal
from sparselab.rng import derive_seed, make_generator

from helpers import check_reveal_invariants as check_increment_bounds
from helpers import brute_interior, cpus, empirical_tail_oracle, sample_matching_oracle


class TestSimulateReveal:
    def test_smallest_case_exact_distribution(self):
        # n=4, k=2, d=1: one reveal; X0 = 1/3, X1 in {0, 1}
        seen = set()
        for seed in range(30):
            tr = simulate_reveal(4, 2, 1, seed=seed)
            assert tr.steps == 1
            assert tr.x0 == pytest.approx(1.0 / 3.0, abs=1e-15)
            assert tr.x[0] in (0.0, 1.0)
            assert tr.y[0] == pytest.approx({1.0: 2.0 / 3.0, 0.0: -1.0 / 3.0}[tr.x[0]], abs=1e-15)
            seen.add(tr.x[0])
        assert seen == {0.0, 1.0}

    def test_x0_is_expected_interior(self):
        tr = simulate_reveal(40, 10, 3, seed=11)
        assert tr.x0 == pytest.approx(3 * math.comb(10, 2) / 39, rel=1e-14)
        assert tr.x0 == pytest.approx(3 * phi_matching(10, 40), rel=1e-14)

    def test_terminal_value_is_realized_interior_count(self):
        for seed in range(20):
            tr = simulate_reveal(24, 7, 4, seed=seed)
            realized = brute_interior(union_of_matchings(tr.matchings), range(7))
            assert tr.x[-1] == pytest.approx(realized, abs=1e-9)
            assert tr.x[-1] == pytest.approx(round(tr.x[-1]), abs=1e-9)  # integer-valued

    def test_increments_telescope(self):
        tr = simulate_reveal(30, 6, 3, seed=5)
        assert tr.x0 + tr.y.sum() == pytest.approx(tr.x[-1], abs=1e-12)
        assert np.allclose(np.diff(tr.x), tr.y[1:], atol=1e-12)

    def test_increment_and_ratio_bounds_small_sample(self):
        for seed in range(50):
            check_increment_bounds(simulate_reveal(40, 10, 3, seed=derive_seed(1, seed)))
            check_increment_bounds(simulate_reveal(200, 2, 16, seed=derive_seed(2, seed)))

    def test_balanced_k_allowed(self):
        tr = simulate_reveal(8, 4, 2, seed=0)
        assert tr.steps == 6
        assert np.all(np.abs(tr.y) <= 1.0)

    def test_martingale_property_statistical(self):
        # conditional mean of the first increment is zero: average Y_1 over many seeds
        n, k, d, trials = 20, 5, 2, 4000
        ys = [simulate_reveal(n, k, d, seed=derive_seed(3, t)).y[0] for t in range(trials)]
        # Var(Y_1) <= p(1-p) with p = (k-1)/(n-1); allow 4 sigma
        p = (k - 1) / (n - 1)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(float(np.mean(ys))) < 4 * sigma

    def test_martingale_property_exact_over_state_space(self):
        # the closed-form expectations make E[Y | a, b] vanish identically:
        # p Y(inside) + (1-p) Y(outside) = 0 with p = (a-1)/(b-1)
        for b in range(4, 202, 2):
            for a in range(2, b + 1):
                p = (a - 1) / (b - 1)
                mean = p * (1.0 + phi_matching(a - 2, b - 2) - phi_matching(a, b))
                if a < b:  # an outside partner exists only if some non-S vertex is unmatched
                    mean += (1 - p) * (phi_matching(a - 1, b - 2) - phi_matching(a, b))
                assert abs(mean) < 1e-13, (a, b, mean)

    def test_domain_errors(self):
        with pytest.raises(InvalidArgumentError):
            simulate_reveal(9, 2, 1, seed=0)
        with pytest.raises(InvalidArgumentError):
            simulate_reveal(12, 1, 1, seed=0)
        with pytest.raises(InvalidArgumentError):
            simulate_reveal(12, 7, 1, seed=0)

    def test_matchings_are_a_read_only_partner_table(self):
        tr = simulate_reveal(40, 10, 3, seed=5)
        rng = make_generator(5)
        assert tr.matchings.shape == (3, 40) and tr.matchings.dtype == np.int64
        assert np.array_equal(tr.matchings, np.stack([sample_matching_oracle(rng, 40) for _ in range(3)]))
        with pytest.raises(ValueError):
            tr.matchings[0, 0] = 1
        assert np.array_equal(tr.z[:9], tr.matchings[0, :9])

    def test_deterministic(self):
        a = simulate_reveal(40, 10, 3, seed=123)
        b = simulate_reveal(40, 10, 3, seed=123)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.x, b.x)

    def test_traces_compare_by_value(self):
        a = simulate_reveal(40, 10, 3, seed=0)
        assert a.steps > 1
        assert a == simulate_reveal(40, 10, 3, seed=0)
        assert a != simulate_reveal(40, 10, 3, seed=1)
        assert a != simulate_reveal(40, 11, 3, seed=0)


class TestEmpiricalTail:
    def test_huge_delta_gives_zero(self):
        out = empirical_tail(40, 5, 3, delta=50.0, trials=200, seed=1)
        assert out.empirical_prob == 0.0

    def test_sample_mean_matches_expectation(self):
        # mean interior count over trials within 4 sigma of C(k,2) d/(n-1)
        n, k, d, trials = 60, 6, 4, 4000
        out = empirical_tail(n, k, d, delta=0.5, trials=trials, seed=7)
        expected = math.comb(k, 2) * d / (n - 1)
        assert out.expected_interior == pytest.approx(expected, rel=1e-12)
        sigma = math.sqrt(expected / trials)  # Poisson-scale upper estimate
        assert abs(out.sample_mean_interior - expected) < 4 * sigma

    def test_bound_attached(self):
        out = empirical_tail(200, 2, 16, delta=2.0, trials=10, seed=3)
        assert out.bound.regime == "generic"
        assert 0.0 < out.bound.value <= 2.0

    @pytest.mark.parametrize("n, k, d", [(200, 2, 16), (40, 10, 3), (20, 9, 4), (8, 3, 1)])
    def test_matches_one_matching_oracle(self, n, k, d):
        out = empirical_tail(n, k, d, delta=0.5, trials=400, seed=17)
        exceed, total = empirical_tail_oracle(n, k, d, 0.5, 400, 17)
        assert (out.exceedances, out.sample_mean_interior) == (exceed, total / 400)
        assert total > 0

    def test_reproducible(self):
        a = empirical_tail(40, 4, 3, delta=1.0, trials=500, seed=9)
        b = empirical_tail(40, 4, 3, delta=1.0, trials=500, seed=9)
        assert a.exceedances == b.exceedances


def _fail_in_worker(*args):
    raise SizeLimitError(f"raised in process {os.getpid()}")


def _die_in_worker(*args):
    os._exit(3)


class TestParallelTail:
    @settings(max_examples=25, deadline=None)
    @given(
        half=st.integers(3, 40), k_draw=st.integers(0, 10 ** 6), d=st.integers(1, 6),
        trials=st.integers(1, 60), seed=st.integers(0, 2 ** 64 - 1),
        delta=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
    )
    def test_worker_count_does_not_change_the_tail(self, half, k_draw, d, trials, seed, delta):
        # some draws have fewer trials than workers
        n = 2 * half
        k = 2 + k_draw % ((n - 1) // 2 - 1)  # 2 <= k < n/2
        in_process = empirical_tail(n, k, d, delta, trials, seed)
        for workers in (1, 2, 3):
            with cpus(workers), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
                assert empirical_tail(n, k, d, delta, trials, seed) == in_process

    def test_worker_error_keeps_its_type_and_exit_code(self, capsys):
        with cpus(2), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
            with mock.patch.object(martingale, "_tail_counts", _fail_in_worker):
                with pytest.raises(SizeLimitError, match="raised in process") as err:
                    empirical_tail(40, 4, 3, delta=1.0, trials=10, seed=9)
                code = main(["martingale", "--n", "40", "--k", "4", "--d", "3", "--trials", "10", "--delta", "1.0"])
        assert not str(err.value).endswith(f" {os.getpid()}")  # it came from a worker
        assert code == 3  # SizeLimitError's exit code
        assert "raised in process" in capsys.readouterr().err

    def test_worker_that_dies_is_an_error(self):
        with cpus(2), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
            with mock.patch.object(martingale, "_tail_counts", _die_in_worker):
                with pytest.raises(RuntimeError, match="no result"):
                    empirical_tail(40, 4, 3, delta=1.0, trials=10, seed=9)

    def test_long_tails_on_small_graphs_split(self):
        # a trial's fixed cost counts toward the floor, not only its n * d shuffled cells
        args = (8, 2, 1, 1.0, 20000, 5)
        with cpus(2), mock.patch.object(martingale, "_tail_counts", _fail_in_worker):
            with pytest.raises(SizeLimitError) as err:
                empirical_tail(*args)
        assert not str(err.value).endswith(f" {os.getpid()}")  # it came from a worker
        with cpus(1):
            in_process = empirical_tail(*args)
        with cpus(2):
            assert empirical_tail(*args) == in_process

    def test_small_tails_stay_in_process(self):
        # below the floor no worker is forked, whatever the CPU count
        with cpus(2), mock.patch.object(martingale, "_tail_counts", _fail_in_worker):
            with pytest.raises(SizeLimitError, match=f"process {os.getpid()}$"):
                empirical_tail(200, 2, 16, delta=2.0, trials=200, seed=3)

    @pytest.mark.parametrize("n, d, trials", [(8, 1, 3000), (200, 16, 400)])
    def test_tails_past_their_break_even_split(self, n, d, trials):
        # two pinned workers win from about 1500 trials at n = 8, d = 1 and 250 at n = 200, d = 16
        with cpus(2), mock.patch.object(martingale, "_tail_counts", _fail_in_worker):
            with pytest.raises(SizeLimitError) as err:
                empirical_tail(n, 2, d, delta=1.0, trials=trials, seed=3)
        assert not str(err.value).endswith(f" {os.getpid()}")  # it came from a worker


class TestBinomialTail:
    def test_edge_cases(self):
        assert binomial_tail_ge(0, 10, 0.3) == 1.0
        assert binomial_tail_ge(11, 10, 0.3) == 0.0
        assert binomial_tail_ge(5, 10, 0.0) == 0.0
        assert binomial_tail_ge(5, 10, 1.0) == 1.0

    def test_matches_direct_sum(self):
        for n, p in ((10, 0.3), (50, 0.05), (200, 0.5)):
            for x in (1, n // 4, n // 2):
                direct = sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(x, n + 1))
                assert binomial_tail_ge(x, n, p) == pytest.approx(direct, rel=1e-10)

    def test_large_n_small_x(self):
        # stays finite and accurate in the regime the acceptance tests use
        val = binomial_tail_ge(3, 20000, 1e-4)
        lam = 2.0  # Poisson approximation sanity check
        poisson = 1.0 - math.exp(-lam) * (1 + lam + lam ** 2 / 2)
        assert val == pytest.approx(poisson, rel=0.05)
