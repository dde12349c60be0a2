import json
import os
from unittest import mock

import numpy as np
import pytest

from sparselab import _fork, cuts, harness, nbwalk, spectral
from sparselab.cli import main
from sparselab.errors import DegenerateInputError, InvalidArgumentError, SizeLimitError
from sparselab.harness import (
    bounds_table_csv,
    run_bounds_table,
    run_clique_sparsify,
    run_concentration,
    run_separation,
)

from helpers import cpus


class TestCliqueSparsify:
    def test_smoke_full_degree(self):
        rep = run_clique_sparsify(16, 15, seeds=1, master_seed=1)
        (rec,) = rep["records"]
        assert rec["eps_cut"] >= 0.0 and rec["eps_spec"] >= 0.0
        assert rep["rng_algorithm"]
        assert rep["config"]["n"] == 16

    def test_cut_error_below_spectral_across_seeds(self):
        rep = run_clique_sparsify(16, 8, seeds=6, master_seed=3)
        for rec in rep["records"]:
            assert rec["eps_cut"] <= rec["eps_spec"] + 1e-9
        assert rep["medians"]["eps_cut"] <= rep["medians"]["eps_spec"]

    def test_profile_rows_cover_half_sizes(self):
        rep = run_clique_sparsify(12, 4, seeds=1, master_seed=0)
        ks = [row["k"] for row in rep["records"][0]["profile"]]
        assert ks == list(range(1, 7))

    def test_sampled_mode_for_larger_n(self):
        rep = run_clique_sparsify(40, 6, seeds=1, master_seed=2, cut_mode="sampled", samples_per_size=30)
        rec = rep["records"][0]
        assert rec["cut_mode"] == "sampled"

    def test_rejects_bad_modes(self):
        with pytest.raises(SizeLimitError):
            run_clique_sparsify(40, 6, seeds=1, cut_mode="exhaustive")
        with pytest.raises(InvalidArgumentError):
            run_clique_sparsify(15, 6, seeds=1)


class TestSeparation:
    def test_full_prefix_is_parent(self):
        rep = run_separation(20, 8, 8, seeds=2, g=2, master_seed=5, target="parent")
        for rec in rep["records"]:
            assert rec["eps_cut"] == pytest.approx(0.0, abs=1e-12)
            assert rec["eps_spec"] == pytest.approx(0.0, abs=1e-10)

    def test_parent_target_invariants(self):
        rep = run_separation(24, 12, 4, seeds=3, g=2, master_seed=7, target="parent")
        for rec in rep["records"]:
            assert rec["eps_cut"] <= rec["eps_spec"] + 1e-9
            assert rec["eps_lb"] <= rec["eps_spec_clique"] + 1e-6

    def test_clique_target_invariants(self):
        rep = run_separation(24, 12, 6, seeds=3, g=2, master_seed=11, target="clique")
        for rec in rep["records"]:
            assert rec["eps_cut"] <= rec["eps_spec"] + 1e-9
            assert rec["eps_lb"] <= rec["eps_spec_clique"] + 1e-6
            assert rec["eps_spec_clique"] == pytest.approx(rec["eps_spec"], abs=1e-9)
            assert rec["identity_checks_ok"]

    @pytest.mark.parametrize("target, solves_per_seed", [("clique", 1), ("parent", 2)])
    def test_spectral_solves_per_seed(self, monkeypatch, target, solves_per_seed):
        calls = []
        solve = spectral.spectral_error

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral, "spectral_error", counting)
        run_separation(16, 6, 3, seeds=2, g=2, master_seed=4, target=target)
        assert len(calls) == 2 * solves_per_seed

    @pytest.mark.parametrize("target", ["clique", "parent"])
    def test_no_target_builds_a_dense_matrix(self, monkeypatch, target):
        n = 64

        def refuse(solver):
            def guarded(a, *args, **kwargs):
                assert len(a) < n, "n x n eigenproblem"  # the Lanczos basis holds at most n - 1 rows
                return solver(a, *args, **kwargs)

            return guarded

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse(getattr(np.linalg, name)))
        rep = run_separation(n, 8, 4, seeds=2, g=2, master_seed=3, target=target, cut_mode="sampled")
        assert len(rep["records"]) == 2

    def test_sampled_mode(self):
        rep = run_separation(60, 8, 4, seeds=1, g=2, master_seed=1, cut_mode="sampled", samples_per_size=20)
        assert rep["records"][0]["cut_mode"] == "sampled"

    def test_rejects_prefix_overflow(self):
        with pytest.raises(InvalidArgumentError):
            run_separation(20, 4, 8, seeds=1, g=2)


def _strip(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "generated_at"}, sort_keys=True)


def _fail_in_worker(error):
    def fail(*args):
        raise error(f"raised in process {os.getpid()}")

    return fail


class TestSeparationStages:
    # a floor of 0 leaves the certificate to the parent; at 2^16 it joins the stages at n = 20 and 40
    @pytest.mark.parametrize("floor", [0, 1 << 16])
    @pytest.mark.parametrize("target", ["clique", "parent"])
    @pytest.mark.parametrize("n, cut_mode", [(20, "exhaustive"), (40, "sampled")])
    def test_worker_count_does_not_change_the_report(self, floor, target, n, cut_mode):
        args = (n, 8, 4, 2, 2, 3, target, cut_mode, 20)
        in_process = _strip(run_separation(*args))
        for workers in (1, 2, 3):
            with cpus(workers), mock.patch.object(_fork, "_PARALLEL_WORK", floor):
                assert _strip(run_separation(*args)) == in_process

    def test_small_separations_stay_in_process(self):
        fail = _fail_in_worker(SizeLimitError)
        with cpus(2), mock.patch.object(cuts, "cut_error_sampled", fail):
            with pytest.raises(SizeLimitError, match=f"process {os.getpid()}$"):
                run_separation(100, 8, 4, 1, 2, cut_mode="sampled", samples_per_size=5)
            with pytest.raises(SizeLimitError) as err:
                run_separation(256, 8, 4, 1, 2, cut_mode="sampled", samples_per_size=5)
        assert not str(err.value).endswith(f" {os.getpid()}")  # it came from a worker

    def test_stage_error_keeps_its_type_and_exit_code(self, capsys):
        argv = ["separation", "--n", "40", "--big-degree", "8", "--d", "4", "--cut-mode", "sampled", "--samples", "5"]
        with cpus(2), mock.patch.object(_fork, "_PARALLEL_WORK", 0):
            with mock.patch.object(spectral, "spectral_error", _fail_in_worker(DegenerateInputError)):
                with pytest.raises(DegenerateInputError, match="raised in process") as err:
                    run_separation(40, 8, 4, 1, 2, cut_mode="sampled", samples_per_size=5)
                assert main(argv) == 4
                # the cut stage comes first, and its child's error wins
                with mock.patch.object(cuts, "cut_error_sampled", _fail_in_worker(SizeLimitError)):
                    for target in ("clique", "parent"):
                        with pytest.raises(SizeLimitError, match="raised in process"):
                            run_separation(40, 8, 4, 1, 2, target=target, cut_mode="sampled", samples_per_size=5)
                    assert main(argv) == 3
        assert not str(err.value).endswith(f" {os.getpid()}")  # it came from a worker
        assert "raised in process" in capsys.readouterr().err

    @pytest.mark.parametrize("floor, in_parent", [(0, True), (1 << 16, False)])
    def test_certificate_above_its_floor_runs_in_the_parent(self, floor, in_parent):
        calls = []
        certify = nbwalk.certify_lower_bound

        def recording(*args):
            calls.append(os.getpid())  # a stage child's list is lost when it exits
            return certify(*args)

        with cpus(2), mock.patch.object(_fork, "_PARALLEL_WORK", floor):
            with mock.patch.object(nbwalk, "certify_lower_bound", recording):
                run_separation(40, 8, 4, 2, 2, cut_mode="sampled", samples_per_size=5)
        assert calls == ([os.getpid()] * 2 if in_parent else [])


class TestBoundsTable:
    def test_alpha_grid_maximized_at_half(self):
        alphas = [round(0.1 * i, 1) for i in range(1, 10)]
        rows = run_bounds_table(alphas=alphas)
        assert len(rows) == 9
        best = max(rows, key=lambda r: r["relative_error_bound"])
        assert best["alpha"] == 0.5

    def test_empty_grid_header_only(self):
        csv = bounds_table_csv(run_bounds_table())
        lines = csv.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("kind,alpha")

    def test_tail_rows_generic_below_regime(self):
        grid = [(2000, 10, 16), (5000, 25, 64), (10 ** 4, 50, 16)]
        rows = run_bounds_table(tail_grid=grid)
        for row in rows:
            assert row["generic_value"] <= row["regime_value"] + 1e-15

    def test_ramanujan_rows(self):
        rows = run_bounds_table(ramanujan_ds=[4, 9])
        assert rows[0]["ramanujan_exact"] == pytest.approx(2 * 3 ** 0.5 / 4)

    def test_csv_round_trips_floats(self):
        rows = run_bounds_table(alphas=[0.5])
        csv = bounds_table_csv(rows)
        cell = csv.splitlines()[1].split(",")[6]
        assert float(cell) == rows[0]["relative_error_bound"]


class TestConcentration:
    def test_exhaustive_balanced(self):
        rep = run_concentration(20, [0.5], 4, seeds=8, master_seed=3)
        (block,) = rep["per_alpha"]
        assert block["mode"] == "exhaustive"
        assert len(block["maxima"]) == 8
        for chk in block["checks"]:
            assert chk["consistent"]

    def test_degenerate_alpha(self):
        with pytest.raises(InvalidArgumentError):
            run_concentration(20, [0.01], 4, seeds=2)
        with pytest.raises(InvalidArgumentError):
            run_concentration(20, [0.7], 4, seeds=2)

    @pytest.mark.parametrize("mode, n", [("exhaustive", 16), ("sampled", 40)])
    def test_one_graph_per_seed_serves_every_alpha(self, monkeypatch, mode, n):
        samples = []
        real_sample = harness.sample_regular_multigraph
        monkeypatch.setattr(harness, "sample_regular_multigraph", lambda *a: samples.append(a) or real_sample(*a))
        enumerations = []
        real_kernel = cuts._SplitCuts
        monkeypatch.setattr(cuts, "_SplitCuts", lambda *a, **k: enumerations.append(a) or real_kernel(*a, **k))
        both = run_concentration(n, [0.25, 0.5], 4, seeds=3, master_seed=4, mode=mode, samples_per_seed=20)
        assert len(samples) == 3
        assert len(enumerations) == (3 if mode == "exhaustive" else 0)
        apart = [run_concentration(n, [a], 4, seeds=3, master_seed=4, mode=mode, samples_per_seed=20) for a in (0.25, 0.5)]
        assert both["per_alpha"] == [rep["per_alpha"][0] for rep in apart]

    def test_sampled_mode_larger_n(self):
        rep = run_concentration(100, [0.5], 8, seeds=5, master_seed=2, samples_per_seed=50)
        (block,) = rep["per_alpha"]
        assert block["mode"] == "sampled"
        assert all(m > 0 for m in block["maxima"])


class TestReplayDeterminism:
    @staticmethod
    def _strip(report: dict) -> str:
        clean = {k: v for k, v in report.items() if k != "generated_at"}
        return json.dumps(clean, sort_keys=True, indent=2)

    def test_reports_identical_modulo_timestamp(self):
        a = run_clique_sparsify(12, 4, seeds=2, master_seed=9)
        b = run_clique_sparsify(12, 4, seeds=2, master_seed=9)
        assert self._strip(a) == self._strip(b)
        a = run_separation(16, 6, 3, seeds=1, g=2, master_seed=9)
        b = run_separation(16, 6, 3, seeds=1, g=2, master_seed=9)
        assert self._strip(a) == self._strip(b)
        a = run_concentration(16, [0.25, 0.5], 4, seeds=3, master_seed=9)
        b = run_concentration(16, [0.25, 0.5], 4, seeds=3, master_seed=9)
        assert self._strip(a) == self._strip(b)
