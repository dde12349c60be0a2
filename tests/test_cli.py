import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparselab import cuts, harness, martingale, spectral
from sparselab.cli import main
from sparselab.graph import (
    Clique,
    WeightedGraph,
    make_clique,
    make_cycle,
    read_edge_list,
    sample_regular_multigraph,
    scale_weights,
    write_edge_list,
)


@pytest.fixture
def graph_files(tmp_path):
    h = tmp_path / "h.edges"
    g = tmp_path / "g.edges"
    write_edge_list(make_cycle(4, 1.5), h)
    write_edge_list(make_clique(4, 1.0), g)
    return h, g


def run_cli(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_writes_valid_edge_list(self, tmp_path):
        out = tmp_path / "g.edges"
        assert run_cli(["generate", "--n", "10", "--d", "4", "--seed", "3", "--out", out]) == 0
        g = read_edge_list(out)
        assert g.n == 10 and g.total_weight == 20.0

    def test_odd_n_exits_2(self, tmp_path):
        assert run_cli(["generate", "--n", "9", "--d", "2", "--out", tmp_path / "x"]) == 2

    def test_stdout_mode(self, capsys, tmp_path):
        assert run_cli(["generate", "--n", "4", "--d", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n 4")
        path = tmp_path / "g.edges"
        assert run_cli(["generate", "--n", "4", "--d", "1", "--seed", "1", "--out", path]) == 0
        assert out.encode("utf-8") == path.read_bytes()


class TestCutError:
    def test_exhaustive_c4_vs_k4(self, graph_files, tmp_path, capsys):
        h, g = graph_files
        out = tmp_path / "rep.json"
        code = run_cli(["cut-error", "--h-file", h, "--g-file", g, "--exhaustive", "--out", out])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["epsilon"] == pytest.approx(0.5)
        assert rep["witness"] == [0, 2]

    def test_size_cap_exits_3(self, tmp_path):
        big = tmp_path / "big.edges"
        write_edge_list(make_clique(32, 1.0), big)
        assert run_cli(["cut-error", "--h-file", big, "--g-file", big, "--exhaustive"]) == 3

    def test_degenerate_reference_exits_4(self, tmp_path):
        h = tmp_path / "h.edges"
        g = tmp_path / "g.edges"
        write_edge_list(make_clique(4, 1.0), h)
        write_edge_list(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]), g)
        assert run_cli(["cut-error", "--h-file", h, "--g-file", g, "--exhaustive"]) == 4

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("not a header\n")
        ok = tmp_path / "ok.edges"
        write_edge_list(make_clique(4, 1.0), ok)
        assert run_cli(["cut-error", "--h-file", bad, "--g-file", ok]) == 2

    def test_overflowing_total_weight_exits_2(self, tmp_path, capsys):
        # two 1e308 edges: every cut sum would be inf/inf = NaN and no witness exists
        path = tmp_path / "p.edges"
        path.write_text("n 5\n0 1 1e308 1\n1 2 1e308 1\n2 3 1.0 1\n3 4 1.0 1\n")
        assert run_cli(["cut-error", "--h-file", path, "--g-file", path, "--exhaustive"]) == 2
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err


class TestSpectralAndCertify:
    def test_spectral_error_json(self, graph_files, tmp_path):
        h, g = graph_files
        out = tmp_path / "spectral.json"
        assert run_cli(["spectral-error", "--h-file", h, "--g-file", g, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["epsilon"] == pytest.approx(0.5)
        assert rep["kernel_ok"] is True

    def test_not_comparable_exits_4(self, tmp_path):
        h = tmp_path / "h.edges"
        g = tmp_path / "g.edges"
        write_edge_list(make_clique(4, 1.0), h)
        write_edge_list(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]), g)
        assert run_cli(["spectral-error", "--h-file", h, "--g-file", g]) == 4

    def test_single_vertex_exits_2(self, tmp_path, capsys):
        one = tmp_path / "one.edges"
        one.write_text("n 1\n")
        assert run_cli(["spectral-error", "--h-file", one, "--g-file", one]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_certify_emits_products(self, tmp_path):
        h = tmp_path / "h.edges"
        write_edge_list(make_cycle(50, 0.5), h)
        out = tmp_path / "cert.json"
        assert run_cli(["certify", "--h-file", h, "--g", "4", "--d", "2", "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["epsilon_lb"] > 0.0
        assert set(rep["products"]) == {"x_dot_lh", "x_dot_lk", "y_dot_lh", "y_dot_lk", "y_dot_dh", "ymx_dot_ah"}

    def test_certify_ignores_zero_weight_bundle(self, tmp_path, capsys):
        h = tmp_path / "h.edges"
        write_edge_list(WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 0.0)]), h)
        assert run_cli(["certify", "--h-file", h, "--g", "2", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "NaN" not in out and "Infinity" not in out
        assert json.loads(out)["identity_checks_ok"] is True

    def test_certify_disconnected_exits_2(self, tmp_path):
        h = tmp_path / "h.edges"
        write_edge_list(WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]), h)
        assert run_cli(["certify", "--h-file", h, "--g", "2", "--d", "2"]) == 2


class TestReferenceFile:
    """A --g-file holding a complete graph of one weight is measured as a Clique."""

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_reports_equal_the_library_on_the_reference(self, tmp_path, monkeypatch, perturbed):
        n, w = 10, 0.75
        h = scale_weights(sample_regular_multigraph(n, 4, 3), (n - 1) / 4)
        us, vs, ws, _ = make_clique(n, w).edge_arrays()
        if perturbed:
            ws = ws.copy()
            ws[3] *= 1.5
        h_file, g_file = tmp_path / "h.edges", tmp_path / "g.edges"
        write_edge_list(h, h_file)
        write_edge_list(WeightedGraph.from_arrays(n, us, vs, ws), g_file)
        ref = read_edge_list(g_file) if perturbed else Clique(n, w)
        sampled = ["cut-error", "--samples", "20", "--sizes", "3,5", "--seed", "4"]
        cases = [
            (["cut-error", "--exhaustive"], cuts.cut_error_exhaustive(h, ref)),
            (sampled, cuts.cut_error_sampled(h, ref, 20, [3, 5], 4)),
            (["spectral-error"], spectral.spectral_error(h, ref)),
        ]
        seen = []
        for module, name in ((cuts, "cut_error_exhaustive"), (cuts, "cut_error_sampled"), (spectral, "spectral_error")):
            def spy(h, g, *args, _measure=getattr(module, name), **kwargs):
                seen.append(type(g))
                return _measure(h, g, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        for args, expected in cases:
            out = tmp_path / "rep.json"
            assert run_cli(args + ["--h-file", h_file, "--g-file", g_file, "--out", out]) == 0
            rep = json.loads(out.read_text())
            assert {key: rep[key] for key in expected.to_json_dict()} == expected.to_json_dict()
        assert seen == [WeightedGraph if perturbed else Clique] * 3


class TestBoundsCli:
    def test_alpha_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["bounds", "--alphas", "0.1,0.5,0.9", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",")[0] == "kind"

    def test_empty_grid_header_only(self, capsys):
        assert run_cli(["bounds"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1

    def test_tail_grid(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["bounds", "--tail-grid", "2000,10,16;5000,25,64", "--out", out]) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_bad_grid_exits_2(self):
        assert run_cli(["bounds", "--tail-grid", "10,5,4"]) == 2  # k = n/2 out of domain


class TestMartingaleCli:
    def test_summary_and_trace(self, tmp_path):
        out = tmp_path / "m.json"
        trace = tmp_path / "trace.csv"
        code = run_cli([
            "martingale", "--n", "40", "--k", "10", "--d", "3", "--seed", "2",
            "--trials", "200", "--delta", "1.0", "--out", out, "--trace-out", trace,
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["trace_summary"]["steps"] == 27
        assert "empirical_tail" in rep
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "ell,z,w,x,y,a,b,quad_char"
        assert len(lines) == 28

    def test_bad_domain_exits_2(self):
        assert run_cli(["martingale", "--n", "9", "--k", "2", "--d", "1"]) == 2

    def test_tail_bound_domain_fails_before_sampling(self, monkeypatch, capsys):
        # k = n/2 simulates fine but has no tail bound: the run must stop
        # before any trial, not after 10^5 of them.
        calls = []
        for name in ("sample_matching_partners", "_shuffled_rows"):  # the trace's and the tail's sampler
            sampler = getattr(martingale, name)
            monkeypatch.setattr(martingale, name, lambda *a, sampler=sampler: calls.append(a) or sampler(*a))
        code = run_cli([
            "martingale", "--n", "20", "--k", "10", "--d", "4",
            "--trials", "100000", "--delta", "0.3", "--seed", "1",
        ])
        assert code == 2
        assert "k < n/2" in capsys.readouterr().err
        assert calls == []

    def test_trace_out_simulates_once(self, tmp_path, monkeypatch):
        calls = []
        simulate = martingale.simulate_reveal
        monkeypatch.setattr(martingale, "simulate_reveal", lambda *a: calls.append(a) or simulate(*a))
        trace = tmp_path / "trace.csv"
        code = run_cli([
            "martingale", "--n", "40", "--k", "10", "--d", "3", "--seed", "2",
            "--out", tmp_path / "m.json", "--trace-out", trace,
        ])
        assert code == 0
        assert calls == [(40, 10, 3, 2)]
        rows = simulate(40, 10, 3, 2).step_rows()
        assert trace.read_text().splitlines()[1:] == [",".join(repr(x) for x in r) for r in rows]


class TestExperimentsCli:
    def test_clique_sparsify_json(self, tmp_path):
        out = tmp_path / "cs.json"
        assert run_cli(["clique-sparsify", "--n", "12", "--d", "4", "--seeds", "2", "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["records"]) == 2

    def test_clique_sparsify_csv(self, tmp_path):
        out = tmp_path / "cs.csv"
        assert run_cli(["clique-sparsify", "--n", "12", "--d", "4", "--format", "csv", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "seed,k,alpha,max_dev,min_dev,mode,samples"
        assert len(lines) == 7  # one seed, six sizes

    def test_clique_sparsify_zero_degree_exits_2(self, capsys):
        assert run_cli(["clique-sparsify", "--n", "8", "--d", "0"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_clique_sparsify_sampled_without_samples_exits_2(self, capsys):
        # n > 30 takes the sampled profile, which needs at least one subset per size
        args = ["clique-sparsify", "--n", "40", "--d", "4", "--cut-mode", "sampled", "--samples", "0"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampled profile needs at least one sample") and "Traceback" not in err

    def test_separation_smoke(self, tmp_path):
        out = tmp_path / "sep.json"
        code = run_cli([
            "separation", "--n", "20", "--big-degree", "8", "--d", "8",
            "--seeds", "1", "--g", "2", "--target", "parent", "--out", out,
        ])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["records"][0]["eps_cut"] == pytest.approx(0.0, abs=1e-12)

    def test_concentration_smoke(self, tmp_path):
        out = tmp_path / "c.json"
        code = run_cli(["concentration", "--n", "16", "--alphas", "0.5", "--d", "4", "--seeds", "4", "--out", out])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["per_alpha"][0]["k"] == 8


@pytest.mark.parametrize(
    "args",
    [
        ["clique-sparsify", "--n", "8", "--d", "2"],
        ["concentration", "--n", "16", "--alphas", "0.5", "--d", "4"],
        ["separation", "--n", "16", "--big-degree", "6", "--d", "3"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_no_seeds_exits_2(args, seeds, capsys):
    assert run_cli([*args, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least one seed") and "Traceback" not in err


def test_non_finite_report_exits_4(graph_files, tmp_path, monkeypatch, capsys):
    h, g = graph_files
    monkeypatch.setattr(harness, "run_spectral_error", lambda h, g: {"epsilon": float("nan")})
    out = tmp_path / "rep.json"
    assert run_cli(["spectral-error", "--h-file", h, "--g-file", g, "--out", out]) == 4
    assert not out.exists()
    assert run_cli(["spectral-error", "--h-file", h, "--g-file", g]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


class TestReplayDeterminism:
    def test_byte_identical_modulo_timestamp(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli([
                "clique-sparsify", "--n", "12", "--d", "4", "--seeds", "2", "--seed", "7", "--out", out,
            ]) == 0
            data = json.loads(out.read_text())
            del data["generated_at"]
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]


def test_cli_import_leaves_out_the_process_pool():
    # the tail splits with os.fork and a pipe per worker, so CLI start-up loads no process-pool modules
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, sparselab.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
