import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import cuts, errors, harness, martingale, spectral
from sparselab.cli import COMMANDS, build_parser, main
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

    @pytest.mark.parametrize("argv", [
        ["clique-sparsify", "--n", "40", "--d", "4", "--cut-mode", "exhaustive"],
        ["concentration", "--n", "40", "--alphas", "0.25", "--d", "4", "--mode", "exhaustive"],
        ["separation", "--n", "40", "--big-degree", "8", "--d", "4", "--cut-mode", "exhaustive"],
    ])
    def test_exhaustive_mode_above_the_cap_exits_3_before_sampling(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(harness, "sample_regular_multigraph", None)  # a draw would raise TypeError
        assert run_cli(argv) == 3
        assert capsys.readouterr().err == f"error: n=40 exceeds exhaustive cap {cuts.EXHAUSTIVE_CAP}; use a sampled mode\n"

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


def test_deep_horizons_on_degree_four_graphs_exit_0(tmp_path):
    # the certificate's work estimate raised a power of 3 to the horizon, which overflowed at g = 1000
    h = tmp_path / "h.edges"
    write_edge_list(WeightedGraph(12, [(*sorted((i, (i + s) % 12)), 1.0) for i in range(12) for s in (1, 2)]), h)
    assert run_cli(["certify", "--h-file", h, "--g", "1000", "--d", "4", "--out", tmp_path / "cert.json"]) == 0
    assert json.loads((tmp_path / "cert.json").read_text())["identity_checks_ok"] is True
    out = tmp_path / "sep.json"
    assert run_cli(["separation", "--n", "40", "--big-degree", "8", "--d", "4", "--g", "1000", "--out", out]) == 0
    assert all(r["identity_checks_ok"] for r in json.loads(out.read_text())["records"])


def _one_error_line(capsys, *phrases):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    assert all(phrase in err for phrase in phrases), err


class TestUnreadableAndUnwritableFiles:
    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_edge_list_exits_2(self, case, tmp_path, capsys):
        path = {"missing": tmp_path / "missing.edges", "directory": tmp_path, "not_utf8": tmp_path / "bytes.edges"}[case]
        if case == "not_utf8":
            path.write_bytes(b"n 3\n0 1 \xff 1\n")
        assert run_cli(["certify", "--h-file", path, "--g", "2", "--d", "2"]) == 2
        _one_error_line(capsys, "cannot read")

    @pytest.mark.parametrize("text, phrase", [
        (f"n {2**64}\n0 1 1.0 1\n1 2 1.0 1\n", f"line 1: vertex count must be in [1, 3037000499], got {2**64}"),
        (f"n 4\n0 1 1.0 1\n1 2 1.0 {2**64}\n2 3 1.0 1\n", f"line 3: invalid multiplicity {2**64}"),
        ("n 4000000000\n3999999997 3999999999 1.0 1\n3999999998 3999999999 2.0 1\n", "line 1: vertex count must be in"),
    ], ids=["n_2_64", "multiplicity_2_64", "n_4e9"])
    def test_integers_past_int64_exit_2(self, text, phrase, tmp_path, capsys):
        path = tmp_path / "big.edges"
        path.write_text(text)
        assert run_cli(["certify", "--h-file", path, "--g", "2", "--d", "4"]) == 2
        _one_error_line(capsys, phrase)

    @pytest.mark.parametrize("flag", ["--out", "--trace-out"])
    def test_unwritable_output_exits_2(self, flag, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        assert run_cli(["martingale", "--n", "8", "--k", "2", "--d", "2", flag, dest]) == 2
        _one_error_line(capsys, "cannot write", str(dest))
        assert run_cli(["martingale", "--n", "8", "--k", "2", "--d", "2", flag, tmp_path]) == 2
        _one_error_line(capsys, "cannot write", "Is a directory")

    def test_unwritable_edge_list_exits_2(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "h.edges"
        assert run_cli(["generate", "--n", "8", "--d", "2", "--out", dest]) == 2
        _one_error_line(capsys, "cannot write", str(dest))


class TestDomainHoles:
    @pytest.mark.parametrize("d", ["nan", "inf", "-inf", "0"])
    def test_certify_degree_must_be_positive_and_finite(self, d, graph_files, capsys):
        h, _ = graph_files
        assert run_cli(["certify", "--h-file", h, "--g", "2", f"--d={d}"]) == 2
        _one_error_line(capsys, "nominal degree must be positive and finite")

    @pytest.mark.parametrize("trials", ["-3", "-1"])
    def test_negative_trials_with_a_delta_exits_2(self, trials, capsys):
        assert run_cli(["martingale", "--n", "40", "--k", "4", "--d", "3", f"--trials={trials}", "--delta", "1.0"]) == 2
        _one_error_line(capsys, "need at least one trial")

    @pytest.mark.parametrize("trials", ["-3", "-1"])
    def test_negative_trials_without_a_delta_exits_2(self, trials, capsys):
        assert run_cli(["martingale", "--n", "8", "--k", "2", "--d", "2", f"--trials={trials}"]) == 2
        _one_error_line(capsys, "need at least one trial", f"got {trials}")

    @pytest.mark.parametrize("argv", [
        ["clique-sparsify", "--n", "8", "--d", "2", "--seeds", "1", "--samples=-3"],
        ["separation", "--n", "8", "--big-degree", "4", "--d", "2", "--seeds", "1", "--samples=-3"],
        ["concentration", "--n", "8", "--alphas", "0.5", "--d", "2", "--seeds", "1", "--samples=-3"],
        ["cut-error", "--exhaustive", "--sizes=-1"],
    ])
    def test_negative_counts_exit_2_where_the_cut_mode_ignores_them(self, argv, graph_files, capsys):
        h, g = graph_files
        files = ["--h-file", h, "--g-file", g] if argv[0] == "cut-error" else []
        assert run_cli(argv + files) == 2
        _one_error_line(capsys, "must be nonnegative, got ")


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

    def test_concentration_sampled_without_samples_exits_2(self, capsys):
        # the sampled per-size extremes are the profile's, so the refusal reads the same
        args = ["concentration", "--n", "40", "--alphas", "0.5", "--d", "4", "--mode", "sampled", "--samples", "0"]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == "error: sampled profile needs at least one sample per size, got 0\n"

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


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.SparselabError, 2), (errors.InvalidArgumentError, 2), (errors.OutOfRegimeError, 2),
        (errors.ParseError, 2), (errors.UnsupportedInputError, 2), (errors.SizeLimitError, 3),
        (errors.DegenerateInputError, 4), (errors.NotComparableError, 4),
    ],
)
def test_each_error_class_carries_its_exit_code(error, code, graph_files, monkeypatch, capsys):
    assert error.exit_code == code
    h, g = graph_files

    def fail(h, g):
        raise error("raised on purpose")

    monkeypatch.setattr(harness, "run_spectral_error", fail)
    assert run_cli(["spectral-error", "--h-file", h, "--g-file", g]) == code
    assert capsys.readouterr().err == "error: raised on purpose\n"


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


def test_separation_leaves_numpy_ma_unloaded(tmp_path):
    # np.isin and np.unique import numpy.ma on first use (12-27 ms on a 2-core host); the
    # clique pair scan looks its keys up with searchsorted instead
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys; from sparselab.cli import main; main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
    argv = [
        "separation", "--n", "1000", "--big-degree", "16", "--d", "4", "--g", "2", "--cut-mode", "sampled",
        "--seeds", "1", "--out", str(tmp_path / "report.json"),
    ]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_measurements_leave_numpy_ma_unloaded(tmp_path):
    # a float-weighted exhaustive cut error finds its weight classes by sorting, not with np.unique
    h, g = tmp_path / "h.edges", tmp_path / "g.edges"
    regular = sample_regular_multigraph(10, 4, 1)
    write_edge_list(scale_weights(regular, 0.75), h)
    write_edge_list(regular, g)
    out = str(tmp_path / "report.json")
    runs = [
        ["clique-sparsify", "--n", "10", "--d", "4", "--cut-mode", "exhaustive", "--seeds", "1", "--out", out],
        ["cut-error", "--h-file", str(h), "--g-file", str(g), "--exhaustive", "--out", out],
        ["separation", "--n", "40", "--big-degree", "8", "--d", "4", "--g", "2", "--cut-mode", "sampled", "--seeds", "1", "--out", out],
        ["certify", "--h-file", str(g), "--g", "2", "--d", "4", "--out", out],
        ["martingale", "--n", "20", "--k", "2", "--d", "4", "--trials", "50", "--seed", "0", "--out", out],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import json, sys; from sparselab.cli import main; print([main(a) for a in json.loads(sys.argv[1])], 'numpy.ma' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[0,", "0,", "0,", "0,", "0]", "False"]


def test_cli_import_loads_no_record_or_statistics_machinery():
    # records are NamedTuples and the median is a sorted one, so dataclasses, statistics and the decimal and
    # fractions modules it loads stay out. The bound counts what sparselab adds over numpy, whose own count
    # differs between the versions CI installs; with numpy 2.4 on Python 3.11 the total is 229 modules
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, numpy; before = set(sys.modules); import sparselab.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()
    assert not {"dataclasses", "statistics", "decimal", "_decimal", "fractions"} & set(added)
    assert len(added) <= 20, added  # sparselab's 12 modules, argparse, gettext, json and its 5, __future__


@pytest.mark.parametrize("seeds", [2, 3])
def test_clique_sparsify_medians_equal_statistics_median(seeds, tmp_path):
    import statistics

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys; from sparselab.cli import main; main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
    out = tmp_path / "report.json"
    argv = ["clique-sparsify", "--n", "12", "--d", "4", "--seeds", str(seeds), "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
    report = json.loads(out.read_text())
    assert report["medians"] == {
        name: statistics.median(r[name] for r in report["records"]) for name in ("eps_cut", "eps_spec", "balanced_max_abs_dev")
    }


# per command: the options it needs, and an option given a value of the wrong type or no value
_ARGV = {
    "generate": (["--n", "4", "--d", "2"], ["--n", "x"]),
    "cut-error": (["--h-file", "h", "--g-file", "g"], ["--samples", "x"]),
    "spectral-error": (["--h-file", "h", "--g-file", "g"], ["--out"]),
    "certify": (["--h-file", "h", "--g", "2", "--d", "2"], ["--g", "2.5"]),
    "bounds": ([], ["--alphas", "x"]),
    "martingale": (["--n", "4", "--k", "2", "--d", "1"], ["--delta", "x"]),
    "concentration": (["--n", "4", "--alphas", "0.5", "--d", "1"], ["--mode", "x"]),
    "clique-sparsify": (["--n", "4", "--d", "2"], ["--seeds", "x"]),
    "separation": (["--n", "4", "--big-degree", "2", "--d", "1"], ["--target", "x"]),
}


def _run(call, argv):
    """(stdout, stderr, result) of call(argv); the result of an argparse exit is ("exit", code)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return stdout.getvalue(), stderr.getvalue(), result


@pytest.mark.parametrize("columns", ["80", "250"])
@pytest.mark.parametrize("command", sorted(_ARGV))
def test_one_command_parser_prints_what_the_full_parser_prints(command, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)  # a usage line that wraps, and one that does not
    every = f"{{{','.join(COMMANDS)}}}"
    assert set(COMMANDS) == set(_ARGV) and every in build_parser().format_usage()
    needed, bad = _ARGV[command]
    cases = [[command, "--help"], [command], [command, *needed], [command, *bad], [command, *needed, *bad]]
    cases += [[command, *needed, "--bogus"], [command, *needed, "extra"]]  # the top-level parser reports these
    for argv in cases:
        full = _run(build_parser().parse_args, argv)
        assert _run(build_parser(command).parse_args, argv) == full, argv
        if isinstance(full[2], tuple):  # the command never runs: main prints exactly this
            assert _run(main, argv) == full, argv
    assert every in full[1] and full[1].startswith("usage: sparselab [-h]")


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["-h", "certify"], ["--n", "4"]])
def test_without_a_known_command_main_uses_the_full_parser(argv):
    full = _run(build_parser().parse_args, argv)
    assert full[2][0] == "exit" and _run(main, argv) == full


def test_fork_helper_adds_no_other_module_to_the_import():
    # the shared fork helper imports only modules that the rest of the CLI already loads
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    stub = "import types; sys.modules['sparselab._fork'] = types.SimpleNamespace(split_ranges=None); "
    code = "import sys; {}import sparselab.cli; print(' '.join(sorted(sys.modules)))"
    loaded = [
        set(subprocess.run([sys.executable, "-c", code.format(pre)], env=env, capture_output=True, text=True, check=True).stdout.split())
        for pre in ("", stub)
    ]
    assert "sparselab._fork" in loaded[0]
    assert loaded[0] == loaded[1]


# -- random argv ---------------------------------------------------------------------

_WEIRD = ["nan", "inf", "-inf", "x", "", "-0", "1e3", "0.5"]
_NUMBERS = {
    # n stays at most 16 or jumps to 64, past the exhaustive cap, so no draw enumerates long
    "n": [-2, 0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 64],
    "small": [-3, -1, 0, 1, 2, 3],
    "degree": [-1, 0, 1, 2, 3, 4, 8, 16, 64],
    "trials": [-3, 0, 1, 2, 17, 200],
    "float": ["-1", "0", "0.25", "0.5", "1", "2", "4", "36.75", "nan", "inf", "-inf"],
    "floats": ["0.25,0.5", "0.1,0.5,0.9", "0", "-1", "0.6", "nan", "inf", "0.5,x", ","],
    "ints": ["4,16", "2", "0", "-1", "1,2,3", "2,x", "64", ","],
    "grid": ["2000,10,16", "64,2,4;64,3,8", "10,5,4", "1,2", "a,b,c", "0,0,0", "64,2,nan", ";"],
    "seeds": [-1, 0, 1, 2, 3],
}
_FILES = ["cycle", "clique", "split", "zero", "missing", "directory", "latin1", "garbled"]
_OUTS = ["file", "-", "missing_dir", "directory"]
_COMMANDS = {
    # flag: (kind, required)
    "generate": {"--n": ("n", True), "--d": ("degree", True), "--seed": ("small", False), "--out": ("out", False)},
    "cut-error": {
        "--h-file": ("file", True), "--g-file": ("file", True), "--exhaustive": ("switch", False),
        "--samples": ("small", False), "--sizes": ("ints", False), "--seed": ("small", False), "--out": ("out", False),
    },
    "spectral-error": {"--h-file": ("file", True), "--g-file": ("file", True), "--out": ("out", False)},
    "certify": {
        "--h-file": ("file", True), "--g": ("small", True), "--d": ("float", True),
        "--first-step": (["weight", "uniform", "other"], False), "--out": ("out", False),
    },
    "bounds": {
        "--alphas": ("floats", False), "--tail-grid": ("grid", False), "--ramanujan-ds": ("ints", False),
        "--format": (["csv", "json", "xml"], False), "--out": ("out", False),
    },
    "martingale": {
        "--n": ("n", True), "--k": ("degree", True), "--d": ("degree", True), "--seed": ("small", False),
        "--trials": ("trials", False), "--delta": ("float", False), "--trace-out": ("out", False), "--out": ("out", False),
    },
    "concentration": {
        "--n": ("n", True), "--alphas": ("floats", True), "--d": ("degree", True), "--seeds": ("seeds", True),
        "--seed": ("small", False), "--mode": (["auto", "exhaustive", "sampled", "other"], False),
        "--samples": ("trials", False), "--out": ("out", False),
    },
    "clique-sparsify": {
        "--n": ("n", True), "--d": ("degree", True), "--seeds": ("seeds", True), "--seed": ("small", False),
        "--cut-mode": (["exhaustive", "sampled", "other"], False), "--samples": ("trials", False),
        "--profile-reference": (["density", "expectation"], False), "--format": (["json", "csv"], False),
        "--out": ("out", False),
    },
    "separation": {
        "--n": ("n", True), "--big-degree": ("degree", True), "--d": ("degree", True), "--seeds": ("seeds", True),
        "--seed": ("small", False), "--g": ("small", False), "--target": (["clique", "parent"], False),
        "--cut-mode": (["auto", "exhaustive", "sampled"], False), "--samples": ("trials", False),
        "--out": ("out", False),
    },
}


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """Paths the random argv may name: edge lists that parse, one that does not,
    files that cannot be read, and output paths that can or cannot be written."""
    root = tmp_path_factory.mktemp("argv")
    graphs = {
        "cycle": make_cycle(6, 0.5),
        "clique": make_clique(6, 0.2),
        "split": WeightedGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]),
        "zero": WeightedGraph(6, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (0, 5, 0.0)]),
    }
    paths = {}
    for name, graph in graphs.items():
        paths[name] = root / f"{name}.edges"
        write_edge_list(graph, paths[name])
    paths["missing"] = root / "no_such.edges"
    paths["directory"] = root
    paths["latin1"] = root / "latin1.edges"
    paths["latin1"].write_bytes(b"n 3\n0 1 1.0 1\n# caf\xe9\n")
    paths["garbled"] = root / "garbled.edges"
    paths["garbled"].write_text("n 3\n0 1 x 1\n")
    paths["file"] = root / "out.json"
    paths["-"] = "-"
    paths["missing_dir"] = root / "no_such_dir" / "out.json"
    return paths


@st.composite
def _argv(draw, paths):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag, (kind, required) in _COMMANDS[command].items():
        skip = draw(st.integers(0, 19)) == 0 if required else draw(st.booleans())
        if skip:
            continue  # a required flag is left out now and then, for argparse's exit 2
        if kind == "switch":
            argv.append(flag)
            continue
        if isinstance(kind, list):
            value = draw(st.sampled_from(kind))
        elif kind in ("file", "out"):
            value = str(paths[draw(st.sampled_from(_FILES if kind == "file" else _OUTS))])
        else:
            value = str(draw(st.sampled_from(_NUMBERS[kind]) | st.sampled_from(_WEIRD)))
        argv.append(f"{flag}={value}")  # the = form lets a value start with '-'
    return argv


def _negative_counts(node, key=""):
    """Keys of the negative integers in a report, leaving out seeds, which may be negative."""
    if isinstance(node, dict):
        return [k for key, v in node.items() for k in _negative_counts(v, key)]
    if isinstance(node, list):
        return [k for v in node for k in _negative_counts(v, key)]
    return [key] if type(node) is int and node < 0 and "seed" not in key else []


class TestRandomArgv:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_exit_is_documented(self, argv_paths, data):
        argv = data.draw(_argv(argv_paths), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()
        if code:
            assert stderr.getvalue().splitlines()[-1].startswith(("error:", "sparselab"))
            return
        out = argv_paths["file"].read_text() if f"--out={argv_paths['file']}" in argv else stdout.getvalue()
        try:
            report = json.loads(out)
        except ValueError:  # an edge list, a CSV table or a trace
            return
        assert not _negative_counts(report), report
