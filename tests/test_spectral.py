import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import spectral
from sparselab.cli import main
from sparselab.cuts import cut_error_exhaustive
from sparselab.errors import InvalidArgumentError, NotComparableError, SizeLimitError
from sparselab.graph import (
    Clique,
    WeightedGraph,
    first_matchings_subgraph,
    is_connected,
    make_clique,
    make_cycle,
    sample_regular_multigraph,
    scale_weights,
    write_edge_list,
)
from sparselab.rng import make_generator
from sparselab.spectral import spectral_error

from helpers import (
    DENSE_CAP,
    graph_pairs,
    laplacian,
    random_connected_graph,
    regular_clique_epsilon_oracle,
    spectral_extremes_oracle,
    symmetric_eigenvalues,
    whitening_extremes_oracle,
)


class TestLaplacian:
    def test_row_sums_zero(self):
        g = sample_regular_multigraph(30, 5, seed=2)
        lap = laplacian(g)
        assert np.all(lap.sum(axis=1) == 0.0)

    def test_quarter_clique_is_identity_minus_j_over_n(self):
        n = 6
        lap = laplacian(make_clique(n, 1.0 / n))
        expected = np.eye(n) - np.ones((n, n)) / n
        assert np.allclose(lap, expected, atol=1e-15)
        eigs = symmetric_eigenvalues(lap)
        assert np.allclose(eigs, [0.0] + [1.0] * (n - 1), atol=1e-12)

    def test_single_edge_eigenvalues(self):
        g = WeightedGraph(2, [(0, 1, 2.5)])
        assert np.allclose(symmetric_eigenvalues(laplacian(g)), [0.0, 5.0], atol=1e-12)

    def test_c4_spectrum(self):
        eigs = symmetric_eigenvalues(laplacian(make_cycle(4, 1.5)))
        assert np.allclose(eigs, [0.0, 3.0, 3.0, 6.0], atol=1e-12)

    def test_quadratic_form_matches_edge_sum(self):
        rng = make_generator(12)
        g = random_connected_graph(rng, 15, 30)
        lap = laplacian(g)
        us, vs, ws, _ = g.edge_arrays()
        for _ in range(20):
            x = rng.standard_normal(15)
            lhs = float(x @ lap @ x)
            rhs = float((ws * (x[us] - x[vs]) ** 2).sum())
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestEigenvalues:
    def test_zero_matrix(self):
        assert np.allclose(symmetric_eigenvalues(np.zeros((3, 3))), [0.0, 0.0, 0.0])

    def test_diagonal(self):
        assert np.allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_c6_closed_form(self):
        eigs = symmetric_eigenvalues(laplacian(make_cycle(6, 1.0)))
        expected = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * j / 6) for j in range(6))
        assert np.allclose(eigs, expected, atol=1e-12)

    def test_residual_contract(self):
        rng = make_generator(3)
        a = rng.standard_normal((40, 40))
        a = (a + a.T) / 2.0
        w, v = np.linalg.eigh(a)
        got = symmetric_eigenvalues(a)
        assert np.allclose(got, w, atol=1e-12)
        norm = np.abs(w).max()
        for j in (0, 20, 39):
            assert np.linalg.norm(a @ v[:, j] - w[j] * v[:, j]) <= 1e-8 * norm

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            symmetric_eigenvalues(np.zeros((5, 5)), cap=4)


class TestSpectralError:
    def test_self_is_zero(self):
        g = sample_regular_multigraph(20, 4, seed=1)
        rep = spectral_error(g, g)
        assert rep.epsilon == pytest.approx(0.0, abs=1e-10)

    def test_c4_vs_k4_closed_form(self):
        rep = spectral_error(make_cycle(4, 1.5), Clique(4, 1.0))
        assert rep.epsilon == pytest.approx(0.5, abs=1e-12)
        assert rep.lambda_min == pytest.approx(0.75, abs=1e-12)
        assert rep.lambda_max == pytest.approx(1.5, abs=1e-12)

    def test_scaling_invariance(self):
        rng = make_generator(21)
        h = random_connected_graph(rng, 12, 20)
        g = random_connected_graph(rng, 12, 25)
        base = spectral_error(h, g).epsilon
        scaled = spectral_error(scale_weights(h, 7.5), scale_weights(g, 7.5)).epsilon
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_whitening_agrees_with_clique_shortcut(self):
        rng = make_generator(22)
        for _ in range(5):
            h = random_connected_graph(rng, 14, 25)
            a = spectral_error(h, Clique(14, 0.7))
            b = spectral_error(h, make_clique(14, 0.7))
            assert (a.method, b.method) == ("clique", "cg")
            assert a.epsilon == pytest.approx(b.epsilon, abs=1e-9)

    def test_dominates_cut_error(self):
        rng = make_generator(23)
        for _ in range(10):
            n = int(rng.integers(5, 13))
            h = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
            g = random_connected_graph(rng, n, int(rng.integers(n, 3 * n)))
            eps_cut = cut_error_exhaustive(h, g).epsilon
            eps_spec = spectral_error(h, g).epsilon
            assert eps_cut <= eps_spec + 1e-9

    def test_disconnected_h_against_clique_is_comparable(self):
        # kernel(L_G) = span(1) is always inside kernel(L_H); the error is just large
        h = WeightedGraph(6, [(0, 1, 1.0), (2, 3, 1.0)])
        rep = spectral_error(h, Clique(6, 1.0))
        assert rep.epsilon == pytest.approx(1.0, abs=1e-9)  # lambda_min = 0

    def test_not_comparable_when_reference_disconnected(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        h = make_clique(4, 1.0)
        with pytest.raises(NotComparableError):
            spectral_error(h, g)

    def test_matching_disconnected_pair_is_comparable(self):
        # both graphs share the larger kernel, so the error is finite (zero here)
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        rep = spectral_error(g, g)
        assert rep.epsilon == pytest.approx(0.0, abs=1e-10)
        assert rep.method == "cg"

    def test_vertex_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            spectral_error(make_clique(4, 1.0), make_clique(5, 1.0))
        with pytest.raises(InvalidArgumentError, match="vertex sets differ"):
            spectral_error(make_clique(4, 1.0), Clique(5, 1.0))


class TestAdjacencyOracle:
    def test_agrees_with_whitening_across_seeds(self):
        n, d = 100, 6
        for seed in range(3):
            h = sample_regular_multigraph(n, d, seed=seed)
            direct = spectral_error(scale_weights(h, (n - 1) / d), make_clique(n, 1.0))  # conjugate gradients
            oracle = regular_clique_epsilon_oracle(h, d)
            assert direct.epsilon == pytest.approx(oracle, abs=1e-8)

    def test_clique_as_regular_graph_is_perfect(self):
        n = 9
        assert regular_clique_epsilon_oracle(make_clique(n, 1.0), n - 1) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_irregular(self):
        rng = make_generator(1)
        with pytest.raises(InvalidArgumentError):
            regular_clique_epsilon_oracle(random_connected_graph(rng, 8, 3), 4)


def test_spectral_band_for_scaled_regular():
    n, d = 200, 10
    h = sample_regular_multigraph(n, d, seed=42)
    rep = spectral_error(scale_weights(h, (n - 1) / d), Clique(n, 1.0))
    assert 0.4 < rep.epsilon < 1.0  # near 2 sqrt(d-1)/d = 0.6 with finite-size slack


class TestReferenceProperties:
    @settings(max_examples=50, deadline=None)
    @given(pair=graph_pairs(max_n=12), clique_reference=st.booleans(), w=st.floats(0.1, 10.0), c=st.floats(1e-3, 1e3))
    def test_cut_error_never_exceeds_spectral_and_both_are_scale_free(self, pair, clique_reference, w, c):
        h, g = pair
        ref, scaled_ref = (Clique(h.n, w), Clique(h.n, c * w)) if clique_reference else (g, scale_weights(g, c))
        eps_cut, eps_spec = cut_error_exhaustive(h, ref).epsilon, spectral_error(h, ref).epsilon
        assert eps_cut <= eps_spec + 1e-9
        h_scaled = scale_weights(h, c)
        assert abs(cut_error_exhaustive(h_scaled, scaled_ref).epsilon - eps_cut) <= 1e-12
        # eigensolver rounding is relative: eps_spec reaches ~60 on these graphs
        assert abs(spectral_error(h_scaled, scaled_ref).epsilon - eps_spec) <= 1e-12 * max(1.0, eps_spec)


# weights with exact ties, and zero-weight bundles
_lanczos_weights = st.one_of(st.just(0.0), st.integers(1, 3).map(float), st.floats(0.25, 4.0))


@st.composite
def lanczos_graphs(draw):
    """Graphs on 2..40 vertices: cycles, whose eigenvalues repeat, and random
    multigraphs (repeated pairs become one bundle), often disconnected, with
    zero-weight bundles."""
    n = draw(st.integers(2, 40))
    if n >= 3 and draw(st.booleans()):
        return make_cycle(n, draw(st.floats(0.25, 4.0)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _lanczos_weights)
    records = draw(st.lists(pairs, max_size=3 * n))
    return WeightedGraph(n, [(min(u, v), max(u, v), w) for u, v, w in records if u != v])


def _hypercube(dim: int) -> WeightedGraph:
    """Q_dim: vertices are bit strings, edges flip one bit; Laplacian eigenvalues 2i, i = 0..dim."""
    us = np.arange(1 << dim)
    pairs = [(us[us & (1 << b) == 0], us[us & (1 << b) == 0] | (1 << b)) for b in range(dim)]
    u, v = (np.concatenate(side) for side in zip(*pairs))
    return WeightedGraph.from_arrays(1 << dim, u, v, np.ones(u.size))


def _cap_for_rows(n: int, rows: int) -> int:
    """The smallest cap whose cap**2 numbers hold `rows` basis rows and their images."""
    return math.isqrt(2 * n * rows - 1) + 1


def _capped(h, g, cap: int):
    """spectral_error with its Lanczos basis and images held to cap**2 numbers."""
    with mock.patch.object(spectral, "BASIS_CAP", cap):
        return spectral_error(h, g)


def _budget(n: int) -> int:
    return spectral._STEPS_PER_VERTEX * n


class TestLanczos:
    @settings(max_examples=100, deadline=None)
    @given(h=lanczos_graphs(), w=st.floats(0.1, 10.0), rows=st.one_of(st.none(), st.integers(18, 30)))
    def test_extremes_match_the_dense_oracle(self, h, w, rows):
        # a cap that leaves 18-30 basis rows restarts on the larger graphs
        cap = spectral.BASIS_CAP if rows is None else _cap_for_rows(h.n, rows)
        rep = _capped(h, Clique(h.n, w), cap)
        norm = max(2.0 * float(h.weighted_degrees().max()), np.finfo(float).tiny)
        tol = 1e-10 * norm / (w * h.n)
        lo, hi = spectral_extremes_oracle(h, Clique(h.n, w))
        assert abs(rep.lambda_min - lo) <= tol
        assert abs(rep.lambda_max - hi) <= tol
        assert rep.epsilon == max(abs(rep.lambda_min - 1.0), abs(rep.lambda_max - 1.0))
        assert 1 <= rep.iterations <= _budget(h.n)
        assert rep.residual <= spectral._LANCZOS_RTOL
        if not is_connected(h):
            assert abs(rep.lambda_min) <= tol
            assert rep.epsilon >= 1.0 - tol

    def test_both_extremes_converge(self):
        # one heavy edge on a path: lambda_max is isolated and converges within a few
        # steps, lambda_2 sits in a cluster near 0 and needs many more; at n = 40
        # the basis holds every vector, at n = 400 the solve restarts
        for n in (40, 400):
            h = WeightedGraph(n, [(0, 1, 100.0)] + [(i, i + 1, 1.0) for i in range(1, n - 1)])
            rep = spectral_error(h, Clique(n, 1.0))
            lo, hi = spectral_extremes_oracle(h, Clique(n, 1.0))
            tol = 1e-10 * 200.0 / n
            assert abs(rep.lambda_min - lo) <= tol and abs(rep.lambda_max - hi) <= tol

    def test_hypercube_above_the_dense_cap(self):
        w = 0.3
        h = _hypercube(12)
        assert h.n == 4096 > DENSE_CAP
        rep = spectral_error(h, Clique(h.n, w))
        tol = 1e-10 * 24.0 / (w * h.n)
        assert rep.lambda_min == pytest.approx(2.0 / (w * h.n), abs=tol)
        assert rep.lambda_max == pytest.approx(24.0 / (w * h.n), abs=tol)

    @pytest.mark.parametrize(
        "h",
        [make_cycle(100, 0.5), scale_weights(sample_regular_multigraph(200, 4, 3), 199 / 4), WeightedGraph(3, [])],
        ids=["cycle", "regular", "empty"],
    )
    def test_solver_data_stays_out_of_the_json(self, h):
        rep = spectral_error(h, Clique(h.n, 1.0))
        assert rep.method == "clique"
        assert 1 <= rep.iterations <= _budget(h.n)
        assert 0.0 <= rep.residual <= spectral._LANCZOS_RTOL
        assert set(rep.to_json_dict()) == {"epsilon", "lambda_min", "lambda_max", "kernel_ok", "n"}
        graph = spectral_error(h, make_clique(h.n, 1.0))
        assert graph.method == "cg"
        assert 1 <= graph.iterations <= _budget(h.n)
        assert 0.0 <= graph.residual <= spectral._LANCZOS_RTOL

    def test_restarted_solve_matches_the_full_basis(self):
        # cap 300 leaves 45 rows at n = 1000; a basis that only grows stopped there after 89 steps
        n = 1000
        h = scale_weights(first_matchings_subgraph(sample_regular_multigraph(n, 16, 0), 4), (n - 1) / 4)
        full = spectral_error(h, Clique(n, 1.0))
        restarted = _capped(h, Clique(n, 1.0), 300)
        assert 44 < restarted.iterations < n  # a restart that dropped the residual direction took 52 740
        tol = 1e-10 * 2.0 * float(h.weighted_degrees().max()) / n
        assert abs(restarted.lambda_min - full.lambda_min) <= tol
        assert abs(restarted.lambda_max - full.lambda_max) <= tol

    def test_unconverged_solve_is_a_size_limit(self, monkeypatch):
        h = make_cycle(200, 0.5)
        assert _capped(h, Clique(200, 1.0), _cap_for_rows(200, 18)).residual <= spectral._LANCZOS_RTOL
        with pytest.raises(SizeLimitError, match="too few to restart"):  # 3 rows keep no Ritz vector at either end
            _capped(h, Clique(200, 1.0), _cap_for_rows(200, 4) - 1)
        path = WeightedGraph(400, [(i, i + 1, 1.0) for i in range(399)])
        assert spectral_error(path, Clique(400, 1.0)).iterations > 400
        monkeypatch.setattr(spectral, "_STEPS_PER_VERTEX", 1)
        with pytest.raises(SizeLimitError, match="did not converge within 400 steps"):
            spectral_error(path, Clique(400, 1.0))

    def test_unconverged_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        h, g = tmp_path / "h.edges", tmp_path / "g.edges"
        write_edge_list(make_cycle(200, 0.5), h)
        write_edge_list(make_clique(200, 1.0), g)
        monkeypatch.setattr(spectral, "BASIS_CAP", 30)
        assert main(["spectral-error", "--h-file", str(h), "--g-file", str(g)]) == 3
        assert "too few to restart" in capsys.readouterr().err

    def test_graph_reference_above_the_cap_matches_the_clique(self):
        # cap 40 leaves 16 rows at n = 50, so both solves restart
        h = make_cycle(50, 1.0)
        a, b = _capped(h, Clique(50, 1.0), 40), _capped(h, make_clique(50, 1.0), 40)
        assert (a.method, b.method) == ("clique", "cg")
        assert abs(a.lambda_min - b.lambda_min) <= 1e-10 * a.lambda_max
        assert abs(a.lambda_max - b.lambda_max) <= 1e-10 * a.lambda_max


@st.composite
def component_pairs(draw):
    """(h, g, crossed) on 2..12 vertices: g is connected inside each of its 1..4
    components, its spanning-tree weights scaled by 1e-3..1e3 against its
    other bundles; h's bundles stay inside g's components, or carry zero
    weight, except for one positive bundle across two components when
    ``crossed``."""
    n = draw(st.integers(2, 12))
    label = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    scale = draw(st.floats(1e-3, 1e3))
    g_edges, h_edges = {}, {}
    for v in range(1, n):  # each vertex hangs off an earlier vertex of its component, if it has one
        earlier = [u for u in range(v) if label[u] == label[v]]
        if earlier:
            g_edges[(draw(st.sampled_from(earlier)), v)] = scale * draw(st.floats(0.2, 2.0))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.2, 2.0))
    for u, v, w in draw(st.lists(extra, max_size=2 * n)):
        u, v = min(u, v), max(u, v)
        if u == v:
            continue
        if label[u] != label[v]:
            h_edges[(u, v)] = 0.0
        else:
            (g_edges if draw(st.booleans()) else h_edges)[(u, v)] = w
    apart = [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] != label[v]]
    crossed = bool(apart) and draw(st.booleans())
    if crossed:
        h_edges[draw(st.sampled_from(apart))] = draw(st.floats(1e-12, 2.0))
    return (
        WeightedGraph(n, [(u, v, w) for (u, v), w in h_edges.items()]),
        WeightedGraph(n, [(u, v, w) for (u, v), w in g_edges.items()]),
        crossed,
    )


def _assert_matches_whitening(h: WeightedGraph, g: WeightedGraph) -> None:
    rep = spectral_error(h, g)
    lo, hi = whitening_extremes_oracle(h, g)
    assert rep.method == "cg"
    assert abs(rep.lambda_min - lo) <= 1e-10 * hi
    assert abs(rep.lambda_max - hi) <= 1e-10 * hi
    assert rep.residual <= spectral._LANCZOS_RTOL


class TestGraphReference:
    @settings(max_examples=50, deadline=None)
    @given(pair=graph_pairs(max_n=12), c=st.floats(1e-3, 1e3))
    def test_connected_reference_matches_the_whitening(self, pair, c):
        h, g = pair
        _assert_matches_whitening(h, scale_weights(g, c))

    @settings(max_examples=100, deadline=None)
    @given(case=component_pairs())
    def test_not_comparable_exactly_when_a_bundle_joins_components(self, case):
        h, g, crossed = case
        if not g.num_bundles:
            with pytest.raises(NotComparableError):
                spectral_error(h, g)
        elif crossed:
            with pytest.raises(NotComparableError, match="joins two components"):
                spectral_error(h, g)
        else:
            _assert_matches_whitening(h, g)

    def test_tiny_bundle_across_components_is_not_comparable(self, tmp_path, capsys):
        # the dense whitening's kernel tolerances passed this pair with epsilon 5e-13
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        h = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1e-12)])
        with pytest.raises(NotComparableError, match=r"bundle \(1, 2\) of H joins two components"):
            spectral_error(h, g)
        write_edge_list(h, tmp_path / "h.edges")
        write_edge_list(g, tmp_path / "g.edges")
        capsys.readouterr()
        argv = ["spectral-error", "--h-file", str(tmp_path / "h.edges"), "--g-file", str(tmp_path / "g.edges")]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")

    def test_reference_without_edges_is_not_comparable(self):
        # the dense whitening indexed an empty spectrum here
        for h in (WeightedGraph(3, []), WeightedGraph(3, [(0, 1, 0.0)])):
            with pytest.raises(NotComparableError, match="no positive-weight bundle"):
                spectral_error(h, WeightedGraph(3, [(0, 1, 0.0)]))

    def test_conjugate_gradient_budget_is_a_size_limit(self, tmp_path, monkeypatch, capsys):
        # a path is the worst-conditioned connected reference: CG takes n - 1 steps per solve
        n = 60
        path = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        h = make_cycle(n, 1.0)
        assert spectral_error(h, path).residual <= spectral._LANCZOS_RTOL
        monkeypatch.setattr(spectral, "_CG_STEPS_PER_VERTEX", 0.5)
        with pytest.raises(SizeLimitError, match=f"conjugate gradients did not converge within {n // 2} steps"):
            spectral_error(h, path)
        write_edge_list(h, tmp_path / "h.edges")
        write_edge_list(path, tmp_path / "g.edges")
        capsys.readouterr()
        argv = ["spectral-error", "--h-file", str(tmp_path / "h.edges"), "--g-file", str(tmp_path / "g.edges")]
        assert main(argv) == 3
        assert "conjugate gradients did not converge" in capsys.readouterr().err
