"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything is seeded; the whole suite is
deterministic across runs on one platform.
"""

import json
import math

import numpy as np
import pytest

import sparselab as sl
from sparselab import cli, harness
from sparselab.cuts import REF_DENSITY
from sparselab.martingale import binomial_tail_ge

from helpers import (
    check_reveal_invariants,
    random_connected_graph,
    random_weighted_graph,
    regular_clique_epsilon_oracle,
)

# Frozen after the first verified run of criterion 12 (cycle C_1000, weight
# 1/2, horizon 10); reproducible bit-for-bit on one platform and checked to
# 1e-12 to allow for cross-platform libm variation.
GOLDEN_CYCLE_1000_EPS_LB = 0.9456486618588225


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- certificate sweep shared by criteria 5 and 6 ------------------------------------


@pytest.fixture(scope="module")
def certificate_sweep():
    """50 certificates with spectral ground truth: regular, cycles, weighted."""
    gs = [1, 2, 3, 5, 10]
    rng = sl.make_generator(4040)
    results = []
    for trial in range(50):
        kind = trial % 3
        g = gs[trial % 5]
        if kind == 0:
            n = int(rng.integers(8, 250)) * 2
            d = int(rng.integers(3, 12))
            h = sl.collapse_multiedges(
                sl.scale_weights(sl.sample_regular_multigraph(n, d, int(rng.integers(0, 2 ** 60))), 1.0 / d)
            )
            nominal = d
        elif kind == 1:
            n = int(rng.integers(10, 1000))
            h = sl.make_cycle(n, 0.5)
            nominal = 2
        else:
            n = int(rng.integers(8, 120))
            h = random_connected_graph(rng, n, int(rng.integers(n // 2, 3 * n)))
            nominal = max(2.0, 2.0 * h.num_bundles / n)
        cert = sl.certify_lower_bound(h, g, nominal)
        spec = sl.spectral_error(h, sl.Clique(h.n, 1.0 / h.n))
        results.append((trial, cert, spec))
    return results


def test_criterion_01_replica_symmetric_constant():
    got = sl.rs_bound(0.5).relative_error_bound
    want = 1.5957691216057308
    ok = abs(got - want) <= 1e-12
    _report(1, ok, f"rs_bound(0.5).relative_error_bound = {got!r}, target 2*sqrt(2/pi) within 1e-12")


def test_criterion_02_relative_error_maximized_at_half():
    cap = sl.rs_bound(0.5).relative_error_bound + 1e-12
    worst = -1.0
    n_pts = 10 ** 4
    for i in range(1, n_pts + 1):
        val = sl.rs_bound(i / (n_pts + 1)).relative_error_bound
        worst = max(worst, val)
        if val > cap:
            _report(2, False, f"alpha={i/(n_pts+1)} exceeds the balanced value")
    _report(2, True, f"{n_pts} grid points all <= rs_bound(0.5) + 1e-12 (max seen {worst:.15f})")


def test_criterion_03_c4_cross_check():
    c4 = sl.make_cycle(4, 1.5)
    k4 = sl.Clique(4, 1.0)
    eps_cut = sl.cut_error_exhaustive(c4, k4).epsilon
    eps_spec = sl.spectral_error(c4, k4).epsilon
    ok = abs(eps_cut - 0.5) <= 1e-9 and abs(eps_spec - 0.5) <= 1e-9
    _report(3, ok, f"eps_cut = {eps_cut!r}, eps_spec = {eps_spec!r}, both 0.5 within 1e-9")


def test_criterion_04_cut_error_never_exceeds_spectral():
    rng = sl.make_generator(1717)
    worst_margin = -1.0
    for trial in range(100):
        n = int(rng.integers(4, 17))
        g = random_connected_graph(rng, n, int(rng.integers(0, 3 * n)))
        if trial % 2:
            h = random_weighted_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        else:
            h = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
        eps_cut = sl.cut_error_exhaustive(h, g).epsilon
        eps_spec = sl.spectral_error(h, g).epsilon
        worst_margin = max(worst_margin, eps_cut - eps_spec)
        if eps_cut > eps_spec + 1e-9:
            _report(4, False, f"trial {trial}: eps_cut {eps_cut} > eps_spec {eps_spec}")
    _report(4, True, f"100 instances: eps_cut <= eps_spec + 1e-9 (worst margin {worst_margin:.3e})")


def test_criterion_05_certificate_soundness(certificate_sweep):
    worst = -1.0
    for trial, cert, spec in certificate_sweep:
        worst = max(worst, cert.epsilon_lb - spec.epsilon)
        if cert.epsilon_lb > spec.epsilon + 1e-6:
            _report(5, False, f"trial {trial}: eps_lb {cert.epsilon_lb} > eps_spec {spec.epsilon}")
    _report(5, True, f"50 graphs, g in {{1,2,3,5,10}}: eps_lb <= eps_spec + 1e-6 (worst margin {worst:.3e})")


def test_criterion_06_walk_identities_hold_on_every_run(certificate_sweep):
    bad = []
    lossless = 0
    runs = [(t, c) for t, c, _ in certificate_sweep]
    runs.append(("cycle1000", sl.certify_lower_bound(sl.make_cycle(1000, 0.5), 10, 2)))
    for trial, cert in runs:
        f = cert.identity_checks
        if f.total_mass_loss == 0.0:
            lossless += 1  # the checks reduce to the plain norm/trace identities here
        if not (f.vprime_norms_ok and f.norm_cap_ok and f.traces_ok and f.y_dot_j_ok):
            bad.append(trial)
    _report(
        6,
        not bad and lossless >= 30,
        f"norm and trace identities hold on all {len(runs)} certificate runs "
        f"({lossless} with zero walk-mass loss check the plain equalities; violations: {bad})",
    )


def test_criterion_07_martingale_bounds_exact():
    configs = ((40, 10, 3), (200, 2, 16))
    total = 0
    for n, k, d in configs:
        for t in range(10 ** 4):
            check_reveal_invariants(sl.simulate_reveal(n, k, d, seed=sl.derive_seed(31337 + n, t)))
            total += 1
    _report(7, True, f"ratio, increment, and quadratic-characteristic bounds exact in all {total} traces")


def test_criterion_08_appendix_inequalities_zero_violations():
    ratios = np.logspace(-3, 0, 100)
    cs = np.logspace(-1, 3, 100)
    taylor = [(float(r * c), float(c)) for r in ratios for c in cs]
    cs2 = np.logspace(0, 6, 100)
    loglinear = [
        (float(delta), float(c))
        for c in cs2
        for delta in np.logspace(math.log10(float(c)), 6, 100)
        if delta >= c
    ]
    rep = sl.verify_appendix_inequalities(taylor, loglinear)
    ok = rep.ok and rep.checked_taylor == 10 ** 4 and rep.checked_loglinear >= 5000
    _report(
        8,
        ok,
        f"{rep.checked_taylor} + {rep.checked_loglinear} grid points, zero violations, "
        f"min slack {rep.min_slack_taylor:.3e} / {rep.min_slack_loglinear:.3e}",
    )


def test_criterion_09_empirical_tail_dominated():
    n, k, d = 200, 2, 16
    delta = sl.small_cut_delta(n, k, d)
    out = sl.empirical_tail(n, k, d, delta, trials=2 * 10 ** 4, seed=90210)
    p_value = binomial_tail_ge(out.exceedances, out.trials, min(out.bound.value, 1.0))
    ok = p_value >= 0.01
    _report(
        9,
        ok,
        f"{out.exceedances}/{out.trials} exceedances vs bound {out.bound.value:.5f} "
        f"(one-sided exact-binomial p = {p_value:.4f} >= 0.01)",
    )


def test_criterion_10_spectral_sanity_band():
    n, d = 500, 10
    lo, hi = 0.45, 0.95
    values = []
    for t in range(10):
        h = sl.sample_regular_multigraph(n, d, sl.derive_seed(1001, t))
        direct = sl.spectral_error(sl.scale_weights(h, (n - 1) / d), sl.make_clique(n, 1.0))
        oracle = regular_clique_epsilon_oracle(h, d)
        if abs(direct.epsilon - oracle) > 1e-8:
            _report(10, False, f"seed {t}: graph reference {direct.epsilon} vs oracle {oracle}")
        if not lo <= direct.epsilon <= hi:
            _report(10, False, f"seed {t}: eps_spec {direct.epsilon} outside [{lo}, {hi}]")
        values.append(direct.epsilon)
    _report(
        10,
        True,
        f"10 seeds: eps_spec in [{min(values):.4f}, {max(values):.4f}] within [0.45, 0.95]; "
        f"oracle path agrees to 1e-8 (2*sqrt(d-1)/d = {sl.ramanujan_epsilon(d).exact:.3f})",
    )


def test_criterion_11_headline_trend_desk_scale():
    # The full vanishing-error claim needs n -> infinity then d -> infinity and
    # is NOT reproducible at desk scale; this checks the finite-size trend only.
    medians = {}
    for n in (16, 20, 24):
        rep = harness.run_clique_sparsify(n, 8, seeds=20, master_seed=2026, profile_reference=REF_DENSITY)
        medians[n] = rep["medians"]
    bal = [medians[n]["balanced_max_abs_dev"] for n in (16, 20, 24)]
    trend_ok = bal[0] >= bal[1] >= bal[2]
    order_ok = medians[24]["eps_cut"] < medians[24]["eps_spec"]
    _report(
        11,
        trend_ok and order_ok,
        f"balanced-cut deviation medians {[round(b, 4) for b in bal]} non-increasing over n=16,20,24; "
        f"median eps_cut {medians[24]['eps_cut']:.4f} < median eps_spec {medians[24]['eps_spec']:.4f} at n=24 "
        f"(asymptotic constant itself not reproducible at desk scale)",
    )


def test_criterion_12_certificate_golden_value():
    # The 2/sqrt(d) asymptotic needs n >> d^(4g) and is NOT reproducible at
    # desk scale; the pinned substitute is the cycle certificate value.
    h = sl.make_cycle(1000, 0.5)
    first = sl.certify_lower_bound(h, 10, 2)
    second = sl.certify_lower_bound(h, 10, 2)
    spec = sl.spectral_error(h, sl.Clique(1000, 1.0 / 1000))
    ok = (
        first.epsilon_lb > 0.0
        and first.epsilon_lb == second.epsilon_lb
        and abs(first.epsilon_lb - GOLDEN_CYCLE_1000_EPS_LB) <= 1e-12
        and first.epsilon_lb <= spec.epsilon + 1e-6
    )
    _report(
        12,
        ok,
        f"C_1000 certificate = {first.epsilon_lb!r} (golden {GOLDEN_CYCLE_1000_EPS_LB}), "
        f"run-to-run identical, <= eps_spec {spec.epsilon:.6f}",
    )


def test_criterion_13_replay_determinism(tmp_path):
    def run(name, args):
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        assert cli.main(args + ["--out", str(out_a)]) == 0, name
        assert cli.main(args + ["--out", str(out_b)]) == 0, name
        texts = []
        for path in (out_a, out_b):
            text = path.read_text()
            if text.lstrip().startswith("{"):
                data = json.loads(text)
                data.pop("generated_at", None)
                text = json.dumps(data, sort_keys=True)
            texts.append(text)
        return texts[0] == texts[1]

    h = tmp_path / "h.edges"
    g = tmp_path / "g.edges"
    sl.write_edge_list(sl.scale_weights(sl.sample_regular_multigraph(12, 4, 3), 11 / 4), h)
    sl.write_edge_list(sl.make_clique(12, 1.0), g)
    cases = {
        "generate": ["generate", "--n", "12", "--d", "4", "--seed", "5"],
        "cut-error": ["cut-error", "--h-file", str(h), "--g-file", str(g), "--exhaustive"],
        "cut-error-sampled": ["cut-error", "--h-file", str(h), "--g-file", str(g), "--samples", "20", "--seed", "4"],
        "spectral-error": ["spectral-error", "--h-file", str(h), "--g-file", str(g)],
        "certify": ["certify", "--h-file", str(h), "--g", "2", "--d", "4"],
        "bounds": ["bounds", "--alphas", "0.1,0.5", "--tail-grid", "2000,10,16", "--ramanujan-ds", "4,9"],
        "martingale": ["martingale", "--n", "40", "--k", "10", "--d", "3", "--seed", "2", "--trials", "100", "--delta", "1.0"],
        "concentration": ["concentration", "--n", "16", "--alphas", "0.5", "--d", "4", "--seeds", "4", "--seed", "3"],
        "clique-sparsify": ["clique-sparsify", "--n", "12", "--d", "4", "--seeds", "2", "--seed", "7"],
        "separation": ["separation", "--n", "16", "--big-degree", "6", "--d", "3", "--seeds", "1", "--g", "2", "--seed", "9"],
    }
    failed = [name for name, args in cases.items() if not run(name, args)]
    _report(13, not failed, f"all {len(cases)} subcommands byte-identical across reruns modulo timestamp (failures: {failed})")
