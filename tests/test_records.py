"""The report records are immutable values: they refuse assignment, pickle
(as the forked stages hand them back) to equal values, and print as
``Name(field=value, ...)``."""

import pickle

import numpy as np
import pytest

from sparselab import _fork, bounds, cuts, martingale, nbwalk, spectral
from sparselab.errors import InvalidArgumentError
from sparselab.graph import Clique, make_cycle, sample_regular_multigraph

RECORD_FIELDS = {
    "RSBound": ("alpha", "T", "M", "lambda_hat", "ground_state_bound", "relative_error_bound"),
    "RamanujanBound": ("asymptotic", "exact"),
    "TailBound": ("n", "k", "d", "delta", "C", "expected_interior", "regime", "value"),
    "AppendixReport": (
        "checked_taylor", "violations_taylor", "min_slack_taylor",
        "checked_loglinear", "violations_loglinear", "min_slack_loglinear",
    ),
    "CutErrorReport": ("epsilon", "witness", "mode", "subsets_examined", "n", "lower_bound"),
    "CutProfileRow": ("k", "alpha", "max_dev", "min_dev", "subsets_examined", "mode"),
    "CutProfile": ("n", "d", "reference", "rows"),
    "Clique": ("n", "w"),
    "RevealTrace": ("n", "k", "d", "seed", "x0", "z", "w", "x", "y", "a", "b", "quad_char", "matchings"),
    "EmpiricalTail": (
        "n", "k", "d", "delta", "trials", "exceedances", "empirical_prob", "expected_interior",
        "sample_mean_interior", "bound",
    ),
    "PseudoGirthReport": ("g", "n", "acyclic_g", "acyclic_2g", "F", "B", "violating"),
    "IdentityChecks": (
        "max_vprime_norm_dev", "max_norm_sq", "norm_sq_cap", "trace_x", "trace_y", "trace_lower", "trace_upper",
        "y_dot_j", "y_dot_j_cap", "total_mass_loss", "vprime_norms_ok", "norm_cap_ok", "traces_ok", "y_dot_j_ok",
    ),
    "AssumptionChecks": (
        "d", "min_combinatorial_degree", "combinatorial_ok", "min_weighted_degree", "max_weighted_degree",
        "weighted_ok", "max_edge_weight", "edge_weight_ok",
    ),
    "CertificateReport": (
        "n", "g", "d", "first_step", "x_dot_lh", "x_dot_lk", "y_dot_lh", "y_dot_lk", "y_dot_dh", "ymx_dot_ah",
        "ratio", "epsilon_lb", "pseudo_girth", "identity_checks", "assumptions",
    ),
    "SpectralReport": ("epsilon", "lambda_min", "lambda_max", "n", "method", "iterations", "residual"),
}


@pytest.fixture(scope="module")
def records():
    """One record of each kind, from the functions that make them."""
    h = sample_regular_multigraph(10, 4, 1)
    profile = cuts.cut_profile(h, 4)
    cert = nbwalk.certify_lower_bound(make_cycle(12, 1.0 / 12), 2, 2.0)
    made = [
        bounds.rs_bound(0.3),
        bounds.ramanujan_epsilon(4),
        bounds.tail_bound_generic(200, 2, 16, 2.0),
        bounds.verify_appendix_inequalities([(1.0, 1.0)], [(3.0, 2.0)]),
        cuts.cut_error_exhaustive(h, Clique(10, 0.4)),
        profile.rows[0],
        profile,
        Clique(10, 0.4),
        martingale.simulate_reveal(20, 3, 4, 1),
        martingale.empirical_tail(40, 5, 3, 50.0, 20, 1),
        cert.pseudo_girth,
        cert.identity_checks,
        cert.assumptions,
        cert,
        spectral.spectral_error(h, Clique(10, 0.4)),
    ]
    assert sorted(type(r).__name__ for r in made) == sorted(RECORD_FIELDS)
    return made


def test_every_record_refuses_assignment(records):
    for rec in records:
        for name in (type(rec)._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)


def test_every_record_pickles_to_an_equal_value(records):
    for rec in records:
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and back == rec and not back != rec, type(rec).__name__


def test_records_come_back_equal_from_forked_stages(records):
    # run_stages forks one child per CPU at this work and pickles each result back
    assert _fork.run_stages([lambda rec=rec: rec for rec in records], _fork._PARALLEL_WORK) == records


def test_every_record_prints_its_field_names(records):
    for rec in records:
        names = RECORD_FIELDS[type(rec).__name__]
        assert type(rec)._fields == names
        assert repr(rec) == f"{type(rec).__name__}({', '.join(f'{n}={getattr(rec, n)!r}' for n in names)})"


def test_a_clique_keeps_its_checks_and_coercion():
    c = Clique(np.int64(6), 2)
    assert (type(c.n), type(c.w)) == (int, float) and c == Clique(6, 2.0)
    assert pickle.loads(pickle.dumps(c)) == c
    for n, w in ((1, 1.0), (6, 0.0), (6, float("inf")), (6.0, 1.0)):
        with pytest.raises(InvalidArgumentError, match="clique"):
            Clique(n, w)
    with pytest.raises(InvalidArgumentError, match="clique needs n >= 2"):
        c._replace(n=1)
    assert type(c._replace(w=3).w) is float


def test_reveal_traces_compare_by_their_arrays():
    a, b, c = (martingale.simulate_reveal(20, 3, 4, seed) for seed in (1, 1, 2))
    assert a == b and not a != b
    assert a != c and not a == c
