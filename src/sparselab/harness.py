"""Experiment orchestration: seeded multi-trial runs that bundle the
measurement modules into replayable JSON/CSV reports.

Every report embeds its fully resolved configuration, the master seed, the
per-trial derived seeds, and the RNG algorithm identifier, so a rerun with
the same arguments is byte-identical apart from the timestamp field.
"""

from __future__ import annotations

import datetime
import math
from functools import partial
from typing import Sequence

from . import _fork, bounds, cuts, martingale, nbwalk, spectral
from .errors import InvalidArgumentError, SizeLimitError
from .graph import (
    Clique,
    WeightedGraph,
    collapse_multiedges,
    first_matchings_subgraph,
    sample_regular_multigraph,
    scale_weights,
)
from .rng import RNG_ALGORITHM, derive_seed


def _base_report(subcommand: str, config: dict) -> dict:
    return {
        "subcommand": subcommand,
        "config": dict(config),
        "rng_algorithm": RNG_ALGORITHM,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _median(xs) -> float:
    """statistics.median's value, without its import of decimal and fractions."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return float(xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2)


def _references(d: int) -> dict:
    """The analytic values a degree-d clique sparsifier is compared with."""
    return {
        "rs_constant_over_sqrt_d": bounds.main_constant() / math.sqrt(d),
        "ramanujan_asymptotic": bounds.ramanujan_epsilon(d).asymptotic if d >= 2 else None,
        "ramanujan_exact": bounds.ramanujan_epsilon(d).exact if d >= 2 else None,
        "note": bounds.asymptotic_note(),
    }


def _require_seeds(seeds: int) -> None:
    if seeds < 1:
        raise InvalidArgumentError(f"need at least one seed, got {seeds}")


def _require_samples(samples: int) -> None:
    """Checked in every cut mode, because the report echoes the count in every mode."""
    if samples < 0:
        raise InvalidArgumentError(f"samples must be nonnegative, got {samples}")


def _exhaustive(mode: str, n: int, modes: tuple[str, ...]) -> bool:
    """Whether a cut mode enumerates every subset: "exhaustive" always, "auto" up to
    cuts.EXHAUSTIVE_CAP.  "exhaustive" above the cap raises SizeLimitError before any sampling."""
    if mode not in modes:
        raise InvalidArgumentError(f"unknown cut mode {mode!r}")
    if mode == "exhaustive" and n > cuts.EXHAUSTIVE_CAP:
        raise SizeLimitError(f"n={n} exceeds exhaustive cap {cuts.EXHAUSTIVE_CAP}; use a sampled mode")
    return mode == "exhaustive" or (mode == "auto" and n <= cuts.EXHAUSTIVE_CAP)


def _sampled_sizes(n: int) -> list[int]:
    """The subset sizes a sampled cut error draws: the powers of two from 4 below n/2, and n/2."""
    return sorted({min(2 ** j, n // 2) for j in range(2, n.bit_length())} | {n // 2})


# -- clique sparsification --------------------------------------------------------


def run_clique_sparsify(
    n: int,
    d: int,
    seeds: int,
    master_seed: int = 0,
    cut_mode: str = "exhaustive",
    samples_per_size: int = 200,
    profile_reference: str = cuts.REF_DENSITY,
) -> dict:
    """Measure H = G_Reg(n, d) scaled by (n-1)/d against the unweighted clique.

    Per seed: exact (or sampled) cut error, spectral error, and the per-size
    cut deviation profile, next to the analytic reference constants.
    """
    if n % 2 != 0:
        raise InvalidArgumentError(f"matching model needs even n, got {n}")
    if d < 1:
        raise InvalidArgumentError(f"degree must be >= 1, got {d}")
    _require_seeds(seeds)
    _require_samples(samples_per_size)
    exhaustive = _exhaustive(cut_mode, n, ("exhaustive", "sampled"))
    clique = Clique(n, 1.0)
    scale = (n - 1) / d
    records = []
    for t in range(seeds):
        seed = derive_seed(master_seed, t)
        h_raw = sample_regular_multigraph(n, d, seed)
        h = scale_weights(h_raw, scale)
        if exhaustive:
            # one enumeration yields both the error and the profile
            cut_report, profile = cuts.regular_vs_clique_exhaustive(h_raw, d, reference=profile_reference)
        else:
            cut_report = cuts.cut_error_sampled(h, clique, samples_per_size, _sampled_sizes(n), seed)
            profile = cuts.cut_profile(
                h_raw, d, reference=profile_reference, samples_per_size=samples_per_size, seed=seed
            )
        spec_report = spectral.spectral_error(h, clique)
        balanced = profile.row(n // 2)
        records.append(
            {
                "trial": t,
                "seed": seed,
                "eps_cut": cut_report.epsilon,
                "cut_mode": cut_report.mode,
                "cut_witness": list(cut_report.witness) if cut_report.witness else None,
                "eps_spec": spec_report.epsilon,
                "balanced_max_abs_dev": max(abs(balanced.max_dev), abs(balanced.min_dev)),
                "profile": [
                    {
                        "k": r.k,
                        "alpha": r.alpha,
                        "max_dev": r.max_dev,
                        "min_dev": r.min_dev,
                        "mode": r.mode,
                        "samples": r.subsets_examined,
                    }
                    for r in profile.rows
                ],
            }
        )
    report = _base_report(
        "clique-sparsify",
        {
            "n": n,
            "d": d,
            "seeds": seeds,
            "master_seed": master_seed,
            "cut_mode": cut_mode,
            "samples_per_size": samples_per_size,
            "profile_reference": profile_reference,
        },
    )
    report["references"] = _references(d)
    report["records"] = records
    report["medians"] = {
        "eps_cut": _median(r["eps_cut"] for r in records),
        "eps_spec": _median(r["eps_spec"] for r in records),
        "balanced_max_abs_dev": _median(r["balanced_max_abs_dev"] for r in records),
    }
    return report


# -- separation experiment ----------------------------------------------------------

_STAGE_WORK = 1 << 14  # a seed's stages per vertex; _fork._PARALLEL_WORK has the units and the fit


def run_separation(
    n: int,
    big_degree: int,
    d: int,
    seeds: int,
    g: int,
    master_seed: int = 0,
    target: str = "clique",
    cut_mode: str = "auto",
    samples_per_size: int = 200,
) -> dict:
    """Sparsify a parent G_Reg(n, Delta) by its first d matchings and measure
    cut error, spectral error, and the certificate lower bound.

    The certificate and its soundness reference are always taken against the
    1/n-weighted clique (the certified quantity); the cut and spectral errors
    are against the requested target.
    """
    if n % 2 != 0:
        raise InvalidArgumentError(f"matching model needs even n, got {n}")
    if d > big_degree:
        raise InvalidArgumentError(f"prefix degree {d} exceeds parent degree {big_degree}")
    _require_seeds(seeds)
    _require_samples(samples_per_size)
    if target not in ("clique", "parent"):
        raise InvalidArgumentError(f"unknown target {target!r}")
    exhaustive = _exhaustive(cut_mode, n, ("auto", "exhaustive", "sampled"))
    clique = Clique(n, 1.0)
    records = []
    for t in range(seeds):
        seed = derive_seed(master_seed, t)
        parent = sample_regular_multigraph(n, big_degree, seed)
        h_raw = first_matchings_subgraph(parent, d)
        if target == "clique":
            h = scale_weights(h_raw, (n - 1) / d)
            tgt = clique
        else:
            h = scale_weights(h_raw, big_degree / d)
            tgt = parent
        # Certificate view: unit-ish weighted degree against the 1/n clique.
        h_cert = collapse_multiedges(scale_weights(h_raw, (n - 1) / (d * n)))
        # The stages read no other stage's result, so they run side by side, and fail in this
        # order; the clique solve comes before the long solve against the parent to share the CPUs.
        if exhaustive:
            stages = [partial(cuts.cut_error_exhaustive, h, tgt)]
        else:
            stages = [partial(cuts.cut_error_sampled, h, tgt, samples_per_size, _sampled_sizes(n), seed)]
        if target == "parent":
            stages.append(partial(spectral.spectral_error, h_cert, Clique(n, 1.0 / n)))
        stages.append(partial(spectral.spectral_error, h, tgt))
        # a certificate above the fork floor splits its roots over the CPUs afterwards
        inline = nbwalk.certificate_work(h_cert, g) < _fork._PARALLEL_WORK
        if inline:
            stages.append(partial(nbwalk.certify_lower_bound, h_cert, g, d))
        cut_report, *done = _fork.run_stages(stages, _STAGE_WORK * n)
        cert = done.pop() if inline else nbwalk.certify_lower_bound(h_cert, g, d)
        spec_report = done[-1]
        # for the clique target h_cert = h/n against the 1/n clique: the eigenproblem of h against the unit clique
        spec_clique = done[0]
        records.append(
            {
                "trial": t,
                "seed": seed,
                "eps_cut": cut_report.epsilon,
                "cut_mode": cut_report.mode,
                "eps_spec": spec_report.epsilon,
                "eps_spec_clique": spec_clique.epsilon,
                "eps_lb": cert.epsilon_lb,
                "certificate_ratio": cert.ratio,
                "pseudo_girth_F": cert.pseudo_girth.F,
                "pseudo_girth_B": cert.pseudo_girth.B,
                "identity_checks_ok": cert.identity_checks.ok,
            }
        )
    report = _base_report(
        "separation",
        {
            "n": n,
            "big_degree": big_degree,
            "d": d,
            "seeds": seeds,
            "g": g,
            "master_seed": master_seed,
            "target": target,
            "cut_mode": cut_mode,
            "samples_per_size": samples_per_size,
        },
    )
    report["references"] = _references(d)
    report["records"] = records
    return report


# -- bounds table ---------------------------------------------------------------------


_TABLE_COLUMNS = [
    "kind", "alpha", "T", "M", "lambda_hat", "ground_state_bound", "relative_error_bound",
    "n", "k", "d", "delta", "C", "expected_interior", "generic_value", "regime", "regime_value",
    "ramanujan_asymptotic", "ramanujan_exact",
]


def run_bounds_table(
    alphas: Sequence[float] = (),
    tail_grid: Sequence[tuple[int, int, int]] = (),
    ramanujan_ds: Sequence[int] = (),
) -> list[dict]:
    """Rows of evaluated bounds over explicit grids; empty grids give no rows."""
    rows: list[dict] = []
    for alpha in alphas:
        rows.append({"kind": "rs", **bounds.rs_bound(alpha)._asdict()})
    for n, k, d in tail_grid:
        delta = bounds.small_cut_delta(n, k, d)
        generic = bounds.tail_bound_generic(n, k, d, delta)
        regime = bounds.tail_bound_regime(n, k, d, delta)
        rows.append(
            {
                "kind": "tail",
                "n": n,
                "k": k,
                "d": d,
                "delta": delta,
                "C": generic.C,
                "expected_interior": generic.expected_interior,
                "generic_value": generic.value,
                "regime": regime.regime,
                "regime_value": regime.value,
            }
        )
    for d in ramanujan_ds:
        rb = bounds.ramanujan_epsilon(d)
        rows.append(
            {
                "kind": "ramanujan",
                "d": d,
                "ramanujan_asymptotic": rb.asymptotic,
                "ramanujan_exact": rb.exact,
            }
        )
    return rows


def bounds_table_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(_TABLE_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row.get(c) is None else repr(row[c]) if isinstance(row.get(c), float) else str(row[c]) for c in _TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


# -- concentration of the per-size maximum ---------------------------------------------


def run_concentration(
    n: int,
    alphas: Sequence[float],
    d: int,
    seeds: int,
    master_seed: int = 0,
    mode: str = "auto",
    samples_per_seed: int = 500,
) -> dict:
    """Spread, across seeds, of the maximum normalized cut at each size alpha*n,
    against the sub-Gaussian envelope 2 exp(-n eps^2 / d).

    The envelope bounds deviation from the expected maximum; the sample mean
    stands in for that expectation, so the check is statistical and one-sided
    (an exact binomial test per epsilon).
    """
    if n % 2 != 0:
        raise InvalidArgumentError(f"matching model needs even n, got {n}")
    _require_seeds(seeds)
    _require_samples(samples_per_seed)
    exhaustive = _exhaustive(mode, n, ("auto", "exhaustive", "sampled"))
    ks = []
    for alpha in alphas:
        if not 0.0 < alpha <= 0.5:
            raise InvalidArgumentError(f"alpha must lie in (0, 1/2], got {alpha}")
        k = round(alpha * n)
        if k < 1:
            raise InvalidArgumentError(f"alpha*n < 1 is degenerate (alpha={alpha}, n={n})")
        ks.append(k)
    # one graph per seed serves every alpha; exhaustive mode enumerates its cuts once
    tops: list[list[float]] = [[] for _ in ks]
    for t in range(seeds if ks else 0):
        seed = derive_seed(master_seed, t)
        extremes = cuts.size_extremes(sample_regular_multigraph(n, d, seed), ks, exhaustive, samples_per_seed, seed)
        for column, (top, _, _) in zip(tops, extremes):
            column.append(top / n)
    per_alpha = []
    for alpha, k, maxima in zip(alphas, ks, tops):
        mean = sum(maxima) / len(maxima)
        checks = []
        for factor in (1.0, 1.5, 2.0, 3.0):
            eps = factor * math.sqrt(d / n)
            exceed = sum(1 for m in maxima if abs(m - mean) > eps)
            envelope = 2.0 * math.exp(-n * eps * eps / d)
            pval = martingale.binomial_tail_ge(exceed, seeds, min(envelope, 1.0))
            checks.append(
                {
                    "epsilon": eps,
                    "exceedances": exceed,
                    "empirical_prob": exceed / seeds,
                    "envelope": envelope,
                    "binomial_p_value": pval,
                    "consistent": pval >= 0.01,
                }
            )
        per_alpha.append(
            {
                "alpha": alpha,
                "k": k,
                "mode": "exhaustive" if exhaustive else "sampled",
                "maxima": maxima,
                "sample_mean": mean,
                "checks": checks,
            }
        )
    report = _base_report(
        "concentration",
        {
            "n": n,
            "alphas": list(alphas),
            "d": d,
            "seeds": seeds,
            "master_seed": master_seed,
            "mode": mode,
            "samples_per_seed": samples_per_seed,
        },
    )
    report["per_alpha"] = per_alpha
    return report


# -- single-shot wrappers used by the CLI -----------------------------------------------


def run_cut_error(
    h: WeightedGraph,
    g: WeightedGraph | Clique,
    exhaustive: bool,
    samples_per_size: int,
    sizes: Sequence[int],
    seed: int,
) -> dict:
    _require_samples(samples_per_size)
    if min(sizes, default=0) < 0:
        raise InvalidArgumentError(f"sizes must be nonnegative, got {list(sizes)}")
    if exhaustive:
        rep = cuts.cut_error_exhaustive(h, g)
    else:
        rep = cuts.cut_error_sampled(h, g, samples_per_size, sizes, seed)
    out = _base_report(
        "cut-error",
        {
            "exhaustive": exhaustive,
            "samples_per_size": samples_per_size,
            "sizes": list(sizes),
            "seed": seed,
            "n": h.n,
        },
    )
    out.update(rep.to_json_dict())
    return out


def run_spectral_error(h: WeightedGraph, g: WeightedGraph | Clique) -> dict:
    rep = spectral.spectral_error(h, g)
    out = _base_report("spectral-error", {"n": h.n})
    out.update(rep.to_json_dict())
    return out


def run_certify(h: WeightedGraph, g: int, d: float, first_step: str = nbwalk.FIRST_STEP_WEIGHT) -> dict:
    cert = nbwalk.certify_lower_bound(collapse_multiedges(h), g, d, first_step=first_step)
    out = _base_report("certify", {"n": h.n, "g": g, "d": d, "first_step": first_step})
    out.update(cert.to_json_dict())
    return out


def run_martingale(
    n: int,
    k: int,
    d: int,
    seed: int,
    trials: int,
    delta: float | None,
) -> tuple[dict, martingale.RevealTrace]:
    """The martingale report and the reveal trace it summarises.  The tail runs
    first, so an input outside the tail bound's domain fails before any sampling."""
    if trials < 0:
        raise InvalidArgumentError(f"need at least one trial, or 0 for no tail, got {trials}")
    tail = martingale.empirical_tail(n, k, d, delta, trials, seed) if delta is not None and trials != 0 else None
    trace = martingale.simulate_reveal(n, k, d, seed)
    out = _base_report(
        "martingale",
        {"n": n, "k": k, "d": d, "seed": seed, "trials": trials, "delta": delta},
    )
    out["trace_summary"] = {
        "steps": trace.steps,
        "x0": trace.x0,
        "terminal": float(trace.x[-1]),
        "max_abs_increment": float(abs(trace.y).max()),
        "terminal_quad_char": float(trace.quad_char[-1]),
    }
    if tail is not None:
        out["empirical_tail"] = {
            "delta": tail.delta,
            "trials": tail.trials,
            "exceedances": tail.exceedances,
            "empirical_prob": tail.empirical_prob,
            "expected_interior": tail.expected_interior,
            "sample_mean_interior": tail.sample_mean_interior,
            "analytic_bound": tail.bound.value,
        }
    return out, trace
