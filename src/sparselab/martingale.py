"""Exact simulation of the matched edge-vertex reveal martingale.

The target quantity is e(S), the number of matching edges lying entirely
inside the fixed set S = {0, ..., k-1}, for a union of d uniform perfect
matchings on n vertices.  Partner vertices are revealed one query at a time,
matching-major then vertex-minor (matching m = 0..d-1, query vertex
i = 0..k-2), and after each reveal the conditional expectation of e(S) is
recomputed in closed form: revealed inside-edges count 1 each, the rest of
the current matching contributes phi(a, b) = C(a,2)/(b-1) where a and b
count unmatched S-vertices and unmatched vertices overall, and each future
matching contributes phi(k, n).

Because the conditional expectations are exact, the martingale property and
increment bounds can be checked exactly on every step of every trace.

The d matchings of a trace come from one call, as a (d, n) partner table.
A tail trial draws the same shuffled rows the table is built from and counts
its interior edges on them directly, in one step.  A large tail is split into
contiguous chunks of trials by ``_fork.split_ranges``, one forked child per
CPU, and the children's integer counts are added in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from ._fork import split_ranges
from .bounds import TailBound, phi_matching, tail_bound_generic
from .errors import InvalidArgumentError
from .graph import _shuffled_rows, sample_matching_partners
from .rng import derived_generators, make_generator


@dataclass(frozen=True)
class RevealTrace:
    """One full reveal of d matchings against S = {0..k-1}.

    Arrays are indexed by step ell = 1..N with N = d(k-1); x0 is the
    unconditional expectation E[e(S)] and x[-1] the realized interior count.
    """

    n: int
    k: int
    d: int
    seed: int
    x0: float
    z: np.ndarray  # revealed partner of the queried vertex
    w: np.ndarray  # indicator: reveal created a new inside-S edge
    x: np.ndarray  # conditional expectation after the reveal
    y: np.ndarray  # increment x[ell] - x[ell-1]
    a: np.ndarray  # unmatched S-vertices in the current matching, after the reveal
    b: np.ndarray  # unmatched vertices overall in the current matching, after the reveal
    quad_char: np.ndarray  # running sum of exact conditional indicator variances
    matchings: np.ndarray  # read-only (d, n) partner table, one row per matching

    def __eq__(self, other) -> bool:
        if not isinstance(other, RevealTrace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def steps(self) -> int:
        return self.z.size

    def step_rows(self):
        """Iterator of (ell, z, w, x, y, a, b, quad_char) for CSV export, as Python scalars."""
        columns = (self.z, self.w, self.x, self.y, self.a, self.b, self.quad_char)
        return zip(range(1, self.steps + 1), *(c.tolist() for c in columns))


def _check_domain(n: int, k: int, d: int) -> None:
    if n < 4 or n % 2 != 0:
        raise InvalidArgumentError(f"reveal martingale needs even n >= 4, got {n}")
    # The balanced case k = n/2 simulates fine; only the C-dependent tail
    # bounds need the strict inequality.
    if not 2 <= k <= n / 2:
        raise InvalidArgumentError(f"need 2 <= k <= n/2, got k={k}, n={n}")
    if d < 1:
        raise InvalidArgumentError(f"need d >= 1, got {d}")


def simulate_reveal(n: int, k: int, d: int, seed: int) -> RevealTrace:
    """Sample d matchings and walk the reveal schedule with exact expectations."""
    _check_domain(n, k, d)
    rng = make_generator(seed)
    partners = sample_matching_partners(rng, n, d)
    partners.setflags(write=False)

    steps = d * (k - 1)
    w_arr = np.empty(steps, dtype=np.int64)
    x_arr = np.empty(steps)
    a_arr = np.empty(steps, dtype=np.int64)
    b_arr = np.empty(steps, dtype=np.int64)
    var_arr = np.empty(steps)

    phi_full = phi_matching(k, n)
    x0 = d * phi_full
    revealed_total = 0  # inside-S edges revealed in completed and current matchings
    ell = 0
    for m, partner in enumerate(partners):
        a, b = k, n
        matched = np.zeros(n, dtype=bool)
        future = (d - m - 1) * phi_full
        for i in range(k - 1):
            z = int(partner[i])
            if matched[i]:
                # Partner already known from an earlier reveal in this matching;
                # nothing new is learned and the increment is zero.
                w = 0
                var = 0.0
            else:
                matched[i] = True
                matched[z] = True
                w = 1 if z < k else 0
                # Exact conditional variance of the inside-edge indicator:
                # the partner is uniform over the b-1 unmatched non-i vertices,
                # a-1 of which lie in S.
                p_inside = (a - 1) / (b - 1)
                var = p_inside * (1.0 - p_inside)
                if w:
                    revealed_total += 1
                    a -= 2
                else:
                    a -= 1
                b -= 2
            w_arr[ell] = w
            x_arr[ell] = revealed_total + phi_matching(a, b) + future
            a_arr[ell] = a
            b_arr[ell] = b
            var_arr[ell] = var
            ell += 1
        # After the last query of a matching at most one S-vertex is unmatched,
        # so phi(a, b) = 0 and the last x already equals the realized count
        # plus the untouched matchings' expectation; nothing to close out.

    return RevealTrace(
        n=n,
        k=k,
        d=d,
        seed=seed,
        x0=x0,
        z=partners[:, : k - 1].flatten(),  # the queried vertices' partners, in reveal order
        w=w_arr,
        x=x_arr,
        y=np.diff(x_arr, prepend=x0),
        a=a_arr,
        b=b_arr,
        quad_char=np.cumsum(var_arr),
        matchings=partners,
    )


@dataclass(frozen=True)
class EmpiricalTail:
    n: int
    k: int
    d: int
    delta: float
    trials: int
    exceedances: int
    empirical_prob: float
    expected_interior: float
    sample_mean_interior: float
    bound: TailBound


_TRIAL_CELLS = 600  # a trial's seeding and looping, in shuffled cells; a cell counts 4, see _fork._PARALLEL_WORK


def _tail_counts(n: int, k: int, d: int, expected: float, threshold: float, seed: int, lo: int, hi: int):
    """(exceedances, interior total) over trials lo..hi-1.

    A trial's matchings pair consecutive entries of its shuffled rows, so an
    edge lies inside S exactly when both entries of its pair are below k.
    """
    exceed = total = 0
    for rng in derived_generators(seed, lo, hi):
        inside = _shuffled_rows(rng, n, d) < k
        e = int(np.count_nonzero(inside[:, 0::2] & inside[:, 1::2]))
        total += e
        if abs(e - expected) >= threshold:
            exceed += 1
    return exceed, total


def _tail_sums(args: tuple, trials: int) -> tuple[int, int]:
    """:func:`_tail_counts` over all trials, split by :func:`split_ranges`."""
    import numpy.random  # noqa: F401  (loaded once here, not once per worker)

    n, _, d = args[:3]
    parts = split_ranges(partial(_tail_counts, *args), trials, 4 * trials * (n * d + _TRIAL_CELLS))
    return sum(e for e, _ in parts), sum(t for _, t in parts)


def empirical_tail(n: int, k: int, d: int, delta: float, trials: int, seed: int) -> EmpiricalTail:
    """Fraction of trials with |e(S) - E| >= delta E, next to the analytic bound.

    Per-trial seeds are derived from the master seed so trials are
    reproducible and independent, and the counts are integers, so the result
    does not depend on how :func:`_tail_sums` splits the trials.
    """
    _check_domain(n, k, d)
    if trials < 1:
        raise InvalidArgumentError(f"need at least one trial, got {trials}")
    if not delta > 0:
        raise InvalidArgumentError(f"need delta > 0, got {delta}")
    # The bound's own domain checks run before any trial is sampled.
    bound = tail_bound_generic(n, k, d, delta)
    expected = math.comb(k, 2) * d / (n - 1.0)
    exceed, total = _tail_sums((n, k, d, expected, delta * expected, seed), trials)
    return EmpiricalTail(
        n=n,
        k=k,
        d=d,
        delta=float(delta),
        trials=trials,
        exceedances=exceed,
        empirical_prob=exceed / trials,
        expected_interior=expected,
        sample_mean_interior=total / trials,
        bound=bound,
    )


def binomial_tail_ge(x: int, n: int, p: float) -> float:
    """Exact P[Binomial(n, p) >= x]; used for one-sided empirical-vs-bound tests."""
    if x <= 0:
        return 1.0
    if x > n:
        return 0.0
    p = min(max(p, 0.0), 1.0)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    logp = math.log(p)
    log1mp = math.log1p(-p)
    total = 0.0
    # Sum upward from x; terms decay geometrically once past the mode.
    for j in range(x, n + 1):
        term = math.exp(math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * logp + (n - j) * log1mp)
        total += term
        if j > n * p and term < 1e-18 * max(total, 1e-300):
            break
    return min(total, 1.0)
