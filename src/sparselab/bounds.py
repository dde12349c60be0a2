"""Closed-form constants and concentration bounds for the sparsification experiments.

Everything here is a pure function of its arguments: the replica-symmetric
ground-state bound and its derived relative-error constant, the Ramanujan
reference errors, the martingale tail bounds in generic and regime-split
form, and numeric verification of the two logarithm inequalities the regime
split relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidArgumentError, OutOfRegimeError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


# -- special functions ---------------------------------------------------------


def _inv_norm_seed(y: float) -> float:
    # Winitzki's approximation of erf^-1, good to ~2e-3; Newton polishes the rest.
    a = 0.147
    ln1my2 = math.log1p(-y * y)
    t = 2.0 / (math.pi * a) + ln1my2 / 2.0
    return math.copysign(math.sqrt(math.sqrt(t * t - ln1my2 / a) - t), y)


def erf_inv(y: float) -> float:
    """Inverse error function on (-1, 1) via Newton iteration on math.erf.

    Quadratic convergence from the seeded start; the iteration is run to
    float64 fixed point, keeping |erf(erf_inv(y)) - y| below 1e-15 away from
    the endpoints.
    """
    y = float(y)
    if not -1.0 < y < 1.0:
        raise InvalidArgumentError(f"erf_inv domain is the open interval (-1, 1), got {y}")
    if y == 0.0:
        return 0.0
    x = _inv_norm_seed(y)
    for _ in range(60):
        err = math.erf(x) - y
        # Newton step with erf'(x) = 2/sqrt(pi) exp(-x^2); clamped because
        # erf saturates to 1.0 in float64 near |x| ~ 5.9.
        x_new = min(max(x - err * _SQRT_PI / 2.0 * math.exp(x * x), -6.0), 6.0)
        if x_new == x:
            break
        x = x_new
    return x


# -- replica-symmetric ground-state bound ---------------------------------------


@dataclass(frozen=True)
class RSBound:
    """Replica-symmetric bound on extremal size-alpha*n cut deviations.

    ground_state_bound = 4 sqrt(T) phi(sqrt(2) erf_inv(M)) with T = 4a(1-a),
    M = 2a - 1, and phi the standard normal density; relative_error_bound
    divides by T and is the constant in front of 1/sqrt(d).
    """

    alpha: float
    T: float
    M: float
    lambda_hat: float
    ground_state_bound: float
    relative_error_bound: float


def rs_bound(alpha: float) -> RSBound:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    # The bound only depends on {alpha, 1 - alpha}; computing from the smaller
    # side makes the symmetry exact whenever 1 - alpha is itself exact.
    a = min(alpha, 1.0 - alpha)
    t = 4.0 * a * (1.0 - a)
    m_abs = 1.0 - 2.0 * a
    if m_abs == 0.0:
        # erf_inv(M)/M -> sqrt(pi)/2 as M -> 0
        lam_hat = -math.sqrt(2.0 * t) * math.sqrt(math.pi) / 2.0
        z = 0.0
    else:
        z = erf_inv(m_abs)
        lam_hat = -math.sqrt(2.0 * t) * z / m_abs
    density = math.exp(-z * z) / _SQRT_2PI  # phi(sqrt(2) z)
    ground = 4.0 * math.sqrt(t) * density
    return RSBound(
        alpha=alpha,
        T=t,
        M=2.0 * alpha - 1.0,
        lambda_hat=lam_hat,
        ground_state_bound=ground,
        relative_error_bound=ground / t,
    )


def main_constant() -> float:
    """2 sqrt(2/pi) = 1.5957691216...; the balanced-cut relative-error constant."""
    return 2.0 * math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class RamanujanBound:
    asymptotic: float  # 2/sqrt(d)
    exact: float  # 2 sqrt(d-1)/d


def ramanujan_epsilon(d: int) -> RamanujanBound:
    if d < 2:
        raise InvalidArgumentError(f"Ramanujan bound needs d >= 2, got {d}")
    return RamanujanBound(asymptotic=2.0 / math.sqrt(d), exact=2.0 * math.sqrt(d - 1.0) / d)


# -- martingale tail bounds ------------------------------------------------------


@dataclass(frozen=True)
class TailBound:
    """Evaluated deviation-probability bound with its intermediate quantities."""

    n: int
    k: int
    d: int
    delta: float
    C: float
    expected_interior: float
    regime: str
    value: float


def _tail_parameters(n: int, k: int, d: int, delta: float) -> tuple[float, float]:
    if not 2 <= k:
        raise InvalidArgumentError(f"need k >= 2, got {k}")
    if not k < n / 2:
        raise InvalidArgumentError(f"need k < n/2 for a positive denominator, got k={k}, n={n}")
    if d < 1:
        raise InvalidArgumentError(f"need d >= 1, got {d}")
    if not delta > 0:
        raise InvalidArgumentError(f"need delta > 0, got {delta}")
    c = 2.0 * (n - 1.0) / (n - 2.0 * k)
    expected = math.comb(k, 2) * d / (n - 1.0)
    return c, expected


def tail_bound_generic(n: int, k: int, d: int, delta: float) -> TailBound:
    """2 exp(-E[e(S)] ((delta + C) ln(delta/C + 1) - delta)) with C = 2(n-1)/(n-2k)."""
    c, expected = _tail_parameters(n, k, d, delta)
    exponent = (delta + c) * math.log(delta / c + 1.0) - delta
    return TailBound(
        n=n,
        k=k,
        d=d,
        delta=float(delta),
        C=c,
        expected_interior=expected,
        regime="generic",
        value=2.0 * math.exp(-expected * exponent),
    )


def tail_bound_regime(n: int, k: int, d: int, delta: float) -> TailBound:
    """Regime-split bound: Taylor form for delta/C < 1, log-linear form otherwise.

    The log-linear regime additionally needs delta >= C >= 1; ties at
    delta/C = 1 resolve to log-linear.
    """
    if k > n / 100:
        raise OutOfRegimeError(f"regime bounds need k <= n/100, got k={k}, n={n}")
    c, expected = _tail_parameters(n, k, d, delta)
    scale = k * k * d / n
    if delta / c < 1.0:
        return TailBound(
            n=n, k=k, d=d, delta=float(delta), C=c, expected_interior=expected,
            regime="taylor", value=2.0 * math.exp(-(2.0 / 25.0) * scale * delta * delta),
        )
    if c < 1.0:
        raise OutOfRegimeError(f"log-linear regime needs delta >= C >= 1, got C={c}")
    return TailBound(
        n=n, k=k, d=d, delta=float(delta), C=c, expected_interior=expected,
        regime="loglinear", value=2.0 * math.exp(-(49.0 / 800.0) * scale * delta * math.log(delta)),
    )


def small_cut_delta(n: int, k: int, d: int) -> float:
    """The deviation level (n/k - 2) * 1.5/sqrt(d) used for small subset sizes."""
    if not 2 <= k <= n / 100:
        raise InvalidArgumentError(f"small-cut delta needs 2 <= k <= n/100, got k={k}, n={n}")
    if d < 1:
        raise InvalidArgumentError(f"need d >= 1, got {d}")
    return (n / k - 2.0) * 1.5 / math.sqrt(d)


def phi_matching(a: int, b: int) -> float:
    """Expected edges inside an a-subset of a uniform perfect matching on b vertices."""
    if b < 2:
        raise InvalidArgumentError(f"matching needs b >= 2, got {b}")
    if not 0 <= a <= b:
        raise InvalidArgumentError(f"need 0 <= a <= b, got a={a}, b={b}")
    return a * (a - 1) / 2.0 / (b - 1.0)


def azuma_fan_bound(x: float, nu2: float) -> float:
    """2 (nu^2/(x + nu^2))^(x + nu^2) e^x; the Azuma-type tail for bounded increments."""
    if x < 0 or nu2 < 0:
        raise InvalidArgumentError("x and nu2 must be nonnegative")
    if x == 0.0:
        return 2.0
    if nu2 == 0.0:
        return 0.0
    s = x + nu2
    return 2.0 * math.exp(s * math.log(nu2 / s) + x)


# -- appendix inequalities --------------------------------------------------------


@dataclass(frozen=True)
class AppendixReport:
    checked_taylor: int
    violations_taylor: tuple[tuple[float, float], ...]
    min_slack_taylor: float
    checked_loglinear: int
    violations_loglinear: tuple[tuple[float, float], ...]
    min_slack_loglinear: float

    @property
    def ok(self) -> bool:
        return not self.violations_taylor and not self.violations_loglinear


def _taylor_slack(delta: float, c: float) -> float:
    return (delta + c) * math.log(delta / c + 1.0) - (delta + delta * delta / (3.0 * c))


def _loglinear_slack(delta: float, c: float) -> float:
    return (delta + c) * math.log(delta / c + 1.0) - delta - delta * math.log(delta) / (2.0 * c)


def verify_appendix_inequalities(
    taylor_points: Iterable[tuple[float, float]],
    loglinear_points: Iterable[tuple[float, float]],
) -> AppendixReport:
    """Check both logarithm inequalities on explicit (delta, C) grids.

    Taylor form needs delta/C <= 1; log-linear form needs delta >= C >= 1.
    Violations are collected, not raised.
    """
    vio_t, slack_t, cnt_t = [], math.inf, 0
    for delta, c in taylor_points:
        if not (0 < delta <= c):
            raise InvalidArgumentError(f"taylor grid point needs 0 < delta <= C, got ({delta}, {c})")
        s = _taylor_slack(delta, c)
        cnt_t += 1
        slack_t = min(slack_t, s)
        if s < 0:
            vio_t.append((delta, c))
    vio_l, slack_l, cnt_l = [], math.inf, 0
    for delta, c in loglinear_points:
        if not delta >= c >= 1.0:
            raise InvalidArgumentError(f"log-linear grid point needs delta >= C >= 1, got ({delta}, {c})")
        s = _loglinear_slack(delta, c)
        cnt_l += 1
        slack_l = min(slack_l, s)
        if s < 0:
            vio_l.append((delta, c))
    return AppendixReport(
        checked_taylor=cnt_t,
        violations_taylor=tuple(vio_t),
        min_slack_taylor=slack_t,
        checked_loglinear=cnt_l,
        violations_loglinear=tuple(vio_l),
        min_slack_loglinear=slack_l,
    )


def asymptotic_note() -> str:
    """Label attached to reported leading-order constants."""
    return "asymptotic, error terms unquantified"
