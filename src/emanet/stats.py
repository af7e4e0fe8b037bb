"""Numerical statistics kernel: correctly rounded moments and Student-t tails.

Everything here is pure Python with no external statistics dependency, so the
scalar results are bit-reproducible across platforms. The t-distribution tail
is computed through the regularized incomplete beta function, evaluated with
Lentz's continued fraction (iteration cap 1000, epsilon 1e-15). Sums use
math.fsum, which is correctly rounded, so long reductions (thousands of
permutation differences) do not depend on summation order.
"""

from __future__ import annotations

import math

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 1000


def mean(values) -> float:
    n = len(values)
    if n == 0:
        raise ValueError("mean of an empty sequence")
    return math.fsum(values) / n


def sample_std(values) -> float:
    """Sample standard deviation (n-1 denominator), two-pass, correctly rounded sums."""
    n = len(values)
    if n < 2:
        raise ValueError("sample_std needs at least 2 values")
    m = mean(values)
    ss = math.fsum((v - m) ** 2 for v in values)
    return math.sqrt(ss / (n - 1))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # Each term has an even and an odd coefficient, each one Lentz step;
        # convergence is tested after the odd one.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for 0 <= x <= 1, a > 0, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x out of range: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Symmetry switch keeps the continued fraction in its fast-converging region.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with df degrees of freedom.

    Uses the identity p = I_{df/(df+t^2)}(df/2, 1/2). Symmetric in t; returns
    1.0 at t = 0 and 0.0 at infinite t.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t is NaN")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    p = regularized_incomplete_beta(x, 0.5 * df, 0.5)
    return min(max(p, 0.0), 1.0)
