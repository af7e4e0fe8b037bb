import math
import random

import mpmath
import pytest

from emanet import stats


def quad_t_sf(t, df):
    # Two-sided tail by high-precision numerical integration of the t-density.
    mpmath.mp.dps = 30
    v = mpmath.mpf(df)
    c = mpmath.gamma((v + 1) / 2) / (mpmath.sqrt(v * mpmath.pi) * mpmath.gamma(v / 2))

    def pdf(u):
        return c * (1 + u * u / v) ** (-(v + 1) / 2)

    return float(2 * mpmath.quad(pdf, [abs(t), mpmath.inf]))


class TestTSf:
    def test_zero_t(self):
        assert stats.t_sf(0.0, 5) == 1.0

    def test_normal_limit(self):
        assert stats.t_sf(1.96, 10000) == pytest.approx(0.05, abs=3e-4)

    def test_quadrature_oracle_df10(self):
        assert stats.t_sf(2.0, 10) == pytest.approx(quad_t_sf(2.0, 10), abs=1e-8)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("df", [1, 2, 5, 30, 100, 1000, 10000])
    def test_grid_against_quadrature(self, t, df):
        expected = quad_t_sf(t, df)
        assert stats.t_sf(t, df) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert stats.t_sf(-t, 12) == stats.t_sf(t, 12)

    def test_monotone_in_abs_t(self):
        ps = [stats.t_sf(t, 17) for t in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0]]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_infinite_t(self):
        assert stats.t_sf(float("inf"), 3) == 0.0

    def test_bad_df(self):
        with pytest.raises(ValueError):
            stats.t_sf(1.0, 0)


class TestCompensatedMoments:
    def test_pathological_offset_against_fsum_oracle(self):
        # Large offset, tiny variance: naive accumulation loses all precision.
        rng = random.Random(123)
        xs = [1e9 + rng.uniform(-1e-3, 1e-3) for _ in range(1_000_000)]
        m_oracle = math.fsum(xs) / len(xs)
        ss_oracle = math.fsum((v - m_oracle) ** 2 for v in xs)
        std_oracle = math.sqrt(ss_oracle / (len(xs) - 1))
        assert stats.mean(xs) == pytest.approx(m_oracle, rel=1e-12)
        assert stats.sample_std(xs) == pytest.approx(std_oracle, rel=1e-12)

    def test_small_cases(self):
        assert stats.mean([1.0, 2.0, 3.0]) == 2.0
        assert stats.sample_std([1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            stats.mean([])
        with pytest.raises(ValueError):
            stats.sample_std([1.0])


class TestIncompleteBeta:
    def test_endpoints(self):
        assert stats.regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert stats.regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.5, 0.9):
            assert stats.regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, rel=1e-12)

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for x, a, b in [(0.3, 2.5, 1.5), (0.7, 0.5, 0.5), (0.9, 10.0, 0.5), (0.2, 5000.0, 0.5)]:
            expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert stats.regularized_incomplete_beta(x, a, b) == pytest.approx(expected, rel=1e-10)
