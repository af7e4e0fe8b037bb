import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emanet import synthgen
from daytable import assert_same, sources
from emanet.ingest import (NOT_MEASURED, REPORTED, SENSOR_FEATURES, backfill_emas, format_participant,
                           parse_participant)
from emanet.netcore import POSITIVE_ONLY, correlation_matrix
from emanet.synthgen import DISCRETIZE_THRESHOLDS, InvalidConfig, SynthConfig, correlated_block, discretize, generate
from synth_oracle import discretized_correlation, ground_truth


def test_generate_is_deterministic():
    cfg = SynthConfig(n_days=60, seed=5)
    assert_same(generate(cfg), generate(cfg))


def test_empty_dataset():
    ds = generate(SynthConfig(n_days=0, seed=1))
    assert len(ds.dates) == 0
    assert ds.usable_days == 0


def test_report_cadence():
    ds = generate(SynthConfig(n_days=30, seed=2, report_cadence=3))
    reported = [i for i, source in enumerate(sources(ds)) if source == "reported"]
    assert reported == [2, 5, 8, 11, 14, 17, 20, 23, 26, 29]
    # Cadence 3 + 2-day backfill covers every day.
    assert backfill_emas(ds).usable_days == 30


# Every bound below is 5 standard deviations of a binomial share, fixed before the
# test was run: a correct generator misses one with probability about 6e-7.
def _within_5_sd(hits, n, p):
    return abs(hits - n * p) <= 5 * (n * p * (1 - p)) ** 0.5


def test_sensor_counts_satisfy_predicates():
    # With no missing cells, an isolated cell counts 0 and a sociable one a geometric(0.5) count >= 1.
    ds = generate(SynthConfig(n_days=5000, seed=3))
    assert ds.sensors.dtype == np.int64 and ds.sensors.min() >= 0
    positive = ds.sensors[ds.sensors > 0]
    for k in (1, 2, 3):
        assert _within_5_sd(int((positive == k).sum()), positive.size, 0.5**k), k


@pytest.mark.parametrize("feature, cadence", [("locations_visited", 3), ("conversations_detected", 7)])
def test_planted_category_holds_over_each_cadence_block(feature, cadence):
    cfg = SynthConfig(n_days=3000, seed=13, report_cadence=cadence, planted_feature=feature, missing_sensor_rate=0.2)
    counts = generate(cfg).sensors[:, SENSOR_FEATURES.index(feature)]
    kinds = set()
    for start in range(0, cfg.n_days, cadence):
        measured = counts[start:start + cadence]
        measured = measured[measured != NOT_MEASURED]
        assert (measured == 0).all() or (measured >= 1).all(), start
        kinds.add(bool((measured >= 1).any()))
    assert kinds == {False, True}


def test_other_features_draw_a_category_each_day():
    cfg = SynthConfig(n_days=20_000, seed=14, context_mix=0.3)
    ds = generate(cfg)
    for j, feature in enumerate(SENSOR_FEATURES):
        if feature != cfg.planted_feature:
            assert _within_5_sd(int((ds.sensors[:, j] > 0).sum()), cfg.n_days, 0.3), feature


@pytest.mark.parametrize("cadence", [10**12, 10**30])
def test_cadence_beyond_the_days_gives_no_report(cadence):
    # One block and no report; nothing of the cadence's size is allocated.
    ds = generate(SynthConfig(n_days=1000, seed=15, report_cadence=cadence))
    assert len(ds.dates) == 1000
    assert ds.usable_days == 0
    planted = ds.sensors[:, SENSOR_FEATURES.index(SynthConfig.planted_feature)]
    assert (planted == 0).all() or (planted >= 1).all()


def test_draws_follow_the_documented_order():
    # A scalar replay of generate's docstring: 10 days in blocks of 4, reports on days 3 and 7.
    cfg = SynthConfig(n_days=10, seed=16, report_cadence=4, missing_sensor_rate=0.3,
                      isolation_corr=correlated_block(0.5))
    ds = generate(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    block = rng.random(3) < 0.5
    sociable = rng.random((10, 6)) < 0.5
    counts = rng.geometric(0.5, (10, 6))
    missing = rng.random((10, 6)) < 0.3
    z = rng.standard_normal((2, 10))
    for i in range(10):
        sociable[i, 0] = block[i // 4]
        for j in range(6):
            assert ds.sensors[i, j] == (NOT_MEASURED if missing[i, j] else counts[i, j] if sociable[i, j] else 0)
    for row, i in enumerate((3, 7)):
        corr, mean = ((cfg.sociability_corr, cfg.sociability_mean) if sociable[i, 0]
                      else (cfg.isolation_corr, cfg.isolation_mean))
        factor = synthgen._factor(corr, "corr")
        latent = []
        for item in range(10):  # mean, then each factor term, left to right
            value = mean[item]
            for j in range(item + 1):
                value += factor[item][j] * z[row, j]
            latent.append(value)
        assert ds.ema[i].tolist() == discretize(np.array(latent)).tolist()
    assert sources(ds).count("reported") == 2


def test_missing_rate_produces_missing_counts():
    ds = generate(SynthConfig(n_days=200, seed=4, missing_sensor_rate=0.3))
    missing = int((ds.sensors == NOT_MEASURED).sum())
    total = ds.sensors.size
    assert 0.2 < missing / total < 0.4


def test_invalid_configs():
    bad = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(InvalidConfig):
        SynthConfig(n_days=10, isolation_corr=tuple(map(tuple, bad)))
    nonpsd = correlated_block(-0.9)  # 5 items all at -0.9 is not PSD
    with pytest.raises(InvalidConfig):
        SynthConfig(n_days=10, isolation_corr=nonpsd)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_days=-1)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_days=10, context_mix=1.5)


IDENTITY_OF_BOOLS = tuple(tuple(i == j for j in range(10)) for i in range(10))


@pytest.mark.parametrize("field, value, message", [
    ("isolation_mean", ("0",) * 10, "isolation_mean must be a list of 10 numbers"),
    ("isolation_mean", (True,) * 10, "isolation_mean must be a list of 10 numbers"),
    ("sociability_corr", IDENTITY_OF_BOOLS, "sociability_corr must be a 10x10 list of numbers"),
    ("context_mix", "0.5", "context_mix must be a number, got '0.5'"),
    ("missing_sensor_rate", True, "missing_sensor_rate must be a number, got True"),
], ids=["string-mean", "bool-mean", "bool-corr", "string-mix", "bool-rate"])
def test_cells_must_be_real_numbers(field, value, message):
    # The same check and message as `synth --config`: strings float() would parse, and bools, are not numbers.
    with pytest.raises(InvalidConfig) as excinfo:
        SynthConfig(n_days=30, **{field: value})
    assert str(excinfo.value) == message


def test_cells_are_stored_as_floats():
    cfg = SynthConfig(n_days=1, context_mix=1, isolation_mean=[0] * 10, sociability_corr=np.eye(10))
    for value in (cfg.context_mix, *cfg.isolation_mean, *(v for row in cfg.sociability_corr for v in row)):
        assert type(value) is float
    assert cfg.sociability_corr == tuple(tuple(float(i == j) for j in range(10)) for i in range(10))


def test_discretize_thresholds_are_quartiles():
    z = np.array([-2.0, -0.68, -0.1, 0.1, 0.68, 2.0])
    assert list(discretize(z)) == [0, 0, 1, 2, 3, 3]
    assert DISCRETIZE_THRESHOLDS[1] == 0.0


def test_csv_round_trip():
    ds = generate(SynthConfig(n_days=40, seed=6, missing_sensor_rate=0.1))
    assert_same(parse_participant(format_participant(ds), ds.participant_id), ds)


class TestGroundTruth:
    def test_identical_targets(self):
        cfg = SynthConfig(n_days=10, isolation_corr=correlated_block(0.4), sociability_corr=correlated_block(0.4))
        assert ground_truth(cfg) == 0.0

    def test_single_pair_attenuation(self):
        block = [[1.0 if i == j else 0.0 for j in range(10)] for i in range(10)]
        block[0][1] = block[1][0] = 0.6
        cfg = SynthConfig(n_days=10, isolation_corr=tuple(map(tuple, block)))
        a = ground_truth(cfg)
        assert 0.0 < a < 0.6

    def test_block_additivity(self):
        single = [[1.0 if i == j else 0.0 for j in range(10)] for i in range(10)]
        single[0][1] = single[1][0] = 0.9
        one_pair = ground_truth(SynthConfig(n_days=10, isolation_corr=tuple(map(tuple, single))))
        all_pairs = ground_truth(
            SynthConfig(n_days=10, isolation_corr=correlated_block(0.9)), items=POSITIVE_ONLY
        )
        assert all_pairs == pytest.approx(10.0 * one_pair, rel=0.05)

    def test_equal_corr_different_means(self):
        cfg = SynthConfig(n_days=10, isolation_corr=correlated_block(0.4), sociability_corr=correlated_block(0.4),
                          isolation_mean=(1.0,) * 10)
        assert ground_truth(cfg) < 0.0  # a latent shifted off the quartiles loses more to coarsening


def _reference_correlation(rho, mean_i, mean_j):
    """Discretized correlation by adaptive quadrature of the bivariate normal
    density in r (Plackett's identity), over closed-form variances."""
    thresholds = [mpmath.mpf(t) for t in DISCRETIZE_THRESHOLDS]

    def phi2(a, b, r):
        q = 1 - r * r
        return mpmath.exp(-(a * a - 2 * a * b * r + b * b) / (2 * q)) / (2 * mpmath.pi * mpmath.sqrt(q))

    def variance(mu):
        return mpmath.fsum(mpmath.ncdf(mu - max(a, b)) - mpmath.ncdf(mu - a) * mpmath.ncdf(mu - b)
                           for a in thresholds for b in thresholds)

    hi = [t - mean_i for t in thresholds]
    hj = [t - mean_j for t in thresholds]
    cov = mpmath.quad(lambda r: mpmath.fsum(phi2(a, b, r) for a in hi for b in hj), [0, mpmath.mpf(rho)])
    return float(cov / mpmath.sqrt(variance(mean_i) * variance(mean_j)))


class TestDiscretizedCorrelation:
    @pytest.mark.parametrize("means", [(0, 0), (1, -0.5), (2, 2), (-2, 1)])
    def test_matches_mpmath(self, means):
        for rho in (-0.999, -0.9, -0.3, 0.0, 0.1, 0.6, 0.99, 0.999):
            r = discretized_correlation([[1.0, rho], [rho, 1.0]], means)
            with mpmath.workdps(20):
                assert abs(r[0, 1] - _reference_correlation(rho, *means)) <= 1e-10, rho
            assert r[0, 0] == r[1, 1] == 1.0

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_perfect_correlation_is_exact(self, rho):
        r = discretized_correlation([[1.0, rho], [rho, 1.0]], (0.0, 0.0))
        assert r.tolist() == [[1.0, rho], [rho, 1.0]]


def test_empirical_correlation_matches_targets():
    # Group reported-day EMAs by the day's own category (recoverable from the
    # planted feature's count) and compare to the discretization oracle.
    r = 0.5
    for means in ((0.0,) * 10, (1.0,) * 10):
        cfg = SynthConfig(n_days=50_000, seed=9, report_cadence=1, isolation_corr=correlated_block(r),
                          isolation_mean=means)
        ds = generate(cfg)
        reported = ds.ema_source == REPORTED
        iso_rows = ds.ema[reported & (ds.sensors[:, 0] == 0)]
        soc_rows = ds.ema[reported & (ds.sensors[:, 0] != 0)]
        emp_iso = correlation_matrix(np.asarray(iso_rows))
        emp_soc = correlation_matrix(np.asarray(soc_rows))
        target_iso = discretized_correlation(cfg.isolation_corr, cfg.isolation_mean)
        target_soc = discretized_correlation(cfg.sociability_corr, cfg.sociability_mean)
        assert np.max(np.abs(emp_iso - target_iso)) < 0.02
        assert np.max(np.abs(emp_soc - target_soc)) < 0.02


def test_synthgen_calls_no_blas_or_lapack():
    # No matrix product and no numpy.linalg, so synth's bytes do not depend on the BLAS or LAPACK build.
    banned = {"linalg", "dot", "matmul", "einsum"}
    found = []
    for node in ast.walk(ast.parse(Path(synthgen.__file__).read_text(encoding="utf-8"))):
        words = ({node.attr} if isinstance(node, ast.Attribute) else {node.id} if isinstance(node, ast.Name)
                 else set(node.name.split(".")) if isinstance(node, ast.alias)
                 else set((node.module or "").split(".")) if isinstance(node, ast.ImportFrom) else set())
        if isinstance(node, ast.MatMult) or words & banned:
            found.append(ast.unparse(node) if isinstance(node, ast.expr) else ast.dump(node))
    assert found == []


def _mp_cholesky(corr):
    """Cholesky-Banachiewicz of corr at 50 digits, 0 below a zero pivot, each entry rounded to a float."""
    with mpmath.workdps(50):
        a = [[mpmath.mpf(x) for x in row] for row in corr]
        L = [[mpmath.mpf(0)] * len(a) for _ in a]
        for i in range(len(a)):
            for j in range(i + 1):
                rest = a[i][j] - mpmath.fsum(L[i][k] * L[j][k] for k in range(j))
                if i == j:
                    L[i][i] = mpmath.sqrt(rest)
                elif L[j][j] != 0:
                    L[i][j] = rest / L[j][j]
        return [[float(x) for x in row] for row in L]


def _symmetric(cells):
    """The 10x10 unit-diagonal target whose upper triangle is cells, row by row."""
    m = np.eye(10)
    m[np.triu_indices(10, 1)] = cells
    return tuple(map(tuple, (np.triu(m, 1).T + np.triu(m)).tolist()))


@st.composite
def _targets(draw):
    """Finite symmetric unit-diagonal 10x10 targets: normalized Gram matrices of
    vectors in 1-10 dimensions (semidefinite, singular below 10), shrunk towards
    the identity by a weight w (eigenvalues >= w), or arbitrary cells."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 10))
        v = np.array(draw(st.lists(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim), min_size=10, max_size=10)))
        v[np.abs(v).max(axis=1) < 1e-100, 0] = 1.0  # no zero vector
        u = v / np.sqrt((v * v).sum(axis=1))[:, None]
        w = draw(st.sampled_from([0.0, 1e-3]) | st.floats(0, 1))
        return _symmetric((1 - w) * (u @ u.T)[np.triu_indices(10, 1)])
    cells = st.floats(-1, 1) | st.floats(allow_nan=False, allow_infinity=False)
    return _symmetric(draw(st.lists(cells, min_size=45, max_size=45)))


class TestFactor:
    @pytest.mark.parametrize("r", [-0.2, 0.3, 0.6, 1.0])
    def test_matches_mpmath(self, r):
        factor, reference = synthgen._factor(correlated_block(r), "corr"), _mp_cholesky(correlated_block(r))
        for row, ref_row in zip(factor, reference):
            for value, ref in zip(row, ref_row):
                assert abs(value - ref) <= 2 * math.ulp(ref), (r, value, ref)  # and a zero of ref is exactly 0

    def test_factor_of_semidefinite_target(self):
        c = np.asarray(correlated_block(1.0))
        l = np.array(synthgen._factor(correlated_block(1.0), "corr"))
        assert (np.triu(l, 1) == 0).all()
        assert l[POSITIVE_ONLY, POSITIVE_ONLY[0]].tolist() == [1.0] * len(POSITIVE_ONLY)
        np.testing.assert_allclose(l @ l.T, c, rtol=0, atol=1e-12)

    def test_refuses_an_entry_left_below_a_zero_pivot(self):
        # Items 0 and 1 are one variable, so the second pivot is 0; item 2 cannot correlate +0.9
        # with one and -0.9 with the other (an eigenvalue of -0.87), and zeroing the entry would hide it.
        m = np.eye(10)
        m[:3, :3] = [[1.0, 1.0, 0.9], [1.0, 1.0, -0.9], [0.9, -0.9, 1.0]]
        with pytest.raises(InvalidConfig, match="^corr must be positive semidefinite$"):
            synthgen._factor(tuple(map(tuple, m)), "corr")

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(target=_targets())
    def test_refuses_or_factors_within_the_tolerance(self, target):
        # A factor differs from its target only by what the 1e-8 tolerance absorbs: a clipped
        # pivot or a zeroed entry, each at most 1e-8; with no eigenvalue near 0, by rounding alone.
        lowest = np.linalg.eigvalsh(target).min()
        try:
            l = np.array(synthgen._factor(target, "corr"))
        except InvalidConfig:
            assert lowest < 1e-10
            return
        assert lowest >= -1e-7 - 1e-12  # so every target with an eigenvalue below -1e-6 is refused
        assert np.isfinite(l).all() and (np.triu(l, 1) == 0).all()
        error = np.abs(l @ l.T - target).max()
        assert error <= 1e-8 + 1e-12
        if lowest > 1e-10:
            assert error <= 1e-12
