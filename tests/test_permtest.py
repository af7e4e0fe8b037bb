import collections
import datetime as dt
import hashlib
import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from daytable import table
from emanet.contexts import baseline_pool, categorize
from emanet.ingest import backfill_emas
from emanet.netcore import ALL10, POSITIVE_ONLY, correlation_matrix, upper_triangle_sum
from emanet.permtest import (
    BLOCK,
    InsufficientPool,
    InvalidConfig,
    PermutationConfig,
    _disjoint_halves,
    _subsets,
    child_rng,
    paired_t_test,
    run_paired,
)
from emanet import permtest, stats, synthgen

D0 = dt.date(2023, 1, 1)


def dataset_with_pools(n_iso, n_soc, seed=0, floor_items=()):
    """Dataset whose locations_visited splits days into pools of given sizes.

    floor_items score 0 on 90% of days, so a sample often holds a constant item.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(n_iso + n_soc):
        ema = tuple(0 if j in floor_items and rng.random() < 0.9 else rng.randrange(4) for j in range(10))
        locations = 0 if i < n_iso else 1 + rng.randrange(3)
        rows.append((D0 + dt.timedelta(days=i), ema, (locations,) + (None,) * 5))
    return table(rows)


def pools_for(ds):
    return categorize(ds, "locations_visited")


def paired(ds, cfg, pool=None, log_indices=False, items=ALL10):
    """run_paired on the items' scores of the locations context and the whole
    baseline pool (or pool), from the streams the CLI names for every run."""
    pools, ema = pools_for(ds), ds.ema[:, items]
    pool = baseline_pool(ds) if pool is None else pool
    return run_paired(ema[pools["isolation"]], ema[pools["sociability"]], ema[pool], cfg,
                      child_rng(cfg.seed, "locations_visited"), child_rng(cfg.seed, "baseline"), log_indices)


def floyd_block(rng, n, k, m):
    """The sampler's recipe for one block, a row at a time: draw v[s] in
    [0, n-k+s] for each step s, and take n-k+s when v[s] is already chosen."""
    rows = []
    for draws in rng.integers(0, np.arange(n - k, n) + 1, size=(m, k)).tolist():
        row = []
        for s, v in enumerate(draws):
            row.append(n - k + s if v in row else v)
        rows.append(row)
    return rows


def chi2_bound(df, p=1e-6):
    """x with P(chi2_df > x) = p, from mpmath's regularized upper incomplete gamma."""

    def log_tail_over_p(x):
        return mpmath.log(mpmath.gammainc(mpmath.mpf(df) / 2, x / 2, regularized=True) / p)

    return float(mpmath.findroot(log_tail_over_p, 3 * df))


def chi2_uniform(observed, cells):
    """Pearson chi-square of the observed cell labels against equal counts over cells."""
    counts = collections.Counter(observed)
    assert set(counts) <= set(cells)
    expected = len(observed) / len(cells)
    return sum((counts[cell] - expected) ** 2 / expected for cell in cells)


class TestConfig:
    def test_defaults(self):
        cfg = PermutationConfig()
        assert cfg.n_permutations == 2000
        assert cfg.sample_size == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationConfig(n_permutations=0)
        with pytest.raises(ValueError):
            PermutationConfig(sample_size=1)
        # A paired t-test needs two pairs, so one permutation is a config error.
        with pytest.raises(InvalidConfig, match="n_permutations must be >= 2"):
            PermutationConfig(n_permutations=1)


class TestContextRun:
    def test_degenerate_pools_give_zero_std(self):
        ds = dataset_with_pools(25, 25)
        cfg = PermutationConfig(n_permutations=50, seed=1)
        run, _, _ = paired(ds, cfg)
        assert len(set(run.differences)) == 1
        assert run.std == 0.0

    def test_insufficient_pool(self):
        ds = dataset_with_pools(24, 40)
        cfg = PermutationConfig(n_permutations=5)
        with pytest.raises(InsufficientPool) as exc:
            paired(ds, cfg)
        assert (exc.value.category, exc.value.have, exc.value.need) == ("isolation", 24, 25)

    @pytest.mark.parametrize("n_iso, n_soc, short", [(24, 24, ("isolation", 24, 25)), (30, 10, ("sociability", 10, 25))])
    def test_pools_are_checked_isolation_sociability_baseline(self, n_iso, n_soc, short):
        # The baseline pool (n_iso + n_soc days) is short of 50 days as well.
        ds = dataset_with_pools(n_iso, n_soc)
        cfg = PermutationConfig(n_permutations=5)
        with pytest.raises(InsufficientPool) as exc:
            paired(ds, cfg)
        assert (exc.value.category, exc.value.have, exc.value.need) == short

    def test_determinism(self):
        ds = dataset_with_pools(40, 40, seed=3)
        cfg = PermutationConfig(n_permutations=30, seed=99)
        assert paired(ds, cfg) == paired(ds, cfg)

    def test_logged_indices_recompute_differences(self):
        ds = dataset_with_pools(40, 40, seed=4)
        cfg = PermutationConfig(n_permutations=20, seed=5)
        pools = pools_for(ds)
        run, _, _ = paired(ds, cfg, log_indices=True)
        iso, soc = ds.ema[pools["isolation"]], ds.ema[pools["sociability"]]
        for diff, (idx_iso, idx_soc) in zip(run.differences, run.sampled_indices):
            recomputed = upper_triangle_sum(correlation_matrix(iso[list(idx_iso)])) - upper_triangle_sum(
                correlation_matrix(soc[list(idx_soc)])
            )
            assert diff == recomputed

    @pytest.mark.parametrize("n_permutations", [63, 64, 65, 130])
    def test_blocks_match_one_network_at_a_time(self, n_permutations):
        ds = dataset_with_pools(40, 60, seed=23, floor_items=(1, 9))
        cfg = PermutationConfig(n_permutations=n_permutations, seed=24)
        pools, pool = pools_for(ds), baseline_pool(ds)
        ctx, base, _ = paired(ds, cfg, log_indices=True)
        iso, soc, data = ds.ema[pools["isolation"]], ds.ema[pools["sociability"]], ds.ema[pool]
        for run, a, b in ((ctx, iso, soc), (base, data, data)):
            one_at_a_time = [
                upper_triangle_sum(correlation_matrix(a[list(ia)])) - upper_triangle_sum(correlation_matrix(b[list(ib)]))
                for ia, ib in run.sampled_indices
            ]
            assert len(run.differences) == n_permutations
            assert list(run.differences) == one_at_a_time

    def test_kernel_is_called_by_its_public_names(self, monkeypatch):
        """run_paired calls correlation_matrix and upper_triangle_sum through its
        module's globals, once per block and side, so a wrapper put there (as
        perfbench's tracer does) sees every network."""
        sizes = collections.defaultdict(list)
        for name in ("correlation_matrix", "upper_triangle_sum"):
            def counted(x, fn=getattr(permtest, name), name=name):
                sizes[name].append(len(x))
                return fn(x)

            monkeypatch.setattr(permtest, name, counted)
        ds = dataset_with_pools(40, 50, seed=29)
        paired(ds, PermutationConfig(n_permutations=130, seed=30))
        # 130 iterations are 3 blocks (64, 64, 2) of 2m networks per side.
        assert sizes == {name: [128, 128, 128, 128, 4, 4] for name in ("correlation_matrix", "upper_triangle_sum")}

    def test_stats_layer_is_called_by_name(self, monkeypatch):
        """run_paired reaches mean, sample_std and t_sf through the stats module,
        so a wrapper put there (as perfbench's tracer does) sees the moments and
        the one t tail."""
        calls = collections.Counter()
        for name in ("mean", "sample_std", "t_sf"):
            def counted(*args, fn=getattr(stats, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(stats, name, counted)
        paired(dataset_with_pools(40, 50, seed=31), PermutationConfig(n_permutations=70, seed=32))
        assert calls["t_sf"] == 1
        assert calls["mean"] >= 3 and calls["sample_std"] >= 3

    def test_sampled_indices_replay_the_sampler(self):
        ds = dataset_with_pools(40, 50, seed=25)
        cfg = PermutationConfig(n_permutations=130, seed=26)
        ctx, base, _ = paired(ds, cfg, log_indices=True)
        blocks = [min(BLOCK, cfg.n_permutations - start) for start in range(0, cfg.n_permutations, BLOCK)]
        rng = child_rng(cfg.seed, "locations_visited")
        expected = []
        for m in blocks:
            iso = floyd_block(rng, 40, 25, m)
            expected += [(tuple(sorted(a)), tuple(sorted(b))) for a, b in zip(iso, floyd_block(rng, 50, 25, m))]
        assert ctx.sampled_indices == tuple(expected)
        rng = child_rng(cfg.seed, "baseline")
        expected = []
        for m in blocks:
            rows = rng.permuted(np.asarray(floyd_block(rng, 90, 50, m)), axis=1).tolist()
            expected += [(tuple(sorted(row[:25])), tuple(sorted(row[25:]))) for row in rows]
        assert base.sampled_indices == tuple(expected)

    def test_sampled_rows_are_sorted_distinct_and_in_range(self):
        ds = dataset_with_pools(26, 60, seed=27)
        cfg = PermutationConfig(n_permutations=200, seed=28, sample_size=13)
        ctx, base, _ = paired(ds, cfg, log_indices=True)
        for run, n_a, n_b in ((ctx, 26, 60), (base, 86, 86)):
            for row_a, row_b in run.sampled_indices:
                for row, n in ((row_a, n_a), (row_b, n_b)):
                    assert len(row) == cfg.sample_size
                    assert all(x < y for x, y in zip(row, row[1:]))
                    assert 0 <= row[0] and row[-1] < n

    def test_difference_bounds(self):
        ds = dataset_with_pools(40, 40, seed=6)
        for items, bound in ((ALL10, 90.0), (POSITIVE_ONLY, 20.0)):
            cfg = PermutationConfig(n_permutations=50, seed=7)
            run, _, _ = paired(ds, cfg, items=items)
            assert all(abs(d) <= bound for d in run.differences)

    def test_stats_recomputable_from_differences(self):
        ds = dataset_with_pools(40, 40, seed=8)
        cfg = PermutationConfig(n_permutations=40, seed=9)
        for run in paired(ds, cfg)[:2]:
            assert run.mean == pytest.approx(float(np.mean(run.differences)), abs=1e-10)
            assert run.std == pytest.approx(float(np.std(run.differences, ddof=1)), abs=1e-10)


class TestSampler:
    # Bounds are the chi-square quantile at p = 1e-6 for len(cells) - 1 degrees of freedom.
    def test_subsets_are_uniform(self):
        rows = _subsets(np.random.default_rng(29), 6, 3, 20_000)
        cells = list(itertools.combinations(range(6), 3))
        assert chi2_uniform([tuple(sorted(row)) for row in rows.tolist()], cells) < chi2_bound(len(cells) - 1)

    def test_disjoint_halves_are_uniform_ordered_pairs(self):
        first, second = _disjoint_halves(np.random.default_rng(30), 5, 1, 20_000)
        cells = list(itertools.permutations(range(5), 2))
        pairs = list(zip(first[:, 0].tolist(), second[:, 0].tolist()))
        assert chi2_uniform(pairs, cells) < chi2_bound(len(cells) - 1)

    @pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (6, 3), (7, 7), (300, 25), (3650, 50)])
    def test_subset_rows_are_distinct_and_in_range(self, n, k):
        rows = _subsets(np.random.default_rng(n + k), n, k, 500)
        assert rows.shape == (500, k)
        assert rows.min() >= 0 and rows.max() < n
        ordered = np.sort(rows, axis=1)
        assert np.all(ordered[:, 1:] > ordered[:, :-1])
        assert rows.tolist() == floyd_block(np.random.default_rng(n + k), n, k, 500)

    def test_block_draws_and_connectivities_are_pinned(self):
        """One context and one baseline block of the default streams, and their
        connectivities, to the bit: a change of stream, sampler or summation
        order must fail here, not pass unnoticed."""
        ds = dataset_with_pools(150, 150, seed=31)
        iso, data = ds.ema[pools_for(ds)["isolation"]], ds.ema[baseline_pool(ds)]
        ctx = np.sort(_subsets(child_rng(0, "locations_visited"), 150, 25, BLOCK), axis=1)
        first, second = (np.sort(idx, axis=1) for idx in _disjoint_halves(child_rng(0, "baseline"), 300, 25, BLOCK))
        blocks = (
            ctx.astype("<i8"),
            np.concatenate((first, second), axis=1).astype("<i8"),
            upper_triangle_sum(correlation_matrix(iso[ctx])).astype("<f8"),
            upper_triangle_sum(correlation_matrix(np.concatenate((data[first], data[second])))).astype("<f8"),
        )
        assert [hashlib.sha256(block.tobytes()).hexdigest() for block in blocks] == [
            "421e76208de4997477030feefb9c509f1c380e1ab99fd6f4f8a0a89557941c0b",
            "8d73bb7d115e040c28fe51312fe292b82212c2e86321afa28f8fea0087844d1a",
            "af9e9395b231c8605ec6fb69ff87003aece6c60640ce8572ce361372c8315558",
            "6ade48e7344fc0f7c1cf0cf09551f1b4b2deb8079763fb76ada8a48b9ab14e4a",
        ]


class TestBaselineRun:
    def test_insufficient_pool(self):
        # Both context pools pass; the baseline pool given is one day short.
        ds = dataset_with_pools(25, 25)
        cfg = PermutationConfig(n_permutations=5, sample_size=25)
        with pytest.raises(InsufficientPool) as exc:
            paired(ds, cfg, pool=baseline_pool(ds)[1:])
        assert (exc.value.category, exc.value.have, exc.value.need) == ("baseline", 49, 50)

    def test_exact_partition_pool(self):
        ds = dataset_with_pools(25, 25, seed=10)
        cfg = PermutationConfig(n_permutations=30, seed=11)
        _, run, _ = paired(ds, cfg)
        assert len(run.differences) == 30

    def test_mean_is_small(self):
        ds = dataset_with_pools(80, 80, seed=12)
        cfg = PermutationConfig(n_permutations=2000, seed=13)
        _, run, _ = paired(ds, cfg)
        assert abs(run.mean) < 4.0 * run.std / math.sqrt(cfg.n_permutations)

    def test_disjoint_samples(self):
        ds = dataset_with_pools(30, 30, seed=14)
        cfg = PermutationConfig(n_permutations=10, seed=15)
        _, run, _ = paired(ds, cfg, log_indices=True)
        for first, second in run.sampled_indices:
            assert not set(first) & set(second)
            assert len(set(first)) == len(first) == cfg.sample_size


class TestPairedTTest:
    def test_identical_samples(self):
        xs = [1.0, 2.0, 3.0]
        res = paired_t_test(xs, xs)
        assert (res.t_score, res.p_value, res.df) == (0.0, 1.0, 2)

    def test_constant_difference_gives_infinity(self):
        res = paired_t_test([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
        assert res.t_score == float("inf")
        assert res.p_value == 0.0
        res = paired_t_test([0, 1, 2], [1, 2, 3])
        assert res.t_score == float("-inf")

    def test_derived_against_formula_and_quadrature(self):
        xs = [1.1, 2.0, 2.9, 4.2]
        ys = [0.8, 1.7, 3.1, 3.9]
        d = [a - b for a, b in zip(xs, ys)]
        n = len(d)
        d_mean = sum(d) / n
        s_d = math.sqrt(sum((v - d_mean) ** 2 for v in d) / (n - 1))
        t_expected = d_mean / (s_d / math.sqrt(n))
        mpmath.mp.dps = 30
        v = mpmath.mpf(n - 1)
        c = mpmath.gamma((v + 1) / 2) / (mpmath.sqrt(v * mpmath.pi) * mpmath.gamma(v / 2))
        p_expected = float(2 * mpmath.quad(lambda u: c * (1 + u * u / v) ** (-(v + 1) / 2), [abs(t_expected), mpmath.inf]))
        res = paired_t_test(xs, ys)
        assert res.t_score == pytest.approx(t_expected, abs=1e-12)
        assert res.p_value == pytest.approx(p_expected, rel=1e-8)
        assert res.df == 3

    def test_t_divides_by_the_correctly_rounded_root(self):
        # At n = 2921, C pow() may round n**0.5 one ulp away from math.sqrt(n).
        n = 2921
        rng = random.Random(1)
        xs = [rng.uniform(-3, 3) for _ in range(n)]
        ys = [rng.uniform(-3, 3) for _ in range(n)]
        d = [a - b for a, b in zip(xs, ys)]
        assert paired_t_test(xs, ys).t_score == stats.mean(d) / (stats.sample_std(d) / math.sqrt(n))

    def test_antisymmetry(self):
        rng = random.Random(16)
        xs = [rng.uniform(-3, 3) for _ in range(20)]
        ys = [rng.uniform(-3, 3) for _ in range(20)]
        ab = paired_t_test(xs, ys)
        ba = paired_t_test(ys, xs)
        assert ab.t_score == pytest.approx(-ba.t_score)
        assert ab.p_value == pytest.approx(ba.p_value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1, 2], [1, 2, 3])


class TestCompareToBaseline:
    def test_planted_effect_detected(self):
        cfg = synthgen.SynthConfig(n_days=300, seed=21, isolation_corr=synthgen.correlated_block(0.6))
        ds = backfill_emas(synthgen.generate(cfg))
        _, _, test = paired(ds, PermutationConfig(seed=22), items=POSITIVE_ONLY)
        assert test.p_value < 0.001
        assert test.t_score < 0  # context connectivity above baseline


class TestChildRng:
    def test_streams_are_deterministic_and_distinct(self):
        a = child_rng(42, "locations_visited").integers(0, 1 << 30, size=4)
        b = child_rng(42, "locations_visited").integers(0, 1 << 30, size=4)
        c = child_rng(42, "baseline").integers(0, 1 << 30, size=4)
        d = child_rng(43, "locations_visited").integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
