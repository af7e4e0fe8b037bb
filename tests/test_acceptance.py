"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from emanet.cli import main
from emanet.contexts import baseline_pool, categorize
from daytable import sources, table
from emanet.ingest import backfill_emas
from emanet.netcore import ALL10, POSITIVE_ONLY, pearson_network, upper_triangle_sum
from emanet.permtest import PermutationConfig, child_rng, paired_t_test, run_paired
from emanet.synthgen import SynthConfig, correlated_block, generate

DATA_DIR = Path(__file__).parent / "data"


def check(n, desc, cond, detail=""):
    status = "PASS" if cond else "FAIL"
    print(f"[criterion {n}] {status} - {desc}{(' (' + detail + ')') if detail else ''}")
    assert cond, f"criterion {n} failed: {desc} {detail}"


def analyze_synthetic(ds, seed, items=ALL10, n_permutations=2000):
    """run_paired's (context_run, baseline_run, TTest) for the locations context,
    drawn from the streams the CLI names for every run."""
    pools, ema = categorize(ds, "locations_visited"), ds.ema[:, items]
    cfg = PermutationConfig(n_permutations=n_permutations, seed=seed)
    rngs = (child_rng(seed, "locations_visited"), child_rng(seed, "baseline"))
    return run_paired(ema[pools["isolation"]], ema[pools["sociability"]], ema[baseline_pool(ds)], cfg, *rngs)


def test_criterion_1_baseline_near_zero_mean():
    worst_ratio = 0.0
    worst_elapsed = 0.0
    ok = True
    for seed in range(10):
        ds = backfill_emas(generate(SynthConfig(n_days=150, seed=seed)))
        assert ds.usable_days >= 100
        t0 = time.perf_counter()
        _, base, _ = analyze_synthetic(ds, seed)
        elapsed = time.perf_counter() - t0
        bound = 4.0 * base.std / math.sqrt(2000)
        worst_ratio = max(worst_ratio, abs(base.mean) / bound if bound else 0.0)
        worst_elapsed = max(worst_elapsed, elapsed)
        ok = ok and abs(base.mean) <= bound and elapsed < 10.0
    check(
        1,
        "baseline |mean| <= 4*sigma/sqrt(2000) over 10 seeds, each run < 10 s",
        ok,
        f"worst ratio {worst_ratio:.2f}, worst runtime {worst_elapsed:.2f} s",
    )


def test_criterion_2_planted_effect_detection():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        cfg = SynthConfig(n_days=300, seed=seed, isolation_corr=correlated_block(0.6))
        ds = backfill_emas(generate(cfg))
        _, _, test = analyze_synthetic(ds, seed, items=POSITIVE_ONLY)
        if test.p_value < 0.001:
            hits += 1
    elapsed = time.perf_counter() - t0
    check(
        2,
        "planted effect p < 0.001 in >= 99 of 100 seeds, total < 10 min",
        hits >= 99 and elapsed < 600.0,
        f"{hits}/100 detected in {elapsed:.0f} s",
    )


def _binomial_99ci_bounds(n, p):
    # Central 99% acceptance region of Bin(n, p) on hit counts.
    probs = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    cdf = list(itertools.accumulate(probs))
    lo = next(k for k in range(n + 1) if cdf[k] >= 0.005)
    hi = next(k for k in range(n + 1) if cdf[k] >= 0.995)
    return lo, hi


def test_criterion_3_null_false_positive_control():
    hits = 0
    n_runs = 200
    for seed in range(n_runs):
        ds = backfill_emas(generate(SynthConfig(n_days=300, seed=seed)))
        _, _, test = analyze_synthetic(ds, seed)
        if test.p_value < 0.05:
            hits += 1
    lo, hi = _binomial_99ci_bounds(n_runs, 0.05)
    check(
        3,
        f"null false-positive rate within binomial 99% CI [{lo}/200, {hi}/200] around 0.05",
        lo <= hits <= hi,
        f"observed {hits}/{n_runs}",
    )


def _naive_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return 0.0
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / math.sqrt(sxx * syy)


def _quad_t_sf(t, df):
    mpmath.mp.dps = 25
    v = mpmath.mpf(df)
    c = mpmath.gamma((v + 1) / 2) / (mpmath.sqrt(v * mpmath.pi) * mpmath.gamma(v / 2))
    return float(2 * mpmath.quad(lambda u: c * (1 + u * u / v) ** (-(v + 1) / 2), [abs(t), mpmath.inf]))


def test_criterion_4_oracle_equivalence():
    rng = random.Random(2024)
    worst_net = 0.0
    for _ in range(1000):
        n = rng.randrange(3, 12)
        days = np.array([[rng.randrange(4) for _ in range(10)] for _ in range(n)])
        net = pearson_network(days, ALL10)
        i, j = rng.sample(range(10), 2)
        xi = days[:, i].tolist()
        xj = days[:, j].tolist()
        worst_net = max(worst_net, abs(net.matrix[i, j] - _naive_pearson(xi, xj)))

    worst_t = 0.0
    worst_p = 0.0
    for _ in range(1000):
        n = rng.randrange(3, 12)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        res = paired_t_test(xs, ys)
        d = [a - b for a, b in zip(xs, ys)]
        d_mean = sum(d) / n
        s_d = math.sqrt(sum((v - d_mean) ** 2 for v in d) / (n - 1))
        t_oracle = d_mean / (s_d / math.sqrt(n))
        p_oracle = _quad_t_sf(t_oracle, n - 1)
        worst_t = max(worst_t, abs(res.t_score - t_oracle))
        worst_p = max(worst_p, abs(res.p_value - p_oracle) / max(p_oracle, 1e-30))
    check(
        4,
        "network and paired-t outputs match brute-force/quadrature oracles to 1e-10",
        worst_net <= 1e-10 and worst_t <= 1e-10 and worst_p <= 1e-10,
        f"worst: net {worst_net:.2e}, t {worst_t:.2e}, p rel {worst_p:.2e}",
    )


def test_criterion_5_connectivity_bounds_and_antisymmetry():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(10_000):
        k = int(rng.choice([5, 10]))
        stack = rng.uniform(-1.0, 1.0, size=(2, k, k))
        stack = (stack + np.swapaxes(stack, 1, 2)) / 2
        stack[:, range(k), range(k)] = 1.0
        ab, ba = upper_triangle_sum(stack), upper_triangle_sum(stack[::-1])
        ok = ok and bool(np.all(np.abs(ab) <= k * (k - 1) / 2))
        ok = ok and ab[0] - ab[1] == -(ba[0] - ba[1])
        if not ok:
            break
    check(5, "|connectivity| <= C(k,2) and exact difference antisymmetry on 10,000 networks", ok)


def test_criterion_6_analyze_determinism(tmp_path):
    csv = tmp_path / "p.csv"
    assert main(["synth", "--out", str(csv), "--days", "200", "--seed", "77", "--planted-r", "0.4"]) == 0
    args = ["analyze", str(csv), "--context", "locations", "--seed", "123"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = ("run.json", "histogram.csv", "network_isolation.dot", "network_sociability.dot")
    identical = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    check(6, "repeated analyze runs are byte-identical (run.json, histogram.csv, DOT)", identical)


def test_criterion_7_backfill_conformance():
    ema = (1, 2, 0, 3, 1, 0, 2, 1, 3, 0)
    rng = random.Random(99)
    ok = True
    import datetime as dt

    d0 = dt.date(2023, 1, 1)
    for _ in range(1000):
        n = rng.randrange(1, 50)
        reports = {i for i in range(n) if rng.random() < rng.choice([0.1, 0.3, 0.6])}
        rows = [
            (d0 + dt.timedelta(days=i), ema if i in reports else None, (1,) + (None,) * 5)
            for i in range(n)
        ]
        ds = backfill_emas(table(rows))
        for i, source in enumerate(sources(ds)):
            nearest = next((k for k in (0, 1, 2) if i + k in reports), None)
            if nearest is None:
                ok = ok and source == "none"
            elif nearest == 0:
                ok = ok and source == "reported"
            else:
                ok = ok and source == f"backfilled-{nearest}"
                ok = ok and np.array_equal(ds.ema[i], ds.ema[i + nearest])
        if not ok:
            break
    check(7, "backfill copies nearest later report within 2 days; other days omitted (1000 schedules)", ok)


def _first_difference(actual, golden):
    """Name the first line where actual differs from golden, or "" if equal."""
    if actual == golden:
        return ""
    a, g = actual.splitlines(), golden.splitlines()
    for i, (x, y) in enumerate(itertools.zip_longest(a, g), start=1):
        if x != y:
            return f"first difference at line {i}: got {x!r}, golden {y!r}"
    return "tables differ only in line endings or a final newline"


def test_criterion_8_cohort_table_golden(tmp_path):
    indir = tmp_path / "cohort"
    indir.mkdir()
    for i in range(5):
        assert main(["synth", "--out", str(indir / f"p{i + 1:02d}.csv"), "--days", "300",
                     "--seed", str(100 + i), "--planted-r", "0.6"]) == 0
    assert main(["synth", "--out", str(indir / "p06.csv"), "--days", "300",
                 "--seed", "106"]) == 0
    out = tmp_path / "out"
    rc = main(["cohort", str(indir), "--context", "locations", "--seed", "7",
               "--permutations", "500", "--out", str(out)])
    assert rc == 0
    golden = (DATA_DIR / "golden_cohort_table.txt").read_text(encoding="utf-8")
    actual = (out / "cohort_table.txt").read_text(encoding="utf-8")
    check(8, "cohort table matches the golden layout (x̄/σ per block, t, footnote markers)",
          actual == golden, _first_difference(actual, golden))
