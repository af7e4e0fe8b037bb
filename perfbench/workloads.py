"""The three workloads: their inputs, the CLI commands of one op, and the
checks on that op's outputs.  Why each was chosen is recorded in
BENCHMARK.json and README.md.

Checks test properties that hold for any correct program, not byte-exact
outputs, so a change that alters outputs on purpose (a new kernel summation
order, a versioned sampler) still passes.  The null participant's
significance is deliberately not checked: the published procedure is
anti-conservative, so it is often "significant".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from gen import PLANTED_ITEMS, PLANTED_SENSOR, Participant

TOLERANCE = 1e-9
COHORT_PERMUTATIONS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    participants: tuple
    # (inputs dir, output dir) -> argv lists, run in order as one op
    commands: Callable[[Path, Path], list]
    # (ground truth, output dir, [(exit code, stdout)]) -> problems found
    check: Callable[[dict, Path, list], list]


def _exit_codes(results) -> list:
    return [f"command {i} exited {code!r}" for i, (code, _) in enumerate(results) if code != 0]


# analyze_single ---------------------------------------------------------

def _analyze_commands(inputs: Path, out: Path) -> list:
    return [["analyze", str(inputs / "p300.csv"), "--context", "locations", "--subset", "all",
             "--permutations", "2000", "--sample-size", "25", "--out", str(out / "p300")]]


def _analyze_check(truth, out: Path, results) -> list:
    problems = _exit_codes(results)
    if problems:
        return problems
    comparison = json.loads((out / "p300" / "run.json").read_text(encoding="utf-8"))["comparison"]
    t, p = float(comparison["t_score"]), float(comparison["p_value"])
    if not (t < 0 and p < 0.001):
        problems.append(f"planted effect not detected: t={t}, p={p}")
    return problems


# cohort_mixed -----------------------------------------------------------

COHORT_SHORT = "p06"


def _cohort_commands(inputs: Path, out: Path) -> list:
    return [["cohort", str(inputs), "--context", "locations", "--subset", "positive",
             "--permutations", str(COHORT_PERMUTATIONS), "--emit-differences", "--verbose-indices",
             "--out", str(out / "cohort")]]


def _recompute(ema, pool_a, pool_b, log, differences) -> list:
    """Recompute every iteration's difference from its logged sample positions."""
    if len(differences) != COHORT_PERMUTATIONS or len(log) != COHORT_PERMUTATIONS:
        return [f"expected {COHORT_PERMUTATIONS} iterations, got {len(differences)}"]
    a, b = (np.asarray([entry[side] for entry in log], dtype=np.int64) for side in (0, 1))
    if a.max() >= len(pool_a) or b.max() >= len(pool_b):
        return ["a sampled position lies outside its pool"]
    want = oracle.connectivity(oracle.pearson(ema[pool_a[a]])) - oracle.connectivity(oracle.pearson(ema[pool_b[b]]))
    bad = np.flatnonzero(~(np.abs(want - np.asarray(differences, dtype=float)) <= TOLERANCE))  # NaN is bad too
    return [f"iteration {i}: difference {differences[i]!r}, oracle {float(want[i])!r}" for i in bad[:3]]


def _cohort_check(truth, out: Path, results) -> list:
    problems = _exit_codes(results)
    if problems:
        return problems
    root = out / "cohort"
    table = (root / "cohort_table.txt").read_text(encoding="utf-8")
    excluded = table.partition("Excluded participants:")[2]
    if f"  {COHORT_SHORT}:" not in excluded:
        problems.append(f"{COHORT_SHORT} not listed under 'Excluded participants'")
    for name, days in truth.items():
        if name == COHORT_SHORT:
            continue
        ema = oracle.backfill(days.ema)[:, list(PLANTED_ITEMS)]
        pools = oracle.pools(days, PLANTED_SENSOR)
        for artifact, pool_a, pool_b in (("run.json", pools["isolation"], pools["sociability"]),
                                         ("baseline.json", pools["baseline"], pools["baseline"])):
            run = json.loads((root / name / artifact).read_text(encoding="utf-8"))
            found = _recompute(ema, pool_a, pool_b, run["sampled_indices"], run["differences"])
            problems += [f"{name}/{artifact}: {p}" for p in found]
    return problems


# validate_long ----------------------------------------------------------

LONG_DAYS = 3650


def _validate_commands(inputs: Path, out: Path) -> list:
    csv = str(inputs / "long.csv")
    return [["validate", csv],
            ["export-network", csv, "--context", "locations", "--category", "isolation",
             "--format", "dot", "--out", str(out / "isolation.dot")],
            ["export-network", csv, "--context", "baseline", "--format", "json",
             "--out", str(out / "baseline.json")]]


def _validate_check(truth, out: Path, results) -> list:
    problems = _exit_codes(results)
    if problems:
        return problems
    if f"{LONG_DAYS} days" not in results[0][1]:
        problems.append(f"validate does not report {LONG_DAYS} days")
    if not (out / "isolation.dot").read_text(encoding="utf-8").startswith("graph"):
        problems.append("isolation.dot is not a DOT graph")
    m = np.asarray(json.loads((out / "baseline.json").read_text(encoding="utf-8"))["matrix"], dtype=float)
    days = truth["long"]
    want = oracle.pearson(oracle.backfill(days.ema)[oracle.pools(days, PLANTED_SENSOR)["baseline"]])
    if m.shape != want.shape:
        return problems + [f"matrix shape {m.shape}, expected {want.shape}"]
    if not np.array_equal(m, m.T):
        problems.append("matrix not symmetric")
    if not np.all(np.diag(m) == 1.0):
        problems.append("diagonal not 1")
    if not np.abs(m).max() <= 1.0:  # also catches NaN
        problems.append("entry outside [-1, 1]")
    err = float(np.abs(m - want).max())
    if not err <= TOLERANCE:
        problems.append(f"matrix differs from oracle by {err}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="analyze_single",
        participants=(Participant("p300", 300, 0.6),),
        commands=_analyze_commands,
        check=_analyze_check,
    ),
    Workload(
        name="cohort_mixed",
        participants=(
            Participant("p01", 1500, 0.6),
            Participant("p02", 120, 0.6),
            Participant("p03", 600, 0.6),
            Participant("p04", 300, 0.0),
            Participant("p05", 900, 0.6),
            Participant(COHORT_SHORT, 45, 0.6),
        ),
        commands=_cohort_commands,
        check=_cohort_check,
    ),
    Workload(
        name="validate_long",
        participants=(Participant("long", LONG_DAYS, 0.6, cadence=2, missing_rate=0.1, missed_reports=0.05),),
        commands=_validate_commands,
        check=_validate_check,
    ),
)}
