"""Seeded participant CSVs for the benchmark workloads.

This generator is independent of ``emanet.synthgen`` on purpose: the
program's own generator may change (and today depends on the LAPACK
eigenbasis), and either would silently change the benchmark's inputs.

Model: a shared-factor latent normal.  On isolation days of the planted
feature the planted items are ``sqrt(r)*f + sqrt(1-r)*e_i`` (pairwise latent
correlation r); every other item, and every item on sociability days, is an
independent standard normal.  Latent values are discretised onto 0..3 at the
standard-normal quartiles, except that the floored items score 0 on 90% of
reports, as items at the scale floor do in real EMA data: a 25-day sample
then often holds a constant item, which exercises the program's
zero-correlation rule.  No eigendecomposition is involved.

Everything that sets the amount of work (day count, number of reports,
context day counts, missing cells) is fixed by the participant spec; the
seed only chooses which days and cells, and the scores.  So every seed gives
inputs of the same size, and op times are comparable across seeds.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

ITEMS = ("calm", "social", "sleeping", "think", "hopeful",
         "depressed", "stressed", "voices", "seeing", "harm")
SENSORS = ("locations_visited", "calls_made", "calls_received",
           "sms_sent", "sms_received", "conversations_detected")
HEADER = ",".join(("date",) + tuple(f"ema_{i}" for i in ITEMS) + SENSORS)
PLANTED_ITEMS = (0, 1, 2, 3, 4)
PLANTED_SENSOR = 0  # locations_visited, the CLI's "locations" context
QUARTILES = tuple(NormalDist().inv_cdf(q) for q in (0.25, 0.5, 0.75))
FLOORED_ITEMS = (1, 9)  # social, harm
FLOOR_CUTS = tuple(NormalDist().inv_cdf(q) for q in (0.9, 0.96, 0.99))
START = dt.date(2023, 1, 1)
MISSING = -1
MIX = 0.5  # share of reporting blocks (and of days per other sensor) that read 0


@dataclass(frozen=True)
class Participant:
    name: str
    n_days: int
    planted_r: float
    cadence: int = 3
    missing_rate: float = 0.0
    missed_reports: float = 0.0  # share of report days without a report


@dataclass(frozen=True)
class Days:
    """Ground truth of one participant as written to its CSV.

    ``ema`` is (n_days, 10) with MISSING rows on days without a report;
    ``sensors`` is (n_days, 6) with MISSING for unmeasured cells.
    """

    ema: np.ndarray
    sensors: np.ndarray


def _exact_subset(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """Boolean mask with exactly round(share * n) True entries."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[: int(round(share * n))]] = True
    return mask


def make_days(p: Participant, rng: np.random.Generator) -> Days:
    n = p.n_days
    # The planted feature's category holds over each reporting block, so a
    # report and the days it is backfilled onto share one context.
    n_blocks = -(-n // p.cadence)
    isolated = np.repeat(_exact_subset(rng, n_blocks, MIX), p.cadence)[:n]

    sensors = np.empty((n, len(SENSORS)), dtype=np.int64)
    for j in range(len(SENSORS)):
        zero = isolated if j == PLANTED_SENSOR else _exact_subset(rng, n, MIX)
        sensors[:, j] = np.where(zero, 0, rng.geometric(0.5, size=n))
        sensors[_exact_subset(rng, n, p.missing_rate), j] = MISSING

    report_days = np.arange(p.cadence - 1, n, p.cadence)
    report_days = report_days[~_exact_subset(rng, len(report_days), p.missed_reports)]
    z = rng.standard_normal((len(report_days), len(ITEMS)))
    factor = rng.standard_normal(len(report_days))
    planted = isolated[report_days]
    cols = list(PLANTED_ITEMS)
    z[np.ix_(planted, cols)] = (np.sqrt(p.planted_r) * factor[planted, None]
                                + np.sqrt(1.0 - p.planted_r) * z[np.ix_(planted, cols)])
    ema = np.full((n, len(ITEMS)), MISSING, dtype=np.int64)
    scores = np.searchsorted(QUARTILES, z, side="left")
    for i in FLOORED_ITEMS:
        scores[:, i] = np.searchsorted(FLOOR_CUTS, z[:, i], side="left")
    ema[report_days] = scores
    return Days(ema=ema, sensors=sensors)


def write_csv(days: Days, path: Path) -> None:
    def cell(v: int) -> str:
        return "" if v == MISSING else str(v)

    lines = [HEADER]
    for i in range(days.ema.shape[0]):
        date = (START + dt.timedelta(days=i)).isoformat()
        lines.append(",".join([date] + [cell(v) for v in days.ema[i]] + [cell(v) for v in days.sensors[i]]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(participants, seed: int, outdir: Path) -> dict:
    """Write one CSV per participant into outdir; return name -> Days."""
    outdir.mkdir(parents=True, exist_ok=True)
    truth = {}
    for k, p in enumerate(participants):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        truth[p.name] = make_days(p, rng)
        write_csv(truth[p.name], outdir / f"{p.name}.csv")
    return truth
