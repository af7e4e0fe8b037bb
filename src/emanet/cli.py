"""Command-line entry point: validate, analyze, cohort, synth, export-network.

Exit codes: 0 success, 2 bad input file, flag value or failed write, 3
statistical precondition failure (a pool too small for the requested sample
size). Each fault ends in one line on stderr that names its file, if any.
cohort sets aside, with the same words, a participant whose own file cannot
be read, parsed or analysed; any other fault ends the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .contexts import BASELINE, CONTEXT_FLAGS, DISPLAY_NAMES, baseline_pool, categorize
from .ingest import SENSOR_FEATURES, SchemaViolation, backfill_emas, format_participant, parse_participant
from .netcore import ALL10, NEGATIVE_ONLY, POSITIVE_ONLY, export_network, pearson_network
from .permtest import (
    SAMPLER,
    InsufficientPool,
    InvalidConfig,
    PermutationConfig,
    child_rng,
    run_paired,
)
from .synthgen import InvalidConfig as InvalidSynthConfig
from .synthgen import SynthConfig, correlated_block, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

P_FLOOR = 1e-300


class InvalidFlag(ValueError):
    """A command-line flag value out of range."""


# --subset flag -> (table row label, EMA column indices).
SUBSETS = {
    "all": ("All EMAs", ALL10),
    "positive": ("Positive EMAs", POSITIVE_ONLY),
    "negative": ("Negative EMAs", NEGATIVE_ONLY),
}

TABLE_FOOTER = (
    "* p < 0.001, ** p < 0.05\n"
    "Note: pairs are matched by permutation index; iterations resample\n"
    "overlapping day sets, so paired t-test independence assumptions are\n"
    "approximate.\n"
)


def significance_marker(p: float) -> str:
    if p < 0.001:
        return "*"
    if p < 0.05:
        return "**"
    return ""


def format_p(p: float) -> str:
    if p < P_FLOOR:
        return "< 1e-300"
    return format(p, ".6g")


def machine_p(p: float) -> float:
    return 0.0 if p < P_FLOOR else p


def _t_cell(t: float) -> str:
    """t to 2 decimals; an infinite t reads "inf" or "-inf", in tables and run.json."""
    return f"{t:.2f}"


def histogram_csv(baseline_diffs, context_diffs) -> str:
    """Shared fixed-width bins for both distributions (Freedman-Diaconis width
    on the pooled data); per-distribution counts sum to n_permutations."""
    pooled = np.asarray(list(baseline_diffs) + list(context_diffs), dtype=float)
    q75, q25 = np.percentile(pooled, [75, 25])
    width = 2.0 * (q75 - q25) * len(pooled) ** (-1.0 / 3.0)
    if width <= 0.0:
        width = 1.0
    lo = float(pooled.min())
    hi = float(pooled.max())
    nbins = max(1, math.ceil((hi - lo) / width))
    edges = lo + width * np.arange(nbins + 1)
    if edges[-1] < hi:
        edges = np.append(edges, edges[-1] + width)
    base_counts, _ = np.histogram(np.asarray(baseline_diffs, dtype=float), bins=edges)
    ctx_counts, _ = np.histogram(np.asarray(context_diffs, dtype=float), bins=edges)
    lines = ["bin_left,bin_right,baseline_count,context_count"]
    for row in zip(edges.tolist(), edges[1:].tolist(), base_counts.tolist(), ctx_counts.tolist()):
        lines.append(",".join(map(repr, row)))  # Python floats: repr is the shortest round-trip decimal
    return "\n".join(lines) + "\n"


def _stats_row(label: str, result) -> str:
    """label, then baseline and context mean/std, t and significance marker of
    one run_paired result (context_run, baseline_run, TTest)."""
    ctx, base, test = result
    return (
        f"{label}{base.mean:8.2f}{base.std:10.2f}    {ctx.mean:8.2f}{ctx.std:10.2f}"
        f"{_t_cell(test.t_score):>12s} {significance_marker(test.p_value)}"
    ).rstrip()


def _stats_table(width: int, corner: str, feature: str, rows: list, notes: list) -> str:
    """Two heading lines over _stats_row rows whose labels are width wide, a
    blank line, the note lines (each block ending in a blank line) and TABLE_FOOTER."""
    lines = [
        f"{'':{width}s}{'Baseline':22s}{DISPLAY_NAMES[feature]}",
        f"{corner:{width}s}{'x̄':>8s}{'σ':>10s}    {'x̄':>8s}{'σ':>10s}{'t':>12s}",
        *rows,
        "",
        *notes,
    ]
    return "\n".join(lines) + "\n" + TABLE_FOOTER


def render_table(participant_id: str, feature: str, subset_flag: str, result) -> str:
    test = result[2]
    row = _stats_row(f"{SUBSETS[subset_flag][0]:16s}", result)
    notes = [f"p = {format_p(test.p_value)}, df = {test.df}", ""]
    return f"Participant: {participant_id}\n\n" + _stats_table(16, "", feature, [row], notes)


def _json_list(items: list, depth: int) -> str:
    """items, each JSON text, joined as json.dumps(indent=2) lays out a list at depth. run.json's flagged
    arrays are laid out by it: with an indent, json.dumps runs its pure-Python encoder."""
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"


def _run_json(participant_id, feature, subset_flag, cfg, run, result, emit_differences, verbose_indices):
    payload = {
        "participant_id": participant_id,
        "context": feature,
        "subset": subset_flag,
        "config": {
            "n_permutations": cfg.n_permutations,
            "sample_size": cfg.sample_size,
            "sampler": SAMPLER,
            "seed": cfg.seed,
            "subset": subset_flag,
        },
        "stats": {"mean": run.mean, "std": run.std},
    }
    if result is not None:
        ctx, base, test = result
        payload["comparison"] = {
            "t_score": _t_cell(t) if math.isinf(t := test.t_score) else t,
            "p_value": machine_p(test.p_value),
            "df": test.df,
            "baseline": {"mean": base.mean, "std": base.std},
            "context": {"mean": ctx.mean, "std": ctx.std},
        }
    arrays, pairs = {}, run.sampled_indices
    if emit_differences:  # float.__repr__, as json writes a float; nan and inf are respelled below
        arrays["differences"] = _json_list(list(map(float.__repr__, run.differences)), 1)
    if verbose_indices:  # one row template of %d fields, filled by one %
        lens = list(map(len, chain.from_iterable(pairs)))
        assert lens == lens[:2] * len(pairs), "every (a, b) pair has one shape, as run_paired draws them"
        row = _json_list([_json_list(["%d"] * n, 3) for n in lens[:2]], 2)
        arrays["sampled_indices"] = _json_list([row] * len(pairs), 1) % tuple(chain.from_iterable(chain(*pairs)))
    text = json.dumps(payload | dict.fromkeys(arrays, "\0"), sort_keys=True, indent=2)
    for key, value in arrays.items():  # the one "<key>": "\u0000", for json escapes every " in an id
        value = value.replace("nan", "NaN").replace("inf", "Infinity")  # as json spells them
        text = text.replace(f'"{key}": "\\u0000"', f'"{key}": {value}', 1)
    return text + "\n"


def analyze_participant(args, cfg: PermutationConfig, input_path: Path, outdir: Path):
    """Full single-participant pipeline over one read of input_path; writes
    all artifacts into outdir. The seed, permutation count and sample size
    come from cfg; args gives --context, --subset, --emit-differences and
    --verbose-indices.

    Each artifact is written as the UTF-8 bytes that manifest.json digests.
    Returns run_paired's (context_run, baseline_run, TTest) and table.txt's
    text. Raises OSError, UnicodeDecodeError, SchemaViolation or InsufficientPool.
    """
    data = input_path.read_bytes()
    ds = backfill_emas(parse_participant(data, input_path.stem))
    feature = CONTEXT_FLAGS[args.context]
    items = SUBSETS[args.subset][1]
    pools = categorize(ds, feature)
    ema = ds.ema[:, items]
    result = run_paired(
        ema[pools["isolation"]], ema[pools["sociability"]], ema[baseline_pool(ds)], cfg,
        child_rng(cfg.seed, feature), child_rng(cfg.seed, BASELINE),
        log_indices=args.verbose_indices,
    )
    ctx_run, base_run, _ = result

    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {}

    def emit(name: str, text: str):
        (outdir / name).write_bytes(body := text.encode("utf-8"))
        outputs[name] = hashlib.sha256(body).hexdigest()

    flags = (args.emit_differences, args.verbose_indices)
    emit("run.json", _run_json(ds.participant_id, feature, args.subset, cfg, ctx_run, result, *flags))
    emit("baseline.json", _run_json(ds.participant_id, BASELINE, args.subset, cfg, base_run, None, *flags))
    emit("histogram.csv", histogram_csv(base_run.differences, ctx_run.differences))
    # Presentation networks use ALL days in each category, not 25-day samples.
    for category, rows in pools.items():
        net = pearson_network(ds.ema[rows], items)
        emit(f"network_{category}.json", export_network(net, "json"))
        emit(f"network_{category}.dot", export_network(net, "dot"))
    emit("table.txt", table := render_table(ds.participant_id, feature, args.subset, result))

    manifest = {
        "tool_version": __version__,
        "master_seed": cfg.seed,
        "inputs": {input_path.name: hashlib.sha256(data).hexdigest()},
        "config": {
            "command": "analyze",
            "context": args.context,
            "subset": args.subset,
            "n_permutations": cfg.n_permutations,
            "sample_size": cfg.sample_size,
            "sampler": SAMPLER,
            "emit_differences": args.emit_differences,
            "verbose_indices": args.verbose_indices,
        },
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_bytes((json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    return result, table


def cmd_validate(args) -> int:
    if args.min_days < 2:
        raise InvalidFlag(f"--min-days must be >= 2, got {args.min_days}")
    path = Path(args.input)
    ds = backfill_emas(parse_participant(path.read_bytes(), path.stem))
    w = max(len(name) for name in DISPLAY_NAMES.values()) + 2
    print(f"Participant {ds.participant_id}: {len(ds.dates)} days, {ds.usable_days} with EMA")
    print()
    print(f"{'Context':{w}s}{'Isolation':>10s}{'Sociability':>12s}  Eligible (>= {args.min_days}/category)")
    for feature in SENSOR_FEATURES:
        n = {category: len(rows) for category, rows in categorize(ds, feature).items()}
        short = min(n, key=n.get)  # the smaller pool; a tie names isolation
        verdict = "yes" if n[short] >= args.min_days else f"no (limiting: {short})"
        print(f"{DISPLAY_NAMES[feature]:{w}s}{n['isolation']:>10d}{n['sociability']:>12d}  {verdict}")
    n_pool = len(baseline_pool(ds))
    base_ok = "yes" if n_pool >= 2 * args.min_days else "no"
    print(f"{'Baseline (random unfiltered)':{w}s}{n_pool:>10d}{'':>12s}  {base_ok} (needs >= {2 * args.min_days})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = PermutationConfig(args.permutations, args.sample_size, args.seed)
    _, table = analyze_participant(args, cfg, Path(args.input), Path(args.out))
    print(table, end="")
    return EXIT_OK


def cmd_cohort(args) -> int:
    cfg = PermutationConfig(args.permutations, args.sample_size, args.seed)
    # Listed before any output exists: a missing path or a file raises its OSError here.
    inputs = sorted(f for f in Path(args.input).iterdir() if f.name.endswith(".csv"))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # Each row is rendered as soon as its run returns: holding the runs
    # (every sampled index under --verbose-indices) would raise peak memory.
    rows, excluded = [], []
    for f in inputs:
        pid = f.stem
        try:
            rows.append(_stats_row(f"{pid:10s}", analyze_participant(args, cfg, f, outdir / pid)[0]))
        except (OSError, UnicodeDecodeError, SchemaViolation, InsufficientPool) as exc:
            if isinstance(exc, OSError) and exc.filename != str(f):
                raise  # a fault in writing outputs is the run's, not the participant's
            excluded.append(f"  {pid}: {_fault(exc)}")
    notes = ["Excluded participants:", *excluded, ""] if excluded else []
    table = _stats_table(10, "ID", CONTEXT_FLAGS[args.context], rows, notes)
    (outdir / "cohort_table.txt").write_bytes(table.encode("utf-8"))
    print(table, end="")
    if not rows:
        print("error: no eligible participants", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _synth_config_from_args(args) -> SynthConfig:
    """The --config file's keys, then each synth flag given, which sets its own key."""
    keys = {}
    if args.config:
        try:
            keys = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidSynthConfig(str(exc)) from None
        except ValueError:  # an integer past sys.get_int_max_str_digits()
            raise InvalidSynthConfig("an integer has too many digits") from None
        except RecursionError:
            raise InvalidSynthConfig("arrays or objects nested too deeply") from None
        if not isinstance(keys, dict):
            raise InvalidSynthConfig("the config must be a JSON object")
    given = vars(args)
    keys.update((f.name, given[f.name]) for f in dataclasses.fields(SynthConfig) if f.name in given)
    if "planted_r" in given:
        keys["isolation_corr"] = correlated_block(given["planted_r"])
    try:
        return SynthConfig(**keys)
    except TypeError as exc:  # an unknown key
        raise InvalidSynthConfig(str(exc)) from None


def cmd_synth(args) -> int:
    ds = generate(_synth_config_from_args(args))
    Path(args.out).write_bytes(format_participant(ds))
    print(f"wrote {len(ds.dates)} days ({ds.usable_days} reported EMAs) to {args.out}")
    return EXIT_OK


def cmd_export_network(args) -> int:
    path = Path(args.input)
    ds = backfill_emas(parse_participant(path.read_bytes(), path.stem))
    if args.context == BASELINE:
        pool, rows = BASELINE, baseline_pool(ds)
    else:
        pool, rows = args.category, categorize(ds, CONTEXT_FLAGS[args.context])[args.category]
    if len(rows) < 2:
        raise InsufficientPool(pool, len(rows), 2)
    net = pearson_network(ds.ema[rows], SUBSETS[args.subset][1])
    text = export_network(net, args.format)
    if args.out:
        Path(args.out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_run_flags(p: argparse.ArgumentParser):
    """The flags of analyze and cohort, which analyze_participant reads."""
    p.add_argument("--context", choices=list(CONTEXT_FLAGS), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subset", choices=SUBSETS, default="all")
    p.add_argument("--seed", type=int, default=PermutationConfig.seed)
    p.add_argument("--permutations", type=int, default=PermutationConfig.n_permutations)
    p.add_argument("--sample-size", type=int, default=PermutationConfig.sample_size)
    p.add_argument("--emit-differences", action="store_true", help="include per-iteration differences in JSON output")
    p.add_argument("--verbose-indices", action="store_true", help="log per-iteration sampled day indices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emanet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"emanet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema check and per-context eligibility report")
    p.add_argument("input")
    p.add_argument("--min-days", type=int, default=PermutationConfig.sample_size)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="run one context's permutation analysis end to end")
    p.add_argument("input")
    _add_run_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cohort", help="analyze every participant CSV in a directory")
    p.add_argument("input", metavar="inputs")
    _add_run_flags(p)
    p.set_defaults(func=cmd_cohort)

    p = sub.add_parser("synth", help="generate a synthetic participant CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with SynthConfig keys; each flag given sets its own key")
    # Only the flags given reach the namespace, so a config key that no flag sets keeps its value.
    if_given = dict(default=argparse.SUPPRESS)
    p.add_argument("--days", type=int, dest="n_days", **if_given)
    p.add_argument("--seed", type=int, **if_given)
    p.add_argument("--cadence", type=int, dest="report_cadence", **if_given)
    p.add_argument("--feature", choices=SENSOR_FEATURES, dest="planted_feature", **if_given)
    p.add_argument("--mix", type=float, dest="context_mix", **if_given)
    p.add_argument("--planted-r", type=float, help="latent correlation among positive items in isolation", **if_given)
    p.add_argument("--missing-rate", type=float, dest="missing_sensor_rate", **if_given)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export-network", help="export an all-day category network as JSON or DOT")
    p.add_argument("input")
    p.add_argument("--context", choices=[*CONTEXT_FLAGS, BASELINE], required=True)
    p.add_argument("--category", choices=("isolation", "sociability"), default="isolation")
    p.add_argument("--subset", choices=SUBSETS, default="all")
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_network)

    return parser


def _fault(exc, path=None) -> str:
    """The words of one expected fault, naming path when one is given."""
    if isinstance(exc, FileNotFoundError):
        words = "file not found"
    elif isinstance(exc, OSError):
        words = exc.strerror
    elif isinstance(exc, UnicodeDecodeError):
        words = f"not UTF-8 text ({exc.reason})"
    elif isinstance(exc, SchemaViolation):
        words = f"schema violation: {exc}"
    elif isinstance(exc, InvalidConfig):
        words = f"invalid permutation config: {exc}"
    elif isinstance(exc, InvalidSynthConfig):
        words = f"invalid synth config: {exc}"
    else:  # InvalidFlag, InsufficientPool
        words = str(exc)
    return words if path is None else f"{words}: {path}"


def _as_typed(args, filename):
    """filename, spelled as on the command line when it is the input path."""
    given = getattr(args, "input", None)
    return given if given is not None and str(Path(given)) == filename else filename


def main(argv=None) -> int:
    """Run one command; every bad input ends in a one-line error and exit 2 or 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, SchemaViolation, InsufficientPool, InvalidConfig, InvalidSynthConfig,
            InvalidFlag) as exc:
        filename = args.input if isinstance(exc, UnicodeDecodeError) else getattr(exc, "filename", None)
        line = _fault(exc, _as_typed(args, filename))
        print(line if isinstance(exc, SchemaViolation) else f"error: {line}", file=sys.stderr)
        return EXIT_PRECONDITION if isinstance(exc, InsufficientPool) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
