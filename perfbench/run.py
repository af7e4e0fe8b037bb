"""emanet benchmark: closed-loop CLI ops, one client, one op at a time.

    python3 perfbench/run.py --workload analyze_single --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each op calls ``emanet.cli.main(argv)`` in this process and its
outputs are checked.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gen import generate
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 15
SETUP_CODE = "import time; t = time.perf_counter(); import emanet.cli; print(time.perf_counter() - t)"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
CHILD_TIMEOUT = 120


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_command(argv) -> tuple:
    """One CLI call in this process: (exit code, stdout). A crash is code None."""
    import emanet.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = emanet.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op failed; counted, and the loop goes on
            traceback.print_exc(file=err)
            code = None
    if code is None:
        print(f"op crashed: {argv[0]}\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue()


def artifacts(out: Path, results) -> tuple:
    """(sha256, bytes) of everything one op wrote: its files and its stdout."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    for _, stdout in results:
        data = stdout.encode("utf-8")
        digest.update(b"stdout\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def measure_setup() -> list:
    """Seconds to import emanet.cli in a fresh interpreter, one per run."""
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        if i:  # the first run writes bytecode caches
            times.append(float(proc.stdout))
    return times


def measure_rss(workload: str, inputs: Path, out: Path) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(inputs), str(out)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return {"codes": [None], "peak_rss_kb": 0}
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> dict:
    try:
        loadavg = float(Path("/proc/loadavg").read_text().split()[0])
    except OSError:
        loadavg = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": loadavg,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def tail(durations) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above it.

    With fewer than TAIL_BEYOND + 1 ops that is the maximum, reported as p100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Runs and checks single ops of one workload, and keeps the tallies."""

    def __init__(self, workload, truth, work: Path):
        self.workload, self.truth = workload, truth
        self.inputs, self.out = work / "inputs", work / "out"
        self.commands = workload.commands(self.inputs, self.out)
        self.attempted = self.failed = 0
        self.digest = None
        self.output_bytes = []

    def op(self) -> tuple:
        """Run and check one op: (wall seconds, cpu seconds, ok)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        results = [run_command(argv) for argv in self.commands]
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.attempted += 1
        try:
            problems = self.workload.check(self.truth, self.out, results)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        digest, size = artifacts(self.out, results)
        self.output_bytes.append(size)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("artifacts differ from the first op's (not deterministic)")
        if problems:
            self.failed += 1
            print(f"op {self.attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        return wall, cpu, not problems


def measure(loop: Loop, seconds: float, tracer=None) -> dict:
    """The closed loop: ops until `seconds` of op time is measured.

    With a tracer, every other op is traced.
    """
    untraced, traced, cpu = [], [], []
    busy = 0.0
    n = 0
    while busy < seconds:
        trace_this = tracer is not None and n % 2 == 1
        n += 1
        if trace_this:
            tracer.op += 1
            tracer.install()
        try:
            wall, cpu_s, ok = loop.op()
        finally:
            if trace_this:
                tracer.uninstall()
        busy += wall
        if ok:
            (traced if trace_this else untraced).append(wall)
            if not trace_this:
                cpu.append(cpu_s)
    return {"untraced": untraced, "traced": traced, "cpu": cpu, "busy": busy}


def end_to_end(phase, setup, rss_kb) -> dict:
    durations = phase["untraced"]
    tail_s, _ = tail(durations) if durations else (0.0, 0.0)
    return {
        "op_s_p50": (median(durations), "s"),
        "op_s_tail": (tail_s, "s"),
        "ops_per_s": (len(durations) / phase["busy"], "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (median(setup), "s"),
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(phase, tracer, loop, ops) -> dict:
    import tracer as tracing

    traced = list(ops.values())

    def per_op(kind, name, scale=1e-9):
        """Median over traced ops of one span's total, self time or calls."""
        return median(o[kind].get(name, 0) * scale for o in traced)

    def layer_self(o, layer):
        return sum(v for k, v in o["self"].items() if k.split(".")[0] == layer) / 1e9

    def kernel_us(o):
        n = o["calls"].get("netcore.kernel", 0)
        return o["total"].get("netcore.kernel", 0) / 1e3 / n if n else 0.0

    def share(o):
        op = o["total"].get("cli.main", 0) / 1e9
        return (layer_self(o, "permtest") + layer_self(o, "netcore")) / op if op else 0.0

    untraced_p50 = median(phase["untraced"])
    metrics = {
        "permtest.draw_s": (per_op("total", tracing.DRAW_SPAN), "s"),
        "permtest.draw_calls": (per_op("calls", tracing.DRAW_SPAN, 1), "count"),
        "netcore.kernel_s": (per_op("total", "netcore.kernel"), "s"),
        "netcore.kernel_calls": (per_op("calls", "netcore.kernel", 1), "count"),
        "netcore.kernel_us_per_network": (median(map(kernel_us, traced)), "us"),
        "netcore.connectivity_s": (per_op("total", "netcore.connectivity"), "s"),
        "permtest.context_run_s": (per_op("total", "permtest.context_run"), "s"),
        "permtest.baseline_run_s": (per_op("total", "permtest.baseline_run"), "s"),
        "ingest.parse_s": (per_op("total", "ingest.parse"), "s"),
        "ingest.backfill_s": (per_op("total", "ingest.backfill"), "s"),
        "ingest.usable_ratio": (median(ema / days for ema, days in tracer.usable if days), "ratio"),
        "contexts.categorize_s": (per_op("total", "contexts.categorize"), "s"),
        "contexts.categorize_calls": (per_op("calls", "contexts.categorize", 1), "count"),
        "netcore.network_s": (per_op("self", "netcore.network"), "s"),
        "netcore.export_s": (per_op("total", "netcore.export"), "s"),
        "cli.render_write_s": (per_op("self", "cli.main"), "s"),
        "cli.output_bytes": (median(loop.output_bytes), "bytes"),
        "stats.ttest_s": (per_op("total", "stats.ttest"), "s"),
        "process.cpu_s_per_op": (median(phase["cpu"]), "s"),
    }
    for layer in ("ingest", "contexts", "permtest", "netcore", "stats"):
        metrics[f"{layer}.self_s"] = (median(layer_self(o, layer) for o in traced), "s")
    metrics["trace.permtest_netcore_share"] = (median(map(share, traced)), "ratio")
    metrics["trace.overhead_ratio"] = (median(phase["traced"]) / untraced_p50 if untraced_p50 else 0.0, "ratio")
    return metrics


def span_table(ops) -> list:
    """One line per span name: calls, total and self seconds, medians per traced op."""
    lines = [f"  {'span':28s} {'calls/op':>10s} {'total_s/op':>12s} {'self_s/op':>12s}"]
    for name in sorted({name for o in ops.values() for name in o["calls"]}):
        calls, total, self_s = (median(o[kind].get(name, 0) for o in ops.values()) for kind in ("calls", "total", "self"))
        lines.append(f"  {name:28s} {calls:>10g} {total / 1e9:>12.6f} {self_s / 1e9:>12.6f}")
    return lines


def report(args, loop, phase, metrics, env, setup, spans) -> None:
    n = len(phase["untraced"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print(f"ops attempted {loop.attempted}  failed {loop.failed}  "
          f"error_rate {loop.failed / max(loop.attempted, 1):.6g}  (warm-up and memory-probe ops included)")
    if args.trace:
        print(f"ops traced {len(phase['traced'])}  untraced {n} (alternating)")
    else:
        _, pct = tail(phase["untraced"]) if n else (0.0, 0.0)
        print(f"op_s_tail is p{pct:.1f} of {n} ops; setup_s is the median of {len(setup)} fresh interpreters; "
              f"peak_rss_mb is one op in a fresh process")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if spans:
        print("\n".join(spans))
    print("artifacts_sha256 " + json.dumps({args.workload: loop.digest}))
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    sys.path.insert(0, str(SRC))
    try:
        import emanet.cli
    except ImportError as exc:
        print(f"perfbench: cannot import emanet from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(emanet.cli.__file__).resolve().parents:
        print(f"perfbench: emanet was imported from {emanet.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        truth = generate(workload.participants, args.seed, work / "inputs")
        loop = Loop(workload, truth, work)
        loop.op()  # warm-up: caches, lazy imports, first-call allocation
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            phase = measure(loop, args.seconds, tracer)
            ops = tracing.per_op(tracer.spans)
            metrics = per_layer(phase, tracer, loop, ops)
            spans = span_table(ops)
            tracing.write_spans(tracer.spans, WORK / f"spans-{args.workload}.csv")
            setup = []
        else:
            phase = measure(loop, args.seconds)
            setup = measure_setup()
            rss = measure_rss(args.workload, loop.inputs, work / "probe_out")
            loop.attempted += 1
            if any(code != 0 for code in rss["codes"]):
                loop.failed += 1
                print(f"memory probe exit codes {rss['codes']}", file=sys.stderr)
            metrics = end_to_end(phase, setup, rss["peak_rss_kb"])
            spans = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, loop, phase, metrics, env, setup, spans)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
