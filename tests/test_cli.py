import argparse
import ast
import collections
import datetime as dt
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from emanet import cli
from emanet.cli import _run_json, build_parser, histogram_csv, main, render_table, significance_marker
from emanet.contexts import CONTEXT_FLAGS, DISPLAY_NAMES
from daytable import assert_same, table
from emanet.ingest import CSV_COLUMNS, format_participant, parse_participant
from emanet.permtest import PermutationConfig, PermutationRun, TTest


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "p01.csv"
    rc = main(["synth", "--out", str(path), "--days", "300", "--seed", "11", "--planted-r", "0.6"])
    assert rc == 0
    return path


class TestValidate:
    def test_valid_file(self, planted_csv, capsys):
        assert main(["validate", str(planted_csv)]) == 0
        out = capsys.readouterr().out
        assert "Locations Visited" in out
        assert "Conversations Detected" in out
        assert out.count("\n") >= 8  # header + six contexts + baseline

    def test_count_columns_align(self, planted_csv, capsys):
        assert main(["validate", str(planted_csv)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[2:]
        iso_end = header.index("Isolation") + len("Isolation")
        assert len(rows) == 7  # six contexts + baseline
        for row in rows:
            name, count = row[: iso_end - 10], row[iso_end - 10 : iso_end]
            assert name.endswith(" ") and count.strip().isdigit() and not row[iso_end].isdigit(), row

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        row = ["2023-01-01"] + ["7"] + ["1"] * 9 + ["1"] * 6
        bad.write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "row 1" in err and "ema_calm" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("min_days, digest", [
        ("25", "51837c0f08d42f710dc3c2c6415d16403cc0236503026a3f6f96ff60afe4841a"),
        ("150", "a858ef536923d94c69fc7a2f08a297a8bb34aab431de874605df1cac5c2a23a4"),
    ], ids=["min-days-25", "min-days-150"])
    def test_stdout_is_pinned(self, planted_csv, min_days, digest, capsys):
        assert main(["validate", str(planted_csv), "--min-days", min_days]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("n_iso, n_soc, scores, expected", [
        (40, 40, (1,) * 10, ["40", "40", "yes"]),
        (24, 36, (1,) * 10, ["24", "36", "no (limiting: isolation)"]),
        (36, 24, (1,) * 10, ["36", "24", "no (limiting: sociability)"]),
        (20, 20, (1,) * 10, ["20", "20", "no (limiting: isolation)"]),
        (5, 5, None, ["0", "0", "no (limiting: isolation)"]),
    ], ids=["eligible", "isolation-short", "sociability-short", "tie-names-isolation", "no-ema-days"])
    def test_eligibility_row(self, n_iso, n_soc, scores, expected, tmp_path, capsys):
        """The calls_made row for n_iso days with no call made, then n_soc days with one."""
        path = tmp_path / "p.csv"
        d0 = dt.date(2023, 1, 1)
        counts = [(None, int(i >= n_iso)) + (None,) * 4 for i in range(n_iso + n_soc)]
        rows = [(d0 + dt.timedelta(days=i), scores, c) for i, c in enumerate(counts)]
        path.write_bytes(format_participant(table(rows)))
        assert main(["validate", str(path)]) == 0
        name = DISPLAY_NAMES["calls_made"]
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith(name))
        assert row[len(name):].split(None, 2) == expected


class TestAnalyze:
    def test_writes_all_artifacts(self, planted_csv, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["analyze", str(planted_csv), "--context", "locations", "--subset", "positive",
             "--seed", "3", "--permutations", "300", "--out", str(out), "--emit-differences"]
        )
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "run.json", "baseline.json", "histogram.csv", "table.txt", "manifest.json",
            "network_isolation.json", "network_isolation.dot",
            "network_sociability.json", "network_sociability.dot",
        }
        run = json.loads((out / "run.json").read_text())
        assert len(run["differences"]) == 300
        assert run["comparison"]["p_value"] < 0.001
        table = (out / "table.txt").read_text()
        assert "*" in table
        assert "Positive EMAs" in table
        net = json.loads((out / "network_isolation.json").read_text())
        assert net["items"] == ["CAL", "SOC", "SLE", "THI", "HOP"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == names - {"manifest.json"}
        assert manifest["master_seed"] == 3
        capsys.readouterr()

    def test_determinism(self, planted_csv, tmp_path, capsys):
        args = ["analyze", str(planted_csv), "--context", "calls_made", "--seed", "5",
                "--permutations", "200"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("run.json", "histogram.csv", "network_isolation.dot", "network_sociability.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_insufficient_pool_exits_3(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        assert main(["synth", "--out", str(path), "--days", "30", "--seed", "1"]) == 0
        rc = main(["analyze", str(path), "--context", "locations", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == "error: isolation pool has 15 days, need 25\n"

    def test_whole_run_is_pinned(self, planted_csv, tmp_path, capsys):
        # manifest.json holds the sha256 of every other artifact; a change that alters
        # any output byte on purpose re-pins this digest.
        out = tmp_path / "pin"
        assert main(["analyze", str(planted_csv), "--context", "locations", "--permutations", "200",
                     "--emit-differences", "--verbose-indices", "--out", str(out)]) == 0
        manifest = (out / "manifest.json").read_bytes()
        for name, digest in json.loads(manifest)["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        assert hashlib.sha256(manifest).hexdigest() == (
            "7db27ca55702a0f146e9838de385354537de74bf409590cc9a2cf24c5a1ae67a"
        )
        assert capsys.readouterr().out == (out / "table.txt").read_text(encoding="utf-8")

    def test_histogram_counts_sum(self, planted_csv, tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["analyze", str(planted_csv), "--context", "locations",
                     "--permutations", "150", "--out", str(out)]) == 0
        lines = (out / "histogram.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,baseline_count,context_count"
        base = sum(int(l.split(",")[2]) for l in lines[1:])
        ctx = sum(int(l.split(",")[3]) for l in lines[1:])
        assert base == 150 and ctx == 150
        capsys.readouterr()


# The pinned cohort run: three synthetic participants, then cohort over them.
PINNED_COHORT = [
    ["synth", "--out", "{indir}/p01.csv", "--seed", "31", "--planted-r", "0.6"],
    ["synth", "--out", "{indir}/p02.csv", "--seed", "32"],
    ["synth", "--out", "{indir}/p03.csv", "--seed", "33", "--planted-r", "0.3", "--days", "120"],
    ["cohort", "{indir}", "--context", "locations", "--seed", "7", "--permutations", "200",
     "--emit-differences", "--verbose-indices", "--out", "{out}"],
]
# sha256 of each participant's manifest.json, which holds the sha256 of its other
# artifacts; a change that alters any output byte on purpose re-pins them here.
COHORT_PINS = {
    "p01": "352a963cd62414e841e19f2bf90cf98719d19dc620abfc7c4abdfd3c83aff2af",
    "p02": "4408c6b115d99d93b6fb02d6336a5d03d294a8d851775620f37f785c7443eb94",
    "p03": "3f295d6f9f46c63464c2dfa278bec0a48853959a8b7fcd2e51daf1dec6dd483a",
}

# sha256 of synth's Cholesky factor of correlated_block(r), as little-endian float64s.
FACTOR_PINS = {
    "0.6": "c6c79b669b7caa7e3ec6970e44a3b77e045efbad0d44e75f2d5be7670a358057",
    "0.3": "3fa9edc944da72b2dd91faf11e99a137ce143531200e6609fe9a72e60ea36af1",
}

# Runs argv lists (argv[1], JSON) through main, then prints the sha256 of each
# manifest.json under argv[2], of each FACTOR_PINS factor, and of a 300x300
# float GEMM, whose bits show which BLAS kernel ran.
PINNED_COHORT_CHILD = """
import contextlib, hashlib, json, sys
from pathlib import Path
import numpy as np
from emanet.cli import main
from emanet.synthgen import _factor, correlated_block
with contextlib.redirect_stdout(sys.stderr):
    for argv in json.loads(sys.argv[1]):
        if main(argv) != 0:
            raise SystemExit(f"{argv} failed")
a = np.random.default_rng(0).standard_normal((300, 300))
print(json.dumps({
    "gemm": hashlib.sha256((a @ a).tobytes()).hexdigest(),
    "factors": {r: hashlib.sha256(np.asarray(_factor(correlated_block(float(r)), "corr"), "<f8").tobytes()).hexdigest()
                for r in ("0.6", "0.3")},
    "manifests": {m.parent.name: hashlib.sha256(m.read_bytes()).hexdigest()
                  for m in sorted(Path(sys.argv[2]).glob("*/manifest.json"))},
}))
"""


def _run_pinned_cohort(tmp_path):
    """Run PINNED_COHORT under tmp_path; returns its input and output directories."""
    indir, out = tmp_path / "cohort", tmp_path / "out"
    indir.mkdir()
    for argv in PINNED_COHORT:
        assert main([a.format(indir=indir, out=out) for a in argv]) == 0
    return indir, out


def _simd_groups_found():
    """The dispatchable SIMD groups numpy found on this CPU, as np.show_runtime() lists them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__[name]]


class TestCohort:
    def test_mixed_eligibility_accounting(self, tmp_path, capsys):
        indir = tmp_path / "cohort"
        indir.mkdir()
        for i, days in enumerate([200, 200, 30]):  # third too small for pools
            main(["synth", "--out", str(indir / f"p{i:02d}.csv"), "--days", str(days),
                  "--seed", str(40 + i), "--planted-r", "0.5"])
        out = tmp_path / "cohort_out"
        rc = main(["cohort", str(indir), "--context", "locations", "--permutations", "150",
                   "--out", str(out)])
        assert rc == 0
        table = (out / "cohort_table.txt").read_text()
        assert "p00" in table and "p01" in table
        assert "Excluded participants:" in table and "p02" in table
        n_rows = sum(1 for l in table.splitlines() if l.startswith("p0") and "need" not in l)
        n_excl = sum(1 for l in table.splitlines() if l.strip().startswith("p02:"))
        assert n_rows + n_excl == 3
        capsys.readouterr()

    def test_whole_cohort_run_is_pinned(self, tmp_path, capsys):
        indir, out = _run_pinned_cohort(tmp_path)
        digests = {}
        for pid in COHORT_PINS:
            manifest = (out / pid / "manifest.json").read_bytes()
            for name, digest in json.loads(manifest)["outputs"].items():
                assert hashlib.sha256((out / pid / name).read_bytes()).hexdigest() == digest, (pid, name)
            digests[pid] = hashlib.sha256(manifest).hexdigest()
        assert digests == COHORT_PINS
        capsys.readouterr()

    def test_each_participant_directory_is_the_analyze_run_of_its_file(self, tmp_path, capsys):
        indir, out = _run_pinned_cohort(tmp_path)
        for pid in COHORT_PINS:
            alone = tmp_path / "analyze" / pid
            flags = [a.format(out=alone) for a in PINNED_COHORT[-1][2:]]
            assert main(["analyze", str(indir / f"{pid}.csv"), *flags]) == 0
            names = sorted(p.name for p in (out / pid).iterdir())
            assert names == sorted(p.name for p in alone.iterdir())
            for name in names:  # manifest.json included
                assert (out / pid / name).read_bytes() == (alone / name).read_bytes(), (pid, name)
        capsys.readouterr()

    def test_a_row_does_not_depend_on_the_file_name(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        assert main([a.format(indir=data) for a in PINNED_COHORT[0]]) == 0
        rows = []
        for name in ("p01", "renamed"):
            indir, out = tmp_path / name, tmp_path / f"{name}_out"
            indir.mkdir()
            (indir / f"{name}.csv").write_bytes((data / "p01.csv").read_bytes())
            assert main([a.format(indir=indir, out=out) for a in PINNED_COHORT[-1]]) == 0
            row = (out / "cohort_table.txt").read_text(encoding="utf-8").splitlines()[2]
            assert row.startswith(f"{name:10s}")
            rows.append(row[10:])
        assert rows[0] == rows[1]
        capsys.readouterr()

    def test_pins_hold_across_blas_and_simd_kernels(self, tmp_path):
        # One child process per setting, one at a time; each setting is in that child's environment only.
        core_types = [{"OPENBLAS_CORETYPE": core} for core in ("Prescott", "Sandybridge", "Haswell", "SkylakeX")]
        settings = [{}, *core_types, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
        if found := _simd_groups_found():
            settings.append({"NPY_DISABLE_CPU_FEATURES": " ".join(found)})
        src = str(Path(cli.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        gemms = []
        for i, setting in enumerate(settings):
            indir, out = tmp_path / f"{i}" / "cohort", tmp_path / f"{i}" / "out"
            indir.mkdir(parents=True)
            argvs = [[a.format(indir=indir, out=out) for a in argv] for argv in PINNED_COHORT]
            child = subprocess.run([sys.executable, "-c", PINNED_COHORT_CHILD, json.dumps(argvs), str(out)],
                                   env={**os.environ, "PYTHONPATH": pythonpath, **setting},
                                   capture_output=True, text=True, timeout=120)
            assert child.returncode == 0, (setting, child.stderr)
            report = json.loads(child.stdout)
            assert report["manifests"] == COHORT_PINS, setting
            assert report["factors"] == FACTOR_PINS, setting
            gemms.append(report["gemm"])
        if len(set(gemms[: 1 + len(core_types)])) == 1:  # the default kernel and each core type
            pytest.skip("OPENBLAS_CORETYPE changed no GEMM bit: this BLAS build runs one kernel, so none was varied")

    def test_no_run_outlives_its_participant(self, tmp_path, monkeypatch, capsys):
        # Under --verbose-indices a run holds every sampled index; cohort keeps
        # each participant's rendered row, never its runs.
        indir = tmp_path / "cohort"
        indir.mkdir()
        for i in range(3):
            assert main(["synth", "--out", str(indir / f"p{i:02d}.csv"), "--days", "150", "--seed", str(50 + i)]) == 0
        refs, real_run_paired = [], cli.run_paired

        def run_paired(*args, **kwargs):
            assert all(ref() is None for ref in refs), "an earlier participant's run is still alive"
            result = real_run_paired(*args, **kwargs)
            refs.extend(weakref.ref(run) for run in result[:2])
            return result

        monkeypatch.setattr(cli, "run_paired", run_paired)
        assert main(["cohort", str(indir), "--context", "locations", "--permutations", "100", "--verbose-indices",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(refs) == 6 and all(ref() is None for ref in refs)
        capsys.readouterr()

    def test_output_fault_ends_the_run(self, planted_csv, tmp_path, capsys):
        # Only a fault of a participant's own input excludes it; a file where its
        # output directory should be ends the run like any other write fault.
        indir, out = tmp_path / "cohort", tmp_path / "out"
        indir.mkdir()
        out.mkdir()
        for pid in ("p00", "p01"):
            (indir / f"{pid}.csv").write_bytes(planted_csv.read_bytes())
        (out / "p01").touch()
        assert main(["cohort", str(indir), "--context", "locations", "--permutations", "50", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: File exists: {out / 'p01'}\n")
        assert not (out / "cohort_table.txt").exists()

    def test_output_directory_made_in_the_input_directory_is_not_a_participant(self, planted_csv, tmp_path, capsys):
        # The input directory is listed before the output directory is made.
        indir = tmp_path / "cohort"
        indir.mkdir()
        (indir / "p00.csv").write_bytes(planted_csv.read_bytes())
        out = indir / "res.csv"
        assert main(["cohort", str(indir), "--context", "locations", "--permutations", "50", "--out", str(out)]) == 0
        assert "Excluded participants" not in (out / "cohort_table.txt").read_text(encoding="utf-8")
        assert sorted(p.name for p in out.iterdir()) == ["cohort_table.txt", "p00"]
        capsys.readouterr()

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["cohort", str(empty), "--context", "locations", "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_input_path_not_a_directory_writes_nothing(self, planted_csv, tmp_path, capsys):
        for inputs in (tmp_path / "nope", planted_csv):
            assert main(["cohort", str(inputs), "--context", "locations", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        capsys.readouterr()


class TestSynth:
    def test_output_parses(self, tmp_path):
        path = tmp_path / "s.csv"
        assert main(["synth", "--out", str(path), "--days", "50", "--seed", "2",
                     "--missing-rate", "0.2"]) == 0
        ds = parse_participant(path.read_bytes(), path.stem)
        assert len(ds.dates) == 50

    def test_config_file(self, tmp_path):
        cfg = {"n_days": 40, "seed": 9, "report_cadence": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        path = tmp_path / "s.csv"
        assert main(["synth", "--out", str(path), "--config", str(cfg_path)]) == 0
        ds = parse_participant(path.read_bytes(), path.stem)
        assert len(ds.dates) == 40
        assert ds.usable_days == 20

    def test_flags_given_beside_a_config_set_their_own_keys(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_days": 40, "seed": 3, "report_cadence": 2, "context_mix": 0.3}),
                            encoding="utf-8")
        flags = ["--seed", "9", "--days", "500", "--planted-r", "0.6"]
        assert main(["synth", "--out", str(tmp_path / "a.csv"), "--config", str(cfg_path), *flags]) == 0
        assert main(["synth", "--out", str(tmp_path / "b.csv"), "--cadence", "2", "--mix", "0.3", *flags]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        capsys.readouterr()

    def test_config_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        # Participant CSVs accept a UTF-8 byte-order mark; so does a config.
        text = json.dumps({"n_days": 40, "seed": 9}).encode("utf-8")
        (tmp_path / "plain.json").write_bytes(text)
        (tmp_path / "bom.json").write_bytes(b"\xef\xbb\xbf" + text)
        for name in ("plain", "bom"):
            config = str(tmp_path / f"{name}.json")
            assert main(["synth", "--out", str(tmp_path / f"{name}.csv"), "--config", config]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("r", ["0", "-0.0"])
    def test_planted_r_zero_gives_the_default_file(self, r, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "a.csv"), "--days", "90"]) == 0
        assert main(["synth", "--out", str(tmp_path / "b.csv"), "--days", "90", "--planted-r", r]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        capsys.readouterr()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_days": -5}), encoding="utf-8")
        assert main(["synth", "--out", str(tmp_path / "s.csv"), "--config", str(cfg_path)]) == 2
        capsys.readouterr()


class TestExportNetwork:
    def test_dot_to_stdout(self, planted_csv, capsys):
        rc = main(["export-network", str(planted_csv), "--context", "locations",
                   "--category", "isolation", "--subset", "positive", "--format", "dot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("graph ema_network")
        assert "CAL" in out

    def test_json_to_file(self, planted_csv, tmp_path):
        target = tmp_path / "net.json"
        rc = main(["export-network", str(planted_csv), "--context", "baseline",
                   "--format", "json", "--out", str(target)])
        assert rc == 0
        net = json.loads(target.read_text())
        assert len(net["items"]) == 10

    @pytest.mark.parametrize("flags, digest", [
        (["--context", "baseline"], "6657e7dd1795ad0571fd085f04351e5c3e5d1cf9a23907abd233753b7ea9b5d6"),
        (["--context", "locations", "--category", "sociability", "--subset", "negative"],
         "a0307581eb8c6bca1d8cd5a1014071027321a957421521b5cc31ebb2ddb35042"),
    ], ids=["baseline", "locations-sociability-negative"])
    def test_stdout_is_pinned(self, planted_csv, flags, digest, capsys):
        assert main(["export-network", str(planted_csv), *flags, "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("flags, pool", [(["--context", "baseline"], "baseline"),
                                             (["--context", "locations", "--category", "sociability"], "sociability")])
    def test_pool_too_small_exits_3(self, flags, pool, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
        assert main(["export-network", str(empty)] + flags) == 3
        assert capsys.readouterr().err == f"error: {pool} pool has 0 days, need 2\n"


def context_choices(command):
    """The --context choices of one subcommand, as build_parser defines them."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in commands.choices[command]._actions if a.dest == "context")


class TestContextChoices:
    @pytest.mark.parametrize("command", ["analyze", "cohort"])
    def test_run_commands_offer_contexts_only(self, command):
        assert context_choices(command) == list(CONTEXT_FLAGS)
        assert "baseline" not in context_choices(command)

    def test_export_network_offers_baseline_last(self):
        assert context_choices("export-network") == [*CONTEXT_FLAGS, "baseline"]

    def test_analyze_rejects_baseline(self, planted_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(planted_csv), "--context", "baseline", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'baseline'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_baseline_ignores_category(self, planted_csv, capsys):
        outs = []
        for category in ("sociability", "isolation"):
            assert main(["export-network", str(planted_csv), "--context", "baseline", "--category", category]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


def _not_utf8(src, dst):
    """Copy src with a Latin-1 byte in its first data row."""
    header, rest = src.read_bytes().split(b"\n", 1)
    dst.write_bytes(header + b"\n" + rest.replace(b",", b",\xe9", 1))
    return dst


# A write to /dev/full fails with ENOSPC, an OSError that names no file.
DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")

BAD_INPUTS = [
    pytest.param(["analyze", "{csv}", "--context", "locations", "--permutations", "0", "--out", "{out}"],
                 "error: invalid permutation config: n_permutations must be >= 2", id="permutations-0"),
    pytest.param(["analyze", "{csv}", "--context", "locations", "--permutations", "1", "--out", "{out}"],
                 "error: invalid permutation config: n_permutations must be >= 2", id="permutations-1"),
    pytest.param(["analyze", "{csv}", "--context", "locations", "--sample-size", "1", "--out", "{out}"],
                 "error: invalid permutation config: sample_size must be >= 2", id="sample-size-1"),
    pytest.param(["analyze", "{csv}", "--context", "locations", "--sample-size", "0", "--out", "{out}"],
                 "error: invalid permutation config: sample_size must be >= 2", id="sample-size-0"),
    pytest.param(["analyze", "{csv}", "--context", "locations", "--seed", "-1", "--out", "{out}"],
                 "error: invalid permutation config: seed must be >= 0", id="analyze-negative-seed"),
    # Run flags are checked before the input is read, so an empty directory does not hide them.
    pytest.param(["cohort", "{dir}", "--context", "locations", "--permutations", "1", "--out", "{out}"],
                 "error: invalid permutation config: n_permutations must be >= 2",
                 id="cohort-permutations-1"),
    pytest.param(["cohort", "{dir}", "--context", "locations", "--sample-size", "1", "--out", "{out}"],
                 "error: invalid permutation config: sample_size must be >= 2",
                 id="cohort-sample-size-1"),
    pytest.param(["cohort", "{dir}", "--context", "locations", "--seed", "-3", "--out", "{out}"],
                 "error: invalid permutation config: seed must be >= 0", id="cohort-negative-seed"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--seed", "-1"], "error: invalid synth config: seed must be >= 0",
                 id="synth-negative-seed"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--days", "1000000000"],
                 "error: invalid synth config: n_days must be <= 1000000", id="synth-days-above-cap"),
    pytest.param(["validate", "{latin1}"], "error: not UTF-8 text (invalid continuation byte): {latin1}",
                 id="validate-non-utf8"),
    pytest.param(["analyze", "{latin1}", "--context", "locations", "--out", "{out}"],
                 "error: not UTF-8 text (invalid continuation byte): {latin1}", id="analyze-non-utf8"),
    pytest.param(["export-network", "{latin1}", "--context", "locations"],
                 "error: not UTF-8 text (invalid continuation byte): {latin1}", id="export-non-utf8"),
    pytest.param(["validate", "{csv}", "--min-days", "0"], "error: --min-days must be >= 2, got 0",
                 id="validate-min-days-0"),
    pytest.param(["validate", "{csv}", "--min-days", "-3"], "error: --min-days must be >= 2, got -3",
                 id="validate-min-days-negative"),
    pytest.param(["validate", "{dir}"], "error: Is a directory: d", id="validate-directory"),
    pytest.param(["export-network", "{dir}", "--context", "locations"], "error: Is a directory: d",
                 id="export-directory"),
    pytest.param(["validate", "./{dir}/nope.csv"], "error: file not found: ./d/nope.csv", id="validate-missing"),
    pytest.param(["analyze", "./{dir}/nope.csv", "--context", "locations", "--out", "{out}"],
                 "error: file not found: ./d/nope.csv", id="analyze-missing"),
    pytest.param(["export-network", "./{dir}/nope.csv", "--context", "locations"],
                 "error: file not found: ./d/nope.csv", id="export-missing"),
    # A schema violation is the one fault line without the "error: " prefix.
    pytest.param(["validate", "{bad_date}"], "schema violation: row 3, column 'date': unparseable date: '2023-01-03x'",
                 id="validate-schema-violation"),
    pytest.param(["analyze", "{bad_date}", "--context", "locations", "--out", "{out}"],
                 "schema violation: row 3, column 'date': unparseable date: '2023-01-03x'",
                 id="analyze-schema-violation"),
    pytest.param(["cohort", "nope", "--context", "locations", "--out", "{out}"], "error: file not found: nope",
                 id="cohort-missing-dir"),
    pytest.param(["cohort", "{csv}", "--context", "locations", "--out", "{out}"], "error: Not a directory: {csv}",
                 id="cohort-file-as-dir"),
    pytest.param(["export-network", "{csv}", "--context", "locations", "--out", "{dir}/no/such/net.dot"],
                 "error: file not found: d/no/such/net.dot", id="export-missing-out-dir"),
    pytest.param(["export-network", "{csv}", "--context", "locations", "--out", "/dev/full"],
                 "error: No space left on device", id="export-disk-full", marks=DEV_FULL),
    pytest.param(["synth", "--out", "/dev/full"], "error: No space left on device", id="synth-disk-full",
                 marks=DEV_FULL),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{cfg}"],
                 "error: invalid synth config: SynthConfig.__init__() got an unexpected keyword argument 'bogus'",
                 id="synth-unknown-key"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{float_days}"],
                 "error: invalid synth config: n_days must be an integer, got 10.5", id="synth-float-days"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{float_seed}"],
                 "error: invalid synth config: seed must be an integer, got 1.5", id="synth-float-seed"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{float_cadence}"],
                 "error: invalid synth config: report_cadence must be an integer, got 2.5", id="synth-float-cadence"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{nan_mean}"],
                 "error: invalid synth config: isolation_mean entries must be finite", id="synth-nan-mean"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--planted-r", "nan"],
                 "error: invalid synth config: isolation_corr entries must be finite", id="synth-planted-r-nan"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "nope.json"], "error: file not found: nope.json",
                 id="synth-config-missing"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{dir}"], "error: Is a directory: d",
                 id="synth-config-directory"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{binary}"],
                 "error: invalid synth config: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                 id="synth-config-binary"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{int_corr}"],
                 "error: invalid synth config: isolation_corr must be a 10x10 list of numbers",
                 id="synth-config-int-corr"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{string_corr}"],
                 "error: invalid synth config: isolation_corr must be a 10x10 list of numbers",
                 id="synth-config-string-corr"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{bool_corr}"],
                 "error: invalid synth config: sociability_corr must be a 10x10 list of numbers",
                 id="synth-config-bool-corr"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{string_mean}"],
                 "error: invalid synth config: isolation_mean must be a list of 10 numbers",
                 id="synth-config-string-mean"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{huge_mean}"],
                 "error: invalid synth config: sociability_mean must be a list of 10 numbers",
                 id="synth-config-huge-int-mean"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{bool_mix}"],
                 "error: invalid synth config: context_mix must be a number, got True",
                 id="synth-config-bool-mix"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{string_rate}"],
                 "error: invalid synth config: missing_sensor_rate must be a number, got '0.1'",
                 id="synth-config-string-rate"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{long_int}"],
                 "error: invalid synth config: an integer has too many digits", id="synth-config-5000-digit-int"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{deep_array}"],
                 "error: invalid synth config: arrays or objects nested too deeply", id="synth-config-deep-array"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{not_object}"],
                 "error: invalid synth config: the config must be a JSON object", id="synth-config-not-object"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{cadence_0}"],
                 "error: invalid synth config: report_cadence must be >= 1", id="synth-config-cadence-0"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{steps}"],
                 "error: invalid synth config: unknown planted feature 'steps'", id="synth-config-unknown-feature"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{rate_above_1}"],
                 "error: invalid synth config: missing_sensor_rate must be in [0, 1]", id="synth-config-rate-above-1"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{ragged_corr}"],
                 "error: invalid synth config: isolation_corr must be 10x10", id="synth-config-ragged-corr"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{short_mean}"],
                 "error: invalid synth config: sociability_mean must have 10 entries", id="synth-config-short-mean"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{asymmetric_corr}"],
                 "error: invalid synth config: isolation_corr must be symmetric", id="synth-config-asymmetric-corr"),
    pytest.param(["synth", "--out", "{dir}/s.csv", "--config", "{diagonal_2}"],
                 "error: invalid synth config: isolation_corr must have unit diagonal", id="synth-config-diagonal-2"),
]

# One --config file per case, a string written as it stands and anything else through json.dumps,
# which writes float("nan") as NaN, which json.loads reads back.
SYNTH_CONFIGS = {
    # Past the interpreter's default limit on digits in an int, and past its recursion limit.
    "long_int": '{"n_days": ' + "9" * 5000 + "}",
    "deep_array": '{"n_days": 10, "isolation_corr": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "cfg": {"n_days": 40, "bogus": 1},
    "float_days": {"n_days": 10.5},
    "float_seed": {"n_days": 10, "seed": 1.5},
    "float_cadence": {"n_days": 10, "report_cadence": 2.5},
    "nan_mean": {"n_days": 10, "isolation_mean": [float("nan")] + [0.0] * 9},
    "int_corr": {"n_days": 10, "isolation_corr": 5},
    # Strings float() would parse, and bools, which Python counts as ints, are not JSON numbers.
    "string_corr": {"n_days": 30, "isolation_corr": [("0" * i + "1").ljust(10, "0") for i in range(10)]},
    "bool_corr": {"n_days": 30, "sociability_corr": [[i == j for j in range(10)] for i in range(10)]},
    "string_mean": {"n_days": 30, "isolation_mean": "0000000000"},
    "huge_mean": {"n_days": 30, "sociability_mean": [10**400] + [0] * 9},
    "bool_mix": {"n_days": 30, "context_mix": True},
    "string_rate": {"n_days": 30, "missing_sensor_rate": "0.1"},
    "not_object": [1, 2],
    "cadence_0": {"n_days": 10, "report_cadence": 0},
    "steps": {"n_days": 10, "planted_feature": "steps"},
    "rate_above_1": {"n_days": 10, "missing_sensor_rate": 1.5},
    # Nine rows of 10 cells and one of 9.
    "ragged_corr": {"n_days": 10,
                    "isolation_corr": [[float(i == j) for j in range(10)] for i in range(9)] + [[0.0] * 9]},
    "short_mean": {"n_days": 10, "sociability_mean": [0.0] * 9},
    "asymmetric_corr": {"n_days": 10, "isolation_corr": [[0.2 if (i, j) == (0, 1) else float(i == j) for j in range(10)]
                                                         for i in range(10)]},
    "diagonal_2": {"n_days": 10, "isolation_corr": [[2.0 if i == j == 0 else float(i == j) for j in range(10)]
                                                    for i in range(10)]},
}


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_bad_input_is_one_line_error_exit_2(argv, message, planted_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, cfg in SYNTH_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(cfg if isinstance(cfg, str) else json.dumps(cfg), encoding="utf-8")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "d").mkdir()
    (tmp_path / "bad_date.csv").write_bytes(planted_csv.read_bytes().replace(b"\n2023-01-03,", b"\n2023-01-03x,"))
    names = {"csv": str(planted_csv), "latin1": str(_not_utf8(planted_csv, tmp_path / "latin1.csv")),
             "dir": "d", "out": "out", "binary": "binary.json", "bad_date": "bad_date.csv",
             **{name: f"{name}.json" for name in SYNTH_CONFIGS}}
    rc = main([a.format(**names) for a in argv])
    assert capsys.readouterr().err == message.format(**names) + "\n"
    assert rc == 2
    assert not (tmp_path / "out").exists()


def test_utf8_bom_round_trip(planted_csv, tmp_path, capsys):
    bom = tmp_path / planted_csv.name
    bom.write_bytes(b"\xef\xbb\xbf" + planted_csv.read_bytes())
    assert_same(parse_participant(bom.read_bytes(), bom.stem), parse_participant(planted_csv.read_bytes(), "p01"))
    assert main(["validate", str(planted_csv)]) == 0
    plain = capsys.readouterr().out
    assert main(["validate", str(bom)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv", [
    ["validate", "{indir}/p00.csv"],
    ["analyze", "{indir}/p00.csv", "--context", "locations", "--permutations", "50", "--out", "{out}/p00"],
    ["export-network", "{indir}/p00.csv", "--context", "locations"],
    ["cohort", "{indir}", "--context", "locations", "--permutations", "50", "--out", "{out}"],
], ids=["validate", "analyze", "export-network", "cohort"])
def test_each_input_is_read_once_and_its_bytes_digested(argv, planted_csv, tmp_path, monkeypatch, capsys):
    # p00 starts with a byte-order mark: manifest.json digests the file's bytes, mark included.
    indir, out = tmp_path / "cohort", tmp_path / "out"
    indir.mkdir()
    (indir / "p00.csv").write_bytes(b"\xef\xbb\xbf" + planted_csv.read_bytes())
    (indir / "p01.csv").write_bytes(planted_csv.read_bytes())
    reads = []

    def recorded(read):
        def read_path(path, *args, **kwargs):
            reads.append(path)
            return read(path, *args, **kwargs)
        return read_path

    monkeypatch.setattr(Path, "read_bytes", recorded(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", recorded(Path.read_text))
    assert main([a.format(indir=indir, out=out) for a in argv]) == 0
    monkeypatch.undo()
    assert [path for path in reads if path.is_relative_to(out)] == []  # no output is read back
    pids = ["p00", "p01"] if argv[0] == "cohort" else ["p00"]
    assert collections.Counter(path.name for path in reads) == {f"{pid}.csv": 1 for pid in pids}
    manifests = {m.parent.name: json.loads(m.read_text(encoding="utf-8")) for m in out.glob("*/manifest.json")}
    assert sorted(manifests) == (pids if argv[0] in ("analyze", "cohort") else [])
    for pid, manifest in manifests.items():
        data = (indir / f"{pid}.csv").read_bytes()
        assert manifest["inputs"] == {f"{pid}.csv": hashlib.sha256(data).hexdigest()}
    capsys.readouterr()


def _file_io_calls(module):
    """(line, name) of each call in a module's source that opens, reads, writes,
    makes or lists a file: open(), or a Path method of those names."""
    calls = []
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((node.lineno, func.id))
        elif isinstance(func, ast.Attribute) and (func.attr in ("open", "mkdir", "iterdir")
                                                  or func.attr.startswith(("read_", "write_"))):
            calls.append((node.lineno, func.attr))
    return calls


def test_cli_alone_touches_files_and_writes_only_bytes():
    # The other modules map values to bytes and back. cli writes bytes, never text,
    # so no platform newline translation comes between an output and its digest.
    calls = {module.name: _file_io_calls(module) for module in Path(cli.__file__).parent.glob("*.py")}
    cli_calls = calls.pop("cli.py")
    assert calls == {name: [] for name in calls}
    assert [call for call in cli_calls if call[1] == "write_text"] == []


def test_cohort_excludes_unreadable_files(planted_csv, tmp_path, capsys):
    indir = tmp_path / "cohort"
    indir.mkdir()
    (indir / "p00.csv").write_bytes(planted_csv.read_bytes())
    _not_utf8(planted_csv, indir / "p01.csv")
    (indir / "p02.csv").mkdir()
    (indir / "p03.csv").write_bytes(planted_csv.read_bytes().replace(b"\n2023-01-05,", b"\n" + b"9" * 200_000 + b","))
    assert main(["synth", "--out", str(indir / "p04.csv"), "--days", "30", "--seed", "1"]) == 0
    (indir / "p05.csv").symlink_to(tmp_path / "gone.csv")
    out = tmp_path / "out"
    assert main(["cohort", str(indir), "--context", "locations", "--permutations", "50", "--out", str(out)]) == 0
    table = (out / "cohort_table.txt").read_text(encoding="utf-8")
    rows, _, excluded = table.partition("Excluded participants:\n")
    assert [line.split()[0] for line in rows.splitlines()[2:-1]] == ["p00"]
    assert excluded.splitlines()[:6] == [
        "  p01: not UTF-8 text (invalid continuation byte)",
        "  p02: Is a directory",
        "  p03: schema violation: row 5, column 'row': field larger than field limit (131072)",
        "  p04: isolation pool has 15 days, need 25",
        "  p05: file not found",
        "",
    ]
    assert capsys.readouterr().err == ""


class TestHelpers:
    def test_significance_markers(self):
        assert significance_marker(0.0005) == "*"
        assert significance_marker(0.01) == "**"
        assert significance_marker(0.2) == ""
        assert significance_marker(0.001) == "**"
        assert significance_marker(0.05) == ""

    @pytest.mark.parametrize("t, cell, value", [(float("inf"), "inf", "inf"), (float("-inf"), "-inf", "-inf"),
                                                (-2.5, "-2.50", -2.5)])
    def test_t_is_spelled_alike_in_table_and_run_json(self, t, cell, value):
        run = PermutationRun((0.0,) * 10, mean=0.0, std=0.0)
        result = (run, run, TTest(t_score=t, p_value=0.0, df=9))
        row = render_table("p01", "locations_visited", "all", result).splitlines()[4]
        assert row.split()[-2:] == [cell, "*"]
        cfg = PermutationConfig(n_permutations=10)
        payload = json.loads(_run_json("p01", "locations_visited", "all", cfg, run, result, False, False))
        assert payload["comparison"]["t_score"] == value

    def test_histogram_degenerate_distributions(self):
        # A pool of one value (zero bin width), and one whose last Freedman-Diaconis
        # edge, 0.2999999999999998, falls below its maximum 0.3, so an edge is appended.
        for baseline, context in [([1.0] * 10, [1.0] * 10), ([-3.2, 0.3, -0.4, -0.2], [-0.6, -0.1, -0.3, -0.1])]:
            _, *lines = histogram_csv(baseline, context).splitlines()
            rows = [[float(cell) for cell in line.split(",")] for line in lines]
            assert [sum(row[2] for row in rows), sum(row[3] for row in rows)] == [len(baseline), len(context)]
            assert rows[-1][1] >= max(baseline + context)
