"""Peak resident memory of one op in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <inputs dir> <output dir>

Prints one JSON line: the op's exit codes and ru_maxrss in KiB.
"""

import json
import resource
import sys
from pathlib import Path

from run import run_command
from workloads import WORKLOADS

if __name__ == "__main__":
    name, inputs, out = sys.argv[1:4]
    Path(out).mkdir(parents=True, exist_ok=True)
    codes = [code for code, _ in (run_command(argv) for argv in WORKLOADS[name].commands(Path(inputs), Path(out)))]
    print(json.dumps({"codes": codes, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
