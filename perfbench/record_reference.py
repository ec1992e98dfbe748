#!/usr/bin/env python3
"""Rewrite perfbench/reference.json: final u_max, w_mnorm of every run.

The correctness gate compares each run's final diagnostics with these
values.  Run once, from the root of a checkout of the commit that defines
the reference:

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        for wl in workloads.WORKLOADS.values():
            entry = reference[wl.name] = {}
            for run in wl.runs:
                if wl.cli:
                    out = workloads.run_cli(wl, run, workloads.untraced, tmp)
                else:
                    out = workloads.run_library(wl, run, workloads.untraced)
                entry[run.key] = {"u_max": out.u_max, "w_mnorm": out.w_mnorm}
                print(wl.name, run.key, entry[run.key])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
