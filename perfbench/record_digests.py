#!/usr/bin/env python3
"""Record the sha256 of every workload CSV at the default seed.

Run from the root of a source checkout, after a change that alters CSV
output on purpose::

    python3 perfbench/record_digests.py

It runs one pass of each workload, refuses to record if any invocation
fails the gate (exit status, determinism, sweep residual check), and
rewrites ``perfbench/digests.json`` keyed by the argv.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main():
    digests = {}
    os.makedirs(run.WORK, exist_ok=True)
    for name in workloads.NAMES:
        argvs = workloads.argvs(name, workloads.DEFAULT_SEED)
        out = tempfile.mkdtemp(dir=run.WORK)
        try:
            result = run.run_worker(argvs, out, min_passes=1)
            failures = run.gate(argvs, result["passes"], out, {})
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            for i, argv in enumerate(argvs):
                with open(os.path.join(out, "p0", f"{i}.csv"), "rb") as fh:
                    digests[" ".join(argv)] = hashlib.sha256(fh.read()).hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
