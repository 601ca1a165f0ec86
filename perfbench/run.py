#!/usr/bin/env python3
"""Layered benchmark of the ``nhcomp`` CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep-continuation --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md``): ``sweep-continuation``,
``limit-tables`` and ``stability-grid``. Each is a list of CLI argv, built
from ``--seed`` by ``workloads.py``, that a separate workload process runs
in-process through ``nhcomp.cli.main`` (``worker.py``).

``--trace 0`` times passes over the workload for ``--seconds`` (at least
two passes) with tracing off, and times a fresh interpreter importing
``nhcomp.cli`` and building its parser, four times before and four times
after. It prints the end-to-end metrics. ``--trace 1`` runs one untraced
pass and two traced passes and prints the per-layer metrics of the second,
after checking that the exact counts repeat.

Every invocation of every pass is gated: exit status 0, CSV bytes equal to
the digest recorded for that argv in ``digests.json`` (when there is one)
and to the first pass, and, for each ``converged=true`` sweep row, a
re-evaluation of the public ``homsolve.residual``. The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with the environment, timing
quartiles and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path[:0] = [HERE, SRC]
import workloads  # noqa: E402
from worker import SAMPLE_PERIOD_S  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 4  # taken before and again after the workload process
WORKER_TIMEOUT_S = 170
# Run in a fresh interpreter: the time to import nhcomp.cli and build its
# parser, with the reference work sampled before and after it.
SETUP_CODE = """
import contextlib, io, time
from worker import reference_s
ref = reference_s()
t0 = time.perf_counter()
import nhcomp.cli
with contextlib.redirect_stdout(io.StringIO()):
    nhcomp.cli.main(["--help"])
seconds = time.perf_counter() - t0
print(seconds, 0.5 * (ref + reference_s()))
"""
# Timings are reported at a fixed host speed: a step that took t seconds
# while the reference loop (``worker.reference_s``) took r seconds, sampled
# during the step, reports t * NOMINAL_REFERENCE_S / r. The raw seconds are
# in the report.
NOMINAL_REFERENCE_S = 0.01

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def _env(*paths):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def time_setup(samples):
    """(seconds, reference) of ``samples`` fresh interpreters running SETUP_CODE."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=_env(SRC, HERE),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        seconds, ref = proc.stdout.split()
        times.append((float(seconds), float(ref)))
    return times


def run_worker(argvs, out, seconds=0.0, trace=False, min_passes=MIN_PASSES):
    """Run the workload process on ``argvs``; returns its result record."""
    spec = {
        "src": SRC,
        "argvs": argvs,
        "out": out,
        "seconds": seconds,
        "min_passes": min_passes,
        "trace": trace,
    }
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=_env(SRC),
        cwd=ROOT,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    if not result["nhcomp_file"].startswith(SRC + os.sep):
        raise RuntimeError(f"nhcomp was imported from {result['nhcomp_file']}, not {SRC}")
    return result


# --------------------------------------------------------------------------
# output gate


def _flags(argv):
    """``{flag: value}`` of a generated argv; a flag with no value maps to ''."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else "--"
            out[tok] = "" if nxt.startswith("--") else nxt
    return out


def verify_sweep(argv, data):
    """Messages for the ``converged=true`` rows of a sweep CSV that fail.

    A row passes when the public residual at its (lambda_tilde, lambda_T)
    is within the solver's own tolerance 1e-12 (mu + lambda + K), or changes
    sign between lambda_T (1 -+ 1e-9). No row is skipped.
    """
    import numpy as np
    from nhcomp import homsolve
    from nhcomp.materials import ModelSpec, params_from_mu_nu
    from nhcomp.volfun import parse_volfun

    opts = _flags(argv)
    case, kind, vf = opts["--case"], opts["--model"], parse_volfun(opts["--volfun"])
    mu = float(opts.get("--mu", 1.0))
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    bad = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["converged"] != "true":
            continue
        nu = float(row["nu"]) if "nu" in row else float(opts["--nu"])
        model = ModelSpec(kind, vf, params_from_mu_nu(mu, nu))
        prm = model.params
        lam, lamT = float(row["lambda_tilde"]), float(row["lambda_T"])
        with np.errstate(all="ignore"):
            r = homsolve.residual(case, model, lam, lamT)
            lo = homsolve.residual(case, model, lam, lamT * (1.0 - 1e-9))
            hi = homsolve.residual(case, model, lam, lamT * (1.0 + 1e-9))
        if not (abs(r) <= 1e-12 * (prm.mu + prm.lam + prm.K) or lo * hi <= 0.0):
            bad.append(f"nu={nu} lambda={lam!r}: residual {r:g} at lambda_T={lamT!r}")
    return bad


def gate(argvs, passes, out, digests):
    """One message per failed (pass, invocation), from the CSVs under ``out``."""
    failures = []
    first_sha = {}
    verified = {}
    for k, record in enumerate(passes):
        for i, (argv, (code, _, error, _)) in enumerate(zip(argvs, record["cmds"])):
            where = f"pass {k} `{' '.join(argv)}`"
            reasons = []
            if code != 0:
                reasons.append(f"exit {code} {error}".strip())
            path = os.path.join(out, f"p{k}", f"{i}.csv")
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                failures.append(f"{where}: no CSV written; {'; '.join(reasons)}")
                continue
            sha = hashlib.sha256(data).hexdigest()
            expected = digests.get(" ".join(argv))
            if expected is not None and sha != expected:
                reasons.append("CSV differs from the recorded digest")
            if first_sha.setdefault(i, sha) != sha:
                reasons.append("CSV differs from the first pass")
            if argv[0] == "sweep":
                if sha not in verified:
                    verified[sha] = verify_sweep(argv, data)
                reasons.extend(verified[sha][:3])
            if reasons:
                failures.append(f"{where}: {'; '.join(reasons)}")
    return failures


# --------------------------------------------------------------------------
# reporting


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def environment(numpy_version):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "NHCOMP_PURE_PYTHON": os.environ.get("NHCOMP_PURE_PYTHON"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def run(name, argvs, seconds, trace, digests):
    """Run one workload; returns (result line, report)."""
    os.makedirs(WORK, exist_ok=True)
    out = tempfile.mkdtemp(dir=WORK)
    try:
        setup = [] if trace else time_setup(SETUP_SAMPLES)
        result = run_worker(argvs, out, seconds, trace)
        if not trace:
            setup += time_setup(SETUP_SAMPLES)
        failures = gate(argvs, result["passes"], out, digests)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    line, report = summarize(argvs, result, setup, failures, trace)
    report["workload"] = name
    return line, report


def _raw_wall(record):
    return sum(c[1] for c in record["cmds"])


def _scaled_cmds(record, speed):
    """Invocation times of one pass at the nominal reference speed.

    Each invocation is scaled by the mean of the speed samples taken while
    it ran, widened by one sampling period on each side.
    """
    scaled = []
    for _, seconds, _, start in record["cmds"]:
        lo, hi = start - SAMPLE_PERIOD_S, start + seconds + SAMPLE_PERIOD_S
        refs = [r for t, r in speed if lo <= t <= hi] or [r for _, r in speed]
        scaled.append(seconds * NOMINAL_REFERENCE_S / statistics.fmean(refs))
    return scaled


def summarize(argvs, result, setup, failures, trace):
    """The result line and report of one run from the worker's record."""
    passes = result["passes"]
    attempted = len(argvs) * len(passes)
    failed = len(failures)
    correct = failed == 0
    report = {
        "invocations": len(argvs),
        "passes": len(passes),
        "environment": environment(result["numpy"]),
        "per_command_median_s": [
            statistics.median(p["cmds"][i][1] for p in passes if not p["traced"])
            for i in range(len(argvs))
        ],
        "failures": failures[:10],
    }
    if trace:
        counts = result["exact_counts"]
        report["exact_counts"] = counts[0]
        if counts[0] != counts[1]:
            correct = False
            report["failures"].append(f"exact counts differ between traced passes: {counts}")
        walls = [sum(_scaled_cmds(p, result["speed"])) for p in passes]
        untraced, traced = walls[0], statistics.median(walls[1:])
        per_layer = dict(result["per_layer"])
        per_layer["trace.overhead_s"] = (traced - untraced, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        scaled = [_scaled_cmds(p, result["speed"]) for p in passes]
        walls = [sum(c) for c in scaled]
        cmd_medians = [statistics.median(c) for c in zip(*scaled)]
        setup_s = [t * NOMINAL_REFERENCE_S / ref for t, ref in setup]
        report["timings"] = {
            "wall_s": _spread(walls),
            "cmd_max_s": _spread([max(c) for c in scaled]),
            "setup_s": _spread(setup_s),
            "raw_wall_s": _spread([_raw_wall(p) for p in passes]),
            "raw_setup_s": _spread([t for t, _ in setup]),
            "reference_s": _spread([r for _, r in result["speed"]]),
        }
        values = {
            "wall_s": statistics.median(walls),
            "cmd_max_s": max(cmd_medians),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nhcomp", "cli.py")):
        print(f"perfbench: no nhcomp source tree at {SRC}", file=sys.stderr)
        return 2
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    line, report = run(
        args.workload,
        workloads.argvs(args.workload, args.seed),
        args.seconds,
        bool(args.trace),
        digests,
    )
    report["seed"] = args.seed
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
