"""The workload process: runs argv lists in-process through ``nhcomp.cli.main``.

Usage: ``python3 perfbench/worker.py SPEC.json``. The spec names the source
tree to import ``nhcomp`` from, the argv lists, the output directory, and
either a time budget (timed mode) or ``"trace": true``. Each pass writes
one CSV per argv to ``OUT/p<pass>/<index>.csv`` and the worker writes its
timings to ``OUT/result.json``. Nothing is printed on stdout.

Timed mode runs passes until ``seconds`` have elapsed, and at least
``min_passes``. In both modes a :class:`SpeedSampler` records the host's
speed throughout. Trace mode runs one untraced pass, then two traced passes,
each with its own :class:`spans.Tracer`, and reports the per-layer metrics
of the second traced pass plus the exact counts of both.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import threading
import time

REFERENCE_ITERS = 100_000
SAMPLE_ITERS = 10_000
SAMPLE_PERIOD_S = 0.1


def reference_s(iters=REFERENCE_ITERS, clock=time.perf_counter):
    """Seconds per REFERENCE_ITERS steps of a fixed interpreter-bound float loop.

    Timed next to a step of the workload, it measures the speed the host
    gives this process at that moment, which on a shared host drifts by
    tens of percent over seconds to minutes.
    """
    t0 = clock()
    acc = 0.0
    for k in range(iters):
        acc += math.sqrt(k + acc * 1e-9)
    return (clock() - t0) * (REFERENCE_ITERS / iters)


class SpeedSampler:
    """Times a short run of the reference loop every SAMPLE_PERIOD_S.

    It runs on its own thread for as long as the workload does, so a long
    invocation is covered by samples taken during it. Each sample is thread
    CPU time, which leaves out the time the thread waits for the
    interpreter lock. ``samples`` holds ``(perf_counter, reference_s)``.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.perf_counter()
            ref = reference_s(SAMPLE_ITERS, time.thread_time)
            self.samples.append((0.5 * (t0 + time.perf_counter()), ref))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _run_pass(cli, argvs, out_dir, traced=False):
    """One pass over the workload: ``(exit, seconds, error, start)`` per invocation."""
    os.makedirs(out_dir, exist_ok=True)
    cmds = []
    for i, argv in enumerate(argvs):
        full = [*argv, "--out", os.path.join(out_dir, f"{i}.csv")]
        t0 = time.perf_counter()
        try:
            code, error = cli.main(full), ""
        except Exception as exc:  # a crash is a failed invocation, not a dead run
            code, error = -1, f"{type(exc).__name__}: {exc}"
        cmds.append((code, time.perf_counter() - t0, error, t0))
    return {"cmds": cmds, "traced": traced}


def _traced_passes(cli, argvs, out, result):
    import spans

    result["passes"].append(_run_pass(cli, argvs, os.path.join(out, "p0")))
    tables = []
    for k in (1, 2):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            result["passes"].append(_run_pass(cli, argvs, os.path.join(out, f"p{k}"), True))
        tables.append(spans.layer_table(tracer.spans))
    result["exact_counts"] = [spans.exact_counts(t) for t in tables]
    result["per_layer"] = spans.per_layer_metrics(tables[-1])


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy
    import nhcomp
    import nhcomp.cli as cli

    result = {
        "nhcomp_file": os.path.abspath(nhcomp.__file__),
        "numpy": numpy.__version__,
        "passes": [],
    }
    argvs, out = spec["argvs"], spec["out"]
    with SpeedSampler() as sampler:
        if spec["trace"]:
            _traced_passes(cli, argvs, out, result)
        else:
            start = time.perf_counter()
            k = 0
            while k < spec["min_passes"] or time.perf_counter() - start < spec["seconds"]:
                result["passes"].append(_run_pass(cli, argvs, os.path.join(out, f"p{k}")))
                k += 1
    result["speed"] = sampler.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
