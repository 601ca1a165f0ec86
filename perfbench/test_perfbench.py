"""Smoke tests of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Every layer once, at sizes that take well under a second per pass.
TINY = [
    *workloads.sweep_continuation(7, points=2)[:2],
    ["limits", "--case", "ul", "--model", "voliso", "--volfun", "7", "--nu", "0.25"],
    *workloads.stability_grid(7, grid_n=3, big_grid_n=4),
]


def _declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture()
def out():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    line, report = run.run("tiny", TINY, 0.0, trace, {})
    assert line["correct"], report["failures"]
    assert line["failed"] == 0 and line["attempted"] >= len(TINY)
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == _declared(section)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_one_byte_corruption_counts_as_a_failed_invocation(out):
    result = run.run_worker(TINY, out, min_passes=1)
    assert run.gate(TINY, result["passes"], out, {}) == []
    for i in range(len(TINY)):
        path = os.path.join(out, "p0", f"{i}.csv")
        with open(path, "rb") as fh:
            good = fh.read()
        digests = {" ".join(TINY[i]): hashlib.sha256(good).hexdigest()}
        bad = bytearray(good)
        bad[len(bad) // 2] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bad)
        failures = run.gate(TINY, result["passes"], out, digests)
        with open(path, "wb") as fh:
            fh.write(good)
        assert len(failures) == 1, failures
        line, _ = run.summarize(TINY, result, [(1.0, 0.01)], failures, trace=False)
        assert line["failed"] == 1 and not line["correct"]
        assert line["metrics"]["ok_share"]["value"] == 1.0 - 1.0 / len(TINY)


def test_residual_evals_per_solve_reconciles_with_raw_counts():
    line, report = run.run("tiny", TINY, 0.0, True, {})
    m = {name: v["value"] for name, v in line["metrics"].items()}
    assert m["homsolve.solve.calls"] == report["exact_counts"]["homsolve.solve.calls"] > 0
    raw = m["kernels.residual_scan.points"] + m["kernels.bisect_log.iters"] + m["homsolve.residual.calls"]
    assert m["solver.residual_evals_per_solve"] == pytest.approx(raw / m["homsolve.solve.calls"])
    assert m["kernels.residual_scan.points"] == 2001 * m["kernels.residual_scan.calls"]
    assert m["volfun.evaluate_grid.points"] > 0 and m["stability.min_coaxial_eig.states"] > 0


def test_pool_thread_spans_are_children_of_the_callers_span():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: time.sleep(0.02) or x)

    def outer_fn():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(4)))

    outer = tracer.wrap("outer", outer_fn)
    assert outer() == [0, 1, 2, 3]
    (root,) = [s for s in tracer.spans if s.name == "outer"]
    kids = [s for s in tracer.spans if s.name == "inner"]
    assert len(kids) == 4 and all(s.parent is root for s in kids)
    table = spans.layer_table(tracer.spans)
    # two workers overlap, so the children cover about half their summed time
    assert 0.0 <= table["outer"]["self_s"] < table["outer"]["s"] - 0.03
