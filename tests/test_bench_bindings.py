"""The names the benchmark harness binds in ``nhcomp`` still exist.

``perfbench/spans.py`` wraps the module attributes listed in its
``TARGETS`` and reads some of their positional arguments and results;
``perfbench/run.py`` imports the library to verify sweep rows. A rename
here would break the benchmark, not the library, so tier-1 checks the
bindings, and that the CLI still reaches the stability bindings once per
batch of cells or model, so that their counts cannot silently fall to zero.
``spans.py`` is read from its file and executed in a fresh namespace, as
``test_golden.py`` reads ``digests.json``; nothing is written under
``perfbench/``.
"""

import importlib
import inspect
import math
import types
from pathlib import Path

import numpy as np
import pytest

from nhcomp import _kernels as _k
from nhcomp import homsolve as hs
from nhcomp import cli, materials, stability, volfun
from nhcomp.stability import min_coaxial_eig

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(_SPANS)
    exec(compile(_SPANS.read_text(), str(_SPANS), "exec"), module.__dict__)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "module, attr", [t[:2] for t in TARGETS], ids=[f"{m}.{a}" for m, a, *_ in TARGETS]
)
def test_every_target_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "fn, index, name",
    (
        (_k.residual_scan, 10, "n"),  # scan points: args[10]
        (min_coaxial_eig, 3, "lams"),  # states: len(args[3])
        (volfun.evaluate_grid, 1, "Js"),  # grid points: len(args[1])
    ),
    ids=("residual_scan", "min_coaxial_eig", "evaluate_grid"),
)
def test_measured_positional_arguments(fn, index, name):
    assert list(inspect.signature(fn).parameters)[index] == name


def test_bisect_log_returns_root_width_and_iteration_count():
    vf = volfun.catalog()[2]
    prm = materials.params_from_mu_nu(1.0, 0.3)
    args = ("mixed", vf.family, vf.par, "ul", 2.0, prm.mu, prm.lam, prm.K)
    u_a, u_b = -2.0, 0.5
    f = _k.residual_fn(*args)
    f_a = f(np.exp(u_a))
    assert f_a * f(np.exp(u_b)) < 0.0
    result = _k.bisect_log(*args, u_a, u_b, f_a, 200)
    assert len(result) == 3
    u, width, iterations = result
    assert u_a <= u <= u_b and 0.0 <= width < 1e-12
    assert isinstance(iterations, int) and iterations > 0


def test_solve_looks_up_the_module_residual_at_call_time(monkeypatch):
    real, calls = hs.residual, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hs, "residual", counted)
    model = materials.ModelSpec.vol_iso(volfun.catalog()[2], 1.0, 0.3)
    assert hs.solve("ul", model, 2.0).converged
    assert calls


def test_sweep_verification_imports():
    # perfbench/run.py verify_sweep: parse_volfun, params_from_mu_nu,
    # ModelSpec(kind, volfun, params) and homsolve.residual(case, model, lam, lamT)
    model = materials.ModelSpec(
        "mixed", volfun.parse_volfun("hn:2"), materials.params_from_mu_nu(1.3, 0.3)
    )
    r = hs.solve("elp", model, 0.5)
    assert math.isfinite(hs.residual("elp", model, 0.5, r.lambda_T))


def _record_calls(monkeypatch, module, attr):
    """Wrap ``module.attr`` as perfbench does and return the list of the
    positional arguments of each call."""
    real, calls = getattr(module, attr), []

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, recorded)
    return calls


def _cli_rows(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out.splitlines()[1:]


def test_stability_scans_each_batch_through_min_coaxial_eig(capsys, monkeypatch):
    # the stability layer counts calls and len(args[3]) states of this
    # binding: one call per command, with a kind, volfun, params and
    # contraction for each of its cells
    calls = _record_calls(monkeypatch, stability, "min_coaxial_eig")
    rows = _cli_rows(capsys, "stability --grid-n 2 --nu-set paper".split())
    assert len(rows) == 2 * 8 * 6 * 2  # kinds, volfuns, nus, contractions
    (args,) = calls
    assert all(len(args[k]) == len(rows) for k in (0, 1, 2, 4))
    assert list(zip(args[0], args[4])) == [
        (kind, contraction) for kind in ("mixed", "voliso") for _ in range(8 * 6)
        for contraction in ("hill", "csp")
    ]  # fmt: skip
    assert np.shape(args[3]) == (8, 3)


def test_tangent_check_calls_tangent_fd_error_once_per_model(capsys, monkeypatch):
    calls = _record_calls(monkeypatch, stability, "tangent_fd_error")
    rows = _cli_rows(capsys, "tangent-check --volfun all --nu 0.3".split())
    assert len(calls) == len(rows) > 0
    assert [(m.kind, m.volfun.label) for (m,) in calls] == [
        tuple(row.split(",")[:2]) for row in rows
    ]


_SOLVE_LAYERS = (
    (_k, "residual_scan"),
    (_k, "bisect_log"),
    (hs, "residual"),
    (hs, "evaluate"),
    (hs, "cauchy_stress"),
)


@pytest.mark.parametrize(
    "kind, calls",
    (("voliso", [1, 1, 1, 1, 1]), ("mixed", [1, 1, 1, 0, 0])),
)
def test_one_solve_reaches_each_counted_layer(monkeypatch, kind, calls):
    # perfbench counts these bindings; a vol-iso ul solve scans, bisects,
    # reports the residual, evaluates h' for sigma11 and cross-checks it
    # against the full stress tensor once each, and a mixed solve has no
    # trace shortcut to check
    recorded = [_record_calls(monkeypatch, module, attr) for module, attr in _SOLVE_LAYERS]
    model = materials.ModelSpec(
        kind, volfun.catalog()[2], materials.params_from_mu_nu(1.7, 0.45)
    )
    assert hs.solve("ul", model, 1.7).converged
    assert [len(c) for c in recorded] == calls


@pytest.mark.parametrize(
    "argv",
    (
        "sweep --case ul --model voliso --volfun 2 --nu-set paper --log --lam-min 0.5 "
        "--lam-max 2 --points 4",
        "table-repro --table 6",
    ),
    ids=("sweep-nu-set", "table-repro"),
)
def test_each_solved_point_reaches_the_solver_layers(capsys, monkeypatch, argv):
    # the solver workloads count these bindings: every solve of a walk over
    # several nu still scans (twice where the first scan finds no sign
    # change), bisects once if it found a bracket and reports the residual,
    # so the per-layer solve and scan counts cannot silently fall to zero
    scans = _record_calls(monkeypatch, _k, "residual_scan")
    bisects = _record_calls(monkeypatch, _k, "bisect_log")
    real, per_solve = hs.solve, []

    def solve(*args):
        before = (len(scans), len(bisects))
        try:
            return real(*args)
        finally:
            per_solve.append((len(scans) - before[0], len(bisects) - before[1]))

    monkeypatch.setattr(hs, "solve", solve)
    rows = _cli_rows(capsys, argv.split())
    assert per_solve and all(s in (1, 2) and b in (0, 1) for s, b in per_solve)
    assert [sum(counts) for counts in zip(*per_solve)] == [len(scans), len(bisects)]
    assert all(args[10] == hs._SCAN_POINTS for args in scans)
    if argv.startswith("sweep"):
        assert per_solve == [(1, 1)] * len(rows) == [(1, 1)] * 6 * 4
    else:
        # three probes of every (volfun, kind, nu, direction), ladders aside
        assert len(per_solve) >= 3 * 2 * 3 * 2 * len({row.split(",")[3] for row in rows})
