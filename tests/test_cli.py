"""End-to-end checks of the command-line front end.

Subcommands run in-process through ``cli.main`` so stdout/stderr can be
captured cheaply; a few tests go through a real subprocess to cover the
module entry point and the modules that a fresh interpreter imports.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import nhcomp
from nhcomp import cli, materials
from nhcomp import homsolve as hs
from nhcomp import stability as st
from nhcomp.materials import ModelSpec, cauchy_stress
from nhcomp.volfun import VolFun, catalog

E_CONST = math.e


def run(capsys, *argv):
    """Invoke the CLI and return (exit_code, parsed_csv_rows, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out))) if captured.out else []
    return code, rows, captured.err


def run_clean(capsys, *argv):
    """Invoke the CLI; it must exit with no traceback and no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rows, err = run(capsys, *argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Warning" not in err and "Traceback" not in err
    return code, rows, err


def run_rejected(capsys, *argv):
    """Invoke the CLI on a bad input; it must exit 1 cleanly. Returns stderr."""
    code, rows, err = run_clean(capsys, *argv)
    assert code == 1 and rows == []
    return err


@pytest.mark.parametrize(
    "value, text",
    (
        (0.1, "0.10000000000000001"),
        (-0.0, "-0"),
        (math.inf, "inf"),
        (np.float64(1.0) / 3.0, "0.33333333333333331"),
        (True, "true"),
        (np.False_, "false"),
        (7, "7"),
        (np.int64(-2), "-2"),
        ("finite(1.5)", "finite(1.5)"),
    ),
)
def test_csv_cell_format(value, text):
    assert cli._fmt(value) == text


class TestAuditVolfun:
    def test_eight_rows_with_expected_flags(self, capsys):
        code, rows, _ = run(capsys, "audit-volfun")
        assert code == 0
        assert len(rows) == 8
        flags = {
            r["volfun"]: (
                r["normalized"],
                r["sign_of_hp"],
                r["convex"],
                r["chi_positive"],
                r["diverges"],
            )
            for r in rows
        }
        assert flags["1"] == ("1", "1", "0", "1", "1")
        assert flags["7"] == ("1", "1", "1", "0", "0")
        for vid in ("2", "3", "4", "5", "6", "8"):
            assert flags[vid] == ("1", "1", "1", "1", "1")

    def test_convexity_witness_of_one_is_beyond_e(self, capsys):
        _, rows, _ = run(capsys, "audit-volfun")
        witness = float(next(r for r in rows if r["volfun"] == "1")["witness"])
        assert witness >= E_CONST

    def test_output_is_byte_identical_across_runs(self, capsys):
        cli.main(["audit-volfun"])
        first = capsys.readouterr().out
        cli.main(["audit-volfun"])
        assert capsys.readouterr().out == first


class TestSweep:
    def test_quadratic_mixed_at_nu_zero_keeps_lambda_T_at_one(self, capsys):
        code, rows, _ = run(
            capsys,
            *"sweep --case ul --model mixed --volfun 7 --nu 0 "
            "--lam-min 0.5 --lam-max 2 --points 4".split(),
        )
        assert code == 0
        assert [float(r["lambda_T"]) for r in rows] == [1.0, 1.0, 1.0, 1.0]

    def test_nu_out_of_range_exits_one(self, capsys):
        code, rows, err = run(
            capsys,
            *"sweep --case ul --model mixed --volfun 7 --nu 0.6 "
            "--lam-min 0.5 --lam-max 2 --points 4".split(),
        )
        assert code == 1
        assert not rows
        assert "Poisson" in err

    def test_incompressible_closed_form_row(self, capsys):
        code, rows, _ = run(
            capsys,
            *"sweep --case ulp --model inc --lam-min 2 --lam-max 2 --points 1".split(),
        )
        assert code == 0
        (row,) = rows
        assert float(row["lambda_T"]) == 0.5
        assert float(row["sigma11"]) == pytest.approx(3.75, rel=1e-15)
        assert float(row["sigma22"]) == pytest.approx(0.75, rel=1e-15)
        assert float(row["P11"]) == pytest.approx(1.875, rel=1e-15)
        assert row["converged"] == "true"

    def test_nu_set_adds_leading_column_and_expands_rows(self, capsys):
        code, rows, _ = run(
            capsys,
            *"sweep --case ul --model voliso --volfun 4 --nu-set paper "
            "--lam-min 0.5 --lam-max 2 --points 2".split(),
        )
        assert code == 0
        assert len(rows) == 12
        nus = [float(r["nu"]) for r in rows[::2]]
        assert nus == [0.0, 0.25, 0.4, 0.45, 0.499, 0.4999]

    def test_out_file_matches_stdout_bytes(self, capsys, tmp_path):
        argv = "sweep --case elp --model mixed --volfun 2 --nu 0.3 --lam-min 0.5 --lam-max 2 --points 5 --log".split()
        cli.main(argv)
        stdout_bytes = capsys.readouterr().out.encode()
        out = tmp_path / "sweep.csv"
        cli.main(argv + ["--out", str(out)])
        assert out.read_bytes() == stdout_bytes
        assert b"\r" not in stdout_bytes

    def test_solver_failure_yields_exit_two_and_partial_csv(self, capsys, monkeypatch, tmp_path):
        def explode(case, model, lam, seed_lamT=1.0):
            raise hs.SolveError("injected failure")

        monkeypatch.setattr(hs, "solve", explode)
        argv = (
            "sweep --case ul --model mixed --volfun 2 --nu 0.3 --lam-min 0.5 --lam-max 2 --points 3"
        ).split()
        assert cli.main(argv) == 2
        stdout = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(stdout)))
        assert len(rows) == 3
        assert all(r["converged"] == "false" for r in rows)
        assert all(r["lambda_T"] == "nan" for r in rows)

        # the partial CSV goes to --out byte for byte; an --out that cannot
        # be opened turns the exit 2 into a usage error with no CSV
        out = tmp_path / "partial.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert out.read_bytes() == stdout.encode()
        missing = tmp_path / "missing" / "partial.csv"
        err = run_rejected(capsys, *argv, "--out", str(missing))
        assert err.startswith(f"nhcomp: error: cannot write --out {missing}: ")

    def test_volfun_flag_rejected_for_incompressible(self, capsys):
        code, _, err = run(
            capsys,
            *"sweep --case ul --model inc --volfun 2 --lam-min 1 --lam-max 2 --points 2".split(),
        )
        assert code == 1
        assert "incompressible" in err

    def test_infinite_stretch_bound_exits_one(self, capsys):
        err = run_rejected(
            capsys,
            *"sweep --case ul --model mixed --volfun 1 --nu 0.3 "
            "--lam-min 0.5 --lam-max inf --points 3".split(),
        )
        assert "stretch bounds must be finite" in err
        assert "positive" not in err

    def test_missing_volfun_for_mixed_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            *"sweep --case ul --model mixed --nu 0.3 --lam-min 1 --lam-max 2 --points 2".split(),
        )
        assert code == 1
        assert "--volfun" in err


def csv_bytes(capsys, argv):
    assert cli.main(argv.split()) == 0
    return capsys.readouterr().out


def fail_at_probes(monkeypatch):
    """Make every solve at a middle limit probe (lam = 1e-5 or 1e5) fail."""
    real = hs.solve

    def solve(case, model, lam, seed_lamT=1.0):
        if lam in (1e-5, 1e5):
            raise hs.SolveError("injected failure")
        return real(case, model, lam, seed_lamT)

    monkeypatch.setattr(hs, "solve", solve)


class TestLogApprox:
    """The power pair hn:1/12, the two-point power approximation of ln J.

    Its J h'(J) = 6 (J^(1/12) - J^(-1/12)); ``--volfun hn:0.08333333333333333``
    is its one spelling, and the retired ``sweep --log-approx`` is rejected.
    """

    SWEEP = "sweep --nu 0.3 --lam-min 0.1 --lam-max 50 --points 25 --log"

    @pytest.mark.parametrize("case", ("ul", "elp"))
    def test_voliso_rows_are_equilibria_of_the_full_tensor_path(self, capsys, case):
        _, rows, _ = run(
            capsys,
            *f"{self.SWEEP} --case {case} --model voliso --volfun hn:0.08333333333333333".split(),
        )
        model = ModelSpec.vol_iso(VolFun.power_pair(1.0 / 12.0), 1.0, 0.3)
        assert len(rows) == 25
        for r in rows:
            assert r["converged"] == "true"
            lam, lamT, s11 = float(r["lambda_tilde"]), float(r["lambda_T"]), float(r["sigma11"])
            sig = cauchy_stress(model, hs.case_F(case, lam, lamT)).cauchy
            scale = max(abs(s11), model.params.mu)
            assert abs(sig[2, 2]) <= 1e-10 * scale, (lam, sig[2, 2])
            assert sig[0, 0] == pytest.approx(s11, rel=1e-8), lam

    def test_retired_flag_exits_one(self, capsys):
        err = run_rejected(
            capsys,
            *"sweep --case ul --model mixed --volfun 1 --nu 0.3 --lam-min 0.5 --lam-max 2 "
            "--points 3 --log-approx".split(),
        )
        assert "unrecognized arguments: --log-approx" in err


class TestBadUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_volfun_id(self, capsys):
        code, _, err = run(
            capsys,
            *"sweep --case ul --model mixed --volfun 9 --nu 0.3 --lam-min 1 --lam-max 2 --points 2".split(),
        )
        assert code == 1
        assert "1..8" in err

    def test_missing_required_flag(self, capsys):
        assert cli.main(["sweep", "--model", "inc"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "audit-volfun" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ("0", "-3"))
    def test_jobs_below_one_exits_one(self, capsys, jobs):
        code, rows, err = run(capsys, "table-repro", "--table", "4", "--jobs", jobs)
        assert code == 1 and rows == []
        assert "--jobs: must be >= 1" in err

    @pytest.mark.parametrize(
        "volfun, message",
        (
            ("hn:nan", "power-pair exponent q must be finite, got nan"),
            ("hn:inf", "power-pair exponent q must be finite, got inf"),
            ("ogden:inf", "log-augmented exponent beta must be finite, got inf"),
            ("ogden:nan", "log-augmented exponent beta must be finite, got nan"),
            *(
                (vf, f"volumetric function '{vf}': the parameter after '{pre}' must be a number")
                for vf, pre in (("hn:abc", "hn:"), ("hn:", "hn:"), ("ogden:x", "ogden:"))
            ),
        ),
    )
    @pytest.mark.parametrize(
        "argv",
        (
            ("stability", "--nu", "0.3", "--grid-n", "4"),
            ("sweep", "--case", "ul", "--model", "voliso", "--nu", "0.3",
             "--lam-min", "0.5", "--lam-max", "2", "--points", "3"),
        ),
        ids=("stability", "sweep"),
    )
    def test_non_finite_volfun_parameter_exits_one(self, capsys, argv, volfun, message):
        err = run_rejected(capsys, *argv, "--volfun", volfun)
        assert f"nhcomp: error: {message}" in err

    @pytest.mark.parametrize(
        "argv, message",
        (
            (
                "stability --mu inf --nu 0.3 --grid-n 3 --volfun 2",
                "shear modulus must be positive and finite, got mu = inf",
            ),
            (
                "sweep --case ul --model mixed --volfun 2 --nu 0.3 --mu inf "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "shear modulus must be positive and finite, got mu = inf",
            ),
            (
                "sweep --case ul --model voliso --volfun 2 --nu 0.3 --E inf "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "Young's modulus must be positive and finite, got E = inf",
            ),
            (
                "dilatation --model voliso --volfun 2 --nu 0.3 --k-max inf",
                "stretch bounds must be finite, got 0.5 and inf",
            ),
            # nu is checked before E / (2 (1 + nu)) divides by zero at nu = -1
            # or gives a shear modulus that takes the blame for a bad nu
            (
                "sweep --case ul --model mixed --volfun 2 --E 1 --nu -1 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "Poisson's ratio must lie in (-1, 1/2], got nu = -1.0",
            ),
            (
                "limits --case ul --model voliso --volfun 2 --E 1 --nu -1.5",
                "Poisson's ratio must lie in (-1, 1/2], got nu = -1.5",
            ),
            (
                "dilatation --model mixed --volfun 2 --E 1 --nu nan",
                "Poisson's ratio must lie in (-1, 1/2], got nu = nan",
            ),
            # finite moduli whose derived constants overflow or underflow
            (
                "stability --mu 1e308 --nu 0.3 --grid-n 3 --volfun 2",
                "first Lame constant lam overflows to inf (mu = 1e+308, nu = 0.3)",
            ),
            (
                "sweep --case ul --model mixed --volfun 2 --nu 0.3 --mu 1e308 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "first Lame constant lam overflows to inf (mu = 1e+308, nu = 0.3)",
            ),
            (
                "sweep --case ul --model voliso --volfun 2 --nu 0.45 --E 1e308 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "first Lame constant lam overflows to inf",
            ),
            (
                "sweep --case ul --model voliso --volfun 2 --nu 0.2 --mu 8e307 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "stress scale mu + lam + K overflows to inf",
            ),
            (
                "stability --mu 1e-320 --nu 0.3 --grid-n 3 --volfun 2",
                "shear modulus mu = 1e-320 is subnormal",
            ),
            (
                "sweep --case ul --model mixed --volfun 2 --nu 0.3 --mu 1e-320 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "shear modulus mu = 1e-320 is subnormal",
            ),
            (
                "sweep --case ul --model inc --mu 1e-320 --lam-min 1 --lam-max 2 --points 2",
                "shear modulus mu = 1e-320 is subnormal",
            ),
            # a shear modulus out of range from E / (2 (1 + nu)) is blamed on E and nu
            (
                "limits --case ul --model voliso --volfun 2 --E 1e308 --nu -0.9",
                "Young's modulus E = 1e+308 at nu = -0.9 gives shear modulus mu = inf",
            ),
            (
                "sweep --case ul --model voliso --volfun 2 --E 1e-320 --nu 0.3 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "Young's modulus E = 1e-320 at nu = 0.3 gives a subnormal shear modulus",
            ),
            (
                "sweep --case ul --model inc --E 1e-320 --lam-min 1 --lam-max 2 --points 2",
                "Young's modulus E = 1e-320 at nu = 0.5 gives a subnormal shear modulus",
            ),
        ),
        ids=(
            "stability-mu",
            "sweep-mu",
            "sweep-E",
            "dilatation-k-max",
            "sweep-E-nu-minus-one",
            "limits-E-nu-below-minus-one",
            "dilatation-E-nu-nan",
            "stability-mu-overflow",
            "sweep-mu-overflow",
            "sweep-E-overflow",
            "sweep-stress-scale-overflow",
            "stability-mu-subnormal",
            "sweep-mu-subnormal",
            "sweep-inc-mu-subnormal",
            "limits-E-mu-overflow",
            "sweep-E-mu-subnormal",
            "sweep-inc-E-mu-subnormal",
        ),
    )
    def test_non_finite_modulus_or_bound_exits_one(self, capsys, argv, message):
        err = run_rejected(capsys, *argv.split())
        assert f"nhcomp: error: {message}" in err

    def test_overflow_from_E_names_E_and_not_a_derived_mu(self, capsys):
        argv = (
            "sweep --case ul --model voliso --volfun 2 --nu 0.45 --E 1e308 "
            "--lam-min 0.5 --lam-max 2 --points 3"
        )
        err = run_rejected(capsys, *argv.split())
        assert err == (
            "nhcomp: error: first Lame constant lam overflows to inf (E = 1e+308, nu = 0.45); "
            "use a smaller E\n"
        )

    @pytest.mark.parametrize(
        "argv", ("audit-volfun", "limits --case ul --model mixed --volfun 2 --nu 0.3")
    )
    @pytest.mark.parametrize(
        "where, reason",
        ((("missing", "x.csv"), "No such file or directory"), ((), "Is a directory")),
        ids=("missing-dir", "a-directory"),
    )
    def test_out_that_cannot_be_opened_exits_one(self, capsys, tmp_path, argv, where, reason):
        path = tmp_path.joinpath(*where)
        err = run_rejected(capsys, *argv.split(), "--out", str(path))
        assert err == f"nhcomp: error: cannot write --out {path}: {reason}\n"

    def test_jobs_is_ignored(self, capsys):
        argv = ["table-repro", "--table", "4"]
        assert cli.main(argv) == 0
        one = capsys.readouterr().out
        assert cli.main([*argv, "--jobs", "3"]) == 0
        assert capsys.readouterr().out == one

    @pytest.mark.parametrize(
        "subcommand",
        ("audit-volfun", "sweep", "limits", "dilatation", "stability", "tangent-check",
         "table-repro"),
    )
    def test_only_table_repro_lists_jobs(self, capsys, subcommand):
        assert cli.main([subcommand, "--help"]) == 0
        out = capsys.readouterr().out
        options = re.findall(r"^  (-[-\w]+)", out, flags=re.MULTILINE)
        tail = ["--out", "--jobs"] if subcommand == "table-repro" else ["--out"]
        assert options[-len(tail):] == tail
        for flag in ("--mu", "--E", "--nu", "--nu-set", "--jobs"):
            assert options.count(flag) <= 1, flag

    @pytest.mark.parametrize(
        "argv",
        (
            "audit-volfun",
            "sweep --case ul --model mixed --volfun 2 --nu 0.3 --lam-min 0.5 --lam-max 2 "
            "--points 3",
            "limits --case ul --model mixed --volfun 2 --nu 0.3",
            "dilatation --model mixed --volfun 2 --nu 0.3 --points 3",
            "stability --volfun 2 --nu 0.3 --grid-n 3",
            "tangent-check --volfun 3 --nu 0.3 --motions 1",
        ),
        ids=lambda argv: argv.split()[0],
    )
    def test_jobs_outside_table_repro_exits_one(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        err = run_rejected(capsys, *argv.split(), "--out", str(out), "--jobs", "2")
        assert err.endswith("error: unrecognized arguments: --jobs 2\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        (
            (
                "sweep --case ul --model inc --nu 0.3 --lam-min 0.5 --lam-max 2 --points 3",
                "nhcomp: error: --nu does not apply to the incompressible kind\n",
            ),
            (
                "sweep --case ul --model inc --nu-set paper --lam-min 0.5 --lam-max 2 --points 3",
                "nhcomp: error: --nu-set does not apply to the incompressible kind\n",
            ),
            (
                "sweep --case ul --model mixed --volfun 2 --nu 0.3 --nu-set paper "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "nhcomp: error: give either --nu or --nu-set, not both\n",
            ),
            (
                "sweep --case ul --model mixed --volfun 2 --nu 0.3 --mu 2 --E 3 "
                "--lam-min 0.5 --lam-max 2 --points 3",
                "nhcomp: error: give either --mu or --E, not both\n",
            ),
            (
                "limits --case ul --model inc --E 3 --mu 2",
                "nhcomp: error: give either --mu or --E, not both\n",
            ),
            ("stability --grid-n abc", "argument --grid-n: expected an integer, got 'abc'\n"),
        ),
        ids=(
            "inc-nu",
            "inc-nu-set",
            "nu-and-nu-set",
            "mu-and-E",
            "inc-E-and-mu",
            "grid-n-not-an-integer",
        ),
    )
    def test_conflicting_or_malformed_flags_exit_one(self, capsys, argv, message):
        assert run_rejected(capsys, *argv.split()).endswith(message)


class TestLimits:
    def test_quadratic_voliso_compression_plateau(self, capsys):
        code, rows, _ = run(
            capsys, *"limits --case ul --model voliso --volfun 7 --nu 0.25".split()
        )
        assert code == 0
        cell = {(r["quantity"], r["direction"]): r for r in rows}
        assert cell["sigma11", "to_zero"]["class"] == "finite"
        # -3K with mu = 1, nu = 1/4
        assert float(cell["sigma11", "to_zero"]["constant"]) == pytest.approx(-5.0, rel=1e-6)
        assert cell["lambda_T", "to_zero"]["class"] == "0"
        assert cell["sigma11", "to_infinity"]["class"] == "+inf"

    def test_ulp_reports_the_two_extra_quantities(self, capsys):
        _, rows, _ = run(
            capsys, *"limits --case ulp --model mixed --volfun 2 --nu 0.3".split()
        )
        names = {r["quantity"] for r in rows}
        assert names == {"lambda_T", "sigma11", "P11", "sigma22", "P22"}

    @pytest.mark.parametrize("mu", ("1e300", "1e-300"))
    def test_extreme_modulus_prints_the_mantissa_classes(self, capsys, mu):
        # the solver works at the mantissa m of mu = m 2^e, so the classes
        # are those of any modulus with no overflow, and every finite
        # constant is the mantissa run's times 2^e
        argv = "limits --case ul --model voliso --volfun 2 --nu 0.3 --mu"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rows, err = run(capsys, *argv.split(), mu)
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert [r["class"] for r in rows] == ["+inf", "-inf", "-inf", "+inf", "finite", "+inf"]
        _, mantissa_of_1e300, _ = run(capsys, *argv.split(), "0.7466108948025751")
        assert [r["class"] for r in rows] == [r["class"] for r in mantissa_of_1e300]
        m, e = math.frexp(float(mu))
        _, want, _ = run(capsys, *argv.split(), repr(m))
        for got, ref in zip(rows, want):
            if ref["constant"]:
                assert float(got["constant"]) == math.ldexp(float(ref["constant"]), e)

    def test_solver_failure_at_a_probe_exits_two_with_unresolved_rows(self, capsys, monkeypatch):
        fail_at_probes(monkeypatch)
        code, rows, err = run(capsys, *"limits --case ul --model mixed --volfun 2 --nu 0.3".split())
        assert code == 2 and err == ""
        assert len(rows) == 6
        assert all(r["class"] == "unresolved" and r["constant"] == "" for r in rows)

    def test_incompressible_model_is_rejected(self, capsys):
        code, _, err = run(capsys, *"limits --case ul --model inc".split())
        assert code == 1
        assert "closed form" in err


class TestDilatation:
    def test_undeformed_row_is_exactly_zero(self, capsys):
        code, rows, _ = run(
            capsys,
            *"dilatation --model voliso --volfun 7 --nu 0.3 --k-min 1 --k-max 1 --points 1".split(),
        )
        assert code == 0
        (row,) = rows
        assert row["sigma_m"] == "0"
        assert row["p"] == "0"

    def test_pressure_is_negated_mean_stress(self, capsys):
        _, rows, _ = run(
            capsys,
            *"dilatation --model mixed --volfun 1 --mu 2.53 --nu 0.34 --points 11".split(),
        )
        for r in rows:
            assert float(r["p"]) == -float(r["sigma_m"])

    def test_voliso_quadratic_is_K_times_hp(self, capsys):
        _, rows, _ = run(
            capsys,
            *"dilatation --model voliso --volfun 7 --mu 2.53 --nu 0.34 "
            "--k-min 0.5 --k-max 0.5 --points 1".split(),
        )
        K = 2 * 2.53 * (1 + 0.34) / (3 * (1 - 2 * 0.34))
        assert float(rows[0]["sigma_m"]) == pytest.approx(K * (0.125 - 1.0), rel=1e-14)

    def test_incompressible_is_rejected(self, capsys):
        code, _, _ = run(capsys, *"dilatation --model inc --points 3".split())
        assert code == 1

    def test_bad_range_exits_one(self, capsys):
        code, _, _ = run(
            capsys,
            *"dilatation --model mixed --volfun 1 --nu 0.3 --k-min 2 --k-max 1".split(),
        )
        assert code == 1


class TestStability:
    def test_quadratic_violates_hill_and_others_do_not(self, capsys):
        code, rows, _ = run(capsys, *"stability --nu 0.45 --grid-n 8".split())
        assert code == 0
        hill = {(r["model"], r["volfun"]): r["verdict"] for r in rows if r["contraction_kind"] == "hill"}
        assert hill["mixed", "7"] == "negative"
        assert hill["voliso", "7"] == "negative"
        for kind in ("mixed", "voliso"):
            for vid in ("1", "2", "3", "4", "5", "6", "8"):
                assert hill[kind, vid] == "positive", (kind, vid)

    def test_huge_volumetric_factor_does_not_fake_a_violation(self, capsys):
        # the exp-log-squared chi reaches ~1e15 at the grid corners; a naive
        # eigendecomposition of the assembled coaxial matrix loses the true
        # (positive) minimum in rounding noise there
        code, rows, _ = run(
            capsys, *"stability --model mixed --volfun 8 --nu 0.4999 --grid-n 12".split()
        )
        assert code == 0
        hill_row = next(r for r in rows if r["contraction_kind"] == "hill")
        assert hill_row["verdict"] == "positive"

    def test_requires_a_poisson_ratio(self, capsys):
        code, _, err = run(capsys, *"stability --model mixed --volfun 2".split())
        assert code == 1
        assert "--nu" in err

    def test_nu_set_expands(self, capsys):
        _, rows, _ = run(
            capsys, *"stability --model voliso --volfun 7 --nu-set paper --grid-n 4".split()
        )
        assert len(rows) == 12  # 6 ratios x 2 contraction kinds

    @pytest.mark.parametrize(
        "argv, message",
        (
            ("stability --nu 0.5 --grid-n 3", "nu = 1/2 is the incompressible limit"),
            (
                "stability --model mixed --volfun 2 --nu -0.3 --grid-n 3",
                "mixed kind requires 0 <= nu < 1/2, got nu = -0.3",
            ),
        ),
        ids=("incompressible-limit", "mixed-negative-nu"),
    )
    def test_inadmissible_model_exits_one(self, capsys, argv, message):
        err = run_rejected(capsys, *argv.split())
        assert f"nhcomp: error: {message}" in err

    def test_voliso_accepts_negative_nu(self, capsys):
        argv = "stability --model voliso --volfun 2 --nu -0.3 --grid-n 3"
        code, rows, _ = run(capsys, *argv.split())
        assert code == 0 and len(rows) == 2

    @pytest.mark.parametrize("n", ("0", "-1", "101"))
    def test_grid_n_out_of_range_exits_one(self, capsys, n):
        code, rows, err = run(capsys, "stability", "--nu", "0.3", "--grid-n", n)
        assert code == 1 and rows == []
        assert f"--grid-n: must be between 1 and 100, got {n}" in err


    @pytest.mark.parametrize(
        "argv",
        (
            "stability --mu 1e300 --nu-set paper --grid-n 9",
            "stability --mu 1e306 --nu 0.3 --grid-n 3 --volfun 2",
        ),
    )
    def test_large_modulus_matches_its_mantissa_run(self, capsys, argv):
        # the scan is exact under a power-of-two modulus scale: every value
        # is the mantissa run's times 2^e, and every verdict is the same
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rows, err = run(capsys, *argv.split())
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        mu = float(argv.split()[2])
        m, e = math.frexp(mu)
        _, want, _ = run(capsys, *argv.replace(f"--mu {argv.split()[2]}", f"--mu {m!r}").split())
        assert len(rows) == len(want) > 0
        for got, ref in zip(rows, want):
            assert "nan" not in got.values()
            assert float(got["value"]) == math.ldexp(float(ref["value"]), e)
            assert got["verdict"] == ref["verdict"]

    def test_paper_scan_reads_one_volumetric_table_per_block_and_volfun(
        self, capsys, monkeypatch
    ):
        # 2 kinds x 2 contractions x 8 volfuns, each on the J of the 26
        # stretch classes of the 64 states; the parent read one per cell (192)
        calls = []
        original = st.evaluate_grid

        def counting(vf, Js):
            calls.append(len(Js))
            return original(vf, Js)

        monkeypatch.setattr(st, "evaluate_grid", counting)
        st._block_slot[0] = None
        code, rows, _ = run(capsys, *"stability --grid-n 4 --nu-set paper".split())
        assert code == 0 and len(rows) == 192
        assert calls == [26] * 32

    def test_an_overflow_partway_through_a_batch_exits_one(self, capsys, monkeypatch):
        # volfun 2's chi and h'' read -1e5 past J = 2, so at mu = 1e300 its
        # cells from nu = 0.4 on have a minimum beyond the float range: the
        # first cell to fail runs second in the mixed CSP batch of volfun 2,
        # after whole batches of volfun 1, and the message is the one that
        # scanning the cells one at a time gave
        original, calls = st.evaluate_grid, []
        scan = st.min_coaxial_eig

        def steep_past_two(vf, Js):
            table = original(vf, Js)
            if vf == catalog()[2]:
                table[Js > 2.0] = -1e5
            return table

        def recorded(kind, vf, cells, *args):
            nus = [p.nu for p in cells] if isinstance(cells, list) else cells.nu
            calls.append((kind, vf.label, nus, *args[1:]))
            return scan(kind, vf, cells, *args)

        monkeypatch.setattr(st, "evaluate_grid", steep_past_two)
        monkeypatch.setattr(st, "min_coaxial_eig", recorded)
        message = "the minimum csp stability value overflows at modulus mu = 1e+300"
        err = run_rejected(capsys, *"stability --grid-n 4 --nu-set paper --mu 1e300".split())
        assert err == f"nhcomp: error: {message}\n"
        # the batch fails, and its cells one at a time fail at nu = 0.4
        batch = ("mixed", "2", list(materials.PAPER_NUS[1:]), "csp")
        assert calls[-3:] == [batch, ("mixed", "2", 0.25, "csp"), ("mixed", "2", 0.4, "csp")]
        vf, grid = catalog()[2], st.stretch_grid(4)
        scan("mixed", vf, materials.params_from_mu_nu(1e300, 0.0), grid, "csp")
        cells = [materials.params_from_mu_nu(1e300, nu) for nu in batch[2]]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scan("mixed", vf, cells, grid, "csp")

    def test_a_verdict_that_fails_before_a_later_cells_scan_error_wins(self, capsys, monkeypatch):
        # one cell at a time, the cell at nu = 0.25 reaches its verdict,
        # which fails at -inf, before the next cell's scan fails; a batch
        # that raises is scanned again one cell at a time to keep that order
        def scan(kind, volfun, params, grid, contraction):
            if isinstance(params, list):
                raise ValueError("a later cell's scan fails")
            if params.nu < 0.4:
                return (-math.inf if params.nu else 1.0), 0, np.ones(3)
            raise ValueError("a later cell's scan fails")

        monkeypatch.setattr(st, "min_coaxial_eig", scan)
        err = run_rejected(capsys, *"stability --model voliso --volfun 2 --nu-set paper".split())
        assert err == "nhcomp: error: stability value -inf at scale 1.0 has no sign verdict\n"

    def test_cells_with_no_volumetric_term_scan_once_per_contraction(self, capsys, monkeypatch):
        # the mixed cells at nu = 0 of every volfun share the first volfun's
        # scan; every row equals a scan of its cell alone
        calls = []
        scan = st.min_coaxial_eig

        def recorded(kind, vf, cells, *args):
            calls.append((kind, vf.label, [p.nu for p in cells]))
            return scan(kind, vf, cells, *args)

        monkeypatch.setattr(st, "min_coaxial_eig", recorded)
        code, rows, _ = run(capsys, *"stability --grid-n 4 --nu-set paper --mu 2.5".split())
        assert code == 0 and len(rows) == 192 and len(calls) == 32
        nus = list(materials.PAPER_NUS)
        assert [nu for kind, label, nu in calls if kind == "mixed"] == 2 * ([nus] + 7 * [nus[1:]])
        assert all(nu == nus for kind, _, nu in calls if kind == "voliso")
        grid = st.stretch_grid(4)
        for row in rows:
            params = materials.params_from_mu_nu(2.5, float(row["nu"]))
            vf = catalog()[int(row["volfun"])]
            value, i, _ = scan(row["model"], vf, params, grid, row["contraction_kind"])
            assert (float(row["value"]), float(row["J"])) == (value, float(np.prod(grid[i])))

    def test_stability_value_overflow_exits_one(self, capsys):
        err = run_rejected(capsys, *"stability --mu 1e307 --nu 0.3 --grid-n 5".split())
        assert "overflows at modulus mu = 1e+307" in err


class TestTangentCheck:
    def test_errors_are_small_for_both_kinds(self, capsys):
        code, rows, _ = run(capsys, *"tangent-check --volfun 3 --nu 0.3".split())
        assert code == 0
        assert {r["model"] for r in rows} == {"mixed", "voliso"}
        for r in rows:
            assert float(r["max_rel_error"]) < 1e-6

    def test_all_expands_to_sixteen_rows(self, capsys):
        _, rows, _ = run(capsys, *"tangent-check --nu 0.25 --motions 2".split())
        assert len(rows) == 16

    def test_nu_is_required(self, capsys):
        assert cli.main(["tangent-check"]) == 1

    @pytest.mark.parametrize("motions", ("0", "-1"))
    def test_motions_below_one_exits_one(self, capsys, motions):
        code, rows, err = run(capsys, "tangent-check", "--nu", "0.3", "--motions", motions)
        assert code == 1 and rows == []
        assert f"--motions: must be between 1 and 1000, got {motions}" in err

    def test_motions_above_one_thousand_exits_one(self, capsys):
        # every motion is held for the run, so the count is bounded
        err = run_rejected(capsys, *"tangent-check --nu 0.3 --motions 1001".split())
        assert "--motions: must be between 1 and 1000, got 1001" in err

    def test_error_does_not_depend_on_the_modulus_scale(self, capsys):
        # mu = m 2^e: the parent printed about 1e-299 at mu = 1e-300
        argv = "tangent-check --volfun 1 --nu 0.3 --motions 2 --mu".split()
        m = math.frexp(1e-300)[0]
        _, tiny, _ = run(capsys, *argv, "1e-300")
        _, mantissa, _ = run(capsys, *argv, repr(m))
        assert tiny == mantissa
        assert all(1e-14 < float(r["max_rel_error"]) < 1e-6 for r in tiny)

    def test_all_volfuns_share_one_motion_set(self, capsys, monkeypatch):
        # the parent drew and decomposed the same 10 motions for each of 16 models
        calls = []
        original = st.rate_from_motion

        def counting(F, Fdot):
            calls.append(1)
            return original(F, Fdot)

        monkeypatch.setattr(st, "rate_from_motion", counting)
        st._fd_motions.cache_clear()
        code, rows, _ = run(capsys, *"tangent-check --volfun all --nu 0.3".split())
        assert code == 0 and len(rows) == 16
        assert len(calls) == 10


class TestTableRepro:
    def test_every_cell_of_table_four_matches(self, capsys):
        code, rows, _ = run(capsys, *"table-repro --table 4".split())
        assert code == 0
        cells = {}
        for r in rows:
            key = (r["model"], r["volfun"], r["quantity"], r["direction"])
            cells.setdefault(key, {"expected": r["expected"], "matches": []})
            cells[key]["matches"].append(r["match"])
        assert len(cells) == 48
        for key, cell in cells.items():
            assert "yes" in cell["matches"], key

    def test_quadratic_voliso_constant_is_minus_three_halves_K(self, capsys):
        _, rows, _ = run(capsys, *"table-repro --table 4".split())
        picked = [
            r
            for r in rows
            if r["model"] == "voliso"
            and r["volfun"] == "7"
            and r["quantity"] == "sigma11"
            and r["direction"] == "to_zero"
        ]
        assert len(picked) == 3
        for r in picked:
            nu = float(r["nu"])
            K = 2 * (1 + nu) / (3 * (1 - 2 * nu))
            assert r["expected"] == "-3K/2"
            assert r["match"] == "yes"
            assert float(r["constant"]) == pytest.approx(-1.5 * K, rel=0.01)

    def test_corrected_cells_carry_a_note(self, capsys):
        _, rows, _ = run(capsys, *"table-repro --table 6".split())
        corrected = [r for r in rows if "corrected" in r["note"]]
        assert len(corrected) == 18  # (sigma22 + P22) x (#4, #7, #8) x 3 ratios
        for r in corrected:
            assert r["expected"] == "0"
            assert r["match"] == "yes"

    def test_star_cells_have_no_match_flag(self, capsys):
        _, rows, _ = run(capsys, *"table-repro --table 6".split())
        stars = [r for r in rows if r["expected"] == "*"]
        assert stars and all(r["match"] == "" for r in stars)
        assert all(r["model"] == "mixed" and r["quantity"] == "sigma22" for r in stars)

    def test_solver_failure_at_a_probe_exits_two_with_unresolved_rows(self, capsys, monkeypatch):
        fail_at_probes(monkeypatch)
        code, rows, err = run(capsys, "table-repro", "--table", "4")
        assert code == 2 and err == ""
        assert len(rows) == 144
        assert all(r["observed"] == "unresolved" for r in rows)
        assert {r["match"] for r in rows} <= {"no", ""}

    def test_bad_table_id(self, capsys):
        assert cli.main(["table-repro", "--table", "5"]) == 1


class TestExtremeInputs:
    """Each ends with exit 0 and +-inf where a value leaves the float range,
    or with exit 1 and a message naming the input."""

    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    def test_family_parameter_beyond_one_million_exits_one(self, capsys, kind):
        err = run_rejected(
            capsys,
            *f"sweep --case ul --model {kind} --volfun hn:1e300 --nu 0.3 "
            "--lam-min 0.5 --lam-max 2 --points 2".split(),
        )
        assert "power-pair exponent q must be at most 1e+06 in absolute value, got 1e+300" in err

    def test_dilatation_stress_beyond_the_float_range_is_inf(self, capsys):
        code, rows, _ = run_clean(
            capsys, *"dilatation --model voliso --volfun hn:400 --nu 0.3 --points 3".split()
        )
        assert code == 0
        assert [(r["k"], r["sigma_m"], r["p"]) for r in rows[:2]] == [
            ("0.5", "-inf", "inf"),
            ("1", "0", "0"),
        ]
        assert math.isfinite(float(rows[2]["sigma_m"]))

    def test_stability_with_an_overflowing_volumetric_factor_is_quiet(self, capsys):
        code, rows, _ = run_clean(capsys, *"stability --grid-n 3 --volfun hn:400 --nu 0.3".split())
        assert code == 0 and len(rows) == 4
        assert all(r["verdict"] in ("positive", "negative") for r in rows)

    @pytest.mark.parametrize("bounds, k", ((("0.5", "1e200"), "5e+199"), (("1e-200", "0.5"), "1e-200")))
    def test_dilatation_volume_ratio_outside_the_float_range_exits_one(self, capsys, bounds, k):
        err = run_rejected(
            capsys,
            "dilatation", *"--model mixed --volfun 2 --nu 0.3 --points 3".split(),
            "--k-min", bounds[0], "--k-max", bounds[1],
        )
        assert f"nhcomp: error: dilatation stretch k = {k} puts J = k^3 outside the float range" in err

    @pytest.mark.parametrize("beta", ("1e-300", "-1e-300"))
    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    def test_tiny_log_augmented_beta_is_volfun_one(self, capsys, kind, beta):
        argv = f"sweep --case ul --model {kind} --nu 0.3 --lam-min 0.5 --lam-max 2 --points 5 --volfun"
        code, _, _ = run_clean(capsys, *argv.split(), f"ogden:{beta}")
        assert code == 0
        assert csv_bytes(capsys, f"{argv} ogden:{beta}") == csv_bytes(capsys, f"{argv} 1")

    @pytest.mark.parametrize("points", ("1000001", "100000000000"))
    @pytest.mark.parametrize(
        "argv",
        (
            "sweep --case ul --model mixed --volfun 2 --nu 0.3 --lam-min 0.5 --lam-max 2",
            "dilatation --model mixed --volfun 2 --nu 0.3",
        ),
        ids=("sweep", "dilatation"),
    )
    def test_points_beyond_one_million_exit_one(self, capsys, argv, points):
        err = run_rejected(capsys, *argv.split(), "--points", points)
        assert f"argument --points: must be between 1 and 1000000, got {points}" in err

    def test_incompressible_stress_beyond_the_float_range_is_inf(self, capsys):
        code, rows, _ = run_clean(
            capsys,
            *"sweep --case ul --model inc --lam-min 1e-200 --lam-max 1e200 --points 3 --log".split(),
        )
        assert code == 0
        assert [(r["sigma11"], r["P11"]) for r in rows] == [
            ("-9.9999999999999997e+199", "-inf"),
            ("0", "0"),
            ("inf", "9.9999999999999997e+199"),
        ]

    @pytest.mark.parametrize(
        "argv",
        (
            "sweep --case ul --model mixed --volfun 2 --lam-min 0.5 --lam-max 2 --points 2",
            "stability --grid-n 2 --volfun 2",
        ),
        ids=("sweep", "stability"),
    )
    def test_subnormal_inputs_exit_one(self, capsys, argv):
        err = run_rejected(capsys, *argv.split(), "--nu", "5e-324")
        assert "Poisson's ratio nu = 5e-324 is subnormal" in err
        if argv.startswith("sweep"):
            err = run_rejected(capsys, *argv.replace("0.5", "1e-310").split(), "--nu", "0.3")
            assert "stretch 1e-310 is subnormal" in err


# ±0, subnormals, the ends of the float range, nan, inf and any other float
_NUMBERS = hst.one_of(
    hst.sampled_from(
        ("0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300", "1e300",
         "-1e300", "nan", "inf", "-inf")
    ),
    hst.floats().map(repr),
)


def _number(*admissible):
    """One of ``admissible`` three times in four, otherwise any number."""
    return hst.integers(0, 3).flatmap(
        lambda i: _NUMBERS if i == 0 else hst.sampled_from(admissible)
    )


_NU = _number("0", "0.3", "0.45", "0.4999", "-0.5")
_STRETCH = _number("1e-300", "1e-6", "0.5", "1", "2", "1e6", "1e300")
_MODULUS = _number("1", "2.5", "1e-300", "1e300")
_VOLFUNS = hst.one_of(
    hst.sampled_from(("1", "2", "5", "7", "8", "hn:400", "hn:1e6", "ogden:-1e6", "ogden:1e-300")),
    _number("0", "1e-300", "0.5", "3", "400", "1e6").map("hn:{}".format),
    _number("-1e-300", "1e-12", "-2", "0.5", "-400", "1e6").map("ogden:{}".format),
)


@hst.composite
def _argvs(draw):
    """One subcommand with drawn numeric flags, small grids and few points."""
    sub = draw(hst.sampled_from(("sweep", "limits", "dilatation", "stability", "tangent-check")))
    argv = [sub]
    if sub in ("sweep", "limits"):
        argv.append("--case=" + draw(hst.sampled_from(hs.CASES)))
    if sub == "stability":
        argv += [f"--model={draw(hst.sampled_from(('mixed', 'voliso', 'both')))}",
                 f"--grid-n={draw(hst.integers(1, 3))}"]
    elif sub == "tangent-check":
        argv.append(f"--motions={draw(hst.integers(1, 2))}")
    else:
        kinds = ("mixed", "voliso") if sub == "limits" else ("inc", "mixed", "voliso")
        argv.append("--model=" + draw(hst.sampled_from(kinds)))
    if argv[-1] != "--model=inc":
        argv += [f"--volfun={draw(_VOLFUNS)}", f"--nu={draw(_NU)}"]
    if sub in ("sweep", "dilatation"):
        lo, hi = sorted(draw(hst.lists(_STRETCH, min_size=2, max_size=2)), key=_as_float)
        flag = "lam" if sub == "sweep" else "k"
        argv += [f"--{flag}-min={lo}", f"--{flag}-max={hi}", f"--points={draw(hst.integers(1, 3))}"]
        if sub == "sweep" and draw(hst.booleans()):
            argv.append("--log")
    moduli = ("--mu", "--E", None) if sub in ("sweep", "limits", "dilatation") else ("--mu", None)
    modulus = draw(hst.sampled_from(moduli))
    if modulus:
        argv.append(f"{modulus}={draw(_MODULUS)}")
    return argv


def _as_float(text):
    value = float(text)
    return -math.inf if math.isnan(value) else value


@settings(max_examples=200)
@given(argv=_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    """Exit 0, 1 or 2 with no traceback and no RuntimeWarning; no converged
    row holds a nan, and no verdict is nan."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Traceback" not in err.getvalue()
    for row in csv.DictReader(io.StringIO(out.getvalue())):
        if row.get("converged") == "true":
            assert "nan" not in row.values(), row
        assert row.get("verdict") != "nan"


def test_module_entry_point_runs_in_a_subprocess():
    # the child imports the same nhcomp package as this process, installed or not
    src = os.path.dirname(os.path.dirname(nhcomp.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "nhcomp.cli", "audit-volfun"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("volfun,")
    assert len(proc.stdout.splitlines()) == 9


# Run in a fresh interpreter: import nhcomp.cli, run one argv (if any), and
# print which of the package's layers, numpy and numpy.random are loaded.
_LOADED_AFTER = """
import contextlib, io, json, sys
import nhcomp.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert nhcomp.cli.main(argv) == 0
names = ("numpy", "numpy.random", "materials", "volfun", "homsolve", "stability", "kinematics")
print(" ".join(n for n in names if (n if n.startswith("numpy") else "nhcomp." + n) in sys.modules))
"""

_BASE = "numpy materials volfun"
_SOLVER = f"{_BASE} homsolve"
_STABILITY = f"{_BASE} stability kinematics"
_SWEEP = "sweep --case ul --model mixed --volfun 4 --nu 0.3 --lam-min 0.5 --lam-max 2 --points 3"
_LAYERS_LOADED = {
    "import": ("", _BASE),
    "audit-volfun": ("audit-volfun", _BASE),
    "sweep": (_SWEEP, _SOLVER),
    "limits": ("limits --case elp --model voliso --volfun 2 --nu 0.3", _SOLVER),
    "dilatation": ("dilatation --model voliso --volfun 2 --nu 0.3 --points 3", _SOLVER),
    "table-repro": ("table-repro --table 4", _SOLVER),
    "stability": ("stability --volfun 1 --nu 0.3 --grid-n 2", _STABILITY),
    "tangent-check": ("tangent-check --volfun 1 --nu 0.3 --motions 1", _STABILITY),
    "tangent-check-default": ("tangent-check --volfun 1 --nu 0.3", _STABILITY),
    "tangent-check-1000": ("tangent-check --volfun 1 --nu 0.3 --motions 1000", _STABILITY),
}


@pytest.mark.parametrize("argv, loaded", _LAYERS_LOADED.values(), ids=_LAYERS_LOADED.keys())
def test_each_subcommand_imports_only_the_layers_it_runs(argv, loaded):
    # the solver and the stability layer load in the subcommands that run
    # them, so neither is paid for by the other's commands or by --help;
    # no subcommand loads numpy.random (tangent-check reads its motions
    # from a table)
    src = os.path.dirname(os.path.dirname(nhcomp.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argv.split())],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy.random" not in proc.stdout.split()
    assert proc.stdout.split() == loaded.split()


def test_the_case_names_are_stated_once():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    for name in ("sweep", "limits"):
        case = next(a for a in sub.choices[name]._actions if a.dest == "case")
        assert case.choices is materials.CASES
    assert hs.CASES is materials.CASES


class TestSharedParser:
    """``main`` builds its parser once per process; no call leaks into the next."""

    SWEEP = "sweep --case ul --model mixed --volfun 4 --nu 0.3 --lam-min 0.5 --lam-max 2 --points 5"

    @pytest.fixture(scope="class")
    def child_sweep(self):
        """The CSV bytes of SWEEP from ``python -m nhcomp.cli`` in a fresh process."""
        src = os.path.dirname(os.path.dirname(nhcomp.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "nhcomp.cli", *self.SWEEP.split()],
            capture_output=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        return proc.stdout

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_in_process_bytes_equal_the_module_entry_point(self, capsys, child_sweep):
        assert csv_bytes(capsys, self.SWEEP).encode() == child_sweep

    def test_a_usage_error_leaves_nothing_behind(self, capsys, child_sweep):
        bad = self.SWEEP.replace("--points 5", "--log --nu-set paper --points 0")
        assert cli.main(bad.split()) == 1
        capsys.readouterr()
        assert csv_bytes(capsys, self.SWEEP).encode() == child_sweep

    def test_a_given_flag_does_not_become_the_next_default(self, capsys):
        base = "dilatation --model mixed --volfun 1 --nu 0.3"
        code, rows, _ = run(capsys, *base.split(), "--points", "3")
        assert code == 0 and len(rows) == 3
        code, rows, _ = run(capsys, *base.split())
        assert code == 0 and len(rows) == 101

    def test_help_text_is_the_same_twice(self, capsys):
        texts = []
        for _ in range(2):
            assert cli.main(["sweep", "--help"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "--lam-min" in texts[0]

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        cli._build_parser()
        built = []
        real_init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        csv_bytes(capsys, self.SWEEP)
        assert cli.main(["audit-volfun"]) == 0
        capsys.readouterr()
        assert built == []
