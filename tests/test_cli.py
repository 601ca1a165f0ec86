"""End-to-end checks of the command-line front end.

Subcommands run in-process through ``cli.main`` so stdout/stderr can be
captured cheaply; one test goes through a real subprocess to cover the
module entry point.
"""

import csv
import hashlib
import io
import math
import subprocess
import sys
import warnings

import pytest

from nhcomp import cli
from nhcomp import homsolve as hs
from nhcomp.materials import ModelSpec, cauchy_stress
from nhcomp.volfun import VolFun

E_CONST = math.e


def run(capsys, *argv):
    """Invoke the CLI and return (exit_code, parsed_csv_rows, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out))) if captured.out else []
    return code, rows, captured.err


def run_rejected(capsys, *argv):
    """Invoke the CLI on a bad input; it must exit 1 cleanly. Returns stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rows, err = run(capsys, *argv)
    assert code == 1 and rows == []
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err and "Traceback" not in err
    return err


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

    def test_solver_failure_yields_exit_two_and_partial_csv(self, capsys, monkeypatch):
        def explode(case, model, lam, cfg=None):
            raise hs.SolveError("injected failure")

        monkeypatch.setattr(hs, "solve", explode)
        code, rows, _ = run(
            capsys,
            *"sweep --case ul --model mixed --volfun 2 --nu 0.3 "
            "--lam-min 0.5 --lam-max 2 --points 3".split(),
        )
        assert code == 2
        assert len(rows) == 3
        assert all(r["converged"] == "false" for r in rows)
        assert all(r["lambda_T"] == "nan" for r in rows)

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


class TestLogApprox:
    """``sweep --log-approx`` names the power pair hn:1/12 in place of volfun 1."""

    SWEEP = "sweep --nu 0.3 --lam-min 0.1 --lam-max 50 --points 25 --log"

    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    @pytest.mark.parametrize("case", hs.CASES)
    def test_is_the_power_pair_at_one_twelfth(self, capsys, case, kind):
        argv = f"{self.SWEEP} --case {case} --model {kind}"
        alias = csv_bytes(capsys, f"{argv} --volfun 1 --log-approx")
        assert alias == csv_bytes(capsys, f"{argv} --volfun hn:0.08333333333333333")

    # sha256 of the mixed-kind CSV recorded before --log-approx became an
    # alias; the mixed rows of both forms agree on this grid
    @pytest.mark.parametrize(
        "case, digest",
        (
            ("ul", "fa5f0d36288e57eca048112dd1f6c901d0c329e3e136f38f21e2eb63a59a6271"),
            ("elp", "9ae31fcb42d58142e31bdc3bfc4e4bd65464ff0418b7113932a562a96f5bf9db"),
            ("ulp", "59796688a09759d139ace559e0cd9c61e9c26ac79050d170ffda093afeb229a1"),
        ),
    )
    def test_mixed_output_bytes_are_unchanged(self, capsys, case, digest):
        out = csv_bytes(
            capsys,
            f"sweep --case {case} --model mixed --volfun 1 --nu 0.3 "
            "--lam-min 0.1 --lam-max 50 --points 11 --log-approx",
        )
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", ("ul", "elp"))
    def test_voliso_rows_are_equilibria_of_the_full_tensor_path(self, capsys, case):
        _, rows, _ = run(
            capsys, *f"{self.SWEEP} --case {case} --model voliso --volfun 1 --log-approx".split()
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

    @pytest.mark.parametrize(
        "flags, message",
        (
            ("--model mixed --volfun 5 --nu 0.3", "needs --volfun 1, got --volfun 5"),
            ("--model voliso --volfun hn:2 --nu 0.3", "needs --volfun 1, got --volfun hn:2"),
            ("--model inc", "does not apply to the incompressible kind"),
        ),
        ids=("volfun-5", "volfun-hn2", "inc"),
    )
    def test_other_models_exit_one(self, capsys, flags, message):
        err = run_rejected(
            capsys,
            *f"sweep --case ul --lam-min 0.5 --lam-max 2 --points 3 {flags} --log-approx".split(),
        )
        assert err.startswith("nhcomp: error: --log-approx ")
        assert message in err


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
        code, rows, err = run(capsys, "tangent-check", "--volfun", "3", "--nu", "0.3", "--jobs", jobs)
        assert code == 1 and rows == []
        assert "--jobs: must be >= 1" in err

    @pytest.mark.parametrize(
        "volfun, message",
        (
            ("hn:nan", "power-pair exponent q must be finite, got nan"),
            ("hn:inf", "power-pair exponent q must be finite, got inf"),
            ("ogden:inf", "log-augmented exponent beta must be finite, got inf"),
            ("ogden:nan", "log-augmented exponent beta must be finite, got nan"),
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
                "dilatation stretch bounds must be finite, got k-min = 0.5, k-max = inf",
            ),
        ),
        ids=("stability-mu", "sweep-mu", "sweep-E", "dilatation-k-max"),
    )
    def test_non_finite_modulus_or_bound_exits_one(self, capsys, argv, message):
        err = run_rejected(capsys, *argv.split())
        assert f"nhcomp: error: {message}" in err

    def test_jobs_is_ignored(self, capsys):
        argv = ["tangent-check", "--volfun", "3", "--nu", "0.3"]
        assert cli.main(argv) == 0
        one = capsys.readouterr().out
        assert cli.main([*argv, "--jobs", "3"]) == 0
        assert capsys.readouterr().out == one


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


    # sha256 of the CSV bytes recorded before the shear block was shared
    # between cells; the scan must reproduce them exactly
    @pytest.mark.parametrize(
        "argv, digest",
        (
            (
                "stability --grid-n 6 --nu-set paper --mu 1.3",
                "b87b7398021568c3aaa4ab762870e778388f041d6d68799b317efb076335e76d",
            ),
            (
                "stability --grid-n 5 --volfun hn:0.5 --nu 0.3",
                "aaf67581787d448840ca46cfd4a8d6ccda287d4ce84d90cc8a8349d3c0cbacd7",
            ),
        ),
    )
    def test_output_bytes_are_unchanged(self, capsys, argv, digest):
        assert cli.main(argv.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        assert f"--motions: must be >= 1, got {motions}" in err


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

    def test_bad_table_id(self, capsys):
        assert cli.main(["table-repro", "--table", "5"]) == 1


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nhcomp.cli", "audit-volfun"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("volfun,")
    assert len(proc.stdout.splitlines()) == 9
