import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from nhcomp import _kernels as _k
from nhcomp import homsolve as hs
from nhcomp._kernels import load_case
from nhcomp.materials import ModelSpec, cauchy_stress, params_from_mu_nu
from nhcomp.volfun import VolFun, catalog, evaluate

MU = 2.53
NU = 0.34
LAM_REF = 5.37625
K_REF = 7.062916666666667

rng = np.random.default_rng(77113)


def mixed(vid, mu=MU, nu=NU):
    return ModelSpec.mixed(catalog()[vid], mu, nu)


def voliso(vid, mu=MU, nu=NU):
    return ModelSpec.vol_iso(catalog()[vid], mu, nu)


# the continuation ladder and the probe stretches of limit_probe, frozen
LADDER = {"to_zero": (0.5, 0.1, 1e-2, 1e-3), "to_infinity": (2.0, 10.0, 1e2, 1e3)}
PROBES = {"to_zero": (1e-4, 1e-5, 1e-6), "to_infinity": (1e4, 1e5, 1e6)}


def full_ladder_limit_probe(case, model, direction):
    """Reference ``limit_probe`` that always walks the continuation ladder.

    A frozen copy of the classification before the ladder became
    conditional: every probe is seeded by the ladder's roots.
    """
    quantities = ["lambda_T", "sigma11", "P11"]
    if case == "ulp":
        quantities += ["sigma22", "P22"]
    rows = hs.sweep(case, model, LADDER[direction] + PROBES[direction])[-3:]
    bad = next((r for r in rows if not r.converged), None)
    if bad is not None:
        mark = hs.LimitClass(
            "unresolved", note=f"solver failed at a probe: {bad.warning}", solver_failed=True
        )
        return {q: mark for q in quantities}
    return {q: hs._classify([getattr(r, q) for r in rows]) for q in quantities}


def class_bits(classes):
    """Each quantity's label, constant (as its exact bits), note and failure flag."""
    out = {}
    for q, lc in classes.items():
        constant = None if lc.constant is None else float(lc.constant).hex()
        out[q] = (lc.label, constant, lc.note, lc.solver_failed)
    return out


# every kind, case and catalog function at four stretches, after a vol-iso
# solve whose residual is rounding noise (about -3.6e-12) for tens of ulps
# of u = ln lamT below the float where it changes sign
BISECTION_GRID = [
    ("elp", ModelSpec.vol_iso(VolFun.power_pair(0.5), 1.0, 0.3), 0.03827494478516307),
    *(
        (case, ModelSpec(kind, vf, params_from_mu_nu(1.0, 0.3)), lam)
        for kind in ("mixed", "voliso")
        for case in hs.CASES
        for vf in catalog().values()
        for lam in (1e-5, 0.04, 3.0, 1e5)
    ),
]
BISECTION_IDS = [f"{c}-{m.kind}-{m.volfun.label}-{x:g}" for c, m, x in BISECTION_GRID]


def three_root_model():
    """Vol-iso quadratic (#7) at nu = 0.499999: its uniaxial compression
    probes at lam = 1e-4 and 1e-5 find three roots each, so the branch
    they report depends on the continuation seed."""
    return ModelSpec.vol_iso(catalog()[7], 1.0, 0.499999)


@pytest.mark.parametrize("case", hs.CASES)
def test_the_module_table_states_each_record(case):
    # the docstring's row of the case: its F, its eliminated stresses (one per
    # free axis) and its J, read at lam = 2, lamT = 3
    (row,) = [line for line in hs.__doc__.splitlines() if line.split()[:1] == [case]]
    _, F, eliminated, J = re.split(r"\s{2,}", row)
    names = {"diag": lambda *d: np.diag(d).astype(float), "lam": 2.0, "lamT": 3.0}
    np.testing.assert_array_equal(eval(F, names), hs.case_F(case, 2.0, 3.0))
    assert eliminated.count("=") == load_case(case).m
    assert eval(J, names) == hs.volume_ratio(case, 2.0, 3.0)


class TestIncompressibleClosedForms:
    def test_undeformed(self):
        for case in hs.CASES:
            r = hs.solve_incompressible(case, 1.0, mu=MU)
            assert r.lambda_T == 1.0
            assert r.J == 1.0
            assert r.sigma11 == 0.0
            assert r.P11 == 0.0

    def test_uniaxial_at_two(self):
        r = hs.solve_incompressible("ul", 2.0, mu=MU)
        assert r.lambda_T == pytest.approx(2.0**-0.5, rel=1e-15)
        assert r.sigma11 == pytest.approx(3.5 * MU, rel=1e-15)
        assert r.P11 == pytest.approx(1.75 * MU, rel=1e-15)
        assert r.sigma22 == 0.0
        assert r.P22 == 0.0

    def test_equibiaxial_at_two(self):
        r = hs.solve_incompressible("elp", 2.0, mu=MU)
        assert r.lambda_T == pytest.approx(2.0**-2, rel=1e-15)
        assert r.sigma11 == pytest.approx(3.9375 * MU, rel=1e-15)
        assert r.sigma22 == r.sigma11
        assert r.P11 == pytest.approx(1.96875 * MU, rel=1e-15)
        assert r.P22 == r.P11

    def test_plane_strain_at_two(self):
        r = hs.solve_incompressible("ulp", 2.0, mu=MU)
        assert r.lambda_T == 0.5
        assert r.sigma11 == pytest.approx(3.75 * MU, rel=1e-15)
        assert r.sigma22 == pytest.approx(0.75 * MU, rel=1e-15)
        assert r.P11 == pytest.approx(1.875 * MU, rel=1e-15)
        assert r.P22 == pytest.approx(0.75 * MU, rel=1e-15)

    def test_plane_strain_transverse_limit(self):
        # the second (held) direction carries +mu in the extreme
        r = hs.solve_incompressible("ulp", 1e6, mu=MU)
        assert r.sigma22 == pytest.approx(MU, rel=1e-11)
        assert r.P22 == pytest.approx(MU, rel=1e-11)

    def test_matches_full_stress_evaluation(self):
        model = ModelSpec.incompressible(MU)
        for case, lam in (("ul", 1.7), ("elp", 0.6), ("ulp", 2.4)):
            r = hs.solve_incompressible(case, lam, mu=MU)
            F = hs.case_F(case, lam, r.lambda_T)
            # the transverse constraint fixes the pressure
            if case == "ul":
                p = MU * (r.lambda_T**2 - 1.0)
            else:
                p = MU * (r.lambda_T**2 - 1.0)
            s = cauchy_stress(model, F, p=p)
            assert r.sigma11 == pytest.approx(s.cauchy[0, 0], rel=1e-12)
            assert r.P11 == pytest.approx(s.first_pk[0, 0], rel=1e-12)


    @pytest.mark.parametrize("lam", (1e-200, 1e200, 5e-324))
    def test_stresses_beyond_the_float_range_are_inf(self, lam):
        for case in hs.CASES:
            r = hs.solve_incompressible(case, lam, mu=MU)
            assert r.converged and not any(map(math.isnan, (r.sigma11, r.sigma22, r.P11, r.P22)))
            assert math.isinf(r.P11) or math.isinf(r.sigma11)


class TestResidual:
    def test_zero_poisson_keeps_transverse_stretch_one(self):
        for vid in range(1, 9):
            model = mixed(vid, nu=0.0)
            for case in hs.CASES:
                for lam in (0.3, 1.0, 2.5):
                    assert hs.residual(case, model, lam, 1.0) == 0.0

    def test_undeformed_state(self):
        for vid in (2, 7):
            assert hs.residual("ul", voliso(vid), 1.0, 1.0) == 0.0
            assert hs.residual("elp", voliso(vid), 1.0, 1.0) == 0.0

    def test_vanishes_at_incompressible_root_as_nu_rises(self):
        lam = 2.0
        lamT_inc = lam**-0.5
        prev = math.inf
        for nu in (0.45, 0.499, 0.4999):
            model = mixed(2, mu=1.0, nu=nu)
            prm = model.params
            rel = abs(hs.residual("ul", model, lam, lamT_inc)) / (prm.mu + prm.lam + prm.K)
            assert rel < prev
            prev = rel
        assert prev < 1e-4

    def test_incompressible_has_no_residual(self):
        with pytest.raises(ValueError):
            hs.residual("ul", ModelSpec.incompressible(MU), 2.0, 1.0)

    def test_rejects_nonpositive_stretch(self):
        with pytest.raises(ValueError):
            hs.residual("ul", mixed(1), -1.0, 1.0)


class TestQuadraticClosedForm:
    def test_undeformed_root(self):
        prm = params_from_mu_nu(MU, NU)
        for case in hs.CASES:
            assert hs.closed_form_quadratic_mixed(case, 1.0, prm) == pytest.approx(1.0, rel=1e-14)

    def test_zero_poisson_reduces_to_one(self):
        prm = params_from_mu_nu(MU, 0.0)
        for case in hs.CASES:
            assert hs.closed_form_quadratic_mixed(case, 2.0, prm) == pytest.approx(1.0, rel=1e-14)

    def test_uniaxial_radical_frozen(self):
        prm = params_from_mu_nu(1.0, 0.25)  # lame lambda = 1
        assert prm.lam == pytest.approx(1.0, rel=1e-14)
        lamT = hs.closed_form_quadratic_mixed("ul", 2.0, prm)
        assert lamT == pytest.approx(math.sqrt((1.0 + math.sqrt(17.0)) / 8.0), rel=1e-14)
        assert lamT == pytest.approx(0.80024259, abs=5e-8)

    def test_solver_agrees_with_radical(self):
        prm = params_from_mu_nu(1.0, 0.25)
        model = ModelSpec.mixed(catalog()[7], 1.0, 0.25)
        for case in hs.CASES:
            want = hs.closed_form_quadratic_mixed(case, 2.0, prm)
            got = hs.solve(case, model, 2.0).lambda_T
            assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_other_volfun(self):
        with pytest.raises(ValueError):
            hs.closed_form_quadratic_mixed("ul", 2.0, params_from_mu_nu(MU, NU), catalog()[1])


class TestSolve:
    def test_undeformed_every_model(self):
        for vid in range(1, 9):
            for model in (mixed(vid), voliso(vid)):
                r = hs.solve("ul", model, 1.0)
                assert r.converged
                assert r.lambda_T == pytest.approx(1.0, abs=1e-12)
                for v in (r.sigma11, r.sigma22, r.P11, r.P22):
                    assert abs(v) <= 1e-10 * MU

    def test_routes_incompressible(self):
        model = ModelSpec.incompressible(MU)
        r = hs.solve("elp", model, 1.5)
        want = hs.solve_incompressible("elp", 1.5, mu=MU)
        assert r == want

    def test_eliminated_stresses_vanish(self):
        for vid in (1, 4, 6, 8):
            for model in (mixed(vid), voliso(vid)):
                for case, lam in (("ul", 1.9), ("elp", 0.55), ("ulp", 3.1)):
                    r = hs.solve(case, model, lam)
                    assert r.converged
                    sig = cauchy_stress(model, hs.case_F(case, lam, r.lambda_T)).cauchy
                    bound = 1e-10 * (abs(r.sigma11) + MU)
                    assert abs(sig[2, 2]) <= bound
                    if case == "ul":
                        assert abs(sig[1, 1]) <= bound

    def test_first_pk_relations(self):
        model = voliso(3)
        r = hs.solve("ulp", model, 2.2)
        assert r.P11 == pytest.approx(r.lambda_T * r.sigma11, rel=1e-12)
        assert r.P22 == pytest.approx(r.J * r.sigma22, rel=1e-12)
        r = hs.solve("ul", model, 2.2)
        assert r.P11 == pytest.approx(r.lambda_T**2 * r.sigma11, rel=1e-12)

    def test_volumetric_trace_shortcut(self):
        for vid in (2, 5, 8):
            model = voliso(vid, nu=0.3)
            for case, factor in (("ul", 3.0), ("elp", 1.5)):
                r = hs.solve(case, model, 1.8)
                want = factor * model.params.K * evaluate(model.volfun, r.J).hp
                assert r.sigma11 == pytest.approx(want, rel=1e-8)
                direct = cauchy_stress(model, hs.case_F(case, 1.8, r.lambda_T)).cauchy
                assert r.sigma11 == pytest.approx(float(direct[0, 0]), rel=1e-8)

    def test_failed_trace_cross_check_raises(self, monkeypatch):
        class Doubled:
            def __init__(self, stress):
                self.cauchy = 2.0 * stress.cauchy

        monkeypatch.setattr(hs, "cauchy_stress", lambda model, F: Doubled(cauchy_stress(model, F)))
        with pytest.raises(hs.SolveError, match="failed the cross-check") as err:
            hs.solve("ul", voliso(2), 1.8)
        assert err.value.diagnostics["lam"] == 1.8
        # raised after a bracket was picked: it counts the scan's brackets,
        # and sweep's NaN row copies the count
        for model, lam, roots in ((voliso(2), 1.8, 1), (three_root_model(), 1e-4, 3)):
            with pytest.raises(hs.SolveError, match="failed the cross-check") as err:
                hs.solve("ul", model, lam)
            assert err.value.diagnostics["roots_found"] == roots
            (row,) = hs.sweep("ul", model, [lam])
            assert (row.converged, row.roots_found) == (False, roots)
        # the mixed kind and the ulp case never take the shortcut
        assert hs.solve("ul", mixed(2), 1.8).converged
        assert hs.solve("ulp", voliso(2), 1.8).converged

    def test_assembly_matches_tensor_evaluation(self):
        for vid in (1, 6):
            for model in (mixed(vid), voliso(vid)):
                for case, lam in (("ul", 2.3), ("elp", 0.7), ("ulp", 1.6)):
                    r = hs.solve(case, model, lam)
                    s = cauchy_stress(model, hs.case_F(case, lam, r.lambda_T))
                    pairs = [
                        (r.sigma11, s.cauchy[0, 0]),
                        (r.sigma22, s.cauchy[1, 1]),
                        (r.P11, s.first_pk[0, 0]),
                        (r.P22, s.first_pk[1, 1]),
                    ]
                    for got, want in pairs:
                        assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9 * MU)

    def test_quadratic_voliso_strong_compression(self):
        model = voliso(7, mu=1.0, nu=0.3)
        r = hs.solve("ul", model, 1e-6)
        assert r.converged
        assert r.sigma11 == pytest.approx(-3.0 * model.params.K, rel=0.01)

    def test_zero_poisson_mixed_exact(self):
        lam = 1.7
        for vid in (1, 4, 7, 8):
            model = mixed(vid, nu=0.0)
            r = hs.solve("ul", model, lam)
            assert r.lambda_T == pytest.approx(1.0, abs=1e-12)
            want = MU * (lam - 1.0 / lam)
            assert r.sigma11 == pytest.approx(want, rel=1e-12)
            assert r.P11 == pytest.approx(want, rel=1e-12)

            r = hs.solve("elp", model, lam)
            assert r.sigma11 == pytest.approx(MU * (1.0 - lam**-2), rel=1e-12)
            assert r.P11 == pytest.approx(MU * (lam - 1.0 / lam), rel=1e-12)

            r = hs.solve("ulp", model, lam)
            assert abs(r.sigma22) <= 1e-12 * MU
            assert abs(r.P22) <= 1e-12 * MU
            assert r.sigma11 == pytest.approx(MU * (lam - 1.0 / lam), rel=1e-12)

    def test_residual_within_tolerance(self):
        model = mixed(3)
        r = hs.solve("ul", model, 2.0)
        prm = model.params
        assert abs(r.residual) <= 1e-12 * (prm.mu + prm.lam + prm.K)

    def test_near_incompressible_tracks_closed_forms(self):
        # at nu = 0.4999 every catalog model stays within 1% of the
        # incompressible solution over moderate stretches
        for case in hs.CASES:
            for lam in (0.5, 2.0):
                want = hs.solve_incompressible(case, lam, mu=MU)
                for vid in range(1, 9):
                    for model in (mixed(vid, nu=0.4999), voliso(vid, nu=0.4999)):
                        got = hs.solve(case, model, lam)
                        assert got.converged
                        assert got.lambda_T == pytest.approx(want.lambda_T, rel=0.01)
                        assert got.sigma11 == pytest.approx(want.sigma11, rel=0.01)
                        assert got.P11 == pytest.approx(want.P11, rel=0.01)

    def test_no_root_in_restricted_bracket(self):
        # at lam = 1e9 the equibiaxial root lies below lamT = 1e-12, outside
        # even the widened scan range
        model = ModelSpec.mixed(catalog()[1], 1.0, 0.3)
        with pytest.raises(hs.SolveError) as err:
            hs.solve("elp", model, 1e9)
        assert err.value.diagnostics["lam"] == 1e9

    def test_converged_bisection_evaluates_the_residual_once(self, monkeypatch):
        calls = []
        original = hs.residual

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hs, "residual", counted)
        model = mixed(3)
        r = hs.solve("ul", model, 2.0)
        prm = model.params
        assert abs(r.residual) <= 1e-12 * (prm.mu + prm.lam + prm.K)
        assert len(calls) == 1
        # every solve of the grid is bracketed and reports the residual at
        # its root, and only there
        for case, model, lam in BISECTION_GRID:
            calls.clear()
            hs.solve(case, model, lam)
            assert len(calls) == 1, (case, model, lam)

    @pytest.mark.parametrize("case, model, lam", BISECTION_GRID, ids=BISECTION_IDS)
    def test_lambda_T_is_the_bisection_root_at_a_sign_change(self, monkeypatch, case, model, lam):
        roots = []
        original = _k.bisect_log

        def recorded(*args):
            result = original(*args)
            roots.append((args, result))
            return result

        monkeypatch.setattr(_k, "bisect_log", recorded)
        r = hs.solve(case, model, lam)
        ((args, (u, width, _)),) = roots
        assert r.lambda_T == math.exp(u)
        # the scalar lane the bisection runs on, at the (mantissa) constants it got
        f = _k.residual_fn(*args[:8], scalar=True)

        def sign(x):
            v = f(float(np.exp(x)))
            assert not math.isnan(v)
            return (v > 0.0) - (v < 0.0)

        below, above = np.nextafter(u, -math.inf), np.nextafter(u, math.inf)
        if width == 0.0:  # an exact zero
            assert sign(u) == 0
        else:
            # the bracket closed at adjacent floats, and u is one of its ends
            assert width in (u - below, above - u)
            assert sign(u) == 0 or sign(below) != sign(u) or sign(u) != sign(above)

    def test_log_approx_mode_close_but_distinct(self):
        # J h' = 6 (J^(1/12) - J^(-1/12)) of the power pair at q = 1/12 is
        # the two-point power approximation of ln J (--volfun hn:0.08333333333333333)
        exact = hs.solve("ul", voliso(1, nu=0.3), 3.0)
        model = ModelSpec.vol_iso(VolFun.power_pair(1.0 / 12.0), MU, 0.3)
        approx = hs.solve("ul", model, 3.0)
        assert approx.converged
        assert approx.lambda_T == pytest.approx(exact.lambda_T, rel=1e-2)
        assert approx.lambda_T != exact.lambda_T


class TestRootsFound:
    def test_three_roots_in_uniaxial_compression_near_incompressibility(self):
        r = hs.solve("ul", three_root_model(), 1e-4)
        assert r.converged
        assert r.roots_found == 3
        assert r.warning == "3 residual roots in scan; picked the branch nearest the seed"

    def test_a_typical_solve_finds_one_root(self):
        r = hs.solve("ul", mixed(3), 2.0)
        assert (r.roots_found, r.warning) == (1, "")

    def test_incompressible_reports_one_root(self):
        model = ModelSpec.incompressible(MU)
        for case in hs.CASES:
            assert hs.solve(case, model, 0.3).roots_found == 1
            assert hs.solve_incompressible(case, 3.0, mu=MU).roots_found == 1

    def test_a_failed_sweep_row_reports_no_root(self):
        # the equibiaxial root at lam = 1e9 lies outside even the widened scan
        model = ModelSpec.mixed(catalog()[1], 1.0, 0.3)
        with pytest.raises(hs.SolveError, match="no sign change") as err:
            hs.solve("elp", model, 1e9)
        assert err.value.diagnostics["roots_found"] == 0
        row, ok = hs.sweep("elp", model, [1e9, 2.0])
        assert (row.converged, row.roots_found) == (False, 0)
        assert row.warning.startswith("no sign change")
        assert (ok.converged, ok.roots_found) == (True, 1)

    def test_a_warning_exactly_when_several_roots(self):
        counts = set()
        for vid, kind, nu in itertools.product(range(1, 9), ("mixed", "voliso"), (0.3, 0.499999)):
            model = ModelSpec(kind, catalog()[vid], params_from_mu_nu(1.0, nu))
            for case in hs.CASES:
                for lam in (*LADDER["to_zero"], *PROBES["to_zero"], *PROBES["to_infinity"]):
                    try:
                        r = hs.solve(case, model, lam)
                    except hs.SolveError as err:
                        assert err.diagnostics["roots_found"] == 0
                        continue
                    assert r.roots_found >= 1
                    assert (r.warning != "") == (r.roots_found > 1), (vid, kind, nu, case, lam)
                    counts.add(r.roots_found)
        assert {1, 3} <= counts


class TestSweep:
    def test_grid_specs(self):
        spec = hs.SweepSpec(0.1, 10.0, 5)
        np.testing.assert_allclose(spec.grid(), np.logspace(-1, 1, 5), rtol=1e-14)
        spec = hs.SweepSpec(1.0, 3.0, 3, log=False)
        np.testing.assert_allclose(spec.grid(), [1.0, 2.0, 3.0], rtol=1e-14)
        with pytest.raises(ValueError):
            hs.SweepSpec(-1.0, 2.0, 5)
        with pytest.raises(ValueError):
            hs.SweepSpec(1.0, 2.0, 0)

    def test_grid_messages_name_no_flag(self):
        # SweepSpec checks the stretch grids of sweep and dilatation alike
        with pytest.raises(ValueError, match=r"^stretch bounds must be finite, got 0.5 and inf$"):
            hs.SweepSpec(0.5, math.inf, 3)
        with pytest.raises(ValueError, match=r"^need 0 < smallest stretch <= largest stretch$"):
            hs.SweepSpec(2.0, 1.0, 3, log=False)
        with pytest.raises(ValueError, match=r"^stretch 5e-324 is subnormal \(below 2.2e-308\)$"):
            hs.SweepSpec(5e-324, 1.0, 3)
        np.testing.assert_array_equal(hs.SweepSpec(0.7, 0.9, 1, log=False).grid(), [0.7])

    def test_continuation_produces_converged_rows(self):
        lams = hs.SweepSpec(0.2, 5.0, 25).grid()
        results = hs.sweep("ul", voliso(4), lams)
        assert len(results) == len(lams)
        assert all(r.converged for r in results)
        lamTs = [r.lambda_T for r in results]
        assert all(np.isfinite(lamTs))

    @pytest.mark.parametrize("lams", ((1e-160, 1.0), (1e160, 1e180, 1e200)))
    def test_an_incompressible_root_beyond_the_float_range_seeds_nothing(self, lams):
        # the equibiaxial root lam^-2 is inf or 0.0 here, which is no seed;
        # every point is still the closed form's row
        model = ModelSpec.incompressible(MU)
        results = hs.sweep("elp", model, np.array(lams))
        assert results == [hs.solve_incompressible("elp", lam, mu=MU) for lam in lams]
        assert all(r.converged for r in results)
        assert not all(0.0 < r.lambda_T < math.inf for r in results)

    def test_quadratic_models_flag_non_monotone(self):
        lams = hs.SweepSpec(0.1, 10.0, 81).grid()
        for model in (mixed(7, nu=0.25), voliso(7, nu=0.25)):
            hits = hs.non_monotone_quantities(hs.sweep("ulp", model, lams))
            assert "P22" in hits
        hits = hs.non_monotone_quantities(hs.sweep("ul", voliso(7, nu=0.25), lams))
        assert "P11" in hits

    def test_power_models_monotonicity_map(self):
        # the only direction change for the steep volumetric functions is the
        # held-direction nominal stress in plane strain for the vol-iso kind:
        # P22 = mu J^(-2/3) (1 - lamT^2) rises from 0 but decays back toward 0
        # once volume growth outpaces the shrinking transverse stretch
        lams = hs.SweepSpec(0.1, 10.0, 41).grid()
        for vid in (4, 8):
            for model in (mixed(vid, nu=0.25), voliso(vid, nu=0.25)):
                for case in hs.CASES:
                    hits = hs.non_monotone_quantities(hs.sweep(case, model, lams))
                    if model.kind == "voliso" and case == "ulp":
                        assert hits == ("P22",), (vid, case, hits)
                    else:
                        assert hits == (), (vid, model.kind, case, hits)


def row_bits(rows):
    """Every field of each row, each float as its exact bits (NaN as 'nan')."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in astuple(r)) for r in rows]


# vol-iso #7 at nu = 0.49999, whose uniaxial scans in compression find
# three roots, after a model whose roots there are far from its own, so
# that another model's seed would pick another branch; a model whose
# equibiaxial root at lam = 1e9 lies outside the widened scan (SolveError);
# mixed nu = 0; and two moduli, so that neighbouring models share the
# scan's nu-free terms and miss them
LIST_MODELS = [
    ModelSpec.vol_iso(catalog()[7], 1.0, 0.25),
    ModelSpec.vol_iso(catalog()[7], 1.0, 0.49999),
    ModelSpec.mixed(catalog()[1], 1.0, 0.3),
    ModelSpec.mixed(catalog()[1], 1.0, 0.0),
    ModelSpec.mixed(catalog()[1], 1.0, 0.45),
    ModelSpec.vol_iso(catalog()[7], 2.53, 0.25),
]
LIST_GRID = (1e9, 2.0, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5)


class TestModelLists:
    @pytest.mark.parametrize("case", hs.CASES)
    def test_a_list_sweep_equals_one_sweep_per_model(self, case):
        got = hs.sweep(case, LIST_MODELS, LIST_GRID)
        want = [hs.sweep(case, model, LIST_GRID) for model in LIST_MODELS]
        assert [row_bits(rows) for rows in got] == [row_bits(rows) for rows in want]
        flat = [r for rows in got for r in rows]
        if case == "elp":
            assert any(not r.converged and r.warning.startswith("no sign change") for r in flat)
        if case == "ul":
            assert max(r.roots_found for r in got[1]) == 3

    def test_a_list_of_one_and_an_empty_list(self):
        (rows,) = hs.sweep("ul", LIST_MODELS[:1], LIST_GRID)
        assert row_bits(rows) == row_bits(hs.sweep("ul", LIST_MODELS[0], LIST_GRID))
        assert hs.sweep("ul", [], LIST_GRID) == []

    def test_the_lowest_index_models_value_error_is_raised_after_the_walk(self, monkeypatch):
        # model 2 fails at the first stretch and model 1 at the fourth; one
        # sweep per model meets model 1's error first, and so does the walk,
        # after every model has been solved as far as it goes
        real, calls = hs.solve, []
        fail_at = {0.45: 1e-3, 0.3: 2.0}

        def solve(case, model, lam, seed_lamT=1.0):
            calls.append((model.params.nu, lam))
            if fail_at.get(model.params.nu) == lam:
                raise ValueError(f"injected at nu = {model.params.nu}")
            return real(case, model, lam, seed_lamT)

        monkeypatch.setattr(hs, "solve", solve)
        models = [mixed(2, nu=0.25), mixed(2, nu=0.45), mixed(2, nu=0.3), mixed(2, nu=0.4)]
        grid = LIST_GRID[1:]
        with pytest.raises(ValueError, match=r"^injected at nu = 0.45$"):
            hs.sweep("ul", models, grid)
        assert calls.count((0.45, 1e-4)) == calls.count((0.3, 0.5)) == 0
        assert calls.count((0.25, 1e-5)) == calls.count((0.4, 1e-5)) == 1
        with pytest.raises(ValueError, match=r"^injected at nu = 0.45$"):
            for model in models:
                hs.sweep("ul", model, grid)
        # a stretch every model rejects stops each at once
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"got lam = -1.0$"):
            hs.sweep("ul", models, (2.0, -1.0, 0.5))

    @pytest.mark.parametrize("direction", ("to_zero", "to_infinity"))
    @pytest.mark.parametrize("case", hs.CASES)
    def test_a_list_limit_probe_equals_one_probe_per_model(self, case, direction):
        models = [three_root_model(), *LIST_MODELS, mixed(4)]
        got = hs.limit_probe(case, models, direction)
        want = [hs.limit_probe(case, model, direction) for model in models]
        assert [class_bits(c) for c in got] == [class_bits(c) for c in want]

    def test_only_a_multi_root_model_walks_its_ladder(self, monkeypatch):
        calls = []
        real = hs.sweep

        def sweep(case, models, lams):
            calls.append((len(models) if isinstance(models, list) else models, tuple(lams)))
            return real(case, models, lams)

        monkeypatch.setattr(hs, "sweep", sweep)
        models = [mixed(4), three_root_model(), voliso(2)]
        hs.limit_probe("ul", models, "to_zero")
        ladder = LADDER["to_zero"] + PROBES["to_zero"]
        assert calls == [(3, PROBES["to_zero"]), (models[1], ladder)]

    def test_an_incompressible_model_in_the_list_is_rejected(self):
        with pytest.raises(ValueError, match="incompressible"):
            hs.limit_probe("ul", [mixed(4), ModelSpec.incompressible(1.0)], "to_zero")


class TestLimitClassifier:
    def test_synthetic_triples(self):
        cl = hs._classify
        assert cl((1.0, 1.001, 1.0005)).label == "finite"
        assert cl((1.0, 1.001, 1.0005)).constant == pytest.approx(1.0005)
        assert cl((2.0, 30.0, 400.0)).label == "+inf"
        assert cl((-2.0, -30.0, -400.0)).label == "-inf"
        assert cl((0.4, 0.03, 0.002)).label == "0"
        assert cl((0.0, 0.0, 0.0)).label == "0"
        assert cl((1.0, 1.3, 1.7)).label == "+inf"
        assert cl((1.0, -2.0, 4.0)).label == "unresolved"
        assert cl((math.nan, 1.0, 1.0)).label == "unresolved"
        assert cl((5.0, math.inf, math.inf)).label == "+inf"
        assert cl((5.0, -math.inf, math.inf)).label == "unresolved"

    @pytest.mark.parametrize(
        "vals", ((1.0, 3.0, 9.0), (-2.0, -30.0, -400.0), (0.4, 0.03, 0.002), (1.0, -2.0, 4.0))
    )
    @pytest.mark.parametrize("k", (-1000, -600, 0, 600))
    def test_class_does_not_depend_on_a_power_of_two_scale(self, vals, k):
        # probes near 1e-300 must not read their signs from an underflowing product
        got = hs._classify([math.ldexp(v, k) for v in vals])
        assert got.label == hs._classify(vals).label

    def test_finite_wins_over_trend(self):
        # slow monotone approach to a constant must not read as growth
        assert hs._classify((3.0, 3.02, 3.021)).label == "finite"

    def test_str_forms(self):
        assert str(hs.LimitClass("+inf")) == "+inf"
        assert str(hs.LimitClass("finite", constant=2.5)) == "finite(2.5)"


class TestLimitProbe:
    def test_mixed_power5_compression(self):
        out = hs.limit_probe("ul", mixed(4), "to_zero")
        assert out["lambda_T"].label == "+inf"
        assert out["sigma11"].label == "-inf"
        assert out["P11"].label == "-inf"

    def test_voliso_log_extension(self):
        out = hs.limit_probe("ul", voliso(1), "to_infinity")
        assert out["lambda_T"].label == "+inf"
        assert out["sigma11"].label == "0"
        assert out["P11"].label == "0"

    def test_mixed_quadratic_compression_transverse_finite(self):
        out = hs.limit_probe("ul", mixed(7), "to_zero")
        assert out["lambda_T"].label == "finite"
        assert out["lambda_T"].constant == pytest.approx(1.0, abs=1e-3)

    def test_ulp_reports_extra_quantities(self):
        out = hs.limit_probe("ulp", mixed(7), "to_infinity")
        assert set(out) == {"lambda_T", "sigma11", "P11", "sigma22", "P22"}
        # held-direction nominal stress tends to +mu for every mixed model
        assert out["P22"].label == "finite"
        assert out["P22"].constant == pytest.approx(MU, rel=0.01)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            hs.limit_probe("ul", mixed(1), "sideways")

    def test_walks_the_ladder_only_when_a_probe_finds_several_roots(self, monkeypatch):
        calls = []
        real = hs.sweep

        def sweep(case, model, lams):
            calls.append(tuple(lams))
            return real(case, model, lams)

        monkeypatch.setattr(hs, "sweep", sweep)
        got = hs.limit_probe("ul", three_root_model(), "to_zero")
        assert calls == [PROBES["to_zero"], LADDER["to_zero"] + PROBES["to_zero"]]
        monkeypatch.undo()
        want = full_ladder_limit_probe("ul", three_root_model(), "to_zero")
        assert class_bits(got) == class_bits(want)
        # the seed matters here: without the ladder the first probe takes
        # another branch, and the classification would change
        alone = hs.sweep("ul", three_root_model(), PROBES["to_zero"])
        walked = hs.sweep("ul", three_root_model(), LADDER["to_zero"] + PROBES["to_zero"])
        assert alone[0].lambda_T != walked[4].lambda_T

        calls.clear()
        monkeypatch.setattr(hs, "sweep", sweep)
        hs.limit_probe("ul", mixed(4), "to_zero")
        assert calls == [PROBES["to_zero"]]

    def test_matches_the_full_ladder(self):
        # the catalog and both parametric families, both kinds, every case
        # and direction; only the three-root model above needs the ladder
        volfuns = [
            *catalog().values(),
            *map(VolFun.power_pair, (0.25, 2.0, 5.0)),
            *map(VolFun.log_augmented, (0.5, -0.5, 2.0, -2.0)),
        ]
        for vf, kind, nu in itertools.product(
            volfuns, ("mixed", "voliso"), (0.0, 0.25, 0.45, 0.4999, 0.499999)
        ):
            model = ModelSpec(kind, vf, params_from_mu_nu(1.0, nu))
            for case, direction in itertools.product(hs.CASES, PROBES):
                got = hs.limit_probe(case, model, direction)
                want = full_ladder_limit_probe(case, model, direction)
                assert class_bits(got) == class_bits(want), (vf.label, kind, nu, case, direction)

    @settings(max_examples=100)
    @given(
        volfun=hst.one_of(
            hst.just(catalog()[7]),
            hst.floats(0.25, 6.0).map(VolFun.power_pair),
            hst.tuples(hst.floats(0.1, 4.0), hst.sampled_from((-1.0, 1.0))).map(
                lambda t: VolFun.log_augmented(t[0] * t[1])
            ),
        ),
        # 0.5 - nu log-uniform in [1e-7, 1e-2]: three roots need nu >= 0.49999
        nu=hst.floats(-7.0, -2.0).map(lambda x: 0.5 - 10.0**x),
        case=hst.sampled_from(hs.CASES),
        direction=hst.sampled_from(tuple(PROBES)),
    )
    @example(catalog()[7], 0.499999, "ul", "to_zero")
    def test_matches_the_full_ladder_near_incompressibility(self, volfun, nu, case, direction):
        model = ModelSpec.vol_iso(volfun, 1.0, nu)
        got = hs.limit_probe(case, model, direction)
        assert class_bits(got) == class_bits(full_ladder_limit_probe(case, model, direction))

    def test_failed_probe_marks_every_quantity(self, monkeypatch):
        real = hs.solve

        def solve(case, model, lam, seed_lamT=1.0):
            if lam == 1e-6:
                raise hs.SolveError("injected failure")
            return real(case, model, lam, seed_lamT)

        monkeypatch.setattr(hs, "solve", solve)
        out = hs.limit_probe("ulp", mixed(2), "to_zero")
        assert set(out) == {"lambda_T", "sigma11", "P11", "sigma22", "P22"}
        for lc in out.values():
            assert (lc.label, lc.constant, lc.solver_failed) == ("unresolved", None, True)
            assert lc.note == "solver failed at a probe: injected failure"
        healthy = hs.limit_probe("ulp", mixed(2), "to_infinity")
        assert not any(lc.solver_failed for lc in healthy.values())


class TestDilatation:
    def test_undeformed(self):
        assert hs.dilatation_response(mixed(3), 1.0) == 0.0
        assert hs.dilatation_response(voliso(3), 1.0) == 0.0

    def test_voliso_is_volumetric_derivative(self):
        for vid in range(1, 9):
            model = voliso(vid)
            for k in (0.6, 1.3):
                want = model.params.K * evaluate(model.volfun, k**3).hp
                assert hs.dilatation_response(model, k) == want

    def test_mixed_quadratic_frozen(self):
        got = hs.dilatation_response(mixed(7), 2.0)
        assert got == pytest.approx(0.375 * MU + 7.0 * LAM_REF, rel=1e-14)

    def test_matches_mean_stress(self):
        for vid in range(1, 9):
            for model in (mixed(vid), voliso(vid)):
                for k in (0.5, 0.9, 1.1, 2.0):
                    want = cauchy_stress(model, k * np.eye(3)).mean_stress
                    got = hs.dilatation_response(model, k)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * MU)

    def test_rejects_incompressible(self):
        with pytest.raises(ValueError):
            hs.dilatation_response(ModelSpec.incompressible(MU), 1.1)

    @pytest.mark.parametrize("k", (1e-200, 1e-110, 1e103, 1e200))
    def test_volume_ratio_outside_the_float_range_is_rejected(self, k):
        with pytest.raises(ValueError, match=re.escape(f"k = {k:g} puts J = k^3 outside the float")):
            hs.dilatation_response(mixed(2), k)

    def test_stress_beyond_the_float_range_is_inf(self):
        # h'(1/8) of hn:400 is about -8^400 / 100; nu = 0 drops the mixed
        # volumetric term instead of multiplying 0 by inf
        hn400 = VolFun.power_pair(400.0)
        assert hs.dilatation_response(ModelSpec.vol_iso(hn400, MU, 0.3), 0.5) == -math.inf
        assert hs.dilatation_response(ModelSpec.mixed(hn400, MU, 0.3), 0.5) == -math.inf
        assert hs.dilatation_response(ModelSpec.mixed(hn400, MU, 0.0), 0.5) == MU * 8.0 * -0.75

    def test_volumetric_derivative_beyond_the_float_range_is_inf(self):
        # hn:1e6 at J = 1e303: the closed form divides J^q = inf by 2 q J =
        # inf, and the log-space form gives the exact h' = +inf
        model = ModelSpec.vol_iso(VolFun.power_pair(1e6), MU, 0.3)
        assert hs.dilatation_response(model, 1e101) == math.inf


class TestScanHelpers:
    def test_sign_brackets(self):
        us = np.array([0.0, 1.0, 2.0, 3.0])
        fs = np.array([1.0, -1.0, -2.0, 3.0])
        br = hs._sign_brackets(us, fs)
        assert [(a, b) for a, b, _ in br] == [(0.0, 1.0), (2.0, 3.0)]
        fs = np.array([2.0, 0.0, -3.0, math.nan])
        br = hs._sign_brackets(us, fs)
        assert br[0][0] == br[0][1] == 1.0

    @pytest.mark.parametrize("case", hs.CASES)
    def test_case_F_matches_the_astype_built_diagonal(self, case):
        # the diag(...).astype(float) form it replaces, in bits and layout
        for lam, lamT in ((1.7, 0.8), (np.float64(1e-6), 5e300), (3, 2), (1e308, 5e-324)):
            diagonal = {"ul": (lam, lamT, lamT), "elp": (lam, lam, lamT), "ulp": (lam, 1.0, lamT)}
            want = np.diag(diagonal[case]).astype(float)
            got = hs.case_F(case, lam, lamT)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
