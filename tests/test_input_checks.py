"""The library's boundary checks: each bad input raises ``ValueError`` with
its message, before any arithmetic can warn (RuntimeWarning is an error
under the suite's ``filterwarnings``). At an extreme state the pointwise
functions return inf or NaN, or raise ``ValueError``, and leak no
warning."""

import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nhcomp import homsolve as hs
from nhcomp import stability as st
from nhcomp.kinematics import kinematics_from_F, rate_from_motion
from nhcomp.materials import (
    PAPER_NUS,
    ModelSpec,
    cauchy_stress,
    energy,
    linear_stress,
    params_from_E_nu,
    params_from_mu_nu,
)
from nhcomp.volfun import VolFun, catalog, evaluate_grid, parse_volfun

QUAD = catalog()[7]
MIXED = ModelSpec.mixed(QUAD, 1.0, 0.3)
INC = ModelSpec.incompressible(1.0)
PARAMS = params_from_mu_nu(1.0, 0.3)
STATE, RATE = rate_from_motion(np.diag([1.2, 0.9, 1.0]), np.diag([0.1, -0.2, 0.3]))
SHEAR = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # e1 e2 + e2 e1

CHECKS = {
    "unknown-case": (lambda: hs.volume_ratio("uniaxial", 1.5, 0.9), "load case must be one of"),
    "solve_incompressible-stretch": (
        lambda: hs.solve_incompressible("ul", 0.0),
        "axial stretch must be positive",
    ),
    "closed_form-stretch": (
        lambda: hs.closed_form_quadratic_mixed("ul", -1.0, PARAMS, QUAD),
        "axial stretch must be positive",
    ),
    # every public case entry point checks its stretches as solve does
    "solve_incompressible-inf-stretch": (
        lambda: hs.solve_incompressible("ul", np.inf),
        "axial stretch must be positive and finite, got lam = inf",
    ),
    **{
        f"closed_form-{case}-{lam:g}": (
            lambda case=case, lam=lam: hs.closed_form_quadratic_mixed(case, lam, PARAMS),
            message,
        )
        for case in hs.CASES
        for lam, message in (
            (np.inf, "axial stretch must be positive and finite, got lam = inf"),
            (np.nan, "axial stretch must be positive and finite, got lam = nan"),
            (1e200, "the closed form leaves the float range at lam = 1e\\+200"),
        )
    },
    # a negative first Lame constant can leave the quadratic with no real root
    **{
        f"closed_form-{case}-no-real-root": (
            lambda case=case: hs.closed_form_quadratic_mixed(case, 2.0, params_from_mu_nu(1.0, -0.5)),
            f"no real root at mu = 1 and first Lame constant -0.5 in case {case} at lam = 2.0",
        )
        for case in hs.CASES
    },
    "volume_ratio-negative-stretch": (
        lambda: hs.volume_ratio("ul", -1, 2),
        "axial stretch must be positive and finite, got lam = -1",
    ),
    "volume_ratio-nan-lamT": (
        lambda: hs.volume_ratio("elp", 2.0, np.nan),
        "transverse stretch must be positive and finite, got lamT = nan",
    ),
    **{
        f"case_F-{lam}": (
            lambda lam=lam: hs.case_F("ulp", lam, 1.0),
            f"axial stretch must be positive and finite, got lam = {lam}",
        )
        for lam in (0.0, -2.0, np.nan)
    },
    "case_F-zero-lamT": (
        lambda: hs.case_F("ul", 1.0, 0.0),
        "transverse stretch must be positive and finite, got lamT = 0.0",
    ),
    "solve-stretch": (lambda: hs.solve("elp", MIXED, 0.0), "axial stretch must be positive"),
    "solve-inf-stretch": (
        lambda: hs.solve("ul", MIXED, np.inf),
        "axial stretch must be positive and finite, got lam = inf",
    ),
    "solve-nan-stretch": (
        lambda: hs.solve("ul", MIXED, np.nan),
        "axial stretch must be positive and finite, got lam = nan",
    ),
    "solve-inc-inf-stretch": (
        lambda: hs.solve("ul", INC, np.inf),
        "axial stretch must be positive and finite, got lam = inf",
    ),
    "solve-zero-seed": (
        lambda: hs.solve("ul", MIXED, 2.0, seed_lamT=0.0),
        "continuation seed must be a positive finite stretch, got seed_lamT = 0.0",
    ),
    "solve-negative-seed": (
        lambda: hs.solve("ul", MIXED, 2.0, seed_lamT=-1.0),
        "got seed_lamT = -1.0",
    ),
    "solve-nan-seed": (
        lambda: hs.solve("ul", MIXED, 2.0, seed_lamT=np.nan),
        "got seed_lamT = nan",
    ),
    "solve-inf-seed": (
        lambda: hs.solve("ul", MIXED, 2.0, seed_lamT=np.inf),
        "got seed_lamT = inf",
    ),
    "residual-inf-stretch": (
        lambda: hs.residual("ul", MIXED, np.inf, 1.0),
        "axial stretch must be positive and finite, got lam = inf",
    ),
    "residual-inf-lamT": (
        lambda: hs.residual("ul", MIXED, 2.0, np.inf),
        "transverse stretch must be positive and finite, got lamT = inf",
    ),
    "residual-nan-lamT": (
        lambda: hs.residual("ul", MIXED, 2.0, np.nan),
        "transverse stretch must be positive and finite, got lamT = nan",
    ),
    "residual-zero-lamT": (
        lambda: hs.residual("ul", MIXED, 2.0, 0.0),
        "transverse stretch must be positive and finite, got lamT = 0.0",
    ),
    "dilatation-stretch": (
        lambda: hs.dilatation_response(MIXED, 0.0),
        "dilatation stretch must be positive",
    ),
    # nu is checked before E / (2 (1 + nu)) is formed, so nu = -1 divides
    # by nothing and no derived shear modulus takes the blame
    **{
        f"params_from_E_nu-nu={nu}": (
            lambda nu=nu: params_from_E_nu(1.0, nu),
            f"Poisson's ratio must lie in \\(-1, 1/2\\], got nu = {nu}",
        )
        for nu in (-1.0, -1.5, np.nan, np.inf)
    },
    # a shear modulus out of range from E / (2 (1 + nu)) is blamed on E and nu
    "params_from_E_nu-mu-overflows": (
        lambda: params_from_E_nu(1e308, -0.9),
        "Young's modulus E = 1e\\+308 at nu = -0.9 gives shear modulus mu = inf",
    ),
    "params_from_E_nu-mu-subnormal": (
        lambda: params_from_E_nu(1e-320, 0.3),
        "Young's modulus E = 1e-320 at nu = 0.3 gives a subnormal shear modulus mu = 3.844e-321",
    ),
    "params_from_E_nu-inc-mu-subnormal": (
        lambda: params_from_E_nu(1e-320, 0.5),
        "Young's modulus E = 1e-320 at nu = 0.5 gives a subnormal shear modulus",
    ),
    # so is a lam, K or mu + lam + K that overflows, though mu is finite
    **{
        f"params_from_E_nu-{key}-overflows": (
            lambda E=E: params_from_E_nu(E, 0.45),
            "^" + re.escape(f"{name} overflows to inf (E = {E}, nu = 0.45); use a smaller E") + "$",
        )
        for key, name, E in (
            ("lam", "first Lame constant lam", 1e308),
            ("K", "bulk modulus K", 5.5e307),
            ("stress-scale", "stress scale mu + lam + K", 3.5e307),
        )
    },
    **{
        f"{kind}-mu-subnormal": (
            lambda kind=kind: ModelSpec(
                kind, None if kind == "inc" else QUAD, params_from_mu_nu(1e-320, nu)
            ),
            "shear modulus mu = 1e-320 is subnormal; it must be at least 2.2250738585072014e-308",
        )
        for kind, nu in (("inc", 0.5), ("mixed", 0.3), ("voliso", 0.3))
    },
    "voliso-nu": (
        lambda: ModelSpec("voliso", QUAD, replace(PARAMS, nu=-1.0)),
        "vol-iso kind requires -1 < nu < 1/2, got nu = -1.0",
    ),
    "cauchy_stress-detF": (
        lambda: cauchy_stress(MIXED, np.diag([1.0, 1.0, -1.0])),
        "deformation gradient must have positive determinant, got -1.0",
    ),
    "oldroyd_rate-inc": (
        lambda: st.oldroyd_rate(INC, STATE, RATE),
        "oldroyd_rate is defined here for compressible kinds",
    ),
    "bh_rate-inc": (
        lambda: st.bh_rate(INC, STATE, RATE),
        "bh_rate is defined here for compressible kinds",
    ),
    "detA_identity-ratio": (lambda: st.detA_identity(1.0, 0.0, 2.0), "ratios must be positive"),
    "tangents-beyond-float-range": (
        lambda: st.tangents(
            ModelSpec.vol_iso(VolFun.power_pair(1000), 1.0, 0.3),
            kinematics_from_F(np.diag([0.8, 0.8, 0.75])),
        ),
        "the voliso kind with volfun hn:1000 has a stress or tangent beyond the float range",
    ),
    "min_coaxial_eig-inc-hill": (
        lambda: st.min_coaxial_eig("inc", QUAD, PARAMS, st.stretch_grid(2), "hill"),
        "unsupported kind 'inc'",
    ),
    "min_coaxial_eig-inc-csp": (
        lambda: st.min_coaxial_eig("inc", QUAD, PARAMS, st.stretch_grid(2), "csp"),
        "unsupported kind 'inc'",
    ),
    "min_coaxial_eig-contraction": (
        lambda: st.min_coaxial_eig("mixed", QUAD, PARAMS, st.stretch_grid(2), "oldroyd"),
        "unknown contraction 'oldroyd'",
    ),
    "min_coaxial_eig-empty-grid": (
        lambda: st.min_coaxial_eig("mixed", QUAD, PARAMS, np.empty((0, 3)), "hill"),
        "the stretch grid must be a nonempty \\(n, 3\\) array, got \\(0, 3\\)",
    ),
    "find_hill_violation-n0": (
        lambda: st.find_hill_violation("voliso", QUAD, n=0),
        "the stretch grid must be a nonempty",
    ),
    "min_coaxial_eig-1d-grid": (
        lambda: st.min_coaxial_eig("mixed", QUAD, PARAMS, np.ones(3), "csp"),
        "the stretch grid must be a nonempty \\(n, 3\\) array, got \\(3,\\)",
    ),
    "min_coaxial_eig-inf-stretch": (
        lambda: st.min_coaxial_eig("voliso", QUAD, PARAMS, [[np.inf, 1.0, 1.0]], "hill"),
        "the stretch grid must hold positive finite stretches",
    ),
    "min_coaxial_eig-negative-stretches": (
        lambda: st.min_coaxial_eig("mixed", QUAD, PARAMS, [[-1.0, -1.0, 1.0]], "hill"),
        "the stretch grid must hold positive finite stretches",
    ),
    "evaluate_grid-2d": (
        lambda: evaluate_grid(QUAD, np.ones((2, 2))),
        "expected a 1-D grid of volume ratios",
    ),
    "evaluate_grid-nonpositive": (
        lambda: evaluate_grid(QUAD, np.array([1.0, 0.0, 2.0])),
        "volume ratios must be positive",
    ),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_bad_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("converged", (0, 1, 2))
def test_non_monotone_needs_three_converged_rows(converged):
    # a zig-zag lamT whose rows count only while converged: with fewer
    # than three there is no direction change to report, and none at all
    # leaves nothing to take the magnitude of
    rows = [
        hs.SolveResult(lamT, 1.0, 0.0, 0.0, 0.0, 0.0, k < converged, 0.0)
        for k, lamT in enumerate((1.0, 2.0, 1.0, 2.0))
    ]
    assert hs.non_monotone_quantities(rows) == ()


@settings(max_examples=300)
@given(
    kind=hst.sampled_from(("mixed", "voliso")),
    nu=hst.sampled_from(PAPER_NUS),
    volfun=hst.sampled_from((*catalog().values(), parse_volfun("hn:5"))),
    log10_s=hst.floats(-300.0, 300.0),
    case=hst.sampled_from(hs.CASES),
)
def test_pointwise_functions_leak_no_warning_at_extreme_states(kind, nu, volfun, log10_s, case):
    # F = diag(s, 1, 1), with a stretching and a shear rate: each call
    # returns (inf and NaN allowed) or raises ValueError; a numpy warning
    # fails the test through the suite's filter
    model = ModelSpec(kind, volfun, params_from_mu_nu(1.0, nu))
    s = 10.0**log10_s
    F = np.diag([s, 1.0, 1.0])
    state, rate = rate_from_motion(F, np.diag([1.0, 0.5, 0.0]) @ F)
    shear = rate_from_motion(F, SHEAR @ F)[1]
    stress = cauchy_stress(model, F)
    rows = [hs.SolveResult(1.0, 1.0, *stress.cauchy[[0, 1], [0, 1]], 1.0, 1.0, True, 0.0)] * 3
    calls = [
        lambda: energy(model, F),
        lambda: stress.first_pk,
        lambda: stress.mean_stress,
        lambda: linear_stress(params_from_mu_nu(1e300, nu), s * np.eye(3), kind == "voliso"),
        lambda: st.tangents(model, state),
        lambda: hs.residual(case, model, s, 1.0),
        lambda: hs.residual(case, model, 1.0, s),
        lambda: hs.dilatation_response(model, s),
        lambda: hs.non_monotone_quantities(rows),
    ]
    for fn in (st.zj_rate, st.oldroyd_rate, st.bh_rate, st.hill_contraction, st.csp_contraction):
        calls += [partial(fn, model, state, rate), partial(fn, model, state, shear)]
    for call in calls:
        try:
            call()
        except ValueError:
            pass


@pytest.mark.parametrize("kind", ("mixed", "voliso"))
@pytest.mark.parametrize("contraction", ("hill", "csp"))
@pytest.mark.parametrize("mu", (1.0, 1e300))
def test_grid_scans_leak_no_warning_at_extreme_stretches(kind, contraction, mu):
    # stretches of 1e-150 and 1e150 beside a rest state: the scan returns
    # or raises ValueError
    grid = np.array([[1e-150, 1.0, 1.0], [1e150, 1.0, 1.0], [1.0, 1.0, 1.0]])
    nus = PAPER_NUS if kind == "mixed" else (-0.9, *PAPER_NUS)
    for nu in nus:
        params = params_from_mu_nu(mu, nu)
        for volfun in (*catalog().values(), parse_volfun("hn:5")):
            try:
                st.min_coaxial_eig(kind, volfun, params, grid, contraction)
            except ValueError:
                pass
