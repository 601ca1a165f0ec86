"""The library's boundary checks: each bad input raises ``ValueError`` with
its message, before any arithmetic can warn (RuntimeWarning is an error
under the suite's ``filterwarnings``)."""

from dataclasses import replace

import numpy as np
import pytest

from nhcomp import homsolve as hs
from nhcomp import stability as st
from nhcomp.kinematics import kinematics_from_F, rate_from_motion
from nhcomp.materials import ModelSpec, cauchy_stress, params_from_mu_nu
from nhcomp.volfun import VolFun, catalog, evaluate_grid

QUAD = catalog()[7]
MIXED = ModelSpec.mixed(QUAD, 1.0, 0.3)
INC = ModelSpec.incompressible(1.0)
PARAMS = params_from_mu_nu(1.0, 0.3)
STATE, RATE = rate_from_motion(np.diag([1.2, 0.9, 1.0]), np.diag([0.1, -0.2, 0.3]))

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
