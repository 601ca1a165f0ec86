"""The library's boundary checks: each bad input raises ``ValueError`` with
its message, before any arithmetic can warn (RuntimeWarning is an error
under the suite's ``filterwarnings``)."""

from dataclasses import replace

import numpy as np
import pytest

from nhcomp import homsolve as hs
from nhcomp import stability as st
from nhcomp.kinematics import rate_from_motion
from nhcomp.materials import ModelSpec, cauchy_stress, params_from_mu_lam, params_from_mu_nu
from nhcomp.volfun import catalog, evaluate_grid

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
    "dilatation-stretch": (
        lambda: hs.dilatation_response(MIXED, 0.0),
        "dilatation stretch must be positive",
    ),
    "voliso-nu": (
        lambda: ModelSpec("voliso", QUAD, replace(PARAMS, nu=-1.0)),
        "vol-iso kind requires -1 < nu < 1/2, got nu = -1.0",
    ),
    "params_from_mu_lam-mu": (
        lambda: params_from_mu_lam(0.0, 1.0),
        "shear modulus must be positive, got mu = 0.0",
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
