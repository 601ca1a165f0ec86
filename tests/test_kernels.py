"""The array kernels agree with the scalar closed forms they are built from."""

import math

import numpy as np
import pytest

from nhcomp import _kernels as _k
from nhcomp import homsolve as hs
from nhcomp.volfun import VolFun, catalog, evaluate_grid

# the catalog covers all four families; (0, 5e-9) takes the power pair's
# (ln J)^2 / 2 branch below q = 1e-8 with a nonzero parameter
_FAMILIES = [(vf.family, vf.par) for vf in catalog().values()] + [(_k.FAMILY_HN, 5e-9)]


@pytest.mark.parametrize("family, par", _FAMILIES)
def test_h_grid_agrees_with_h_tuple_within_4_ulp(family, par):
    # array ** may round the last bit differently from the scalar power
    Js = np.logspace(-6, 6, 241)
    out = evaluate_grid(VolFun(family, par, "grid"), Js)
    want = np.array([_k.h_tuple(family, par, float(J)) for J in Js])
    np.testing.assert_array_max_ulp(out, want, maxulp=4)


@pytest.mark.parametrize("kind", (_k.KIND_MIXED, _k.KIND_VOLISO))
@pytest.mark.parametrize("case", (_k.CASE_UL, _k.CASE_ELP, _k.CASE_ULP))
def test_residual_scan_signs_match_scalar(kind, case):
    # mu, lambda, K of mu = 1, nu = 0.3
    mu, lame, K = 1.0, 1.5, 2.1666666666666665
    n, u_lo, u_hi = 201, math.log(1e-9), math.log(1e9)
    du = (u_hi - u_lo) / (n - 1)
    for family, par in _FAMILIES:
        for lam in (0.3, 1.7):
            with np.errstate(all="ignore"):
                out = _k.residual_scan(kind, family, par, case, lam, mu, lame, K, u_lo, u_hi, n)
                want = np.array(
                    [
                        _k.transverse_residual(
                            kind, family, par, case, lam, np.exp(u_lo + du * k), mu, lame, K
                        )
                        for k in range(n)
                    ]
                )
            np.testing.assert_array_equal(np.isnan(out), np.isnan(want))
            clear = np.abs(want) >= 1e-12
            np.testing.assert_array_equal(np.sign(out[clear]), np.sign(want[clear]))


def _sign_brackets_loop(us, fs):
    # the pointwise definition the vectorised helper replaces
    out = []
    for i in range(len(us) - 1):
        a, b = fs[i], fs[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            out.append((us[i], us[i], a))
        elif b != 0.0 and (a > 0.0) != (b > 0.0):
            out.append((us[i], us[i + 1], a))
    if len(fs) and fs[-1] == 0.0:
        out.append((us[-1], us[-1], 0.0))
    return out


@pytest.mark.parametrize(
    "fs",
    [
        [],
        [0.0],
        [1.0, 2.0, 3.0],
        [1.0, -1.0, -2.0, 3.0, math.inf, -math.inf],
        [math.nan, 1.0, -1.0, math.nan, -2.0, 2.0, math.nan],
        [2.0, 0.0, -3.0, math.nan],
        [-1.0, 0.0, 0.0, 1.0, -0.0, -4.0],
        [1.0, math.nan, 0.0, -1.0, 0.0],
        [1.0, 0.0, math.nan, -1.0],
        [3.0, -3.0, 0.0],
        [math.nan, 0.0],
    ],
)
def test_sign_brackets_matches_the_loop(fs):
    fs = np.array(fs, dtype=float)
    us = np.linspace(-1.0, 1.0, fs.size)
    got = hs._sign_brackets(us, fs)
    want = _sign_brackets_loop(us, fs)
    assert got == want
    assert [tuple(map(type, br)) for br in got] == [tuple(map(type, br)) for br in want]


def test_grid_kernel_matches_scalar():
    Js = np.logspace(-2, 2, 57)
    out = evaluate_grid(VolFun(1, -1.0, "grid"), Js)
    for i, J in enumerate(Js):
        np.testing.assert_array_equal(out[i], np.array(_k.h_tuple(1, -1.0, J)))


def test_residual_scan_matches_scalar():
    # array ** may round the last bit differently from the scalar power, so
    # compare tightly but not bitwise
    n = 33
    out = _k.residual_scan(0, 0, 2.0, 0, 1.4, 1.0, 2.0, 3.0, -2.0, 2.0, n)
    du = 4.0 / (n - 1)
    for i, got in enumerate(out):
        u = -2.0 + du * i
        want = _k.transverse_residual(0, 0, 2.0, 0, 1.4, float(np.exp(u)), 1.0, 2.0, 3.0)
        assert got == pytest.approx(want, rel=1e-12)


def test_case_volume_ratio():
    assert _k.case_volume_ratio(0, 2.0, 3.0) == 18.0
    assert _k.case_volume_ratio(1, 2.0, 3.0) == 12.0
    assert _k.case_volume_ratio(2, 2.0, 3.0) == 6.0
