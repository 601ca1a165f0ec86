import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from nhcomp import volfun
from nhcomp.volfun import (
    VolFun,
    audit,
    catalog,
    evaluate,
    evaluate_grid,
    parse_volfun,
)

ALL_IDS = list(range(1, 9))


# hand-evaluated closed forms, written out independently of the library code
def reference_h(ident, J):
    lnJ = math.log(J)
    if ident == 1:
        return 0.5 * lnJ**2
    if ident == 2:
        return (J + 1 / J - 2) / 2
    if ident == 3:
        return (J**2 + J**-2 - 2) / 8
    if ident == 4:
        return (J**5 + J**-5 - 2) / 50
    if ident == 5:
        return (J**2 - 2 * lnJ - 1) / 4
    if ident == 6:
        return J - lnJ - 1
    if ident == 7:
        return (J - 1) ** 2 / 2
    if ident == 8:
        return (math.exp(lnJ**2) - 1) / 2
    raise AssertionError(ident)


def test_normalization_at_unit_volume():
    for ident, vf in catalog().items():
        e = evaluate(vf, 1.0)
        assert e.h == 0.0, ident
        assert e.hp == 0.0, ident
        assert e.hpp == 1.0, ident
        assert e.chi == 1.0, ident


def test_frozen_point_values():
    assert evaluate(catalog()[2], 2.0).h == pytest.approx(0.25, abs=1e-15)
    assert evaluate(catalog()[8], 1.0).h == 0.0
    # quadratic member: constant curvature, affine chi with sign change at 1/2
    vf7 = catalog()[7]
    for J in (0.2, 0.5, 1.0, 3.0):
        e = evaluate(vf7, J)
        assert e.hpp == 1.0
        assert e.chi == pytest.approx(2 * J - 1, abs=1e-15)
    assert evaluate(vf7, 0.49).chi < 0 < evaluate(vf7, 0.51).chi


def test_values_match_reference_formulas():
    for ident, vf in catalog().items():
        for J in (0.3, 0.9, 1.1, 2.0, 7.5):
            assert evaluate(vf, J).h == pytest.approx(reference_h(ident, J), rel=1e-13), ident


def test_internal_consistency_jhp_and_chi():
    for vf in catalog().values():
        for J in np.logspace(-2, 2, 41):
            e = evaluate(vf, J)
            assert e.jhp == pytest.approx(J * e.hp, rel=1e-14, abs=1e-14)
            assert e.chi == pytest.approx(e.hp + J * e.hpp, rel=1e-14, abs=1e-14)


def test_derivatives_match_finite_differences():
    hs = 1e-5
    for vf in catalog().values():
        for J in np.linspace(0.1, 10.0, 34):
            e = evaluate(vf, J)
            dh = J * hs
            fd_hp = (evaluate(vf, J + dh).h - evaluate(vf, J - dh).h) / (2 * dh)
            fd_hpp = (evaluate(vf, J + dh).hp - evaluate(vf, J - dh).hp) / (2 * dh)
            assert fd_hp == pytest.approx(e.hp, rel=1e-6, abs=1e-9)
            assert fd_hpp == pytest.approx(e.hpp, rel=1e-6, abs=1e-9)


def test_power_pair_small_q_approaches_log_branch():
    # the difference decays like q^2; at q=1e-4 it is ~1e-8, so an absolute
    # bound is the meaningful one (near J=1 both values themselves vanish)
    vf_small = VolFun.power_pair(1e-4)
    vf_zero = VolFun.power_pair(0.0)
    for J in np.linspace(0.5, 2.0, 31):
        a, b = evaluate(vf_small, J).h, evaluate(vf_zero, J).h
        assert abs(a - b) <= 1e-6


def test_near_unit_volume_all_collapse_to_quadratic():
    # leading deviation from the quadratic is ~|J-1| itself, so stay strictly
    # inside |J-1| <= 1e-3 where the 0.1% agreement genuinely holds
    for vf in catalog().values():
        for J in (0.9991, 0.9995, 1.0005, 1.0009):
            assert evaluate(vf, J).h == pytest.approx((J - 1) ** 2 / 2, rel=1e-3)


def test_grid_evaluation_matches_pointwise():
    Js = np.logspace(-3, 3, 97)
    for vf in catalog().values():
        table = evaluate_grid(vf, Js)
        for k in (0, 31, 96):
            e = evaluate(vf, Js[k])
            np.testing.assert_allclose(table[k], [e.h, e.hp, e.hpp, e.jhp, e.chi], rtol=1e-15)


def test_domain_errors():
    vf = catalog()[3]
    with pytest.raises(ValueError):
        evaluate(vf, 0.0)
    with pytest.raises(ValueError):
        evaluate(vf, -2.0)
    with pytest.raises(ValueError):
        VolFun.power_pair(-1.0)
    with pytest.raises(ValueError):
        VolFun.log_augmented(0.0)


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_non_finite_family_parameters_are_rejected(value):
    with pytest.raises(ValueError, match="exponent q must be finite"):
        VolFun.power_pair(value)
    with pytest.raises(ValueError, match="exponent beta must be finite"):
        VolFun.log_augmented(value)


def test_family_parameters_beyond_one_million_are_rejected():
    assert VolFun.power_pair(1e6).par == 1e6
    assert VolFun.log_augmented(-1e6).par == -1e6
    with pytest.raises(ValueError, match=r"q must be at most 1e\+06 in absolute value, got 1e\+300"):
        VolFun.power_pair(1e300)
    with pytest.raises(ValueError, match=r"beta must be at most 1e\+06 in absolute value"):
        VolFun.log_augmented(-1.5e6)


@pytest.mark.parametrize("beta", (1e-12, -1e-12, 1e-300, -1e-300, 5e-324))
def test_log_augmented_small_beta_takes_the_log_limit(beta):
    # (beta ln J + J^-beta - 1) / beta^2 cancels as beta -> 0; its limit
    # (ln J)^2 / 2 is catalog id 1, and h' = -expm1(-beta ln J) / (beta J)
    # is within |beta ln J| of it
    vf, limit = VolFun.log_augmented(beta), catalog()[1]
    Js = np.array([1e-3, 0.5, 2.0, 1e3])
    np.testing.assert_array_equal(evaluate_grid(vf, Js), evaluate_grid(limit, Js))
    for J in Js:
        got = evaluate(vf, J)
        assert got == evaluate(limit, J)
        if abs(beta) >= 1e-300:  # a subnormal beta has too few digits for the expm1 form
            exact_hp = -math.expm1(-beta * math.log(J)) / (beta * J)
            assert got.hp == pytest.approx(exact_hp, rel=1e-8)


def test_values_beyond_the_float_range_are_inf_without_a_warning():
    # pyproject turns a RuntimeWarning into an error, so this also checks
    # that none is raised
    e = evaluate(VolFun.power_pair(400.0), 0.125)
    assert (e.h, e.hp, e.jhp, e.chi) == (math.inf, -math.inf, -math.inf, math.inf)
    table = evaluate_grid(VolFun.log_augmented(-400.0), np.array([1e-3, 1.0, 1e3]))
    assert table[2, 1] == math.inf and table[1, 1] == 0.0


# --- every column against 50-digit arithmetic, far out in J ------------------

# one member of each family and branch. The parametric families are sampled
# at 0 (their log limit) and at |par| >= 0.5: nearer the limit a closed form
# such as (J^q + J^-q - 2) / (2 q^2) cancels when |par ln J| is small, as it
# does near J = 1, and |J - 1| >= 9 / 10 below keeps |par ln J| >= 1.15.
ORACLE_VOLFUNS = (
    *(VolFun.power_pair(q) for q in (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 40.0, 1e6)),
    *(VolFun.log_augmented(b) for b in (-1e6, -40.0, -2.0, -1.5, -1.0, -0.5)),
    *(VolFun.log_augmented(b) for b in (0.5, 1.0, 2.0, 40.0, 1e6)),
    VolFun.quadratic(),
    VolFun.exp_log_squared(),
)

# The relative bound of a representable value. Far out, a column is
# sign * exp(log |value|), and the log is a sum of terms such as a ln J with
# a = par, 2 or ln J; wherever the value is representable these terms stay
# below about 2100, so a few ulp of them give a relative error of about
# 2100 * 4 * 1.1e-16 = 1e-12.
_RTOL = 1e-12


def exact_columns(vf, J):
    """(h, h', h'', J h', chi) of ``vf`` at J from 50-digit arithmetic, each
    from its own closed form, written out apart from the library code."""
    with mpmath.workdps(50):
        J = mpmath.mpf(J)
        L = mpmath.log(J)
        p = mpmath.mpf(vf.par)
        if vf.label == "7":
            return (J - 1) ** 2 / 2, J - 1, mpmath.mpf(1), J * (J - 1), 2 * J - 1
        if vf.label == "8":
            e = mpmath.exp(L * L)
            hpp = e * (2 * L * L - L + 1) / J**2
            return (e - 1) / 2, e * L / J, hpp, e * L, e * (1 + 2 * L * L) / J
        if p == 0:
            return L * L / 2, L / J, (1 - L) / J**2, L, 1 / J
        if vf.label.startswith("hn:"):
            return (
                (J**p + J**-p - 2) / (2 * p * p),
                (J ** (p - 1) - J ** (-p - 1)) / (2 * p),
                ((p - 1) * J ** (p - 2) + (p + 1) * J ** (-p - 2)) / (2 * p),
                (J**p - J**-p) / (2 * p),
                (J ** (p - 1) + J ** (-p - 1)) / 2,
            )
        return (
            (p * L + J**-p - 1) / p**2,
            (1 / J - J ** (-p - 1)) / p,
            ((p + 1) * J ** (-p - 2) - J**-2) / p,
            (1 - J**-p) / p,
            J ** (-p - 1),
        )


def assert_rounds_to(value, exact):
    """A representable ``exact`` within _RTOL, one beyond the float range as
    +-inf with its sign, and one below the normal range as at most the
    smallest normal double in size."""
    value, size = float(value), abs(exact)
    big, tiny = sys.float_info.max, sys.float_info.min
    if size > big * (1 + mpmath.mpf(_RTOL)):
        assert value == math.copysign(math.inf, exact)
    elif size < tiny:
        assert abs(value) <= tiny
    elif math.isinf(value):  # allowed only within rounding of the largest double
        assert size >= big * (1 - mpmath.mpf(_RTOL)) and value == math.copysign(math.inf, exact)
    else:
        assert abs(value - exact) <= _RTOL * size, (value, exact)


@given(
    vf=hst.sampled_from(ORACLE_VOLFUNS),
    decades=hst.one_of(hst.floats(-300.0, -1.0), hst.floats(1.0, 300.0)),
)
def test_every_column_rounds_the_exact_value(vf, decades):
    # J from 1e-300 to 1e300, at least a decade from J = 1
    J = 10.0**decades
    e = evaluate(vf, J)
    row = evaluate_grid(vf, np.array([0.5, J, 2.0]))[1]
    columns = (e.h, e.hp, e.hpp, e.jhp, e.chi)
    for value, grid_value, exact in zip(columns, row, exact_columns(vf, J)):
        assert_rounds_to(value, exact)
        assert_rounds_to(grid_value, exact)


@pytest.mark.parametrize(
    "vf, J, column, exact",
    (
        # the closed form divides J^2 = inf by J * J = inf
        (catalog()[5], 1e300, "hpp", 0.5),
        (catalog()[5], 1e300, "hp", 5e299),
        (VolFun.power_pair(4.0), 1e100, "hp", 1.25e299),
        # J * J overflows while J^q does not, and h'' came out as -0.0
        (VolFun.power_pair(0.5), 1e200, "hpp", -5e-301),
    ),
)
def test_far_columns_are_finite_where_the_exact_value_is(vf, J, column, exact):
    assert getattr(evaluate(vf, J), column) == pytest.approx(exact, rel=_RTOL, abs=0.0)


# --- a one-column read against the full read ---------------------------------

FIELDS = ("h", "hp", "hpp", "jhp", "chi")

# the catalog and one member of each other branch: hn:200 leaves its closed
# forms at |ln J| = 680 / 202, about 3.37; the 5e-9 members take the
# (ln J)^2 / 2 limit; the quadratic's h'' is a constant that a grid read
# broadcasts to a vector
COLUMN_VOLFUNS = (
    *catalog().values(),
    VolFun.power_pair(200.0),
    VolFun.power_pair(5e-9),
    VolFun.log_augmented(-5e-9),
    VolFun.log_augmented(300.0),
)


def typed_bits(x):
    return type(x), np.asarray(x, dtype=float).tobytes()


@given(
    vf=hst.sampled_from(COLUMN_VOLFUNS),
    spans=hst.lists(hst.floats(-1.5, 1.5), min_size=1, max_size=8),
)
@example(VolFun.power_pair(200.0), [-1.01, -0.99, 0.99, 1.01])
@example(VolFun.quadratic(), [0.0, 0.5])
def test_a_column_read_gives_the_bits_of_the_full_read(vf, spans):
    # ln J in units of the span of the closed forms (at most 400, so that J
    # stays finite), so J lands on both sides of it
    Js = np.exp(np.array(spans) * min(volfun._direct_span(vf), 400.0))
    table = evaluate_grid(vf, Js)
    for k, column in enumerate(FIELDS):
        got = evaluate_grid(vf, Js, column)
        assert got.shape == Js.shape and got.tobytes() == table[:, k].tobytes(), column
        for J in Js:
            want = getattr(evaluate(vf, J), column)
            assert typed_bits(evaluate(vf, J, column)) == typed_bits(want), (column, J)


# --- audit: the five-constraint matrix -----------------------------------------

EXPECTED_MATRIX = {
    1: (1, 1, 0, 1, 1),
    2: (1, 1, 1, 1, 1),
    3: (1, 1, 1, 1, 1),
    4: (1, 1, 1, 1, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, 1, 1, 1, 1),
    7: (1, 1, 1, 0, 0),
    8: (1, 1, 1, 1, 1),
}


def test_audit_matrix():
    for ident, vf in catalog().items():
        flags, _ = audit(vf).as_row()
        assert flags == EXPECTED_MATRIX[ident], f"id {ident}: {flags}"


def test_audit_witnesses():
    rep1 = audit(catalog()[1])
    assert not rep1.passed[2]
    assert rep1.witness[2] >= math.e  # curvature first goes nonpositive at e

    rep7 = audit(catalog()[7])
    assert not rep7.passed[3]
    assert rep7.witness[3] < 0.5
    assert not rep7.passed[4]
    assert rep7.witness[4] == pytest.approx(1e-6)


def test_audit_all_pass_for_id4():
    rep = audit(catalog()[4])
    assert all(rep.passed)
    assert all(w is None for w in rep.witness)


def test_symmetry_of_power_pair():
    def h(q, J):
        return evaluate(VolFun.power_pair(q), J).h

    assert h(2.0, 3.0) == pytest.approx(h(2.0, 1.0 / 3.0), rel=1e-12)
    assert h(0.0, math.e) == pytest.approx(0.5, rel=1e-14)
    assert h(0.0, 1.0 / math.e) == pytest.approx(0.5, rel=1e-14)
    assert h(1.0, 1.0) == 0.0


def test_parse_volfun():
    assert parse_volfun("3") == catalog()[3]
    assert parse_volfun("hn:2") == VolFun.power_pair(2.0)
    assert parse_volfun("ogden:-2") == VolFun.log_augmented(-2.0)
    with pytest.raises(ValueError):
        parse_volfun("9")
    with pytest.raises(ValueError):
        parse_volfun("spam")
    for text, prefix in (("hn:abc", "hn:"), ("hn:", "hn:"), ("ogden:x", "ogden:")):
        message = f"volumetric function '{text}': the parameter after '{prefix}' must be a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_volfun(text)


@pytest.mark.parametrize(
    "text, label",
    (
        ("hn:2", "hn:2"),
        ("hn:1e6", "hn:1e+06"),
        ("hn:0.0833333", "hn:0.0833333"),
        ("hn:0.08333333333333333", "hn:0.08333333333333333"),
        ("ogden:-0.8", "ogden:-0.8"),
        ("ogden:1e-300", "ogden:1e-300"),
        ("ogden:-1.2345678", "ogden:-1.2345678"),
    ),
)
def test_label_parses_back_to_its_own_model(text, label):
    # %g keeps six digits, so it is used only where it reads back exactly
    vf = parse_volfun(text)
    assert vf.label == label
    assert parse_volfun(vf.label) == vf


def test_nearby_parameters_print_different_labels():
    a, b = parse_volfun("hn:0.08333333333333333"), parse_volfun("hn:0.0833333")
    assert a.par != b.par and a.label != b.label
