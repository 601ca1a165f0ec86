"""Numeric kernels shared by the volumetric catalog and the 1-D solvers.

The closed forms are numpy expressions written once for a scalar or an
array argument. The root finders call them point by point (``bisect_log``
and the Newton polish in ``homsolve``); the sign-change scan and the grid
evaluation call them once on a whole array. The two agree to an ulp or so:
array ``np.exp``/``np.log`` match their scalar counterparts bit for bit,
while array ``**`` may round the last bit differently from the scalar
power. Only the scan's signs feed the root finder, so such a difference
can move a root only when a grid point sits within rounding of a zero.

The residual computes only the volumetric term it uses: J h'(J) for the
mixed kind, h'(J) for vol-iso, from the closed forms of :func:`h_tuple`
term by term. The scan grid and its ``np.exp`` are built once per range
(:func:`scan_nodes`).

``bisect_log`` runs on Python floats, where a numpy scalar would spend
most of each midpoint on dispatch. It returns the bits of the same loop
on np.float64: Python ``+ - * /`` are the same IEEE operations, and
Python ``**`` calls the same C ``pow``. ``np.exp`` still maps each
midpoint to lamT, because ``math.exp`` rounds differently on a few
percent of inputs. The one difference is that Python raises where numpy
returns +-inf: ``OverflowError`` when a power leaves the float range,
``ZeroDivisionError`` when a division or a negative power meets 0 (1 / J^q
once J^q underflows). On ``ArithmeticError`` the midpoint is evaluated
again at ``np.float64(lamT)``, the numpy-scalar path with its inf and NaN
values.

The model kind (``"mixed"`` or ``"voliso"``) and the load case (``"ul"``,
``"elp"`` or ``"ulp"``) are the strings ``ModelSpec`` and ``homsolve``
use. A volumetric function is a family code plus its parameter:

====== ======================= ==========================================
family parameter                h(J)
====== ======================= ==========================================
0      q >= 0                   (J^q + J^-q - 2) / (2 q^2)
1      beta != 0                (beta ln J + J^-beta - 1) / beta^2
2      --                       (J - 1)^2 / 2
3      --                       (exp(ln^2 J) - 1) / 2
====== ======================= ==========================================

Both parametric families tend to (ln J)^2 / 2 as the parameter goes to 0,
and below |parameter| < 1e-8 both are evaluated as that limit: the closed
forms divide by the parameter and would cancel, or divide 0 by 0.
"""

from __future__ import annotations

import functools

import numpy as np

FAMILY_HN = 0
FAMILY_OGDEN = 1
FAMILY_QUADRATIC = 2
FAMILY_EXP_LOG2 = 3

_LOG_LIMIT_PAR = 1e-8


def h_tuple(family, par, J):
    """(h, h', h'', J h', chi) for one volumetric function at J > 0.

    ``J`` is a scalar or an array; the branches depend on the family only.

    ``J h'`` and ``chi = h' + J h''`` are computed from their own closed
    forms, not by multiplying, so they stay accurate at extreme J.
    """
    if family in (FAMILY_HN, FAMILY_OGDEN) and abs(par) < _LOG_LIMIT_PAR:
        lnJ = np.log(J)
        h = 0.5 * lnJ * lnJ
        hp = lnJ / J
        hpp = (1.0 - lnJ) / (J * J)
        jhp = lnJ
        chi = 1.0 / J
    elif family == FAMILY_HN:
        q = par
        Jq = J**q
        Jmq = 1.0 / Jq
        h = (Jq + Jmq - 2.0) / (2.0 * q * q)
        hp = (Jq - Jmq) / (2.0 * q * J)
        hpp = ((q - 1.0) * Jq + (q + 1.0) * Jmq) / (2.0 * q * J * J)
        jhp = (Jq - Jmq) / (2.0 * q)
        chi = (Jq + Jmq) / (2.0 * J)
    elif family == FAMILY_OGDEN:
        b = par
        Jmb = J ** (-b)
        lnJ = np.log(J)
        h = (b * lnJ + Jmb - 1.0) / (b * b)
        hp = (1.0 / J - Jmb / J) / b
        hpp = ((b + 1.0) * Jmb / (J * J) - 1.0 / (J * J)) / b
        jhp = (1.0 - Jmb) / b
        chi = Jmb / J
    elif family == FAMILY_QUADRATIC:
        h = 0.5 * (J - 1.0) * (J - 1.0)
        hp = J - 1.0
        hpp = 1.0
        jhp = J * (J - 1.0)
        chi = 2.0 * J - 1.0
    else:  # FAMILY_EXP_LOG2
        lnJ = np.log(J)
        e = np.exp(lnJ * lnJ)
        h = 0.5 * (e - 1.0)
        hp = e * lnJ / J
        hpp = e / (J * J) * (2.0 * lnJ * lnJ + 1.0 - lnJ)
        jhp = e * lnJ
        chi = e / J * (1.0 + 2.0 * lnJ * lnJ)
    return h, hp, hpp, jhp, chi


def case_volume_ratio(case, lam, lamT):
    """J of the homogeneous load case (axial stretch lam, free stretch lamT)."""
    if case == "ul":
        return lam * lamT * lamT
    if case == "elp":
        return lam * lam * lamT
    return lam * lamT


def _volumetric_term(kind, family, par, J):
    """J h'(J) for the mixed kind, h'(J) for vol-iso.

    The one column of :func:`h_tuple` the residual uses, from the same
    closed forms term by term.
    """
    mixed = kind == "mixed"
    if family in (FAMILY_HN, FAMILY_OGDEN) and abs(par) < _LOG_LIMIT_PAR:
        lnJ = np.log(J)
        return lnJ if mixed else lnJ / J
    if family == FAMILY_HN:
        q = par
        Jq = J**q
        Jmq = 1.0 / Jq
        return (Jq - Jmq) / (2.0 * q) if mixed else (Jq - Jmq) / (2.0 * q * J)
    if family == FAMILY_OGDEN:
        b = par
        Jmb = J ** (-b)
        return (1.0 - Jmb) / b if mixed else (1.0 / J - Jmb / J) / b
    if family == FAMILY_QUADRATIC:
        return J * (J - 1.0) if mixed else J - 1.0
    # FAMILY_EXP_LOG2
    lnJ = np.log(J)
    e = np.exp(lnJ * lnJ)
    return e * lnJ if mixed else e * lnJ / J


def transverse_residual(kind, family, par, case, lam, mu, lame_lambda, K, lamT):
    """Traction residual in the free transverse direction.

    Mixed kind: ``lambda * J h'(J) - mu * (1 - lamT^2)`` (the transverse
    Cauchy equilibrium multiplied through by J).
    Vol-iso kind: ``K h'(J) + (mu/3) J^(-5/3) g`` with the case-dependent
    deviator combination g.
    Roots in lamT define the equilibrium transverse stretch; ``lamT`` may
    be an array.
    """
    J = case_volume_ratio(case, lam, lamT)
    vol = _volumetric_term(kind, family, par, J)
    if kind == "mixed":
        return lame_lambda * vol - mu * (1.0 - lamT * lamT)
    if case == "ul":
        g = lamT * lamT - lam * lam
    elif case == "elp":
        g = 2.0 * (lamT * lamT - lam * lam)
    else:
        g = 2.0 * lamT * lamT - 1.0 - lam * lam
    return K * vol + (mu / 3.0) * J ** (-5.0 / 3.0) * g


def scan_grid(u_lo, u_hi, n):
    """``n`` evenly spaced points of u = ln(lamT) from u_lo to (about) u_hi."""
    du = (u_hi - u_lo) / (n - 1)
    return u_lo + du * np.arange(n)


@functools.lru_cache(maxsize=8)
def scan_nodes(u_lo, u_hi, n):
    """``scan_grid(u_lo, u_hi, n)`` and its ``np.exp``, built once per range.

    Both arrays are read-only: every solve shares them.
    """
    us = scan_grid(u_lo, u_hi, n)
    lamT = np.exp(us)
    us.flags.writeable = False
    lamT.flags.writeable = False
    return us, lamT


def residual_scan(kind, family, par, case, lam, mu, lame_lambda, K, u_lo, u_hi, n):
    """Residual sampled at the points ``scan_grid(u_lo, u_hi, n)``."""
    _, lamT = scan_nodes(u_lo, u_hi, n)
    return transverse_residual(kind, family, par, case, lam, mu, lame_lambda, K, lamT)


def bisect_log(kind, family, par, case, lam, mu, lame_lambda, K, u_a, u_b, f_a, max_iter):
    """Bisection for the residual root in u = ln(lamT) on a sign-change bracket.

    Runs until the bracket width reaches a few ulps of u or ``max_iter``
    halvings; returns (u_root, width, iterations). Infinite residual values
    at the endpoints are fine -- only signs are used. The loop runs on
    Python floats; a midpoint whose Python arithmetic raises is evaluated
    again as np.float64 (see the module docstring).
    """
    a = float(u_a)
    b = float(u_b)
    fa = float(f_a)
    it = 0
    while it < max_iter:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        x = float(np.exp(mid))
        try:
            fm = transverse_residual(kind, family, par, case, lam, mu, lame_lambda, K, x)
        except ArithmeticError:
            x = np.float64(x)
            fm = transverse_residual(kind, family, par, case, lam, mu, lame_lambda, K, x)
        if fm == 0.0:
            a = mid
            b = mid
            break
        if (fm > 0.0) == (fa > 0.0):
            a = mid
            fa = fm
        else:
            b = mid
        it += 1
    return 0.5 * (a + b), b - a, it
