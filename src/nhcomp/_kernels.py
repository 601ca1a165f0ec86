"""Numeric kernels shared by the volumetric catalog and the 1-D solvers.

The closed forms are numpy expressions written once for a scalar or an
array argument. The bisection (``bisect_log``) and ``homsolve.residual``
call them point by point; the sign-change scan and the grid evaluation
call them once on a whole array. The two agree to an ulp or so:
array ``np.exp``/``np.log`` match their scalar counterparts bit for bit,
while array ``**`` may round the last bit differently from the scalar
power. Only the scan's signs feed the root finder, so such a difference
can move a root only when a grid point sits within rounding of a zero.

One factory, :func:`residual_fn`, states the residual. It resolves the
kind, the volumetric family and the load case and binds the constants
once, and returns a closure of lamT alone; the scan, the bisection and
``homsolve.residual`` (once per solve, at the bisection's root) all call
such a closure. It computes only the volumetric term the residual uses:
J h'(J) for the mixed kind, h'(J) for vol-iso, from the closed forms of
:func:`h_tuple` term by term. The scan grid and its ``np.exp`` are built
once per range (:func:`scan_nodes`).

The closures run on two lanes. The numpy lane takes an array or an
np.float64 and keeps numpy's inf and NaN values. ``bisect_log`` builds
one Python-float closure per bracket (``scalar=True``), where a numpy
scalar would spend most of each midpoint on dispatch; the log and exp
families there take ``float()`` of ``np.log``/``np.exp``, so the
arithmetic after those calls stays on Python floats too. It returns the
bits of the same loop on np.float64: Python ``+ - * /`` are the same IEEE
operations, and Python ``**`` calls the same C ``pow``. ``np.exp`` still
maps each midpoint to lamT, because ``math.exp`` rounds differently on a
few percent of inputs. The one difference is that Python raises where
numpy returns +-inf: ``OverflowError`` when a power leaves the float
range, ``ZeroDivisionError`` when a division or a negative power meets 0
(1 / J^q once J^q underflows, ln J / J once J underflows). On
``ArithmeticError`` the midpoint is evaluated again on the numpy lane at
``np.float64(lamT)``, with its inf and NaN values.

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


def volume_fn(case, lam):
    """lamT -> J of the homogeneous load case at axial stretch lam."""
    if case == "ul":
        return lambda lamT: lam * lamT * lamT
    if case == "elp":
        lam2 = lam * lam
        return lambda lamT: lam2 * lamT
    return lambda lamT: lam * lamT


def _keep(x):
    return x


def _volumetric_fn(kind, family, par, scalar=False):
    """J -> J h'(J) for the mixed kind, h'(J) for vol-iso.

    The one column of :func:`h_tuple` the residual uses, from the same
    closed forms term by term. With ``scalar=True`` each ``np.log`` and
    ``np.exp`` is cast to ``float``, so the arithmetic after it stays on
    Python floats.
    """
    mixed = kind == "mixed"
    cast = float if scalar else _keep
    if family in (FAMILY_HN, FAMILY_OGDEN) and abs(par) < _LOG_LIMIT_PAR:
        if mixed:
            return lambda J: cast(np.log(J))
        return lambda J: cast(np.log(J)) / J
    if family == FAMILY_HN:
        q, q2 = par, 2.0 * par
        if mixed:

            def term(J):
                Jq = J**q
                return (Jq - 1.0 / Jq) / q2

        else:

            def term(J):
                Jq = J**q
                return (Jq - 1.0 / Jq) / (q2 * J)

        return term
    if family == FAMILY_OGDEN:
        b, mb = par, -par
        if mixed:
            return lambda J: (1.0 - J**mb) / b

        def term(J):
            Jmb = J**mb
            return (1.0 / J - Jmb / J) / b

        return term
    if family == FAMILY_QUADRATIC:
        if mixed:
            return lambda J: J * (J - 1.0)
        return lambda J: J - 1.0

    # FAMILY_EXP_LOG2
    if mixed:

        def term(J):
            lnJ = cast(np.log(J))
            return cast(np.exp(lnJ * lnJ)) * lnJ

    else:

        def term(J):
            lnJ = cast(np.log(J))
            return cast(np.exp(lnJ * lnJ)) * lnJ / J

    return term


_M53 = -5.0 / 3.0


def residual_fn(kind, family, par, case, lam, mu, lame_lambda, K, scalar=False):
    """The transverse traction residual as a function of lamT alone.

    Mixed kind: ``lambda * J h'(J) - mu * (1 - lamT^2)`` (the transverse
    Cauchy equilibrium multiplied through by J); at lambda = 0 (nu = 0) the
    closure has no volumetric term, so an infinite J h' gives no NaN.
    Vol-iso kind: ``K h'(J) + (mu/3) J^(-5/3) g`` with the case-dependent
    deviator combination g.
    Roots in lamT define the equilibrium transverse stretch. The kind,
    family and case are resolved here, once; the returned closure takes a
    scalar or an array. ``scalar=True`` binds the Python-float lane: the
    log and exp families take ``float()`` of ``np.log``/``np.exp`` (see the
    module docstring).
    """
    volume = volume_fn(case, lam)
    term = _volumetric_fn(kind, family, par, scalar)
    if kind == "mixed":
        if lame_lambda == 0.0:  # nu = 0: no 0 * J h' where J h' is not finite
            return lambda lamT: -mu * (1.0 - lamT * lamT)

        def residual(lamT):
            return lame_lambda * term(volume(lamT)) - mu * (1.0 - lamT * lamT)

        return residual
    lam2 = lam * lam
    mu3 = mu / 3.0
    if case == "ul":

        def residual(lamT):
            J = volume(lamT)
            return K * term(J) + mu3 * J**_M53 * (lamT * lamT - lam2)

    elif case == "elp":

        def residual(lamT):
            J = volume(lamT)
            return K * term(J) + mu3 * J**_M53 * (2.0 * (lamT * lamT - lam2))

    else:

        def residual(lamT):
            J = volume(lamT)
            return K * term(J) + mu3 * J**_M53 * (2.0 * lamT * lamT - 1.0 - lam2)

    return residual


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
    return residual_fn(kind, family, par, case, lam, mu, lame_lambda, K)(lamT)


def bisect_log(kind, family, par, case, lam, mu, lame_lambda, K, u_a, u_b, f_a, max_iter):
    """Bisection for the residual root in u = ln(lamT) on a sign-change bracket.

    Runs until the bracket width reaches a few ulps of u or ``max_iter``
    halvings; returns (u_root, width, iterations). Infinite residual values
    at the endpoints are fine -- only signs are used. The loop runs on
    Python floats; a midpoint whose Python arithmetic raises is evaluated
    again as np.float64 (see the module docstring).
    """
    consts = (kind, family, par, case, lam, mu, lame_lambda, K)
    f = residual_fn(*consts, scalar=True)
    exp = np.exp
    a = float(u_a)
    b = float(u_b)
    fa = float(f_a)
    it = 0
    while it < max_iter:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        x = float(exp(mid))
        try:
            fm = f(x)
        except ArithmeticError:
            fm = residual_fn(*consts)(np.float64(x))
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
