"""Numeric kernels of the volumetric catalog and the 1-D solvers.

The closed forms are numpy expressions written once for a scalar or an
array argument. :func:`h_tuple` gives all five columns (h, h', h'', J h',
chi) and serves ``volfun`` alone, which calls it on one J (``evaluate``)
or on a whole array (``evaluate_grid``).

One factory, :func:`residual_fn`, states the residual. It resolves the
kind, the volumetric family and the load case and binds the constants
once, and returns a closure of lamT alone. Its volumetric term restates
the one column of :func:`h_tuple` the residual uses, term by term from
the same closed forms: J h'(J) for the mixed kind, h'(J) for vol-iso.
The bisection (``bisect_log``) and ``homsolve.residual`` (once per solve,
at the bisection's root) call such a closure point by point, and the
sign-change scan (:func:`residual_scan`) evaluates it on the grid of
:func:`scan_nodes`, built once per range, and returns that grid with the
residual. The two agree to an ulp or so: array ``np.exp``/``np.log``
match their scalar counterparts bit for bit, while array ``**`` may
round the last bit differently from the scalar power. Only the scan's
signs feed the root finder, so such a difference can move a root only
when a grid point sits within rounding of a zero.

Only lam_e (mixed) and K (vol-iso) in the scan depend on nu. The scan
keeps the nu-free volumetric column T and shear term D of its last call in
a one-entry, read-only slot, keyed by kind, family, parameter, case record,
lam, mu, scan range and point count, and where the key matches it forms
only lam_e T - D or K T + D, the closure's own last two operations, so the
bits are the closure's. The models of one stretch that differ only in nu,
solved in turn, share it; any other call replaces it.

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

The model kind (``"mixed"`` or ``"voliso"``) is the string ``ModelSpec``
uses. Each load case is stated once, as a :class:`LoadCase` record here;
the residual reads its m, j(lam) and C0, and ``homsolve`` resolves a case
name to the record once per call. A volumetric function is a family code
plus its parameter:

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
from dataclasses import dataclass

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
            return lambda J: ((Jq := J**q) - 1.0 / Jq) / q2
        return lambda J: ((Jq := J**q) - 1.0 / Jq) / (q2 * J)
    if family == FAMILY_OGDEN:
        b, mb = par, -par
        if mixed:
            return lambda J: (1.0 - J**mb) / b
        return lambda J: (1.0 / J - J**mb / J) / b
    if family == FAMILY_QUADRATIC:
        if mixed:
            return lambda J: J * (J - 1.0)
        return lambda J: J - 1.0
    # FAMILY_EXP_LOG2
    if mixed:
        return lambda J: cast(np.exp((lnJ := cast(np.log(J))) * lnJ)) * lnJ
    return lambda J: cast(np.exp((lnJ := cast(np.log(J))) * lnJ)) * lnJ / J


@dataclass(frozen=True)
class LoadCase:
    """One homogeneous load case (``homsolve`` tabulates them): F =
    diag(lam, F22, lamT), with ``f22`` one of "lamT", "lam" or "1".

    Its m free axes are at lamT, so J = j(lam) lamT^m, with j the product of
    F's loaded entries, and the vol-iso deviator term is g = 3 lamT^2 - tr c
    = (3 - m) lamT^2 - C0.
    """

    name: str
    f22: str

    @functools.cached_property
    def m(self):
        return 2 if self.f22 == "lamT" else 1

    def diagonal(self, lam, lamT):
        return lam, lamT if self.f22 == "lamT" else lam if self.f22 == "lam" else 1.0, lamT

    def j(self, lam):
        return lam * lam if self.f22 == "lam" else lam

    def c0(self, lam2):
        """C0 at lam2 = lam^2 as the terms (c1, c2) g subtracts in turn; c2 is
        None where every loaded axis is at lam, so that C0 = (3 - m) lam^2."""
        return (1.0, lam2) if self.f22 == "1" else ((3 - self.m) * lam2, None)


LOAD_CASES = {
    c.name: c for c in (LoadCase("ul", "lamT"), LoadCase("elp", "lam"), LoadCase("ulp", "1"))
}


def load_case(case):
    """The record of the load case named ``case``; a record passes through."""
    if isinstance(case, LoadCase):
        return case
    try:
        return LOAD_CASES[case]
    except (KeyError, TypeError):
        raise ValueError(f"load case must be one of {tuple(LOAD_CASES)}, got {case!r}") from None


_M53 = -5.0 / 3.0


def residual_fn(kind, family, par, case, lam, mu, lame_lambda, K, scalar=False):
    """The transverse traction residual as a function of lamT alone.

    Mixed kind: ``lambda * J h'(J) - mu * (1 - lamT^2)`` (the transverse
    Cauchy equilibrium multiplied through by J); at lambda = 0 (nu = 0) the
    closure has no volumetric term, so an infinite J h' gives no NaN.
    Vol-iso kind: ``K h'(J) + (mu/3) J^(-5/3) g`` with the case's deviator
    term g = (3 - m) lamT^2 - C0, C0's terms subtracted in the record's order.
    Roots in lamT define the equilibrium transverse stretch. The kind,
    family and case are resolved here, once; the returned closure takes a
    scalar or an array. ``scalar=True`` binds the Python-float lane: the
    log and exp families take ``float()`` of ``np.log``/``np.exp`` (see the
    module docstring).
    """
    case = load_case(case)
    j = case.j(lam)
    term = _volumetric_fn(kind, family, par, scalar)
    # J = j lamT^m is formed inline, and each g keeps its own operation count:
    # a multiply by 1 or a subtraction of 0 would cost an array pass per scan
    two = case.m == 2
    if kind == "mixed":
        if lame_lambda == 0.0:  # nu = 0: no 0 * J h' where J h' is not finite
            return lambda lamT: -mu * (1.0 - lamT * lamT)
        if two:
            return lambda lamT: lame_lambda * term(j * lamT * lamT) - mu * (1.0 - lamT * lamT)
        return lambda lamT: lame_lambda * term(j * lamT) - mu * (1.0 - lamT * lamT)
    c1, c2 = case.c0(lam * lam)
    mu3 = mu / 3.0
    if two:
        return lambda lamT: K * term(J := j * lamT * lamT) + mu3 * J**_M53 * (lamT * lamT - c1)
    if c2 is None:
        return lambda lamT: K * term(J := j * lamT) + mu3 * J**_M53 * (2.0 * lamT * lamT - c1)
    return lambda lamT: K * term(J := j * lamT) + mu3 * J**_M53 * (2.0 * lamT * lamT - c1 - c2)


@functools.lru_cache(maxsize=8)
def scan_nodes(u_lo, u_hi, n):
    """``n`` evenly spaced points of u = ln(lamT) from u_lo to (about) u_hi,
    and their ``np.exp``, built once per range.

    Both arrays are read-only: every solve shares them.
    """
    us = u_lo + (u_hi - u_lo) / (n - 1) * np.arange(n)
    lamT = np.exp(us)
    us.flags.writeable = False
    lamT.flags.writeable = False
    return us, lamT


def _scan_terms(kind, family, par, case, lam, mu, lamT):
    """``(T, D)``: the two nu-free terms of the residual on the array lamT.

    T is the volumetric column term(J) and D the shear term, mu (1 - lamT^2)
    (mixed) or (mu/3) J^(-5/3) g (vol-iso), each from the operations of the
    :func:`residual_fn` closure in its order, so lam_e T - D (mixed) and
    K T + D (vol-iso) give that closure's bits.
    """
    j = case.j(lam)
    J = j * lamT * lamT if case.m == 2 else j * lamT
    T = _volumetric_fn(kind, family, par)(J)
    if kind == "mixed":
        return T, mu * (1.0 - lamT * lamT)
    c1, c2 = case.c0(lam * lam)
    if case.m == 2:
        g = lamT * lamT - c1
    elif c2 is None:
        g = 2.0 * lamT * lamT - c1
    else:
        g = 2.0 * lamT * lamT - c1 - c2
    return T, mu / 3.0 * J**_M53 * g


# The nu-free terms of the last scan, as (key, T, D), both read-only: the
# models of one stretch that differ only in lam_e or K share them. A call
# reads the tuple once and replaces it whole, so a concurrent call costs at
# most a rebuild, never a mismatched pair.
_scan_slot = [None]


def residual_scan(kind, family, par, case, lam, mu, lame_lambda, K, u_lo, u_hi, n):
    """``(us, fs)``: the grid ``scan_nodes(u_lo, u_hi, n)`` over u = ln(lamT)
    and the residual sampled there. Call under an errstate.

    The nu-free terms (:func:`_scan_terms`) of the last call are kept, keyed
    by every input they read; a call that shares them forms only its own
    lam_e T - D or K T + D. The mixed kind at lam_e = 0 has no volumetric
    term and calls its :func:`residual_fn` closure.
    """
    us, lamT = scan_nodes(u_lo, u_hi, n)
    if kind == "mixed" and lame_lambda == 0.0:
        return us, residual_fn(kind, family, par, case, lam, mu, lame_lambda, K)(lamT)
    case = load_case(case)
    key = (kind, family, par, case, lam, mu, u_lo, u_hi, n)
    slot = _scan_slot[0]
    if slot is None or slot[0] != key:
        T, D = _scan_terms(kind, family, par, case, lam, mu, lamT)
        T.flags.writeable = D.flags.writeable = False
        slot = _scan_slot[0] = (key, T, D)
    _, T, D = slot
    return us, lame_lambda * T - D if kind == "mixed" else K * T + D


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
