"""Numeric kernels shared by the volumetric catalog and the 1-D solvers.

The closed forms are numpy expressions written once for a scalar or an
array argument. The root finders call them point by point (``bisect_log``
and the Newton polish in ``homsolve``); the sign-change scan and the grid
evaluation call them once on a whole array. The two agree to an ulp or so:
array ``np.exp``/``np.log`` match their scalar counterparts bit for bit,
while array ``**`` may round the last bit differently from the scalar
power. Only the scan's signs feed the root finder, so such a difference
can move a root only when a grid point sits within rounding of a zero.

Volumetric families are encoded as small integers so the kernels stay
monomorphic:

====== ======================= ==========================================
family parameter                h(J)
====== ======================= ==========================================
0      q >= 0                   (J^q + J^-q - 2) / (2 q^2), log limit at q=0
1      beta != 0                (beta ln J + J^-beta - 1) / beta^2
2      --                       (J - 1)^2 / 2
3      --                       (exp(ln^2 J) - 1) / 2
====== ======================= ==========================================
"""

from __future__ import annotations

import numpy as np

FAMILY_HN = 0
FAMILY_OGDEN = 1
FAMILY_QUADRATIC = 2
FAMILY_EXP_LOG2 = 3

_HN_LOG_BRANCH_Q = 1e-8

CASE_UL = 0
CASE_ELP = 1
CASE_ULP = 2

KIND_MIXED = 0
KIND_VOLISO = 1


def h_tuple(family, par, J):
    """(h, h', h'', J h', chi) for one volumetric function at J > 0.

    ``J`` is a scalar or an array; the branches depend on the family only.

    ``J h'`` and ``chi = h' + J h''`` are computed from their own closed
    forms, not by multiplying, so they stay accurate at extreme J.
    """
    if family == FAMILY_HN:
        q = par
        if q < _HN_LOG_BRANCH_Q:
            lnJ = np.log(J)
            h = 0.5 * lnJ * lnJ
            hp = lnJ / J
            hpp = (1.0 - lnJ) / (J * J)
            jhp = lnJ
            chi = 1.0 / J
        else:
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
    if case == CASE_UL:
        return lam * lamT * lamT
    if case == CASE_ELP:
        return lam * lam * lamT
    return lam * lamT


def transverse_residual(kind, family, par, case, lam, lamT, mu, lame_lambda, K):
    """Traction residual in the free transverse direction.

    Mixed kind: ``lambda * J h'(J) - mu * (1 - lamT^2)`` (the transverse
    Cauchy equilibrium multiplied through by J).
    Vol-iso kind: ``K h'(J) + (mu/3) J^(-5/3) g`` with the case-dependent
    deviator combination g.
    Roots in lamT define the equilibrium transverse stretch; ``lamT`` may
    be an array.
    """
    J = case_volume_ratio(case, lam, lamT)
    if kind == KIND_MIXED:
        _, _, _, jhp, _ = h_tuple(family, par, J)
        return lame_lambda * jhp - mu * (1.0 - lamT * lamT)
    _, hp, _, _, _ = h_tuple(family, par, J)
    if case == CASE_UL:
        g = lamT * lamT - lam * lam
    elif case == CASE_ELP:
        g = 2.0 * (lamT * lamT - lam * lam)
    else:
        g = 2.0 * lamT * lamT - 1.0 - lam * lam
    return K * hp + (mu / 3.0) * J ** (-5.0 / 3.0) * g


def residual_scan(kind, family, par, case, lam, mu, lame_lambda, K, u_lo, u_hi, n):
    """Residual sampled on ``n`` evenly spaced points of u = ln(lamT) in [u_lo, u_hi]."""
    du = (u_hi - u_lo) / (n - 1)
    lamT = np.exp(u_lo + du * np.arange(n))
    return transverse_residual(kind, family, par, case, lam, lamT, mu, lame_lambda, K)


def bisect_log(kind, family, par, case, lam, mu, lame_lambda, K, u_a, u_b, f_a, max_iter):
    """Bisection for the residual root in u = ln(lamT) on a sign-change bracket.

    Runs until the bracket width reaches a few ulps of u or ``max_iter``
    halvings; returns (u_root, width, iterations). Infinite residual values
    at the endpoints are fine -- only signs are used.
    """
    a = u_a
    b = u_b
    fa = f_a
    it = 0
    while it < max_iter:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = transverse_residual(kind, family, par, case, lam, np.exp(mid), mu, lame_lambda, K)
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
