"""Objective stress rates, stability contractions, and tangent tensors.

Two pointwise material-stability checks are evaluated as quadratic forms in
the stretching d:

* the Hill-type contraction, the Zaremba-Jaumann rate of Kirchhoff stress
  contracted with d;
* the corotational contraction (CSP), the same construction on the Cauchy
  stress: ``(1/J) ZJ[tau]:d - (sigma:d) tr d``.

Each contraction is computed two independent ways -- a basis-free tensor
contraction and a recomposition from spectral quadratic forms (the letters
P, R, B, C, ... below) -- and the report carries both so that callers can
verify they agree. A report's ``breakdown`` is the glossary below. Every
compressible contraction recomposes as ``w (P + R - a B) + (c + shift) F``,
and the coaxial grid scan reads the same (w, a, shift) and c per state.

Letter glossary (state with eigenprojections V_a of c, stretches lam_a,
rate d):

    P = 2 sum_a lam_a^2 |V_a d V_a|^2      coaxial part of A
    R = 2 sum_{a<b} (lam_a^2 + lam_b^2) |V_a d V_b|^2   off-diagonal part
    A = P + R = (dc + cd):d = 2 |F^T d|^2
    B = (c:d) tr d
    C = tr(c) (tr d)^2
    F = (tr d)^2
    E = P - (4/3) B + (2/9) C              coaxial modified-deviatoric form
    D = E + R
    G = P + F - B

All letters are nonnegative except B and hence E, D, G, which is what makes
the sign analysis of the contractions nontrivial.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from nhcomp.kinematics import rate_from_motion
from nhcomp.materials import PAPER_NUS, ModelSpec, cauchy_stress, mantissa_params, params_from_mu_nu
from nhcomp.tensor3 import I3, apply4, ddot, dev, outer, scaled, sym_outer, trace
from nhcomp.volfun import VolFun, evaluate, evaluate_grid

__all__ = [
    "ContractionReport",
    "TangentPair",
    "Witness",
    "zj_rate",
    "oldroyd_rate",
    "bh_rate",
    "hill_contraction",
    "csp_contraction",
    "quad_form_E",
    "detA_identity",
    "tangents",
    "stretch_grid",
    "min_coaxial_eig",
    "find_hill_violation",
    "find_csp_violation",
    "tangent_fd_error",
]


# --------------------------------------------------------------------------
# objective rates


@np.errstate(all="ignore")
def zj_rate(model, state, rate, pdot=None):
    """Zaremba-Jaumann rate of the stress response, in closed form.

    Returns the ZJ rate of the Kirchhoff stress for the compressible kinds.
    For the incompressible kind it returns the ZJ rate of the Cauchy stress,
    ``-pdot I + mu (dc + cd)``, and ``pdot`` is required; the formula is
    meaningful on isochoric rates (tr d = 0). An entry beyond the float
    range is +-inf or NaN, with no numpy warning; the volumetric part is 0
    where tr d or the entry of I is 0, even at an infinite chi J.
    """
    c, d, J = state.c, rate.d, state.J
    mu = model.params.mu
    dc_cd = d @ c + c @ d
    if model.kind == "inc":
        if pdot is None:
            raise ValueError("the incompressible kind requires pdot")
        return -pdot * I3 + mu * dc_cd
    trd = float(trace(d))
    vol = scaled(model.volumetric_term(evaluate(model.volfun, J, "chi")) * J, trd * I3)
    if model.kind == "mixed":
        return mu * dc_cd + vol
    iso = dc_cd - (2.0 / 3.0) * (dev(c) * trd + ddot(c, d) * I3)
    return vol + mu * J ** (-2.0 / 3.0) * iso


@np.errstate(all="ignore")
def oldroyd_rate(model, state, rate):
    """Oldroyd rate of the Kirchhoff stress: the ZJ rate minus d tau + tau d.

    Compressible kinds only (the incompressible stress needs a multiplier
    that a rate identity cannot supply on its own).
    """
    if model.kind == "inc":
        raise ValueError("oldroyd_rate is defined here for compressible kinds")
    zj = zj_rate(model, state, rate)
    tau = cauchy_stress(model, state.F).kirchhoff
    return zj - rate.d @ tau - tau @ rate.d


@np.errstate(all="ignore")
def bh_rate(model, state, rate):
    """Rate pairing sigma-dot + (tr d) sigma; equals ZJ[tau]/J identically."""
    if model.kind == "inc":
        raise ValueError("bh_rate is defined here for compressible kinds")
    return zj_rate(model, state, rate) / state.J


# --------------------------------------------------------------------------
# spectral letters


def _letters(state, d):
    lam2 = np.asarray(state.stretches) ** 2
    projections = state.projections
    trd = float(trace(d))
    P = 0.0
    R = 0.0
    n = len(projections)
    for a in range(n):
        Pa = projections[a]
        block = Pa @ d @ Pa
        P += 2.0 * lam2[a] * float(np.tensordot(block, block, axes=2))
        for b in range(a + 1, n):
            cross = projections[a] @ d @ projections[b]
            R += 2.0 * (lam2[a] + lam2[b]) * float(np.tensordot(cross, cross, axes=2))
    cd = sum(lam2[a] * float(np.tensordot(projections[a], d, axes=2)) for a in range(n))
    trc = float(np.dot(state.mults, lam2))
    B = cd * trd
    C = trc * trd * trd
    F = trd * trd
    return P, R, B, C, F


def _crosscheck_A(state, d, P, R):
    # Remark-style identity: the full quadratic form A equals 2 |F^T d|^2
    Ftd = state.F.T @ d
    free = 2.0 * float(np.tensordot(Ftd, Ftd, axes=2))
    scale = max(abs(free), abs(P) + abs(R), 1e-300)
    if abs(P + R - free) > 1e-8 * scale:
        raise AssertionError(f"spectral P + R = {P + R!r} disagrees with 2|F^T d|^2 = {free!r}")
    return free


def _glossary(P, R, B, C, F):
    """The module docstring's glossary, from its five independent letters."""
    E = P - (4.0 / 3.0) * B + (2.0 / 9.0) * C
    return {"P": P, "R": R, "A": P + R, "B": B, "C": C, "F": F, "E": E, "D": E + R, "G": P + F - B}


@dataclass(frozen=True)
class ContractionReport:
    """One stability contraction at one (state, rate) point.

    ``value`` is the basis-free contraction; ``recomposed`` rebuilds it from
    the spectral breakdown, which is the module docstring's glossary (P, R,
    A, B, C, F, E, D, G). They agree to 1e-10 relative by construction
    (this is checked in the test suite, not enforced here). ``verdict`` is
    :func:`classify_value`'s, so a NaN or infinite value raises ValueError.
    """

    kind: str  # "hill" or "csp"
    value: float
    breakdown: dict
    recomposed: float
    verdict: str


def classify_value(value, scale):
    """Sign verdict ("positive" / "zero" / "negative") at tolerance 1e-12*scale.

    A NaN or infinite value or scale has no verdict and raises
    ``ValueError``: at such a scale the tolerance is inf or NaN, and every
    finite value would read "zero".
    """
    value, scale = float(value), float(scale)
    if not (math.isfinite(value) and math.isfinite(scale)):
        raise ValueError(f"stability value {value} at scale {scale} has no sign verdict")
    tol = 1e-12 * max(scale, 1.0e-300)
    if value > tol:
        return "positive"
    if value < -tol:
        return "negative"
    return "zero"


def _coaxial_form(kind, contraction, mu, J, trc):
    """(w, a, shift) of a compressible contraction ``w (P + R - a B) + (c +
    shift) F``, on scalars or per-state arrays of J and tr c; w and shift are
    at the shear-modulus scale, and c is :func:`_volumetric_c`'s."""
    if contraction not in ("hill", "csp"):
        raise ValueError(f"unknown contraction {contraction!r}")
    if kind not in ("mixed", "voliso"):
        raise ValueError(f"unsupported kind {kind!r}")
    if contraction == "hill":
        if kind == "mixed":
            return mu, 0.0, 0.0
        w = mu * J ** (-2.0 / 3.0)
        return w, 4.0 / 3.0, (2.0 / 9.0) * w * trc
    if kind == "mixed":
        w = mu / J
        return w, 1.0, w
    w = mu * J ** (-5.0 / 3.0)
    return w, 7.0 / 3.0, (5.0 / 9.0) * w * trc


def _volumetric_coef(kind, params):
    """The modulus of the volumetric coefficient: lam (mixed) or K (vol-iso)."""
    return params.lam if kind == "mixed" else params.K


def _volumetric_c(contraction, coef, J, column):
    """The volumetric coefficient c: ``coef`` (lam or K, :func:`_volumetric_coef`)
    times chi J for Hill, times J h'' for CSP, on scalars or arrays that
    broadcast; ``column`` is the chi (Hill) or h'' (CSP) it reads. A zero
    coef (mixed at nu = 0) gives c = 0, even where that column is inf.

    Only c carries the volumetric factors that explode at the grid corners;
    the coaxial form's shear part stays at the shear-modulus scale, so the
    scan finds the minimum eigenvalue without forming the ill-conditioned
    sum. Call under an errstate."""
    c = coef * column * J if contraction == "hill" else coef * J * column
    return np.where(coef == 0.0, 0.0, c) if np.any(coef == 0.0) else c


def _report(contraction, model, state, d, value):
    """The report of a compressible contraction ``value`` at (state, d), judged
    at the scale of its recomposition's terms. Call under an errstate."""
    P, R, B, C, F = _letters(state, d)
    _crosscheck_A(state, d, P, R)
    J, prm = np.float64(state.J), model.params  # so a power past the float range is inf
    w, a, shift = _coaxial_form(model.kind, contraction, prm.mu, J, trace(state.c))
    column = evaluate(model.volfun, J, _VOLUMETRIC_COLUMN[contraction])
    c = _volumetric_c(contraction, _volumetric_coef(model.kind, prm), J, column)
    # at tr d = 0 (F = 0) the volumetric part is 0, even where c is not finite
    vol, vol_scale = ((c + shift) * F, (abs(c) + shift) * F) if F else (0.0, 0.0)
    reco = w * (P + R - a * B) + vol
    scale = w * (P + R + a * abs(B)) + vol_scale
    verdict = classify_value(value, scale)
    return ContractionReport(contraction, value, _glossary(P, R, B, C, F), reco, verdict)


@np.errstate(all="ignore")
def hill_contraction(model, state, rate):
    """Hill-type contraction ZJ[tau]:d with spectral breakdown.

    For the incompressible kind the rate is first projected onto traceless
    tensors and the contraction reduces to ``mu A``.
    """
    d = rate.d
    if model.kind != "inc":
        return _report("hill", model, state, d, ddot(zj_rate(model, state, rate), d))
    dt = d - (trace(d) / 3.0) * I3
    P, R, B, C, F = _letters(state, dt)
    mu = model.params.mu
    value = mu * _crosscheck_A(state, dt, P, R)
    verdict = classify_value(value, abs(value))
    return ContractionReport("hill", value, _glossary(P, R, B, C, F), mu * (P + R), verdict)


@np.errstate(all="ignore")
def csp_contraction(model, state, rate):
    """Corotational contraction ZJ[sigma]:d = (1/J) ZJ[tau]:d - (sigma:d) tr d."""
    if model.kind == "inc":
        raise ValueError("the corotational contraction is defined here for compressible kinds")
    d, J, trd = rate.d, state.J, float(trace(rate.d))
    # (sigma : d) tr d is 0 at tr d = 0, even where sigma is not finite
    power = ddot(cauchy_stress(model, state.F).cauchy, d) * trd if trd else 0.0
    value = ddot(zj_rate(model, state, rate), d) / J - power
    return _report("csp", model, state, d, value)


# --------------------------------------------------------------------------
# standalone quadratic-form identities


def quad_form_E(lams, lamdots):
    """The coaxial form E as a sum of three squares, for distinct-axis input.

    Also evaluates the expanded polynomial form and insists the two agree;
    they are algebraically identical for any positive stretches.
    """
    l1, l2, l3 = (float(x) for x in lams)
    x1, x2, x3 = (float(x) for x in lamdots)
    if min(l1, l2, l3) <= 0.0:
        raise ValueError("stretches must be positive")
    a, b, c = l1 / l2, l1 / l3, l2 / l3
    squares = (
        (2.0 * x1 - a * x2 - b * x3) ** 2
        + (2.0 * x2 - x1 / a - c * x3) ** 2
        + (2.0 * x3 - x1 / b - x2 / c) ** 2
    )
    sx2 = x1 * x1 + x2 * x2 + x3 * x3
    sxl = x1 * l1 + x2 * l2 + x3 * l3
    sxol = x1 / l1 + x2 / l2 + x3 / l3
    sl2 = l1 * l1 + l2 * l2 + l3 * l3
    expanded = 9.0 * sx2 - 6.0 * sxl * sxol + sl2 * sxol * sxol
    scale = max(abs(squares), abs(expanded), 9.0 * sx2, 1e-300)
    if abs(squares - expanded) > 1e-10 * scale:
        raise AssertionError(
            f"sum-of-squares form {squares!r} disagrees with expanded form {expanded!r}"
        )
    return squares


def detA_identity(a, b, c):
    """Determinant of the cleared coefficient matrix of the proportional-rate
    system, together with its closed form (b - a c)^2.

    The system asks when the coaxial form E vanishes nontrivially; clearing
    denominators from the stationarity equations gives the matrix below,
    whose determinant is exactly (b - a c)^2 -- zero precisely when the
    ratios satisfy b = a c, which holds identically for ratios built from
    three stretches.
    """
    if min(a, b, c) <= 0.0:
        raise ValueError("ratios must be positive")
    M = np.array(
        [
            [-2.0, a, b],
            [-1.0, 2.0 * a, -a * c],
            [-c, -b, 2.0 * b * c],
        ]
    )
    return float(np.linalg.det(M)), float((b - a * c) ** 2)


# --------------------------------------------------------------------------
# tangent tensors


@dataclass(frozen=True)
class TangentPair:
    """Spatial tangents of the two rate pairings: supersymmetric (3, 3, 3, 3) ndarrays."""

    c_tr: np.ndarray
    c_bh: np.ndarray


# the two constant fourth-order tensors of every tangent, built once
_II = outer(I3, I3)
_IsI = sym_outer(I3, I3)
_II.flags.writeable = False
_IsI.flags.writeable = False


def _beyond_float_range(model, J):
    return ValueError(
        f"the {model.kind} kind with volfun {model.volfun.label} has a stress or "
        f"tangent beyond the float range at J = {J:.6g}"
    )


@np.errstate(all="ignore")
def tangents(model, state):
    """Spatial tangents: c_tr : d = Oldroyd[tau]/J, c_bh = c_tr + stress terms.

    Not available for the incompressible kind. Raises ``ValueError`` when an
    entry of c_bh is not finite (c_bh is not finite wherever its summand
    c_tr or the stress is not). :func:`tangent_fd_error` reads only c_tr.
    """
    if model.kind == "inc":
        raise ValueError("tangent tensors are unsupported for the incompressible kind")
    c_tr = _c_tr(model, state)
    sigma = cauchy_stress(model, state.F).cauchy
    c_bh = c_tr + sym_outer(I3, sigma) + sym_outer(sigma, I3)
    if not np.isfinite(c_bh).all():
        raise _beyond_float_range(model, state.J)
    return TangentPair(c_tr=c_tr, c_bh=c_bh)


def _c_tr(model, state):
    """The Truesdell tangent c_tr of a compressible model, unchecked: an
    entry beyond the float range is inf or NaN. Call under an errstate."""
    J = state.J
    ev = evaluate(model.volfun, J)
    vol_chi = model.volumetric_term(ev.chi) * _II
    if model.kind == "mixed":
        lam = model.params.lam
        vol_hp = lam * J * ev.hp if lam or math.isfinite(ev.hp) else 0.0
        return vol_chi + (2.0 / J) * (model.params.mu - vol_hp) * _IsI
    c, w = state.c, model.shear_factor(J)
    trc = float(trace(c))
    # outer(dev(c), I3) is the symmetrized dyad (dev c (x) I + I (x) dev c)/2
    return (
        vol_chi
        - 2.0 * model.params.K * ev.hp * _IsI
        + (2.0 / 3.0) * w * trc * _IsI
        - (2.0 / 9.0) * w * trc * _II
        - (4.0 / 3.0) * w * outer(dev(c), I3)
    )


# the central-difference step of tangent_fd_error, and the table of its
# motions with the number of motions it holds
_FD_STEP = 1e-5
_FD_TABLE = os.path.join(os.path.dirname(__file__), "_fd_motions.f64")
_FD_TABLE_MOTIONS = 1000


@functools.lru_cache(maxsize=1)
def _fd_motions(n_motions):
    """The first ``n_motions`` motions of :func:`tangent_fd_error`, as
    (F0, F0 + h Fdot, F0 - h Fdot, state, rate) tuples with every array
    read-only. Raises ``ValueError`` unless 1 <= n_motions <= 1000.

    They depend on nothing but the count, so one set serves every model of
    a ``tangent-check`` run. They are read from ``_fd_motions.f64``: raw
    little-endian float64, F0 then Fdot (3 x 3, row-major) for each of 1000
    motions, as drawn from ``numpy.random.default_rng(913)``: F0 = I + 0.3 N
    and Fdot = 0.5 N in turn from one stream of standard normal 3 x 3
    draws N, where a draw of F0 with det F0 <= 0.4 is rejected and redrawn.
    The table holds the products, so reading it gives the drawn bits with
    no arithmetic, and the motions do not depend on the numpy release.
    """
    if not 1 <= n_motions <= _FD_TABLE_MOTIONS:
        raise ValueError(f"n_motions must be in 1..{_FD_TABLE_MOTIONS}, got {n_motions}")
    table = np.fromfile(_FD_TABLE, "<f8", count=18 * n_motions).reshape(n_motions, 2, 3, 3)
    table.flags.writeable = False
    h = _FD_STEP
    motions = []
    for F0, Fdot in table:
        state, rate = rate_from_motion(F0, Fdot)
        F_p, F_m = F0 + h * Fdot, F0 - h * Fdot
        for a in (F_p, F_m, state.F, state.c, *state.projections, rate.l, rate.d, rate.w):
            a.flags.writeable = False
        motions.append((F0, F_p, F_m, state, rate))
    return tuple(motions)


@np.errstate(all="ignore")
def tangent_fd_error(model, n_motions=10):
    """Max relative error of c_tr : d against a finite-difference Oldroyd rate.

    Deterministic motions F(t) = F0 + t Fdot0 (:func:`_fd_motions`); the
    Oldroyd rate is formed as tau-dot - l tau - tau l^T by central
    differences of the Kirchhoff stress. The error is a ratio of two
    quantities linear in (mu, lam, K), so it runs at the constants divided
    by 2^e, where mu = m 2^e with 1/2 <= m < 1
    (:func:`materials.mantissa_params`): a power-of-two scale is exact, so
    the result is the same at every modulus m 2^e. The check reads only
    c_tr, never the c_bh of :func:`tangents`. Raises ``ValueError`` when a
    stress or c_tr leaves the float range, which makes the error not finite.
    """
    model = model.at_mantissa[0]
    h = _FD_STEP
    worst = 0.0
    for F0, F_p, F_m, state, rate in _fd_motions(n_motions):
        tau_p = cauchy_stress(model, F_p).kirchhoff
        tau_m = cauchy_stress(model, F_m).kirchhoff
        tau_dot = (tau_p - tau_m) / (2.0 * h)
        tau = cauchy_stress(model, F0).kirchhoff
        old_fd = tau_dot - rate.l @ tau - tau @ rate.l.T
        pred = apply4(_c_tr(model, state), rate.d) * state.J
        scale = max(float(np.abs(old_fd).max()), 1e-12)
        error = float(np.abs(pred - old_fd).max()) / scale
        if not math.isfinite(error):
            raise _beyond_float_range(model, state.J)
        worst = max(worst, error)
    return worst


# --------------------------------------------------------------------------
# grid searches for violations

_GRID_LO, _GRID_HI = -0.75, 0.75  # log10 of the smallest and largest grid stretch


@dataclass(frozen=True)
class Witness:
    """A (state, coaxial rate) pair with the contraction value found there.

    The search runs at mu = 1; ``volfun`` and ``nu`` state the model.
    """

    contraction: str
    kind: str
    volfun: VolFun
    nu: float
    lams: tuple
    J: float
    direction: tuple  # diagonal rate components in the stretch frame
    value: float


def stretch_grid(n):
    """Deterministic log-spaced grid of n^3 diagonal stretch triples, the
    last axis fastest, as one read-only array."""
    axis = np.logspace(_GRID_LO, _GRID_HI, n)
    g = np.empty((n**3, 3))
    cube = g.reshape(n, n, n, 3)  # a view: each axis is written in place
    cube[..., 0] = axis[:, None, None]
    cube[..., 1] = axis[:, None]
    cube[..., 2] = axis
    g.flags.writeable = False
    return g


# Orthonormal columns: the spherical direction, then two vectors whose dot
# product with (1, 1, 1) is exactly zero in floating point (a - a and
# 2b - 2b cancel with no rounding). Rotating by Q confines the c * ones
# part of the coaxial form to the single (0, 0) entry with no leakage.
_TRACE_ROT = np.array(
    [
        [3.0**-0.5, 2.0**-0.5, 6.0**-0.5],
        [3.0**-0.5, -(2.0**-0.5), 6.0**-0.5],
        [3.0**-0.5, 0.0, -2.0 * 6.0**-0.5],
    ]
)


# the image of (1, 1, 1) under _TRACE_ROT^T: (sqrt(3)-ish, exactly 0, exactly 0)
_QU = _TRACE_ROT.T @ np.ones(3)

# the (row, column) of each lower-triangle entry, in the order eigh's
# lower triangle and _ShearBlock.lower list them
_LOWER = ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2))

# the factors Q[j, i] and Q[k, l] of each lower-triangle entry (i, l) of
# Q^T S Q, Q = _TRACE_ROT: row j of _ROT_ROW and row k of _ROT_COL, as
# columns, in _LOWER order
_ROT_ROW = _TRACE_ROT[:, [i for i, _ in _LOWER]][:, :, None]
_ROT_COL = _TRACE_ROT[:, [l for _, l in _LOWER]][:, :, None]

# A class settles on its representative only where the representative's
# shear scale lies in _SETTLE_SHEAR and no entry of its form, alpha
# included, exceeds _SETTLE_ENTRY in size: there no square, product or
# quotient of the deflation, the rotation or eigh overflows, and what
# underflow loses is far below the certificate's margin, so every member's
# value is the representative's up to rounding of order eps * max|entry|.
_SETTLE_SHEAR = (1e-100, 1e100)
_SETTLE_ENTRY = 1e300


@dataclass(frozen=True)
class _Classes:
    """The stretch-permutation classes of a stretch grid: its states grouped
    by the multiset of their stretches and the bits of their J
    (:func:`_stretch_classes`).

    Class k is the class whose lowest grid index, its representative, is
    ``reps[k]``, so the representatives are in grid order; ``of`` holds the
    class of each state.
    """

    reps: np.ndarray
    of: np.ndarray


@dataclass(frozen=True)
class _ShearBlock:
    """What the scan reads of the part of the coaxial form M = S + c * ones(3, 3)
    that depends only on (kind, contraction, mu, grid), never on the
    volumetric function or nu, for the representative of each stretch class
    (:class:`_Classes`), in class order.

    ``form`` is the (kind, contraction, mu) of S. ``lower`` holds the six
    lower-triangle entries of S rotated by _TRACE_ROT
    (:func:`_rotate_lower`), in ``_LOWER`` order, each a C-contiguous
    vector; nothing reads the upper triangle. The volumetric coefficient
    changes Sp00 alone, so ``plane`` and ``coupling``, which the bounds of
    :func:`_candidates` and :func:`_graded_clears` read, serve every volfun
    and nu. ``shift`` is the shear-scale summand of the coefficient of ones
    (all 0.0 for the mixed Hill form, which has none). ``settles`` marks the
    classes that their representative may settle (:data:`_SETTLE_SHEAR`).
    """

    form: tuple  # (kind, contraction, mu)
    lower: tuple  # (Sp00, Sp10, Sp20, Sp11, Sp21, Sp22), Sp = Q^T S Q
    grading: np.ndarray  # 1e3 (s_scale + 1e-300), s_scale the largest |entry| of ``lower``
    tail: np.ndarray  # the largest |entry| of ``lower`` besides Sp00
    plane: np.ndarray  # the smallest eigenvalue of [[Sp11, Sp21], [Sp21, Sp22]]
    coupling: np.ndarray  # |(Sp10, Sp20)|
    J: np.ndarray
    shift: np.ndarray
    settles: np.ndarray


# The number of grid states that the scan, the shear-block build and the
# column read each take at a time (_blocks); a pass over k cells takes
# _SCAN_BLOCK // k states at a time. Every temporary of a call but its
# classes, shear blocks (25 MB at n = 100) and columns is at most about
# this long. In a sweep from 1024 to
# 65536 states (BENCH_29.json), 4096 gave the lowest stability-grid peak RSS
# (43.2-43.3 MB, against 43.4-43.6 at 2048 and 44.0-44.2 at 8192); smaller
# blocks split the 4096-state scans of `stability --grid-n 16` and ran slower.
_SCAN_BLOCK = 4096


def _blocks(n, size=None):
    """Slices of at most ``size`` (default _SCAN_BLOCK) consecutive states, in
    order, that cover n states."""
    size = size or _SCAN_BLOCK
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def _rotate_lower(entry, lower):
    """Fill ``lower``, a zeroed (6, n) array, with the six lower-triangle
    entries of Q^T S Q, Q = _TRACE_ROT, in ``_LOWER`` order, for n 3x3
    matrices S whose S[:, j, k] is ``entry(j, k)`` (a vector or a scalar).
    Call under an errstate.

    Each entry is formed once and S is never stored. Entry (i, l) adds
    (Q[j, i] * S[:, j, k]) * Q[k, l] onto 0.0, j outer and k inner, so it
    has the bits of ``np.einsum("ji,njk,kl->nil", Q, S, Q)``; only the sign
    of a NaN may differ, where two NaNs meet in one sum. The six entries
    take each step together, so a step is three array operations."""
    term = np.empty(lower.shape)
    for j, k in np.ndindex(3, 3):  # j outer, k inner
        np.multiply(_ROT_ROW[j], entry(j, k), out=term)
        term *= _ROT_COL[k]
        np.add(term, lower, out=lower)


def _max_abs(vectors):
    """Per-state largest |entry| of equal-length vectors (NaN if one is NaN)."""
    scale = np.abs(vectors[0])
    for v in vectors[1:]:
        np.maximum(scale, np.abs(v), out=scale)
    return scale


def _stretch_classes(grid):
    """The :class:`_Classes` of a stretch grid that :func:`min_coaxial_eig`
    has checked. Call under an errstate.

    A stable lexsort orders the states by their sorted stretches, then by
    J, the product of each row as the grid holds it (a permutation may
    round it differently, and then lands in another class), keeping grid
    order among equal keys. Each class is then one run of the order, led
    by its lowest grid index. Only the four keys and the order are as long
    as the grid; the runs are found one block at a time (:func:`_blocks`)."""
    x, y, z = grid.T
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    keys = (np.prod(grid, axis=1), np.maximum(hi, z), np.maximum(lo, np.minimum(hi, z)))
    keys += (np.minimum(lo, z),)  # J, then the greatest, middle and least stretch
    del lo, hi
    order = np.lexsort(keys)
    n = len(grid)
    first = np.ones(n, dtype=bool)
    for part in _blocks(n - 1):  # the neighbours order[i] and order[i + 1]
        a, b = order[part], order[part.start + 1 : part.stop + 1]
        new = first[part.start + 1 : part.stop + 1]
        for key in keys:
            new &= key[b] == key[a]
        np.logical_not(new, out=new)
    del keys
    leads = order[first]
    label = np.empty(len(leads), dtype=np.intp)
    label[np.argsort(leads)] = np.arange(len(leads))
    run = np.cumsum(first)
    run -= 1
    of = np.empty(n, dtype=np.intp)
    for part in _blocks(n):
        of[order[part]] = label[run[part]]
    return _Classes(reps=np.sort(leads), of=of)


def _shear_form(kind, contraction, mu, lams):
    """(entry, J, shift) of a checked stretch grid (see :func:`min_coaxial_eig`),
    or of some rows of one, where ``entry(j, k)`` forms S[:, j, k] of the
    shear part S = w (MP - a MB) of its coaxial forms M = S + (c + shift) *
    ones(3, 3): MP = diag(2 lam2) is the matrix of P and MB_jk = (lam2_j +
    lam2_k) / 2 that of B, and a = 0 skips MB, so an off-diagonal entry of
    the mixed Hill form is the scalar 0, and so is its shift.

    Each state's values depend on its own row alone, so any subset of the
    rows gives the same bits for the rows it holds."""
    lam2 = np.ascontiguousarray((lams**2).T)  # (3, n)
    J = np.prod(lams, axis=1)
    w, a, shift = _coaxial_form(kind, contraction, mu, J, lam2[0] + lam2[1] + lam2[2])

    def entry(j, k):
        col = 2.0 * lam2[j] if j == k else 0.0
        if a:
            col = col - a * (0.5 * (lam2[j] + lam2[k]))
        return np.multiply(w, col)

    return entry, J, shift


def _grading(s_scale):
    """The size of alpha above which a state is graded: 1e3 (s_scale +
    1e-300), for the largest |entry| s_scale of its rotated shear entries."""
    return 1e3 * (s_scale + 1e-300)


def _build_shear_block(kind, contraction, mu, grid, classes):
    """The _ShearBlock of the representatives of a checked stretch grid's
    classes, whose arrays are filled block by block (:func:`_blocks`), so no
    temporary of the build outgrows one block. It reads the representatives'
    rows alone: a member's shift can differ from its representative's by
    more than rounding only outside the settle range (see
    :func:`min_coaxial_eig`)."""
    reps = classes.reps
    m = len(reps)
    lower = np.zeros((len(_LOWER), m))
    tail, J, shift = np.empty(m), np.empty(m), np.empty(m)
    for part in _blocks(m):
        entry, J[part], shift[part] = _shear_form(kind, contraction, mu, grid[reps[part]])
        _rotate_lower(entry, lower[:, part])
        tail[part] = _max_abs(lower[1:, part])
    s_scale = np.maximum(np.abs(lower[0]), tail)
    lo, hi = _SETTLE_SHEAR
    _, b1, b2, p, r, q = lower
    return _ShearBlock(
        form=(kind, contraction, mu),
        lower=tuple(lower),
        grading=_grading(s_scale),
        tail=tail,
        plane=_eig2_min(p, r, q),
        coupling=np.hypot(b1, b2),
        J=J,
        shift=shift,
        settles=(s_scale >= lo) & (s_scale <= hi),
    )


# the VolFunEval field that each contraction's volumetric coefficient reads:
# chi for Hill, h'' for CSP
_VOLUMETRIC_COLUMN = {"hill": "chi", "csp": "hpp"}


def _volumetric_column(contraction, volfun, J):
    """chi (Hill) or h'' (CSP) of ``volfun`` at every J, as a contiguous vector
    read one block of J at a time (:func:`_blocks`). ``evaluate_grid`` forms
    that column alone, point by point, so the blocks give the bits of one
    call on every J and of that column of the full table."""
    column = np.empty(len(J))
    for part in _blocks(len(J)):
        column[part] = evaluate_grid(volfun, J[part], _VOLUMETRIC_COLUMN[contraction])
    return column


def _eig2_min(p, r, q):
    """Batched smallest eigenvalue of the symmetric 2x2 [[p, r], [r, q]]."""
    return 0.5 * (p + q) - np.hypot(0.5 * (p - q), r)


def _deflate(alpha, b1, b2, p, r, q):
    """(x, big) of graded states given by their rotated lower triangles.

    x is the smallest eigenvalue of the trace-free 2x2 block after the
    spherical direction is deflated, from three fixed-point passes of the
    Schur complement; big is the spherical branch. Every state has |alpha|
    far above its other entries, so alpha is never 0 and the first pass
    divides by alpha itself. Call under an errstate.
    """
    b11, b12, b22 = b1 * b1, b1 * b2, b2 * b2
    x = _eig2_min(p - b11 / alpha, r - b12 / alpha, q - b22 / alpha)
    for _ in range(2):
        den = np.where(alpha == x, 1.0, alpha - x)
        x = _eig2_min(p - b11 / den, r - b12 / den, q - b22 / den)
    big = alpha + (b11 + b22) / np.where(alpha == x, 1.0, alpha - x)
    return x, big


def _lower_matrices(rows):
    """The symmetric 3x3 matrices eigh is given, from the six lower-triangle
    vectors ``rows`` (in ``_LOWER`` order) mirrored across the diagonal."""
    M = np.empty((len(rows[0]), 3, 3))
    for (i, l), v in zip(_LOWER, rows):
        M[:, i, l] = v
        M[:, l, i] = v
    return M


def _eigh(rows):
    """``np.linalg.eigh`` of the matrices of :func:`_lower_matrices`, NaN at a
    matrix with an entry that is not finite, which LAPACK is never given: it
    may fail on one for the whole call, or return finite eigenvalues."""
    M = _lower_matrices(rows)
    if np.isfinite(M).all():
        return np.linalg.eigh(M)
    finite = np.isfinite(M).all(axis=(1, 2))
    vals, vecs = np.full((len(M), 3), np.nan), np.full(M.shape, np.nan)
    vals[finite], vecs[finite] = np.linalg.eigh(M[finite])
    return vals, vecs


def _candidates(alpha, plane, coupling, graded):
    """(bounds, positions), each (2, cells): for each cell, a row of
    ``alpha``, two ungraded states whose smallest eigenvalues are likely
    near the smallest of all, given by alpha, the smallest eigenvalue
    ``plane`` of their trace-free block and the length ``coupling`` of the
    column that couples the two: the one with the smallest upper bound
    min(alpha, plane) on its eigenvalue (a principal submatrix's
    eigenvalues interlace), and the one with the smallest lower bound
    min(alpha, plane) - coupling (Weyl's inequality), the first of a tie.
    A graded state's bound reads +inf. A permutation of the stretches
    rotates the trace-free plane and leaves both bounds as they are, so a
    representative ranks as every member of its class would."""
    upper = np.minimum(alpha, plane)
    bounds = [np.where(graded, np.inf, b) for b in (upper, upper - coupling)]
    pos = np.array([np.argmin(b, axis=1) for b in bounds])
    return np.array([b[np.arange(len(b)), p] for b, p in zip(bounds, pos)]), pos


def _exceeds(upper, scale, a00, a10, a20, a11, a21, a22):
    """Which symmetric 3x3 matrices, given by their lower triangles and the
    largest |entry| of each, ``scale``, certainly have an ``eigh`` minimum
    strictly above ``upper``.

    The certificate is an unpivoted LDL^T of A - t I, t = upper + margin,
    with all three pivots positive: floating-point Cholesky that completes
    proves A - t I + E positive definite for some |E| of order eps * (|A| +
    |t|) (Higham, Accuracy and Stability of Numerical Algorithms, 10.1), and
    eigh's own error is of order eps * |A|. The margin, 1e-9 * (3 max|A| +
    |upper|) plus a floor far above underflow, dwarfs both, so a certified
    matrix's eigh value exceeds ``upper``. A NaN or inf entry, or a NaN
    ``upper``, fails every pivot test. Call under an errstate.
    """
    t = upper + (1e-9 * (3.0 * scale + abs(upper)) + 1e-300)
    d0 = a00 - t
    l10 = a10 / d0
    l20 = a20 / d0
    d1 = (a11 - t) - l10 * a10
    e21 = a21 - l20 * a10
    d2 = (a22 - t) - l20 * a20 - (e21 / d1) * e21
    return (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)


def _with_alpha(c, sheared):
    """The lower triangle eigh reads, for states whose rotated shear entries
    are ``sheared`` and whose coefficient of ones is ``c``: the entries
    with alpha = Sp00 + c * qu0 * qu0 in place of Sp00, in that order,
    formed over c's own buffer. Call under an errstate."""
    alpha = np.multiply(c, _QU[0], out=c)
    alpha *= _QU[0]
    np.add(sheared[0], alpha, out=alpha)
    return (alpha, *sheared[1:])


def _bounded_routes(lower, grading, upper, shear):
    """(mins, upper): the values of a block of representatives, a row per
    cell, by the three routes of :func:`min_coaxial_eig`, and each cell's
    U (``upper``) lowered by them. ``lower`` is :func:`_with_alpha`'s, a
    row of alpha per cell; the other entries, ``grading`` and ``shear``
    (tail, plane, coupling, settles of :class:`_ShearBlock`) are shared. A
    graded state whose value provably clears U (:func:`_graded_clears`) is
    not deflated; mins is +inf there and at a certified state. Call under
    an errstate."""
    alpha, rest = lower[0], lower[1:]
    tail, plane, coupling, settles = shear
    size = np.abs(alpha)
    graded = size > grading
    kept = ~graded
    mins = np.full(alpha.shape, np.inf)
    bound, pos = _candidates(alpha, plane, coupling, graded)
    pair = bound < np.inf
    if pair.any():  # every cell's two candidates in one call
        cells, at = np.nonzero(pair)[1], pos[pair]
        rows = [alpha[cells, at], *(v[at] for v in rest)]
        bound[pair] = _eigh(rows)[0][:, 0]
        upper = np.fmin(upper, np.min(np.where(pair, bound, np.inf), axis=0))
    bounded = settles & (size <= _SETTLE_ENTRY)
    bounded &= _graded_clears(upper[:, None], grading, alpha, plane, coupling)
    graded &= ~bounded
    k, i = np.nonzero(graded)
    if k.size:
        x, big = _deflate(alpha[k, i], *(v[i] for v in rest))
        mins[k, i] = np.minimum(x, big)
        upper = np.fmin(upper, np.min(mins, axis=1))
    kept &= ~_exceeds(upper[:, None], np.maximum(size, tail), alpha, *rest)
    k, i = np.nonzero(kept)
    if k.size:
        rows = [alpha[k, i], *(v[i] for v in rest)]
        mins[k, i] = _eigh(rows)[0][:, 0]
    return mins, upper


def _routes(lower, grading):
    """(mins, route): the value of each state given by its lower triangle
    (:func:`_with_alpha`) and grading, by the deflation where graded and
    ``eigh`` elsewhere, and what :func:`_direction` reads. Call under an
    errstate."""
    graded = np.abs(lower[0]) > grading
    mins = np.empty(len(graded))
    rows = np.flatnonzero(graded)
    kept = ~graded
    x = vecs = None
    if rows.size:
        x, big = _deflate(*(v[rows] for v in lower))
        mins[rows] = np.minimum(x, big)
    if kept.any():
        vals, vecs = _eigh([v[kept] for v in lower])
        mins[kept] = vals[:, 0]
    return mins, (graded, rows, x, kept, vecs)


def _direction(i, value, lower, route):
    """The minimizing direction, in the rotated frame, of state i of the
    states that :func:`_routes` valued, at ``value``."""
    graded, rows, x, kept, vecs = route
    alpha, b1, b2, p, r, q = lower
    if graded[i] and value == x[np.searchsorted(rows, i)]:
        d = value - alpha[i]
        pp = p[i] - b1[i] * b1[i] / -d
        qq = q[i] - b2[i] * b2[i] / -d
        rr = r[i] - b1[i] * b2[i] / -d
        cand1 = np.array([rr, value - pp])
        cand2 = np.array([value - qq, rr])
        v2 = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        if np.linalg.norm(v2) == 0.0:  # isotropic small block
            v2 = np.array([1.0, 0.0])
        v1 = (b1[i] * v2[0] + b2[i] * v2[1]) / d
        return np.array([v1, v2[0], v2[1]])
    if graded[i]:  # the spherical branch itself is the minimum (c < 0)
        return np.array([1.0, 0.0, 0.0])
    return vecs[np.count_nonzero(kept[:i]), :, 0]


def _open_members(open_class, classes, size):
    """(cells, rows) chunks of the pairs of a cell and a grid state whose class
    is open for that cell (``open_class[cell, class]`` not 0), by grid block
    and at most ``size`` states of one at a time, so each cell's states come
    in grid order; the representative of a class marked 2 is left out."""
    of, somewhere = classes.of, open_class.any(axis=0)
    for part in _blocks(len(of)):
        hit = part.start + np.flatnonzero(somewhere[of[part]])
        for piece in _blocks(hit.size, size):
            state = open_class[:, of[hit[piece]]]
            k, i = np.nonzero(state)
            rows = hit[piece][i]
            keep = (state[k, i] == 1) | (classes.reps[of[rows]] != rows)
            yield k[keep], rows[keep]


def _settle_bar(upper, grading):
    """The value a state must exceed to settle against ``upper``: the
    certificate's margin, 1e-9 * (3 max|entry| + |upper|) plus its floor,
    above ``upper``, with max|entry| taken at the grading bound
    (:func:`_grading`), which is at least max|entry| of an ungraded state
    and the scale of a deflated value's rounding. NaN or inf at an infinite
    ``upper``. The arguments broadcast."""
    return np.multiply(grading, 3e-9) + (upper + (1e-9 * np.abs(upper) + 1e-300))


def _clears(values, upper, grading):
    """Which ``values`` exceed the settle bar of ``upper`` (:func:`_settle_bar`);
    False at a NaN value and at an infinite ``upper``. Call under an
    errstate."""
    return values > _settle_bar(upper, grading)


def _graded_clears(upper, grading, alpha, plane, coupling):
    """Which graded states of the settle range (:data:`_SETTLE_SHEAR`,
    :data:`_SETTLE_ENTRY`) certainly have a value that clears ``upper``
    (:func:`_clears`), with no deflation; ``plane`` and ``coupling`` are
    those of :class:`_ShearBlock`.

    Take t the settle bar and a state with alpha > t. An eigenvalue lam <=
    t of its matrix lies below alpha, so it is one of the Schur complement
    B - b b^T / (alpha - lam), B the trace-free block and b the coupling
    column; that is at least B - b b^T / (alpha - t), so lam >= plane -
    coupling^2 / (alpha - t), and a bound above t leaves no such
    eigenvalue. Only alpha > 0 is taken: a bound above t then needs t <
    plane <= 2 max|shear entry| < alpha / 500, so alpha - t > alpha / 2 >
    5e-98 in the settle range, where no square overflows either. The bound
    is then exact up to rounding of order eps * max|shear entry| plus what
    underflow loses, far below the bar's margin of 3e-6 max|shear entry|:
    the exact eigenvalues of the state, and so the values of every member
    of its class, exceed ``upper`` (see :func:`min_coaxial_eig`). Call
    under an errstate."""
    t = _settle_bar(upper, grading)
    return (alpha > 0.0) & (plane - coupling * coupling / (alpha - t) > t)


def _class_scan(grid, classes, block, coefs, column):
    """Each cell's (value, grid index, rotated-frame direction) of the
    minimum of :func:`min_coaxial_eig`, or its first error, for cells of
    volumetric coefficients ``coefs`` (at the mantissa of mu) and the
    volumetric ``column`` on the J of the shear block of a checked stretch
    grid and its classes. Call under an errstate."""
    kind, contraction, mu = block.form
    size = _SCAN_BLOCK // len(coefs) or 1
    # the representatives, in blocks, with each cell's U running across
    # them; each block keeps the classes that its representatives do not
    # settle against the U so far, to be judged again against the final U
    upper, near = np.full(len(coefs), np.inf), []
    for part in _blocks(len(block.J), size):
        c = _volumetric_c(contraction, coefs[:, None], block.J[part], column[part])
        c += block.shift[part]
        lower = _with_alpha(c, [v[part] for v in block.lower])
        grading = block.grading[part]
        shear = (block.tail[part], block.plane[part], block.coupling[part], block.settles[part])
        mins, upper = _bounded_routes(lower, grading, upper, shear)
        upper = np.fmin(upper, np.min(mins, axis=1))  # a real state's value
        # a representative outside the settle range never clears U
        mins[~block.settles[part] | (np.abs(lower[0]) > _SETTLE_ENTRY)] = np.nan
        k, i = np.nonzero(~_clears(mins, upper[:, None], grading))
        near.append((k, part.start + i, mins[k, i], grading[i]))
    k, i, mins, grading = (np.concatenate(v) for v in zip(*near))
    k, i, mins = (v[~_clears(mins, upper[k], grading)] for v in (k, i, mins))
    # a cell's open representatives with a value, the first smallest of
    # them aside, cannot hold its minimum, so their own states need no scan:
    # such a class is 2 in open_class, any other open class 1
    low, first = np.full(len(coefs), np.inf), np.full(len(coefs), len(block.J))
    np.fmin.at(low, k, mins)
    np.minimum.at(first, k[mins == low[k]], i[mins == low[k]])
    open_class = np.zeros((len(coefs), len(block.J)), dtype=np.uint8)
    open_class[k, i] = 1 + ((mins == mins) & (i != first[k]))

    # every member of an open class, in grid order, by the deflation or eigh
    best = [None] * len(coefs)  # each cell's minimum so far, or its NaN error
    for cells, rows in _open_members(open_class, classes, size):
        entry, J, shift = _shear_form(kind, contraction, mu, grid[rows])
        sheared = np.zeros((len(_LOWER), rows.size))
        _rotate_lower(entry, sheared)
        c = _volumetric_c(contraction, coefs[cells], J, column[classes.of[rows]])
        c += shift
        lower = _with_alpha(c, sheared)
        mins, route = _routes(lower, _grading(_max_abs(sheared)))
        for k in np.flatnonzero(np.bincount(cells)):
            if isinstance(best[k], ValueError):
                continue
            own = np.flatnonzero(cells == k)
            i = own[np.argmin(mins[own])]  # the cell's first NaN here, if any
            value = float(mins[i])
            if value != value:
                message = f"the {contraction} stability form is NaN at grid state {rows[i]}"
                best[k] = ValueError(message)
            elif best[k] is None or value < best[k][0]:  # a tie keeps the earlier state
                best[k] = (value, int(rows[i]), _direction(i, value, lower, route))
    return best


def _pair_scan(kind, contraction, mu, grid, classes, cells, volfuns, coefs):
    """The outcome of each of ``cells``, keyed by cell: they index the cells
    of one (kind, contraction) into ``volfuns`` and the volumetric ``coefs``
    (at the mantissa of ``mu``). The pair's shear block lives only as long
    as this call. The cells of each volfun, in first-seen order, share one
    pass (:func:`_class_scan`): one column read and every call of
    ``np.linalg.eigh`` and of the deflation, each cell with its own U. The
    cells with no volumetric term (the mixed kind at nu = 0, where c = 0 at
    every volfun) share one scan. Call under an errstate."""
    block = _build_shear_block(kind, contraction, mu, grid, classes)
    # the cell whose scan each cell takes: itself, or the first cell with no
    # volumetric term, whose scan is every such cell's
    scanned = {k: k if coefs[k] else next(j for j in cells if not coefs[j]) for k in cells}
    groups = {}  # the cells that each volfun's pass scans, in order
    for k in dict.fromkeys(scanned.values()):
        groups.setdefault(volfuns[k], []).append(k)
    found = {}
    for vf, ks in groups.items():
        try:
            column = _volumetric_column(contraction, vf, block.J)
        except ValueError as error:  # a J that underflows to 0 has no volumetric column
            found.update(dict.fromkeys(ks, error))
            continue
        try:
            found.update(zip(ks, _class_scan(grid, classes, block, coefs[ks], column)))
        except np.linalg.LinAlgError:  # LAPACK failed on a cell's matrix: scan the cells alone
            found.update((k, _class_scan(grid, classes, block, coefs[[k]], column)[0]) for k in ks)
    return {k: found[j] for k, j in scanned.items()}


@np.errstate(all="ignore")
def min_coaxial_eig(kind, volfun, params, lams, contraction="hill"):
    """Minimum coaxial-form eigenvalue over the grid, with its argmin data.

    Returns (min_value, index, direction) where direction is the minimizing
    diagonal rate (unit vector). A non-coaxial rate adds only the
    nonnegative R term, so this minimum decides positivity.

    ``params`` is one ``MaterialParams`` (a cell), or a list or tuple of
    them that share mu (a batch); ``kind``, ``volfun`` and ``contraction``
    are each one value, or a list or tuple of one per cell. A batch returns,
    per cell, its (min_value, index, direction) with the bits of the cell
    scanned alone, or the ``ValueError`` that scan raises; a single cell
    raises it. The call sorts the grid into classes once, then scans each
    (kind, contraction) in first-seen order (:func:`_pair_scan`).

    Each state's value comes from one of three routes, and a state pays
    only for the route that decides it:

    * the deflation (:func:`_deflate`), on the "graded" states alone, where
      the volumetric coefficient dwarfs the shear-scale block. It removes
      the spherical direction analytically; a plain eigendecomposition there
      would bury the true minimum (which lives in the nearly-traceless
      subspace) under eps * |c| rounding noise;
    * the certificate (:func:`_exceeds`), on every ungraded state, against
      an upper bound U on the minimum: the smallest value found so far and
      the ``eigh`` values of two candidate states of each block, every
      cell's decomposed in one call (:func:`_candidates`: the smallest
      upper and the smallest lower bound on a state's eigenvalue from its
      trace-free block and the column coupling it to the spherical
      direction). An unpivoted LDL^T of the state's matrix minus (U + 1e-9
      * (3 max|entry| + |U|)) times I with three positive pivots proves its
      ``eigh`` value strictly above U, so it cannot be the minimum and its
      value is set to +inf;
    * ``eigh``, on the states that fail the certificate: those whose value
      lies within that margin of U, or that have a NaN or inf entry, so
      ties keep their first index.

    The states are grouped into stretch-permutation classes
    (:func:`_stretch_classes`): states with the same multiset of stretches
    and a bitwise-equal J. An isotropic form reads the stretches only as
    an unordered set, and ``stretch_grid(n)`` holds every permutation of
    each triple, so its 4096 states at n = 16 make 1179 classes. The scan
    takes the three routes on one representative per class, its lowest
    grid index, and then settles each class or leaves it open:

    * a class settles when its representative is certified against U, or
      when the representative's value exceeds the final U by the
      certificate's own margin, 1e-9 * (3 max|entry| + |U|), with
      max|entry| taken at the grading bound 1e3 * max|shear entry|
      (:func:`_clears`). A graded representative whose Schur-complement
      bound already clears U (:func:`_graded_clears`) settles its class
      with no deflation, its value set to +inf like a certified one's;
    * every other class is open: ties and near-ties of U, a NaN value, and
      a representative outside the range where rounding stays relative
      (_SETTLE_SHEAR, _SETTLE_ENTRY). Every member of an open class then
      takes the deflation or ``eigh`` itself, in grid order, with no bound
      or certificate, and the minimum is taken over them; of the open
      representatives with a value (by the same route), only the first
      smallest can be the minimum, so the others are not taken again.

    Why no member of a settled class can be the minimum: within a class J,
    w and the volumetric column are bitwise equal, so c is too, and the
    shear matrix S of a member is the representative's with its rows and
    columns permuted, bit for bit (the squares of the stretches are the
    same numbers). A permutation fixes (1, 1, 1), so in the rotated frame
    it is a fixed rotation of the trace-free plane, and the member's
    rotated form is the representative's conjugated by it, up to rounding
    in the rotation and the shift of order eps times the shear entries, and
    eps * |alpha| in alpha alone. Its exact eigenvalues are the
    representative's to that order: a graded state's trace-free values
    move by eps * |alpha| * (shear / alpha)^2 at most, and its spherical
    value, the minimum only where it is far below 0, keeps a relative
    error of order eps. Its value, by whichever route, is within a few
    eps of those scales of them, since in the settle range the deflation
    after three passes and ``eigh`` both are. The margin dwarfs all of it,
    so every member of a settled class has a value above U, and U, the
    value of a real state, is at least the minimum. A vol-iso member's
    shift, a multiple of w tr c, sums the squared stretches in the
    member's own order, and only an overflow sets it apart from the
    representative's by more than rounding. An overflow of w tr c itself
    comes with shear entries near the float limit; one of tr c that the
    order decides needs a squared stretch near the limit and each smaller
    one at least 1e-16 times the next, so the stretches exceed 1e154, 1e146
    and 1e138 and J overflows, w is 0 and the shear entries are 0 or NaN.
    Either way the class lies outside the settle range. The minimum's own
    class always stays open, and so do the first NaN state's, so the
    value, the first index of a tie, the direction and the first-NaN error
    keep the bits of scanning every state.

    A pass over k cells scans the representatives in blocks of
    ``_SCAN_BLOCK // k`` (:func:`_blocks`), in order, and the members of
    the open classes by grid block (:func:`_open_members`); each block
    takes its routes on its own states, so no temporary outgrows about
    ``_SCAN_BLOCK`` values. A cell's U runs across the blocks: a block
    lowers it by its own values, and certifies its states against the
    lowest U so far, which is still the value of a real state and so at
    least the minimum. A cell keeps a chunk's minimum only when it is
    strictly below the chunks' before, so a tie keeps its first index, and
    a NaN minimum ends it with an error naming that first NaN state. A
    matrix with an entry that is not finite never reaches ``eigh``, and its
    value is NaN (:func:`_eigh`). Where LAPACK fails on a finite matrix,
    ``eigh`` raises ``LinAlgError`` for the whole call, so then the pass
    scans its cells one at a time.

    The form is linear in (mu, lam, K), so the scan runs on the constants
    divided by 2^e, where mu = m 2^e with 1/2 <= m < 1
    (:func:`materials.mantissa_params`), and the minimum is scaled back by
    ``math.ldexp``. A power-of-two scale is exact, so the result is the
    unscaled scan's, bit for bit, wherever that scan stays in range; at a
    large modulus it keeps products such as b1 * b1 from overflowing. A
    minimum beyond the float range, or a NaN form at any state, raises
    ``ValueError``. The whole scan runs under one error state, so no numpy
    warning leaks.

    A call keeps nothing once it returns. The values, the argmin and the
    direction are bit for bit those of
    deflating every graded state and running ``eigh`` on every other one,
    whatever the block size. The deflation is element-wise, batched
    ``eigh`` treats each matrix on its own, and a state's rotated entries
    depend on its own row alone, so a subset gives the same bits for the
    rows it holds, and the argmin row's eigenvector or deflated direction
    is taken from the subset. Only the sign bit of a NaN may differ, where
    two NaNs meet in one operation: numpy's vector and scalar loops may
    keep different ones, and nothing prints that sign. The rotation
    (:func:`_rotate_lower`) keeps the bits of the batched ``einsum`` it
    replaced, and ``eigh`` stays as it is: ``eigvalsh`` rounds differently
    and would change the reported values in the last bits.
    """
    batch = isinstance(params, (list, tuple))
    cells = list(params) if batch else [params]
    kinds, volfuns, contractions = (
        list(arg) if isinstance(arg, (list, tuple)) else [arg] * len(cells)
        for arg in (kind, volfun, contraction)
    )
    each = len(kinds) == len(volfuns) == len(contractions) == len(cells)
    if not (cells and each) or any(p.mu != cells[0].mu for p in cells):
        raise ValueError(
            "a coaxial scan takes one or more cells that share mu, and a kind, volfun and "
            "contraction each"
        )
    scaled = [mantissa_params(p) for p in cells]
    mu, e = cells[0].mu, scaled[0][1]
    coefs = np.array([_volumetric_coef(k, p) for k, (p, _) in zip(kinds, scaled)])
    grid = np.asarray(lams, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 3 or grid.shape[0] == 0:
        raise ValueError(f"the stretch grid must be a nonempty (n, 3) array, got {grid.shape}")
    if not (np.all(grid > 0.0) and np.all(np.isfinite(grid))):
        raise ValueError("the stretch grid must hold positive finite stretches")
    classes = _stretch_classes(grid)
    pairs = {}  # the cells of each (kind, contraction), in first-seen order
    for k, pair in enumerate(zip(kinds, contractions)):
        pairs.setdefault(pair, []).append(k)
    found = {}
    for pair, ks in pairs.items():
        found.update(_pair_scan(*pair, scaled[0][0].mu, grid, classes, ks, volfuns, coefs))
    results = []
    for k, contraction in enumerate(contractions):
        outcome = found[k]
        if not isinstance(outcome, ValueError):
            value, i, vp = outcome
            direction = _TRACE_ROT @ vp
            try:
                outcome = (math.ldexp(value, e), i, direction / np.linalg.norm(direction))
            except OverflowError:
                outcome = ValueError(
                    f"the minimum {contraction} stability value overflows at modulus mu = {mu}"
                )
        results.append(outcome)
    if not batch and isinstance(results[0], ValueError):
        raise results[0]
    return results if batch else results[0]


def _search(contraction, kind, volfun, nus, grid):
    cells = [params_from_mu_nu(1.0, nu) for nu in nus]
    for nu, outcome in zip(nus, min_coaxial_eig(kind, volfun, cells, grid, contraction)):
        if isinstance(outcome, ValueError):
            raise outcome
        value, i, direction = outcome
        if value < 0.0:
            return Witness(
                contraction=contraction,
                kind=kind,
                volfun=volfun,
                nu=nu,
                lams=tuple(float(x) for x in grid[i]),
                J=float(np.prod(grid[i])),
                direction=tuple(float(x) for x in direction),
                value=value,
            )
    return None


def find_hill_violation(kind, volfun, n=16):
    """Search a deterministic grid for a Hill-contraction violation.

    Poisson ratios are tried from the near-incompressible end downward,
    where the volumetric term dominates.
    """
    return _search("hill", kind, volfun, PAPER_NUS[::-1], stretch_grid(n))


def find_csp_violation(kind, volfun, n=16):
    """Search a deterministic grid for a corotational-contraction violation.

    Poisson ratios are tried from nu = 0 upward, where the isochoric term
    dominates.
    """
    return _search("csp", kind, volfun, PAPER_NUS, stretch_grid(n))


def witness_report(witness):
    """Re-evaluate a grid witness through the full contraction machinery."""
    model = ModelSpec(witness.kind, witness.volfun, params_from_mu_nu(1.0, witness.nu))
    F = np.diag(witness.lams)
    d = np.diag(witness.direction)
    state, rate = rate_from_motion(F, d @ F)
    if witness.contraction == "hill":
        return hill_contraction(model, state, rate)
    return csp_contraction(model, state, rate)
