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
from dataclasses import dataclass, replace

import numpy as np

from nhcomp.kinematics import rate_from_motion
from nhcomp.materials import PAPER_NUS, ModelSpec, cauchy_stress, mantissa_params, params_from_mu_nu
from nhcomp.tensor3 import I3, apply4, ddot, dev, outer, sym_outer, trace
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
    "coaxial_matrices",
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
    range is +-inf or NaN (inf * 0), with no numpy warning.
    """
    c, d, J = state.c, rate.d, state.J
    mu = model.params.mu
    dc_cd = d @ c + c @ d
    if model.kind == "inc":
        if pdot is None:
            raise ValueError("the incompressible kind requires pdot")
        return -pdot * I3 + mu * dc_cd
    trd = float(trace(d))
    vol = model.volumetric_term(evaluate(model.volfun, J).chi) * J * trd * I3
    if model.kind == "mixed":
        return mu * dc_cd + vol
    iso = dc_cd - (2.0 / 3.0) * (dev(c) * trd + ddot(c, d) * I3)
    return vol + mu * J ** (-2.0 / 3.0) * iso


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

    A NaN or infinite value has no verdict and raises ``ValueError``.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"stability value {value} at scale {scale} has no sign verdict")
    tol = 1e-12 * max(float(scale), 1.0e-300)
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


def _volumetric_c(kind, contraction, params, J, column):
    """The volumetric coefficient c: lam or K times chi J for Hill, times
    J h'' for CSP, on scalars or per-state arrays; ``column`` is the chi
    (Hill) or h'' (CSP) it reads. A zero lam (mixed at nu = 0) gives c = 0,
    even where that column is inf.

    Only c carries the volumetric factors that explode at the grid corners;
    the coaxial form's shear part stays at the shear-modulus scale, so the
    scan finds the minimum eigenvalue without forming the ill-conditioned
    sum."""
    coef = params.lam if kind == "mixed" else params.K
    with np.errstate(over="ignore"):  # c may be inf at the grid corners
        if coef == 0.0:
            return np.zeros_like(J)
        if contraction == "hill":
            return coef * column * J
        return coef * J * column


def _report(contraction, model, state, d, value):
    """The report of a compressible contraction ``value`` at (state, d), judged
    at the scale of its recomposition's terms. Call under an errstate."""
    P, R, B, C, F = _letters(state, d)
    _crosscheck_A(state, d, P, R)
    J, prm = np.float64(state.J), model.params  # so a power past the float range is inf
    ev = evaluate(model.volfun, J)
    w, a, shift = _coaxial_form(model.kind, contraction, prm.mu, J, trace(state.c))
    column = ev.chi if contraction == "hill" else ev.hpp
    c = _volumetric_c(model.kind, contraction, prm, J, column)
    reco = w * (P + R - a * B) + (c + shift) * F
    scale = w * (P + R + a * abs(B)) + (abs(c) + shift) * F
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
    d, J = rate.d, state.J
    sigma = cauchy_stress(model, state.F).cauchy
    value = ddot(zj_rate(model, state, rate), d) / J - ddot(sigma, d) * float(trace(d))
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


# the central-difference step of tangent_fd_error and the seed of its
# motions; the seed fixes the motions, so tangent-check bytes repeat
_FD_STEP, _FD_SEED = 1e-5, 913


@functools.lru_cache(maxsize=1)
def _fd_motions(n_motions):
    """The first ``n_motions`` motions of :func:`tangent_fd_error`, as
    (F0, F0 + h Fdot, F0 - h Fdot, state, rate) tuples with every array
    read-only.

    They depend on nothing but the seed and the count, so one set serves
    every model of a ``tangent-check`` run. F0 = I + 0.3 N and Fdot = 0.5 N
    are drawn in turn from one seeded stream, and a draw of F0 with
    det F0 <= 0.4 is rejected and redrawn.
    """
    h, rng = _FD_STEP, np.random.default_rng(_FD_SEED)
    motions = []
    for _ in range(n_motions):
        while True:
            F0 = I3 + 0.3 * rng.standard_normal((3, 3))
            if np.linalg.det(F0) > 0.4:
                break
        Fdot = 0.5 * rng.standard_normal((3, 3))
        state, rate = rate_from_motion(F0, Fdot)
        F_p, F_m = F0 + h * Fdot, F0 - h * Fdot
        for a in (F0, F_p, F_m, state.F, state.c, *state.projections):
            a.flags.writeable = False
        for a in (rate.l, rate.d, rate.w, rate.dhat, rate.dtilde):
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
    model = replace(model, params=mantissa_params(model.params)[0])
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


def stretch_grid(n, lo=-0.75, hi=0.75):
    """Deterministic log-spaced grid of n^3 diagonal stretch triples."""
    axis = np.logspace(lo, hi, n)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return g.reshape(-1, 3)


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


@dataclass(frozen=True)
class _ShearBlock:
    """What the scan reads of the part of the coaxial form M = S + c * ones(3, 3)
    that depends only on (kind, contraction, mu, grid), never on the
    volumetric function or nu.

    ``lower`` holds the six lower-triangle entries of S (from
    :func:`_shear_matrices`) rotated by _TRACE_ROT, in the order of
    ``_LOWER``, each a C-contiguous length-n vector; nothing reads the upper
    triangle, and S itself is not kept. ``shift`` is the shear-scale summand
    of the coefficient of ones (0.0 for the mixed Hill form, which has
    none). Every array is read-only, since one block serves many calls.
    """

    lower: tuple  # (Sp00, Sp10, Sp20, Sp11, Sp21, Sp22), Sp = Q^T S Q
    s_scale: np.ndarray  # largest |entry| of ``lower`` per state
    J: np.ndarray
    shift: np.ndarray | float


# the (row, column) of each lower-triangle entry, in the order eigh's
# lower triangle and _ShearBlock.lower list them
_LOWER = ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2))

# The shared scan data of _shared: the last block built, as [key, private
# copy of the grid, block, column]. column is (volfun, values): the one
# volumetric column last read on the block's J, or None; the contraction in
# the key fixes which column it is. A stability scan runs every (volfun, nu)
# cell of one (kind, contraction) on one grid back to back, volfun by
# volfun, so one slot and one column are enough; a block and its grid copy
# hold up to 12 doubles per state (96 MB at n = 100), so more slots would
# cost peak memory for nothing. The column goes with its block.
_block_slot = [None]


def _rotate_lower(S):
    """The six lower-triangle entries of Q^T S Q, Q = _TRACE_ROT, for a batch
    S of 3x3 matrices, as contiguous length-n vectors in ``_LOWER`` order.

    Entry (i, l) adds (Q[j, i] * S[:, j, k]) * Q[k, l] onto 0.0, j outer and
    k inner: the order and rounding of ``np.einsum("ji,njk,kl->nil", Q, S,
    Q)``, so every result matches it bit for bit, at a fraction of its time.
    Only the sign bit of a NaN may differ, where two NaNs meet in one sum.
    """
    Q = _TRACE_ROT
    n = S.shape[0]
    term = np.empty(n)
    lower = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, l in _LOWER:
            acc = np.zeros(n)
            for j in range(3):
                for k in range(3):
                    np.multiply(Q[j, i], S[:, j, k], out=term)
                    term *= Q[k, l]
                    np.add(term, acc, out=acc)
            lower.append(acc)
    return tuple(lower)


def _max_abs(vectors):
    """Per-state largest |entry| of equal-length vectors (NaN if one is NaN)."""
    scale = np.abs(vectors[0])
    for v in vectors[1:]:
        np.maximum(scale, np.abs(v), out=scale)
    return scale


def _shear_matrices(kind, contraction, mu, lams):
    """The shear part S of the coaxial form M = S + (c + shift) * ones(3, 3)
    of every state of a stretch grid, with its J and ``shift``.

    S is (n, 3, 3), its entries at the shear-modulus scale, and is stored
    column by column, so each S[:, j, k] is contiguous. Raises
    ``ValueError`` for a grid that is empty, not (n, 3), or holds a stretch
    that is not positive and finite.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != 3 or lams.shape[0] == 0:
        raise ValueError(f"the stretch grid must be a nonempty (n, 3) array, got {lams.shape}")
    if not (np.all(lams > 0.0) and np.all(np.isfinite(lams))):
        raise ValueError("the stretch grid must hold positive finite stretches")
    n = lams.shape[0]
    lam2 = np.ascontiguousarray((lams**2).T)  # (3, n)
    J = np.prod(lams, axis=1)
    trc = lam2[0] + lam2[1] + lam2[2]
    w, a, shift = _coaxial_form(kind, contraction, mu, J, trc)
    # S = w (MP - a MB), with MP = diag(2 lam2) the matrix of P and
    # MB_jk = (lam2_j + lam2_k) / 2 that of B; a = 0 skips the MB term.
    cols = np.empty((3, 3, n))
    for j in range(3):
        for k in range(3):
            col = 2.0 * lam2[j] if j == k else 0.0
            if a:
                col = col - a * (0.5 * (lam2[j] + lam2[k]))
            np.multiply(w, col, out=cols[j, k])
    return cols.transpose(2, 0, 1), J, shift


def _build_shear_block(kind, contraction, mu, lams):
    S, J, shift = _shear_matrices(kind, contraction, mu, lams)
    lower = _rotate_lower(S)
    s_scale = _max_abs(lower)
    for v in (*lower, s_scale, J, shift):
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return _ShearBlock(lower=lower, s_scale=s_scale, J=J, shift=shift)


# the evaluate_grid column that each contraction's volumetric coefficient
# reads: chi for Hill, h'' for CSP
_VOLUMETRIC_COLUMN = {"hill": 4, "csp": 2}


def _volumetric_column(contraction, volfun, J):
    """chi (Hill) or h'' (CSP) of ``volfun`` at every J, as a contiguous vector."""
    return np.ascontiguousarray(evaluate_grid(volfun, J)[:, _VOLUMETRIC_COLUMN[contraction]])


def _shared(kind, contraction, mu, lams, volfun):
    """(block, column): the shear block of one (kind, contraction, mu, grid)
    and the volumetric column of ``volfun`` on its J (:func:`_volumetric_column`),
    each built at most once for a run of calls on the same inputs.

    The slot is matched by value (an equal copy of the grid, not the same
    object, and an equal volfun), so a grid changed in place gets a fresh
    block. The old block, with its column, is dropped before the new one is
    built, and the old column before the new one is read. Both are
    read-only, since they serve many calls.
    """
    lams = np.asarray(lams, dtype=float)
    key = (kind, contraction, float(mu))
    entry = _block_slot[0]
    if entry is None or entry[0] != key or not np.array_equal(entry[1], lams):
        # free the old block first: two blocks alive at once raise peak memory;
        # the build checks the grid, and a slot hit equals a copy that passed
        del entry
        _block_slot[0] = None
        block = _build_shear_block(kind, contraction, float(mu), lams)
        entry = _block_slot[0] = [key, lams.copy(), block, None]
    if entry[3] is None or entry[3][0] != volfun:
        entry[3] = None  # free the old column before the table of the new one
        column = _volumetric_column(contraction, volfun, entry[2].J)
        column.flags.writeable = False
        entry[3] = (volfun, column)
    return entry[2], entry[3][1]


def coaxial_matrices(kind, volfun, params, lams, contraction="hill"):
    """Batched 3x3 matrices of the contraction restricted to coaxial rates.

    ``lams`` is (N, 3); row i describes the diagonal state F = diag(lams[i]).
    The quadratic form in the diagonal rate components delta is
    delta^T M delta. Off-diagonal (non-coaxial) rate components contribute
    the separately nonnegative R term and never drive a violation, so the
    minimum eigenvalue of M over the grid decides positivity.
    """
    S, J, shift = _shear_matrices(kind, contraction, params.mu, lams)
    column = _volumetric_column(contraction, volfun, J)
    return S + (_volumetric_c(kind, contraction, params, J, column) + shift)[:, None, None]


def _eig2_min(p, r, q):
    """Batched smallest eigenvalue of the symmetric 2x2 [[p, r], [r, q]]."""
    return 0.5 * (p + q) - np.hypot(0.5 * (p - q), r)


def _deflate(alpha, b1, b2, p, r, q):
    """(x, big) of graded states given by their rotated lower triangles.

    x is the smallest eigenvalue of the trace-free 2x2 block after the
    spherical direction is deflated, from three fixed-point passes of the
    Schur complement; big is the spherical branch. Every state has |alpha|
    far above its other entries, so alpha is never 0 and the first pass
    divides by alpha itself.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        b11, b12, b22 = b1 * b1, b1 * b2, b2 * b2
        x = _eig2_min(p - b11 / alpha, r - b12 / alpha, q - b22 / alpha)
        for _ in range(2):
            den = np.where(alpha == x, 1.0, alpha - x)
            x = _eig2_min(p - b11 / den, r - b12 / den, q - b22 / den)
        big = alpha + (b11 + b22) / np.where(alpha == x, 1.0, alpha - x)
    return x, big


def _lower_matrices(lower, select):
    """The symmetric 3x3 matrices eigh is given, rows ``select`` of the six
    lower-triangle vectors ``lower`` (in ``_LOWER`` order) mirrored across
    the diagonal."""
    rows = [v[select] for v in lower]
    M = np.empty((len(rows[0]), 3, 3))
    for (i, l), v in zip(_LOWER, rows):
        M[:, i, l] = v
        M[:, l, i] = v
    return M


def _candidates(a00, a10, a20, a11, a21, a22):
    """Positions of two symmetric 3x3 matrices, given by their lower
    triangles, whose smallest eigenvalues are likely near the smallest of
    all: the one with the smallest diagonal entry (an upper bound on its
    eigenvalue) and the one with the smallest Gershgorin lower bound
    min_i (a_ii - sum_{j != i} |a_ij|)."""
    with np.errstate(over="ignore", invalid="ignore"):
        g10, g20, g21 = np.abs(a10), np.abs(a20), np.abs(a21)
        low = np.minimum(np.minimum(a00 - g10 - g20, a11 - g10 - g21), a22 - g20 - g21)
        diag = np.minimum(np.minimum(a00, a11), a22)
    return [np.argmin(diag), np.argmin(low)]


def _exceeds(upper, a00, a10, a20, a11, a21, a22):
    """Which symmetric 3x3 matrices, given by their lower triangles, certainly
    have an ``eigh`` minimum strictly above ``upper``.

    The certificate is an unpivoted LDL^T of A - t I, t = upper + margin,
    with all three pivots positive: floating-point Cholesky that completes
    proves A - t I + E positive definite for some |E| of order eps * (|A| +
    |t|) (Higham, Accuracy and Stability of Numerical Algorithms, 10.1), and
    eigh's own error is of order eps * |A|. The margin, 1e-9 * (3 max|A| +
    |upper|) plus a floor far above underflow, dwarfs both, so a certified
    matrix's eigh value exceeds ``upper``. A NaN or inf entry, or a NaN
    ``upper``, fails every pivot test.
    """
    scale = _max_abs((a00, a10, a20, a11, a21, a22))
    with np.errstate(all="ignore"):
        t = upper + (1e-9 * (3.0 * scale + abs(upper)) + 1e-300)
        d0 = a00 - t
        l10 = a10 / d0
        l20 = a20 / d0
        d1 = (a11 - t) - l10 * a10
        e21 = a21 - l20 * a10
        d2 = (a22 - t) - l20 * a20 - (e21 / d1) * e21
        return (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)


def min_coaxial_eig(kind, volfun, params, lams, contraction="hill"):
    """Minimum coaxial-form eigenvalue over the grid, with its argmin data.

    Returns (min_value, index, direction) where direction is the minimizing
    diagonal rate (unit vector).

    Each state's value comes from one of three routes, and a state pays
    only for the route that decides it:

    * the deflation (:func:`_deflate`), on the "graded" states alone, where
      the volumetric coefficient dwarfs the shear-scale block. It removes
      the spherical direction analytically; a plain eigendecomposition there
      would bury the true minimum (which lives in the nearly-traceless
      subspace) under eps * |c| rounding noise;
    * the certificate (:func:`_exceeds`), on every ungraded state, against
      an upper bound U on the minimum: the smallest graded value and the
      ``eigh`` values of two candidate states, decomposed in one call
      (:func:`_candidates`: the smallest diagonal entry and the smallest
      Gershgorin lower bound). An unpivoted LDL^T of the state's matrix
      minus (U + 1e-9 * (3 max|entry| + |U|)) times I with three positive
      pivots proves its ``eigh`` value strictly above U, so it cannot be the
      minimum and its value is set to +inf;
    * ``eigh``, on the states that fail the certificate: those whose value
      lies within that margin of U, or that have a NaN or inf entry, so
      ties keep their first index.

    The form is linear in (mu, lam, K), so the scan runs on the constants
    divided by 2^e, where mu = m 2^e with 1/2 <= m < 1
    (:func:`materials.mantissa_params`), and the minimum is scaled back by
    ``math.ldexp``. A power-of-two scale is exact, so the result is the
    unscaled scan's, bit for bit, wherever that scan stays in range; at a
    large modulus it keeps products such as b1 * b1 from overflowing. A
    minimum beyond the float range raises ``ValueError``.

    The shear block (the lower triangle of S rotated by Q, and its scale)
    does not depend on the volumetric function or nu, so a run of calls on
    one (kind, contraction, mu, grid) builds it once (:func:`_shared`). The
    same slot also holds one volumetric column (chi for Hill, h'' for CSP)
    of the last volfun read on the block's J, so a run of calls with one
    volfun evaluates it once, whatever nu; the column goes with the block.
    The values, the argmin and the direction are bit for bit those of
    deflating every graded state and running ``eigh`` on every other one.
    U is the value of a real state, so it is at least the minimum, and a
    certified state's value is above it. The deflation is element-wise and
    batched ``eigh`` treats each matrix on its own, so a subset gives the
    same bits for the rows it holds, and the argmin row's eigenvector or
    deflated direction is taken from the subset. Only the sign bit of a NaN may differ, where two NaNs
    meet in one operation: numpy's vector and scalar loops may keep
    different ones, and nothing prints that sign. The rotation
    (:func:`_rotate_lower`) adds its products in the order of the batched
    ``einsum`` it replaced, and ``eigh`` stays as it is: a matrix-product
    rotation or ``eigvalsh`` rounds differently and would change the
    reported values in the last bits.
    """
    mu = params.mu
    params, e = mantissa_params(params)
    block, column = _shared(kind, contraction, params.mu, lams, volfun)
    c = _volumetric_c(kind, contraction, params, block.J, column) + block.shift
    Q = _TRACE_ROT
    qu = Q.T @ np.ones(3)  # (sqrt(3)-ish, exactly 0, exactly 0)
    s00, b1, b2, p, r, q = block.lower
    # alpha = s00 + c * qu0 * qu0, in the same order, over c's own buffer:
    # the held column already costs one vector, so no new one is made here
    alpha = np.multiply(c, qu[0], out=c)
    alpha *= qu[0]
    np.add(s00, alpha, out=alpha)
    # the lower triangle eigh reads: Sp with alpha in place of Sp[0, 0]
    lower = (alpha, b1, b2, p, r, q)
    graded = np.abs(alpha) > 1e3 * (block.s_scale + 1e-300)
    mins = np.full(len(alpha), np.inf)
    rows = np.flatnonzero(graded)
    if rows.size:
        x, big = _deflate(*(v[rows] for v in lower))
        deflated = np.minimum(x, big)
        mins[rows] = deflated

    kept = ~graded
    cand = np.flatnonzero(kept)
    if cand.size:
        # with no graded state, the certificate reads the lower triangle itself
        sub = [v[cand] for v in lower] if rows.size else lower
        pair = cand[_candidates(*sub)]
        upper = float(np.min(np.linalg.eigh(_lower_matrices(lower, pair))[0][:, 0]))
        if rows.size:
            upper = min(upper, float(np.min(deflated)))
        kept[cand[_exceeds(upper, *sub)]] = False
    vals, vecs = np.linalg.eigh(_lower_matrices(lower, kept))
    mins[kept] = vals[:, 0]

    i = int(np.argmin(mins))
    value = float(mins[i])
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
        vp = np.array([v1, v2[0], v2[1]])
    elif graded[i]:  # the spherical branch itself is the minimum (c < 0)
        vp = np.array([1.0, 0.0, 0.0])
    else:
        vp = vecs[np.count_nonzero(kept[:i]), :, 0]
    direction = Q @ vp
    try:
        value = math.ldexp(value, e)
    except OverflowError:
        raise ValueError(
            f"the minimum {contraction} stability value overflows at modulus mu = {mu}"
        ) from None
    return value, i, direction / np.linalg.norm(direction)


def _search(contraction, kind, volfun, nus, grid):
    for nu in nus:
        params = params_from_mu_nu(1.0, nu)
        value, i, direction = min_coaxial_eig(kind, volfun, params, grid, contraction)
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
