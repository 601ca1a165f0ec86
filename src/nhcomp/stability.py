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
verify they agree.

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

import math
from dataclasses import dataclass

import numpy as np

from nhcomp.kinematics import rate_from_motion
from nhcomp.materials import PAPER_NUS, ModelSpec, cauchy_stress, mantissa_params, params_from_mu_nu
from nhcomp.tensor3 import I3, SuperSymTensor4, apply4, ddot, dev, outer, sym_outer
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


def zj_rate(model, state, rate, pdot=None):
    """Zaremba-Jaumann rate of the stress response, in closed form.

    Returns the ZJ rate of the Kirchhoff stress for the compressible kinds.
    For the incompressible kind it returns the ZJ rate of the Cauchy stress,
    ``-pdot I + mu (dc + cd)``, and ``pdot`` is required; the formula is
    meaningful on isochoric rates (tr d = 0).
    """
    c, d, J = state.c, rate.d, state.J
    mu = model.params.mu
    dc_cd = d @ c + c @ d
    if model.kind == "inc":
        if pdot is None:
            raise ValueError("the incompressible kind requires pdot")
        return -pdot * I3 + mu * dc_cd
    trd = float(np.trace(d))
    ev = evaluate(model.volfun, J)
    if model.kind == "mixed":
        return mu * dc_cd + model.params.lam * ev.chi * J * trd * I3
    iso = dc_cd - (2.0 / 3.0) * (dev(c) * trd + ddot(c, d) * I3)
    return model.params.K * ev.chi * J * trd * I3 + mu * J ** (-2.0 / 3.0) * iso


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
    trd = float(np.trace(d))
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


@dataclass(frozen=True)
class ContractionReport:
    """One stability contraction at one (state, rate) point.

    ``value`` is the basis-free contraction; ``recomposed`` rebuilds it from
    the spectral breakdown. They agree to 1e-10 relative by construction
    (this is checked in the test suite, not enforced here).
    """

    kind: str  # "hill" or "csp"
    value: float
    breakdown: dict
    recomposed: float
    verdict: str


def _verdict(value, scale):
    tol = 1e-12 * max(scale, 1.0e-300)
    if value > tol:
        return "positive"
    if value < -tol:
        return "negative"
    return "zero"


def classify_value(value, scale):
    """Sign verdict ("positive" / "zero" / "negative") at tolerance 1e-12*scale.

    A NaN or infinite value has no verdict and raises ``ValueError``.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"stability value {value} at modulus {scale} has no sign verdict")
    return _verdict(value, float(scale))


def _crosscheck_A(state, d, P, R):
    # Remark-style identity: the full quadratic form A equals 2 |F^T d|^2
    Ftd = state.F.T @ d
    free = 2.0 * float(np.tensordot(Ftd, Ftd, axes=2))
    scale = max(abs(free), abs(P) + abs(R), 1e-300)
    if abs(P + R - free) > 1e-8 * scale:
        raise AssertionError(
            f"spectral split P + R = {P + R!r} disagrees with 2|F^T d|^2 = {free!r}"
        )
    return free


def hill_contraction(model, state, rate):
    """Hill-type contraction ZJ[tau]:d with spectral breakdown.

    For the incompressible kind the rate is first projected onto traceless
    tensors and the contraction reduces to ``mu A``.
    """
    d = rate.d
    if model.kind == "inc":
        dt = d - (np.trace(d) / 3.0) * I3
        P, R, B, C, F = _letters(state, dt)
        A = _crosscheck_A(state, dt, P, R)
        mu = model.params.mu
        value = mu * A
        reco = mu * (P + R)
        return ContractionReport(
            "hill", value, {"A": P + R, "P": P, "R": R}, reco, _verdict(value, abs(value))
        )
    P, R, B, C, F = _letters(state, d)
    _crosscheck_A(state, d, P, R)
    value = ddot(zj_rate(model, state, rate), d)
    J = state.J
    ev = evaluate(model.volfun, J)
    mu = model.params.mu
    if model.kind == "mixed":
        lam = model.params.lam
        reco = mu * (P + R) + lam * ev.chi * J * F
        scale = mu * (P + R) + abs(lam * ev.chi * J) * F
        breakdown = {"A": P + R, "P": P, "R": R, "F": F}
    else:
        K = model.params.K
        E = P - (4.0 / 3.0) * B + (2.0 / 9.0) * C
        D = E + R
        w = mu * J ** (-2.0 / 3.0)
        reco = K * ev.chi * J * F + w * D
        scale = abs(K * ev.chi * J) * F + w * (P + R + abs(B) + C)
        breakdown = {"P": P, "R": R, "B": B, "C": C, "E": E, "D": D, "F": F}
    return ContractionReport("hill", value, breakdown, reco, _verdict(value, scale))


def csp_contraction(model, state, rate):
    """Corotational contraction ZJ[sigma]:d = (1/J) ZJ[tau]:d - (sigma:d) tr d."""
    if model.kind == "inc":
        raise ValueError("the corotational contraction is defined here for compressible kinds")
    d = rate.d
    J = state.J
    sigma = cauchy_stress(model, state.F).cauchy
    value = ddot(zj_rate(model, state, rate), d) / J - ddot(sigma, d) * float(np.trace(d))
    P, R, B, C, F = _letters(state, d)
    _crosscheck_A(state, d, P, R)
    ev = evaluate(model.volfun, J)
    mu = model.params.mu
    if model.kind == "mixed":
        lam = model.params.lam
        G = P + F - B
        reco = lam * J * ev.hpp * F + (mu / J) * (G + R)
        scale = abs(lam * J * ev.hpp) * F + (mu / J) * (P + R + F + abs(B))
        breakdown = {"P": P, "R": R, "B": B, "F": F, "G": G}
    else:
        K = model.params.K
        w = mu * J ** (-5.0 / 3.0)
        reco = K * J * ev.hpp * F + w * (P + R - (7.0 / 3.0) * B + (5.0 / 9.0) * C)
        scale = abs(K * J * ev.hpp) * F + w * (P + R + (7.0 / 3.0) * abs(B) + (5.0 / 9.0) * C)
        breakdown = {"P": P, "R": R, "B": B, "C": C, "F": F}
    return ContractionReport("csp", value, breakdown, reco, _verdict(value, scale))


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
    """Spatial tangent stiffness tensors for the two rate pairings."""

    c_tr: SuperSymTensor4
    c_bh: SuperSymTensor4


def tangents(model, state):
    """Spatial tangents: c_tr : d = Oldroyd[tau]/J, c_bh = c_tr + stress terms.

    Not available for the incompressible kind.
    """
    if model.kind == "inc":
        raise ValueError("tangent tensors are unsupported for the incompressible kind")
    J = state.J
    mu = model.params.mu
    ev = evaluate(model.volfun, J)
    II = outer(I3, I3)
    IsI = sym_outer(I3, I3)
    if model.kind == "mixed":
        lam = model.params.lam
        c_tr = lam * ev.chi * II + (2.0 / J) * (mu - lam * J * ev.hp) * IsI
    else:
        K = model.params.K
        c = state.c
        trc = float(np.trace(c))
        w = mu * J ** (-5.0 / 3.0)
        c_tr = (
            K * ev.chi * II
            - 2.0 * K * ev.hp * IsI
            + (2.0 / 3.0) * w * trc * IsI
            - (2.0 / 9.0) * w * trc * II
            - (4.0 / 3.0) * w * outer(dev(c), I3)  # symmetrized dyad: (dev c (x) I + I (x) dev c)/2
        )
    sigma = cauchy_stress(model, state.F).cauchy
    c_bh = c_tr + sym_outer(I3, sigma) + sym_outer(sigma, I3)
    return TangentPair(c_tr=c_tr, c_bh=c_bh)


# the central-difference step of tangent_fd_error and the seed of its
# motions; the seed fixes the motions, so tangent-check bytes repeat
_FD_STEP, _FD_SEED = 1e-5, 913


def tangent_fd_error(model, n_motions=10):
    """Max relative error of c_tr : d against a finite-difference Oldroyd rate.

    Deterministic motions F(t) = F0 + t Fdot0; the Oldroyd rate is formed as
    tau-dot - l tau - tau l^T by central differences of the Kirchhoff stress.
    Raises ``ValueError`` when a stress or tangent leaves the float range.
    """
    h, rng = _FD_STEP, np.random.default_rng(_FD_SEED)
    worst = 0.0
    for _ in range(n_motions):
        while True:
            F0 = I3 + 0.3 * rng.standard_normal((3, 3))
            if np.linalg.det(F0) > 0.4:
                break
        Fdot = 0.5 * rng.standard_normal((3, 3))
        state, rate = rate_from_motion(F0, Fdot)
        with np.errstate(all="ignore"):
            tau_p = cauchy_stress(model, F0 + h * Fdot).kirchhoff
            tau_m = cauchy_stress(model, F0 - h * Fdot).kirchhoff
            tau_dot = (tau_p - tau_m) / (2.0 * h)
            tau = cauchy_stress(model, F0).kirchhoff
            old_fd = tau_dot - rate.l @ tau - tau @ rate.l.T
            pair = tangents(model, state)
            pred = apply4(pair.c_tr, rate.d) * state.J
            scale = max(float(np.abs(old_fd).max()), 1e-12)
            error = float(np.abs(pred - old_fd).max()) / scale
        if not math.isfinite(error):
            raise ValueError(
                f"the {model.kind} kind with volfun {model.volfun.label} has a stress or "
                f"tangent beyond the float range at J = {state.J:.6g}"
            )
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
    """The part of the coaxial form M = S + c * ones(3, 3) that depends only
    on (kind, contraction, mu, grid), never on the volumetric function or nu.

    ``shift`` is the shear-scale summand of ``c`` (None where ``c`` has
    none). Every array is read-only, since one block serves many calls.
    """

    S: np.ndarray  # (n, 3, 3), entries at the shear-modulus scale
    Sp: np.ndarray  # S rotated by _TRACE_ROT
    s_scale: np.ndarray  # largest |entry| of Sp per state
    J: np.ndarray
    shift: np.ndarray | None


# The last block built, as (key, private copy of the grid, block). A
# stability scan runs every (volfun, nu) cell of one (kind, contraction) on
# one grid back to back, so one slot is enough; a block at the largest grid
# holds several MB, so more slots would cost peak memory for nothing.
_block_slot = [None]


def _build_shear_block(kind, contraction, mu, lams):
    n = lams.shape[0]
    lam2 = lams**2
    J = np.prod(lams, axis=1)
    MP = np.zeros((n, 3, 3))  # matrix of P
    idx = np.arange(3)
    MP[:, idx, idx] = 2.0 * lam2
    MB = 0.5 * (lam2[:, :, None] + lam2[:, None, :])  # matrix of B
    trc = lam2.sum(axis=1)
    if contraction == "hill":
        if kind == "mixed":
            S = mu * MP
            shift = None
        elif kind == "voliso":
            w = mu * J ** (-2.0 / 3.0)
            S = w[:, None, None] * (MP - (4.0 / 3.0) * MB)
            shift = (2.0 / 9.0) * w * trc
        else:
            raise ValueError(f"unsupported kind {kind!r}")
    elif contraction == "csp":
        if kind == "mixed":
            w = mu / J
            S = w[:, None, None] * (MP - MB)
            shift = w
        elif kind == "voliso":
            w = mu * J ** (-5.0 / 3.0)
            S = w[:, None, None] * (MP - (7.0 / 3.0) * MB)
            shift = (5.0 / 9.0) * w * trc
        else:
            raise ValueError(f"unsupported kind {kind!r}")
    else:
        raise ValueError(f"unknown contraction {contraction!r}")
    Q = _TRACE_ROT
    Sp = np.einsum("ji,njk,kl->nil", Q, S, Q)
    lower = [Sp[:, 0, 0], Sp[:, 1, 0], Sp[:, 2, 0], Sp[:, 1, 1], Sp[:, 2, 1], Sp[:, 2, 2]]
    s_scale = np.max(np.abs(np.stack(lower, axis=-1)), axis=-1)
    for a in (S, Sp, s_scale, J, shift):
        if a is not None:
            a.flags.writeable = False
    return _ShearBlock(S=S, Sp=Sp, s_scale=s_scale, J=J, shift=shift)


def _shear_block(kind, contraction, mu, lams):
    """The shear block of one (kind, contraction, mu, grid), built at most
    once for a run of calls on the same inputs.

    The slot is matched by value (an equal copy of the grid, not the same
    object), so a grid changed in place gets a fresh block. The old block
    is dropped before the new one is built.
    """
    lams = np.asarray(lams, dtype=float)
    key = (kind, contraction, float(mu))
    entry = _block_slot[0]
    if entry is not None and entry[0] == key and np.array_equal(entry[1], lams):
        return entry[2]
    # free the old block first: two blocks alive at once raise peak memory
    del entry
    _block_slot[0] = None
    block = _build_shear_block(kind, contraction, float(mu), lams)
    _block_slot[0] = (key, lams.copy(), block)
    return block


def _volumetric_coeff(kind, contraction, volfun, params, block):
    """The coefficient c of ones(3, 3) in the coaxial form M = S + c * ones.

    Only ``c`` carries the volumetric factors (chi, h'') that explode at the
    grid corners; the entries of ``S`` stay at the shear-modulus scale. The
    split lets the minimum eigenvalue be computed without ever forming the
    ill-conditioned sum.
    """
    tab = evaluate_grid(volfun, block.J)
    coef = params.lam if kind == "mixed" else params.K
    with np.errstate(over="ignore"):  # c may be inf at the grid corners
        if coef == 0.0:  # mixed at nu = 0: no volumetric term, even where chi is inf
            c = np.zeros_like(block.J)
        elif contraction == "hill":
            c = coef * tab[:, 4] * block.J  # chi
        else:
            c = coef * block.J * tab[:, 2]  # h''
    return c if block.shift is None else c + block.shift


def coaxial_matrices(kind, volfun, params, lams, contraction="hill"):
    """Batched 3x3 matrices of the contraction restricted to coaxial rates.

    ``lams`` is (N, 3); row i describes the diagonal state F = diag(lams[i]).
    The quadratic form in the diagonal rate components delta is
    delta^T M delta. Off-diagonal (non-coaxial) rate components contribute
    the separately nonnegative R term and never drive a violation, so the
    minimum eigenvalue of M over the grid decides positivity.
    """
    block = _shear_block(kind, contraction, params.mu, lams)
    c = _volumetric_coeff(kind, contraction, volfun, params, block)
    return block.S + c[:, None, None]


def _eig2_min(p, r, q):
    """Batched smallest eigenvalue of the symmetric 2x2 [[p, r], [r, q]]."""
    return 0.5 * (p + q) - np.hypot(0.5 * (p - q), r)


def _lower_matrices(Sp, alpha, select):
    """The matrices eigh is given: rows ``select`` of Sp, alpha at (0, 0)."""
    Mp = Sp[select]
    Mp[:, 0, 0] = alpha[select]
    return Mp


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
    lower = (a00, a10, a20, a11, a21, a22)
    scale = np.max(np.abs(np.stack(lower)), axis=0)
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

    States where the volumetric coefficient dwarfs the shear-scale block
    ("graded" states) are handled by deflating the spherical direction
    analytically; a plain eigendecomposition there would bury the true
    minimum (which lives in the nearly-traceless subspace) under eps * |c|
    rounding noise.

    Of the other states, ``eigh`` sees only those that could hold the
    minimum. An upper bound U on the minimum is taken from values the scan
    computes anyway: the smallest graded value, and the ``eigh`` value of
    the ungraded state with the smallest diagonal entry. Every ungraded
    state then gets a certificate (``_exceeds``): an unpivoted LDL^T of its
    matrix minus (U + 1e-9 * (3 max|entry| + |U|)) times I with three
    positive pivots, which proves its ``eigh`` value strictly above U, so it
    cannot be the minimum and its value is set to +inf. A state whose value
    lies within that margin of U, or that has a NaN or inf entry, fails the
    certificate and goes to ``eigh``, so ties keep their first index.

    The form is linear in (mu, lam, K), so the scan runs on the constants
    divided by 2^e, where mu = m 2^e with 1/2 <= m < 1
    (:func:`materials.mantissa_params`), and the minimum is scaled back by
    ``math.ldexp``. A power-of-two scale is exact, so the result is the
    unscaled scan's, bit for bit, wherever that scan stays in range; at a
    large modulus it keeps products such as b1 * b1 from overflowing. A
    minimum beyond the float range raises ``ValueError``.

    The shear block (S rotated by Q, and its scale) does not depend on the
    volumetric function or nu, so a run of calls on one (kind, contraction,
    mu, grid) builds it once. The output bytes are those of running ``eigh``
    on every state: batched ``eigh`` treats each matrix on its own, so a
    subset gives the same bits for the rows it holds, and the argmin row's
    eigenvector is taken from the subset. The batched ``einsum`` rotation
    and ``eigh`` stay as they are: a matrix-product rotation or ``eigvalsh``
    rounds differently and would change the reported values in the last
    bits.
    """
    mu = params.mu
    params, e = mantissa_params(params)
    block = _shear_block(kind, contraction, params.mu, lams)
    c = _volumetric_coeff(kind, contraction, volfun, params, block)
    Q = _TRACE_ROT
    qu = Q.T @ np.ones(3)  # (sqrt(3)-ish, exactly 0, exactly 0)
    Sp = block.Sp
    alpha = Sp[:, 0, 0] + c * qu[0] * qu[0]
    b1, b2 = Sp[:, 1, 0], Sp[:, 2, 0]
    p, r, q = Sp[:, 1, 1], Sp[:, 2, 1], Sp[:, 2, 2]
    graded = np.abs(alpha) > 1e3 * (block.s_scale + 1e-300)

    with np.errstate(divide="ignore", invalid="ignore"):
        den = np.where(alpha == 0.0, 1.0, alpha)
        x = _eig2_min(p - b1 * b1 / den, r - b1 * b2 / den, q - b2 * b2 / den)
        for _ in range(2):
            den = np.where(alpha == x, 1.0, alpha - x)
            x = _eig2_min(p - b1 * b1 / den, r - b1 * b2 / den, q - b2 * b2 / den)
        big = alpha + (b1 * b1 + b2 * b2) / np.where(alpha == x, 1.0, alpha - x)
        mins = np.minimum(x, big)

    kept = ~graded
    cand = np.flatnonzero(kept)
    if cand.size:
        # the lower triangle eigh reads: Sp with alpha in place of Sp[0, 0]
        lower = (alpha[cand], b1[cand], b2[cand], p[cand], r[cand], q[cand])
        a00, _, _, a11, _, a22 = lower
        k = cand[np.argmin(np.minimum(np.minimum(a00, a11), a22))]
        upper = float(np.linalg.eigh(_lower_matrices(Sp, alpha, [k]))[0][0, 0])
        if cand.size < len(mins):
            upper = min(upper, float(np.min(mins[graded])))
        kept[cand[_exceeds(upper, *lower)]] = False
        mins[cand] = np.inf
    vals, vecs = np.linalg.eigh(_lower_matrices(Sp, alpha, kept))
    mins[kept] = vals[:, 0]

    i = int(np.argmin(mins))
    value = float(mins[i])
    if graded[i] and value == x[i]:
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
