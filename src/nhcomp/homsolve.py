"""Homogeneous deformation solvers: transverse stretch, stresses, limits.

Three classical load cases are supported, each parameterized by the driven
axial stretch ``lam`` and solved for the free transverse stretch ``lamT``:

====  ========================  =========================  ==============
case  deformation gradient      eliminated stresses        volume ratio
====  ========================  =========================  ==============
ul    diag(lam, lamT, lamT)     sigma22 = sigma33 = 0      lam * lamT**2
elp   diag(lam, lam, lamT)      sigma33 = 0                lam**2 * lamT
ulp   diag(lam, 1, lamT)        sigma33 = 0                lam * lamT
====  ========================  =========================  ==============

(`ul` is uniaxial stress, `elp` equibiaxial stress, `ulp` plane-strain
uniaxial stress.) Each row is a ``_kernels.LoadCase`` record, which every
function here reads in place of the case name.

For compressible kinds the transverse equilibrium condition is a scalar
root-finding problem in lamT. Every model goes down one path: a global
sign-change scan over u = log(lamT) in [1e-9, 1e9] (widened by three
decades each way when it finds no sign change), then bisection of the
chosen bracket down to adjacent floats. lamT is exp(u) at the end of the
bisection's last bracket, so the residual changes sign between u and a
neighbouring float; :func:`residual` is evaluated there once. The
kernels in ``_kernels`` take the model's kind as the string ``ModelSpec``
uses and the case as its record. ``solve`` picks the bracket
nearest its ``seed_lamT``; ``sweep`` passes each point's root on as the
next seed, so the solver stays on one physical branch when several roots
appear. The incompressible kind has closed-form solutions and skips the
solver entirely.

``limit_probe`` pushes lam toward 0 or infinity and classifies the trend
of each reported quantity, reproducing the qualitative limit tables. It
solves the three probe stretches on their own first, and walks the
continuation ladder of intermediate stretches only when a probe's scan
finds several roots, since the seed picks among roots and nothing else.
``dilatation_response`` evaluates the mean stress under pure dilatation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from nhcomp import _kernels as _k
from nhcomp.materials import CASES, ModelSpec, cauchy_stress, mantissa_params
from nhcomp.volfun import evaluate

__all__ = [
    "CASES",
    "SolveResult",
    "SolveError",
    "SweepSpec",
    "LimitClass",
    "volume_ratio",
    "case_F",
    "residual",
    "solve_incompressible",
    "closed_form_quadratic_mixed",
    "solve",
    "sweep",
    "non_monotone_quantities",
    "limit_probe",
    "dilatation_response",
]


def _stretch(value, name="lam", what="axial"):
    """``value`` if it is a positive finite stretch: the one check of every
    public entry point that takes a stretch."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} stretch must be positive and finite, got {name} = {value}")
    return value


def volume_ratio(case, lam, lamT):
    """J of the load case at axial stretch lam and transverse stretch lamT."""
    c = _k.load_case(case)
    j, lamT = c.j(float(_stretch(lam))), float(_stretch(lamT, "lamT", "transverse"))
    return j * lamT * lamT if c.m == 2 else j * lamT


def case_F(case, lam, lamT):
    """Deformation gradient of the load case (principal axes fixed)."""
    lam, lamT = _stretch(lam), _stretch(lamT, "lamT", "transverse")
    F = np.zeros((3, 3))
    F[0, 0], F[1, 1], F[2, 2] = _k.load_case(case).diagonal(lam, lamT)
    return F


@dataclass(frozen=True)
class SolveResult:
    """Equilibrium state of one load case at one axial stretch.

    ``roots_found`` is the number of sign-change brackets the scan offered
    ``solve`` to choose from, after any expansion; ``warning`` is set
    exactly when it exceeds 1. The incompressible closed form reports 1,
    and a failed solve in :func:`sweep` reports the count its
    :class:`SolveError` carries (0 when no sign change was found).
    """

    lambda_T: float
    J: float
    sigma11: float
    sigma22: float
    P11: float
    P22: float
    converged: bool
    residual: float
    warning: str = ""
    roots_found: int = 1


# fixed root-finder effort: scan range and resolution over log(lamT) and
# bisection halvings; they suit every catalog model
_SCAN_LO, _SCAN_HI = 1e-9, 1e9
_SCAN_POINTS = 2001
_MAX_BISECT = 200


class SolveError(RuntimeError):
    """Transverse-equilibrium root not found; carries scan diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# --------------------------------------------------------------------------
# residual and closed forms


def _kernel_args(case, model, lam):
    """The leading kernel arguments ``(kind, family, par, case, lam, mu, lam_e, K)``."""
    prm = model.params
    vf = model.volfun
    return (model.kind, vf.family, vf.par, _k.load_case(case), float(lam), prm.mu, prm.lam, prm.K)


@np.errstate(all="ignore")
def residual(case, model, lam, lamT):
    """Transverse-equilibrium residual whose root in lamT solves the case.

    This is the numpy-scalar form of ``_kernels.residual_fn``, the kernel
    the scan and the bisection evaluate; :func:`solve` reports it at the
    root it bisected. Raises ``ValueError`` unless
    ``lam`` and ``lamT`` are positive finite stretches. A residual beyond
    the float range is +-inf or NaN (inf - inf), with no numpy warning.
    """
    if model.kind == "inc":
        raise ValueError("the incompressible kind fixes lamT kinematically; no residual")
    _stretch(lam)
    _stretch(lamT, "lamT", "transverse")
    # np.float64, as in the scan: a power past the float range is inf, not OverflowError
    return _k.residual_fn(*_kernel_args(case, model, lam))(np.float64(lamT))


def _power(lam, k):
    # 1 / lam where k = -1: lam**-1.0 rounds differently
    return 1.0 / lam if k == -1.0 else lam**k


def _stresses22(c, s11, P11, w, lamT2, J):
    """(sigma22, P22) of the case record ``c``: none on a free axis 2,
    sigma11's on one held at lam, and w (1 - lamT^2) on one held at 1."""
    if c.f22 == "lamT":
        return 0.0, 0.0
    if c.f22 == "lam":
        return s11, P11
    s22 = w * (1.0 - lamT2)
    return s22, J * s22


def solve_incompressible(case, lam, mu=1.0):
    """Closed-form solution of the load case for the incompressible model.

    lamT = j(lam)^(-1/m) keeps J = 1, and sigma11 = mu (lam^2 - lamT^2). A
    value beyond the float range is +-inf, as in :func:`solve`.
    """
    c = _k.load_case(case)
    lam = np.float64(_stretch(lam))
    k = -(2.0 if c.f22 == "lam" else 1.0) / c.m  # lamT = lam^k puts J at 1
    with np.errstate(over="ignore"):
        lamT2 = _power(lam, 2.0 * k)
        s11 = mu * (lam**2 - lamT2)
        P11 = mu * (lam - _power(lam, 2.0 * k - 1.0))
        s22, P22 = _stresses22(c, s11, P11, mu, lamT2, 1.0)
        return SolveResult(_power(lam, k), 1.0, s11, s22, P11, P22, True, 0.0)


def closed_form_quadratic_mixed(case, lam, params, volfun=None):
    """lamT radical for the mixed kind with the quadratic volumetric function.

    With h'(J) = J - 1 and J = j lamT^m the transverse balance is the
    quadratic a x^2 + b x - mu = 0 in x = lamT^m, whose positive root is
    returned; a = 0 (nu = 0 in ``ul``) leaves x = 1. Raises ``ValueError``
    where the discriminant is negative (no real root, which a negative first
    Lame constant can give) and where the radical leaves the float range.
    """
    if volfun is not None and volfun.family != _k.FAMILY_QUADRATIC:
        raise ValueError("closed form exists only for the quadratic volumetric function")
    c = _k.load_case(case)
    j = c.j(float(_stretch(lam)))
    mu, le = params.mu, params.lam
    # mu lamT^2 is mu x^2 for m = 1 and mu x for m = 2
    a = le * j * j + (mu if c.m == 1 else 0.0)
    b = (0.0 if c.m == 1 else mu) - le * j
    disc = b * b + 4.0 * a * mu
    if disc < 0.0:
        raise ValueError(
            f"the closed form has no real root at mu = {mu:g} and first Lame constant "
            f"{le:g} in case {c.name} at lam = {lam}: its discriminant is negative"
        )
    x = (-b + math.sqrt(disc)) / (2.0 * a) if a else 1.0
    root = x if c.m == 1 else math.sqrt(x)
    if not 0.0 < root < math.inf:
        raise ValueError(f"the closed form leaves the float range at lam = {lam}")
    return root


# --------------------------------------------------------------------------
# root finding


def _sign_brackets(us, fs):
    """Sign-change intervals of fs over us; exact zeros become point brackets.

    Returns ``(u_a, u_b, f_a)`` tuples in grid order. A pair with a NaN end
    is skipped; an exact zero at the left end of a pair gives the point
    bracket ``(u, u, 0)``, and so does an exact zero at the last point.

    Every such pair has ``fs > 0`` change across it or a zero at its left
    end, so one mask, built in place, picks the few candidates and the rule
    runs on those.
    """
    pos = fs > 0.0
    candidates = pos[:-1] != pos[1:]
    candidates |= fs[:-1] == 0.0
    out = []
    for i in candidates.nonzero()[0].tolist():
        a, b = fs[i], fs[i + 1]
        if a != a or b != b:  # NaN
            continue
        if a == 0.0:
            out.append((us[i], us[i], a))
        elif b != 0.0 and (a > 0.0) != (b > 0.0):
            out.append((us[i], us[i + 1], a))
    if len(fs) and fs[-1] == 0.0:
        out.append((us[-1], us[-1], 0.0))
    return out


def solve(case, model, lam, seed_lamT=1.0):
    """Equilibrium of the load case; routes incompressible to closed form.

    Raises ``ValueError`` unless ``lam`` and ``seed_lamT`` are positive
    finite stretches, and :class:`SolveError` when no sign change exists
    even after one bracket expansion. Multiple sign changes pick the root
    nearest the continuation seed ``seed_lamT`` and attach a warning; the
    result's ``roots_found`` counts them. The seed matters nowhere else.

    The root is found with the constants divided by 2^e, where mu = m 2^e
    (:func:`materials.mantissa_params`), and the stresses and the residual
    are scaled back by 2^e. So the root and ``converged`` do not depend on
    the modulus scale, and a stress beyond the float range is +-inf.

    ``lambda_T`` is exp(u) for the u the bisection returns: an end of its
    last bracket once the ends are adjacent floats, so the residual changes
    sign between u and a neighbouring float. ``residual`` is the residual
    at that lamT. ``converged`` means |residual| <= 1e-12 (mu + lam + K) or
    a bracket at most 1e-12 max(1, |u|) wide in u = ln lamT. Bisection ends
    at adjacent floats or after 200 halvings, far inside that width, so it
    says only that the scan found a sign change and bisection closed it.
    """
    _stretch(lam)
    if not 0.0 < seed_lamT < math.inf:
        raise ValueError(
            f"continuation seed must be a positive finite stretch, got seed_lamT = {seed_lamT}"
        )
    c = _k.load_case(case)
    if model.kind == "inc":
        return solve_incompressible(c, lam, model.params.mu)
    # one error state for the whole solve: the scan, the bisection and the
    # stresses pass through inf and NaN by design, and the result reports them
    with np.errstate(all="ignore"):
        prm, e = mantissa_params(model.params)
        model = ModelSpec(model.kind, model.volfun, prm)
        args = _kernel_args(c, model, lam)
        tol = 1e-12 * (prm.mu + prm.lam + prm.K)

        u_lo, u_hi = math.log(_SCAN_LO), math.log(_SCAN_HI)
        us, fs = _k.residual_scan(*args, u_lo, u_hi, _SCAN_POINTS)
        brackets = _sign_brackets(us, fs)
        if not brackets:
            u_lo, u_hi = u_lo - 3.0 * math.log(10.0), u_hi + 3.0 * math.log(10.0)
            us, fs = _k.residual_scan(*args, u_lo, u_hi, _SCAN_POINTS)
            brackets = _sign_brackets(us, fs)
        if not brackets:
            finite = fs[np.isfinite(fs)]
            # the scan ran at the mantissa of mu
            min_res = float(np.ldexp(np.min(np.abs(finite)), e)) if finite.size else math.nan
            diag = {
                "lam": lam,
                "u_range": (u_lo, u_hi),
                "min_residual": min_res,
                "sign_lo": float(np.sign(fs[0])),
                "sign_hi": float(np.sign(fs[-1])),
                "roots_found": 0,
            }
            raise SolveError(
                f"no sign change of the transverse residual for lam={lam:g} "
                f"({model.kind} kind, volfun {model.volfun.label})",
                diag,
            )

        seed_u = math.log(seed_lamT)
        ua, ub, fa = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - seed_u))
        warning = ""
        if len(brackets) > 1:
            warning = f"{len(brackets)} residual roots in scan; picked the branch nearest the seed"

        u, width, _ = _k.bisect_log(*args, ua, ub, fa, _MAX_BISECT)
        lamT = math.exp(u)
        res = residual(c, model, lam, lamT)
        converged = abs(res) <= tol or abs(width) <= 1e-12 * max(1.0, abs(u))
        J = np.float64(volume_ratio(c, lam, lamT))

        # Stresses come from the per-case closed forms obtained by substituting
        # the transverse balance back into the constitutive law. These stay
        # accurate at extreme stretches where the raw tensor evaluation loses
        # the root to cancellation (the equilibrium lamT can sit within one ulp
        # of lam under strong compression).
        w = model.shear_factor(J)
        shortcut = model.kind == "voliso" and c.f22 != "1"
        if shortcut:
            # every loaded axis is at lam: sigma11 is their 3/(3 - m) share of
            # the vol-iso stress trace 3 K h'(J), since the free axes carry none
            s11 = 3.0 / (3 - c.m) * prm.K * evaluate(model.volfun, J).hp
        else:
            s11 = w * (lam * lam - lamT * lamT)
        # P = J sigma F^-T, J / F11 in the operation order of each case
        P11 = (lamT**2 if c.m == 2 else c.diagonal(lam, lamT)[1] * lamT) * s11
        s22, P22 = _stresses22(c, s11, P11, w, lamT * lamT, J)

        if shortcut:
            # cross-check the trace shortcut against the full tensor evaluation
            # wherever the tensor path has the precision to be meaningful
            direct = float(cauchy_stress(model, case_F(c, lam, lamT)).cauchy[0, 0])
            noise = w * np.spacing(max(lam, lamT) ** 2)
            scale = max(abs(s11), abs(direct), prm.mu)
            if math.isfinite(direct) and noise <= 1e-10 * scale:
                if abs(direct - s11) > 1e-8 * scale:
                    raise SolveError(
                        "volumetric trace shortcut failed the cross-check",
                        # raised after a bracket was picked, so it counts the scan's roots
                        dict(sigma11=direct, shortcut=s11, lam=lam, roots_found=len(brackets)),
                    )

        # back to the modulus scale; a stress beyond the float range is +-inf
        scaled = (s11, s22, P11, P22, res)
        try:
            s11, s22, P11, P22, res = (math.ldexp(v, e) for v in scaled)
        except OverflowError:
            s11, s22, P11, P22, res = (float(np.ldexp(v, e)) for v in scaled)
    return SolveResult(lamT, J, s11, s22, P11, P22, bool(converged), res, warning, len(brackets))


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Stretch grid of a sweep or a dilatation; log-spaced by default."""

    lam_min: float
    lam_max: float
    points: int
    log: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lam_min) and math.isfinite(self.lam_max)):
            raise ValueError(
                f"stretch bounds must be finite, got {self.lam_min} and {self.lam_max}"
            )
        if not (0.0 < self.lam_min <= self.lam_max):
            raise ValueError("need 0 < smallest stretch <= largest stretch")
        # a subnormal stretch loses digits, and stress factors such as mu / J
        # overflow where the exact result is 0
        if self.lam_min < sys.float_info.min:
            raise ValueError(f"stretch {self.lam_min} is subnormal (below 2.2e-308)")
        if self.points < 1:
            raise ValueError("need at least one grid point")

    def grid(self):
        if self.points == 1:
            return np.array([self.lam_min])
        if self.log:
            return np.logspace(math.log10(self.lam_min), math.log10(self.lam_max), self.points)
        return np.linspace(self.lam_min, self.lam_max, self.points)


_NAN_RESULT = SolveResult(*([math.nan] * 6), converged=False, residual=math.nan, roots_found=0)


def sweep(case, model, lams):
    """Solve the case over a stretch grid with continuation seeding.

    Returns one SolveResult per grid point in order. The first point is
    seeded at lamT = 1 and each later one at the last converged root;
    points where the solver fails are reported as unconverged NaN rows
    that carry the error's message and ``roots_found``.
    """
    results = []
    seed = 1.0
    for lam in np.asarray(lams, dtype=float):
        try:
            res = solve(case, model, lam, seed)
        except SolveError as err:
            roots = err.diagnostics.get("roots_found", 0)
            results.append(replace(_NAN_RESULT, warning=str(err), roots_found=roots))
            continue
        results.append(res)
        if res.converged:
            seed = res.lambda_T
    return results


@np.errstate(all="ignore")
def non_monotone_quantities(results):
    """Names of lambda_T, sigma11, P11 and P22 that change direction over the sweep.

    Only converged points participate; direction changes below 1e-9 of the
    quantity's magnitude are treated as noise. A step between infinite
    values (NaN) counts as no change, with no numpy warning.
    """
    hits = []
    good = [r for r in results if r.converged]
    for name in ("lambda_T", "sigma11", "P11", "P22"):
        ys = np.array([getattr(r, name) for r in good])
        if len(ys) < 3:
            continue
        d = np.diff(ys)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
        if np.any(d > tol) and np.any(d < -tol):
            hits.append(name)
    return tuple(hits)


# --------------------------------------------------------------------------
# limiting states and dilatation


@dataclass(frozen=True)
class LimitClass:
    """Trend classification of one quantity as lam goes to 0 or infinity."""

    label: str  # '+inf' | '-inf' | '0' | 'finite' | 'unresolved'
    constant: float | None = None
    note: str = ""
    solver_failed: bool = False  # unresolved because a probe solve failed

    def __str__(self):
        if self.label == "finite":
            return f"finite({self.constant:.6g})"
        return self.label


_PROBES = {"to_zero": (1e-4, 1e-5, 1e-6), "to_infinity": (1e4, 1e5, 1e6)}
_LADDER = {"to_zero": (0.5, 0.1, 1e-2, 1e-3), "to_infinity": (2.0, 10.0, 1e2, 1e3)}


def _classify(vals):
    v1, v2, v3 = (float(v) for v in vals)
    if any(math.isnan(v) for v in (v1, v2, v3)):
        return LimitClass("unresolved", note="non-finite probe value")
    if v3 == 0.0 and v2 == 0.0:
        return LimitClass("0")
    if math.isinf(v3):
        if math.isinf(v2) and (v2 > 0.0) != (v3 > 0.0):
            return LimitClass("unresolved", note="sign flip between probes")
        return LimitClass("+inf" if v3 > 0.0 else "-inf")
    a1, a2, a3 = abs(v1), abs(v2), abs(v3)
    # signs compared directly: a product of two tiny probes underflows to 0
    same_sign = (v1 > 0.0 and v2 > 0.0 and v3 > 0.0) or (v1 < 0.0 and v2 < 0.0 and v3 < 0.0)
    if abs(v3 - v2) <= 0.01 * max(a2, a3):
        return LimitClass("finite", constant=v3)
    if same_sign and a2 >= 10.0 * a1 and a3 >= 10.0 * a2:
        return LimitClass("+inf" if v3 > 0.0 else "-inf")
    if a2 <= 0.1 * a1 and a3 <= 0.1 * a2:
        return LimitClass("0")
    if same_sign and a1 < a2 < a3:
        return LimitClass("+inf" if v3 > 0.0 else "-inf", note="trend")
    if a1 > a2 > a3:
        return LimitClass("0", note="trend")
    return LimitClass("unresolved", note=f"probes {v1:g}, {v2:g}, {v3:g}")


def limit_probe(case, model, direction):
    """Classify lambda_T, sigma11, P11 (plus sigma22, P22 for ulp) trends.

    ``direction`` is 'to_zero' or 'to_infinity'. The three probe decades
    are solved first. Only when a probe's scan finds several roots does
    the solver walk a ladder of intermediate stretches for continuation
    before the probes, so that the seed picks the branch; with at most one
    root per probe the seed changes nothing. An unconverged probe marks
    every quantity unresolved.
    """
    if model.kind == "inc":
        raise ValueError("limits of the incompressible model follow from closed forms")
    if direction not in _PROBES:
        raise ValueError("direction must be 'to_zero' or 'to_infinity'")
    # sigma22 is sigma11's where F22 is lam, and 0 where it is free
    extra = ("sigma22", "P22") if _k.load_case(case).f22 == "1" else ()
    quantities = ("lambda_T", "sigma11", "P11", *extra)

    probe_rows = sweep(case, model, _PROBES[direction])
    if any(r.roots_found > 1 for r in probe_rows):
        probe_rows = sweep(case, model, _LADDER[direction] + _PROBES[direction])[-3:]
    bad = next((r for r in probe_rows if not r.converged), None)
    if bad is not None:
        mark = LimitClass(
            "unresolved", note=f"solver failed at a probe: {bad.warning}", solver_failed=True
        )
        return {q: mark for q in quantities}
    return {q: _classify([getattr(r, q) for r in probe_rows]) for q in quantities}


@np.errstate(all="ignore")
def dilatation_response(model, k):
    """Mean Cauchy stress under pure dilatation F = k I.

    Mixed kind: (mu/J)(k^2 - 1) + lam_e h'(J); vol-iso kind: K h'(J), both
    with J = k^3. Matches the mean stress of the full stress evaluation. A
    stress beyond the float range is +-inf, with no numpy warning. A k
    whose J is not a positive finite float raises ``ValueError``.
    """
    if model.kind == "inc":
        raise ValueError("dilatation requires a compressible kind")
    if not k > 0.0:
        raise ValueError("dilatation stretch must be positive")
    J = np.float64(k) ** 3
    if not 0.0 < J < math.inf:
        raise ValueError(f"dilatation stretch k = {k:g} puts J = k^3 outside the float range")
    vol = model.volumetric_term(evaluate(model.volfun, J).hp)
    if model.kind == "voliso":
        return vol
    return model.shear_factor(J) * (k * k - 1.0) + vol
