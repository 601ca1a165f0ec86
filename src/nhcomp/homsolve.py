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
uniaxial stress.)

For compressible kinds the transverse equilibrium condition is a scalar
root-finding problem in lamT. Every model goes down one path: a global
sign-change scan over log(lamT), bisection of the chosen bracket, and a
safeguarded Newton polish on :func:`residual`. Sweeps seed each point's
bracket choice from the previous root so the solver stays on one physical
branch when several roots appear. The incompressible kind has closed-form
solutions and skips the solver entirely.

``limit_probe`` pushes lam toward 0 or infinity and classifies the trend
of each reported quantity, reproducing the qualitative limit tables;
``dilatation_response`` evaluates the mean stress under pure dilatation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from nhcomp import _kernels as _k
from nhcomp.materials import cauchy_stress
from nhcomp.volfun import evaluate

__all__ = [
    "CASES",
    "SolveResult",
    "SolveConfig",
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

CASES = ("ul", "elp", "ulp")

_CASE_CODE = {"ul": _k.CASE_UL, "elp": _k.CASE_ELP, "ulp": _k.CASE_ULP}
_KIND_CODE = {"mixed": _k.KIND_MIXED, "voliso": _k.KIND_VOLISO}


def _case_code(case):
    try:
        return _CASE_CODE[case]
    except KeyError:
        raise ValueError(f"load case must be one of {CASES}, got {case!r}") from None


def volume_ratio(case, lam, lamT):
    """J of the load case at axial stretch lam and transverse stretch lamT."""
    return _k.case_volume_ratio(_case_code(case), float(lam), float(lamT))


def case_F(case, lam, lamT):
    """Deformation gradient of the load case (principal axes fixed)."""
    code = _case_code(case)
    if code == _k.CASE_UL:
        return np.diag([lam, lamT, lamT]).astype(float)
    if code == _k.CASE_ELP:
        return np.diag([lam, lam, lamT]).astype(float)
    return np.diag([lam, 1.0, lamT]).astype(float)


@dataclass(frozen=True)
class SolveResult:
    """Equilibrium state of one load case at one axial stretch."""

    lambda_T: float
    J: float
    sigma11: float
    sigma22: float
    P11: float
    P22: float
    converged: bool
    residual: float
    warning: str = ""


@dataclass(frozen=True)
class SolveConfig:
    """Scan range in lamT and continuation seed; the defaults suit every catalog model."""

    bracket_lo: float = 1e-9
    bracket_hi: float = 1e9
    seed_lamT: float = 1.0


# fixed root-finder effort: scan resolution over log(lamT), bisection
# halvings, and Newton polish steps
_SCAN_POINTS = 2001
_MAX_BISECT = 200
_NEWTON_ITERS = 12


class SolveError(RuntimeError):
    """Transverse-equilibrium root not found; carries scan diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# --------------------------------------------------------------------------
# residual and closed forms


def residual(case, model, lam, lamT):
    """Transverse-equilibrium residual whose root in lamT solves the case.

    Mixed kind: ``lam_e * J h'(J) - mu (1 - lamT^2)`` (transverse Cauchy
    balance multiplied by J). Vol-iso kind: ``K h'(J) + (mu/3) J^(-5/3) g``
    with the case's deviator combination g. This is the scalar form of the
    kernel the scan and the bisection evaluate, so the polish refines the
    same function they bracketed.
    """
    if model.kind == "inc":
        raise ValueError("the incompressible kind fixes lamT kinematically; no residual")
    if not (lam > 0.0 and lamT > 0.0):
        raise ValueError("stretches must be positive")
    prm = model.params
    return _k.transverse_residual(
        _KIND_CODE[model.kind],
        model.volfun.family,
        model.volfun.par,
        _case_code(case),
        float(lam),
        float(lamT),
        prm.mu,
        prm.lam,
        prm.K,
    )


def solve_incompressible(case, lam, mu=1.0):
    """Closed-form solution of the load case for the incompressible model."""
    if not lam > 0.0:
        raise ValueError("axial stretch must be positive")
    code = _case_code(case)
    if code == _k.CASE_UL:
        lamT = lam**-0.5
        s11 = mu * (lam**2 - 1.0 / lam)
        return SolveResult(lamT, 1.0, s11, 0.0, mu * (lam - lam**-2), 0.0, True, 0.0)
    if code == _k.CASE_ELP:
        lamT = lam**-2.0
        s11 = mu * (lam**2 - lam**-4)
        P11 = mu * (lam - lam**-5)
        return SolveResult(lamT, 1.0, s11, s11, P11, P11, True, 0.0)
    lamT = 1.0 / lam
    s11 = mu * (lam**2 - lam**-2)
    s22 = mu * (1.0 - lam**-2)
    return SolveResult(lamT, 1.0, s11, s22, mu * (lam - lam**-3), s22, True, 0.0)


def closed_form_quadratic_mixed(case, lam, params, volfun=None):
    """lamT radical for the mixed kind with the quadratic volumetric function.

    With h'(J) = J - 1 the transverse balance becomes a quadratic in lamT
    (ulp, elp) or in lamT^2 (ul); the positive root is returned.
    """
    if volfun is not None and volfun.family != _k.FAMILY_QUADRATIC:
        raise ValueError("closed form exists only for the quadratic volumetric function")
    if not lam > 0.0:
        raise ValueError("axial stretch must be positive")
    code = _case_code(case)
    mu, le = params.mu, params.lam
    if code == _k.CASE_UL:
        # le*lam^2 u^2 + (mu - le*lam) u - mu = 0 with u = lamT^2
        if le == 0.0:
            return 1.0
        b = mu - le * lam
        u = (-b + math.sqrt(b * b + 4.0 * le * lam**2 * mu)) / (2.0 * le * lam**2)
        return math.sqrt(u)
    if code == _k.CASE_ELP:
        # (le*lam^4 + mu) lamT^2 - le*lam^2 lamT - mu = 0
        a = le * lam**4 + mu
        b = le * lam**2
        return (b + math.sqrt(b * b + 4.0 * a * mu)) / (2.0 * a)
    a = le * lam**2 + mu
    b = le * lam
    return (b + math.sqrt(b * b + 4.0 * a * mu)) / (2.0 * a)


# --------------------------------------------------------------------------
# root finding


def _scan(case_c, model, lam, u_lo, u_hi):
    prm = model.params
    with np.errstate(all="ignore"):
        fs = _k.residual_scan(
            _KIND_CODE[model.kind],
            model.volfun.family,
            model.volfun.par,
            case_c,
            float(lam),
            prm.mu,
            prm.lam,
            prm.K,
            u_lo,
            u_hi,
            _SCAN_POINTS,
        )
    return np.linspace(u_lo, u_hi, _SCAN_POINTS), fs


def _sign_brackets(us, fs):
    """Sign-change intervals of fs over us; exact zeros become point brackets.

    Returns ``(u_a, u_b, f_a)`` tuples in grid order. A pair with a NaN end
    is skipped; an exact zero at the left end of a pair gives the point
    bracket ``(u, u, 0)``, and so does an exact zero at the last point.
    """
    s = np.sign(fs)  # NaN stays NaN, and NaN * x < 0 is False
    zero = (fs[:-1] == 0.0) & ~np.isnan(fs[1:])
    idx = np.flatnonzero(zero | (s[:-1] * s[1:] < 0.0))
    ends = np.where(zero[idx], idx, idx + 1)
    out = list(zip(us[idx], us[ends], fs[idx]))
    if len(fs) and fs[-1] == 0.0:
        out.append((us[-1], us[-1], 0.0))
    return out


def solve(case, model, lam, cfg=None):
    """Equilibrium of the load case; routes incompressible to closed form.

    Raises :class:`SolveError` when no sign change exists even after one
    bracket expansion. Multiple sign changes pick the root nearest the
    continuation seed and attach a warning.
    """
    if model.kind == "inc":
        return solve_incompressible(case, lam, model.params.mu)
    if not lam > 0.0:
        raise ValueError("axial stretch must be positive")
    cfg = cfg or SolveConfig()
    case_c = _case_code(case)
    prm = model.params
    tol = 1e-12 * (prm.mu + prm.lam + prm.K)

    u_lo, u_hi = math.log(cfg.bracket_lo), math.log(cfg.bracket_hi)
    us, fs = _scan(case_c, model, lam, u_lo, u_hi)
    brackets = _sign_brackets(us, fs)
    if not brackets:
        u_lo, u_hi = u_lo - 3.0 * math.log(10.0), u_hi + 3.0 * math.log(10.0)
        us, fs = _scan(case_c, model, lam, u_lo, u_hi)
        brackets = _sign_brackets(us, fs)
    if not brackets:
        finite = fs[np.isfinite(fs)]
        diag = {
            "lam": lam,
            "u_range": (u_lo, u_hi),
            "min_residual": float(np.min(np.abs(finite))) if finite.size else math.nan,
            "sign_lo": float(np.sign(fs[0])),
            "sign_hi": float(np.sign(fs[-1])),
        }
        raise SolveError(
            f"no sign change of the transverse residual for lam={lam:g} "
            f"({model.kind} kind, volfun {model.volfun.label})",
            diag,
        )

    seed_u = math.log(cfg.seed_lamT)
    ua, ub, fa = min(brackets, key=lambda br: abs(0.5 * (br[0] + br[1]) - seed_u))
    warning = ""
    if len(brackets) > 1:
        warning = f"{len(brackets)} residual roots in scan; picked the branch nearest the seed"

    def f(u):
        with np.errstate(all="ignore"):
            return residual(case, model, lam, math.exp(u))

    if ua == ub:
        u, width = ua, 0.0
    else:
        with np.errstate(all="ignore"):
            u, width, _ = _k.bisect_log(
                _KIND_CODE[model.kind],
                model.volfun.family,
                model.volfun.par,
                case_c,
                float(lam),
                prm.mu,
                prm.lam,
                prm.K,
                ua,
                ub,
                fa,
                _MAX_BISECT,
            )

    # Newton polish inside the bracket; keep the iterate with the smallest
    # |residual| in case the derivative estimate is poor
    best_u, best_f = u, abs(f(u))
    for _ in range(_NEWTON_ITERS):
        fu = f(u)
        if abs(fu) < best_f:
            best_u, best_f = u, abs(fu)
        if abs(fu) <= tol:
            break
        du = 1e-7 * max(1.0, abs(u))
        dfd = (f(u + du) - f(u - du)) / (2.0 * du)
        if not math.isfinite(dfd) or dfd == 0.0:
            break
        u_new = u - fu / dfd
        if not (min(ua, ub) - 1.0 <= u_new <= max(ua, ub) + 1.0) or u_new == u:
            break
        u = u_new
    if abs(f(best_u)) < abs(f(u)):
        u = best_u

    lamT = math.exp(u)
    res = f(u)
    converged = abs(res) <= tol or abs(width) <= 1e-12 * max(1.0, abs(u))
    J = volume_ratio(case, lam, lamT)

    # Stresses come from the per-case closed forms obtained by substituting
    # the transverse balance back into the constitutive law. These stay
    # accurate at extreme stretches where the raw tensor evaluation loses
    # the root to cancellation (the equilibrium lamT can sit within one ulp
    # of lam under strong compression).
    mu = prm.mu
    with np.errstate(all="ignore"):
        if model.kind == "mixed":
            s11 = (mu / J) * (lam * lam - lamT * lamT)
            if case_c == _k.CASE_UL:
                s22, P11, P22 = 0.0, lamT**2 * s11, 0.0
            elif case_c == _k.CASE_ELP:
                s22, P11 = s11, lam * lamT * s11
                P22 = P11
            else:
                s22 = (mu / J) * (1.0 - lamT * lamT)
                P11, P22 = lamT * s11, J * s22
        else:
            hp = evaluate(model.volfun, J).hp
            if case_c == _k.CASE_UL:
                s11, s22 = 3.0 * prm.K * hp, 0.0
                P11, P22 = lamT**2 * s11, 0.0
            elif case_c == _k.CASE_ELP:
                s11 = 1.5 * prm.K * hp
                s22, P11 = s11, lam * lamT * s11
                P22 = P11
            else:
                Jm53 = J ** (-5.0 / 3.0)
                s11 = mu * Jm53 * (lam * lam - lamT * lamT)
                s22 = mu * Jm53 * (1.0 - lamT * lamT)
                P11, P22 = lamT * s11, J * s22

    if model.kind == "voliso" and case_c != _k.CASE_ULP:
        # cross-check the trace shortcut against the full tensor evaluation
        # wherever the tensor path has the precision to be meaningful
        with np.errstate(all="ignore"):
            direct = float(cauchy_stress(model, case_F(case, lam, lamT)).cauchy[0, 0])
        noise = mu * J ** (-5.0 / 3.0) * np.spacing(max(lam, lamT) ** 2)
        scale = max(abs(s11), abs(direct), mu)
        if math.isfinite(direct) and noise <= 1e-10 * scale:
            if abs(direct - s11) > 1e-8 * scale:
                raise SolveError(
                    "volumetric trace shortcut failed the cross-check",
                    {"sigma11": direct, "shortcut": s11, "lam": lam},
                )

    return SolveResult(
        lambda_T=lamT,
        J=J,
        sigma11=float(s11),
        sigma22=float(s22),
        P11=float(P11),
        P22=float(P22),
        converged=bool(converged),
        residual=float(res),
        warning=warning,
    )


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Axial-stretch grid for a sweep; log-spaced by default."""

    lam_min: float
    lam_max: float
    points: int
    log: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lam_min) and math.isfinite(self.lam_max)):
            raise ValueError(
                f"stretch bounds must be finite, got lam_min = {self.lam_min}, "
                f"lam_max = {self.lam_max}"
            )
        if not (0.0 < self.lam_min <= self.lam_max):
            raise ValueError("need 0 < lam_min <= lam_max")
        if self.points < 1:
            raise ValueError("need at least one sweep point")

    def grid(self):
        if self.points == 1:
            return np.array([self.lam_min])
        if self.log:
            return np.logspace(math.log10(self.lam_min), math.log10(self.lam_max), self.points)
        return np.linspace(self.lam_min, self.lam_max, self.points)


_NAN_RESULT = SolveResult(*([math.nan] * 6), converged=False, residual=math.nan)


def sweep(case, model, lams, cfg=None):
    """Solve the case over a stretch grid with continuation seeding.

    Returns one SolveResult per grid point in order. Points where the
    solver fails are reported as unconverged NaN rows; the continuation
    seed then stays at the last good root.
    """
    cfg = cfg or SolveConfig()
    results = []
    seed = cfg.seed_lamT
    for lam in np.asarray(lams, dtype=float):
        try:
            res = solve(case, model, lam, replace(cfg, seed_lamT=seed))
        except SolveError as err:
            results.append(replace(_NAN_RESULT, warning=str(err)))
            continue
        results.append(res)
        if res.converged:
            seed = res.lambda_T
    return results


def non_monotone_quantities(results, quantities=("lambda_T", "sigma11", "P11", "P22")):
    """Names of reported quantities that change direction over the sweep.

    Only converged points participate; direction changes below 1e-9 of the
    quantity's magnitude are treated as noise.
    """
    hits = []
    good = [r for r in results if r.converged]
    for name in quantities:
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
    same_sign = v1 * v2 > 0.0 and v2 * v3 > 0.0
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

    ``direction`` is 'to_zero' or 'to_infinity'. The solver walks a ladder
    of intermediate stretches for continuation before the three probe
    decades; an unconverged probe marks every quantity unresolved.
    """
    if model.kind == "inc":
        raise ValueError("limits of the incompressible model follow from closed forms")
    if direction not in _PROBES:
        raise ValueError("direction must be 'to_zero' or 'to_infinity'")
    quantities = ["lambda_T", "sigma11", "P11"]
    if _case_code(case) == _k.CASE_ULP:
        quantities += ["sigma22", "P22"]

    lams = _LADDER[direction] + _PROBES[direction]
    results = sweep(case, model, lams)
    probe_rows = results[-3:]
    bad = next((r for r in probe_rows if not r.converged), None)
    if bad is not None:
        mark = LimitClass("unresolved", note=f"solver failed at a probe: {bad.warning}")
        return {q: mark for q in quantities}
    return {q: _classify([getattr(r, q) for r in probe_rows]) for q in quantities}


def dilatation_response(model, k):
    """Mean Cauchy stress under pure dilatation F = k I.

    Mixed kind: (mu/J)(k^2 - 1) + lam_e h'(J); vol-iso kind: K h'(J), both
    with J = k^3. Matches the mean stress of the full stress evaluation.
    """
    if model.kind == "inc":
        raise ValueError("dilatation requires a compressible kind")
    if not k > 0.0:
        raise ValueError("dilatation stretch must be positive")
    J = k**3
    hp = evaluate(model.volfun, J).hp
    if model.kind == "mixed":
        return (model.params.mu / J) * (k * k - 1.0) + model.params.lam * hp
    return model.params.K * hp
