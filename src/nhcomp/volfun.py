"""Catalog of volumetric energy functions h(J) and their property audit.

Each function is normalized so that ``h(1) = h'(1) = 0`` and ``h''(1) = 1``,
making ``K h(J)`` (or ``lambda h(J)``) an immediate volumetric penalty with
the right small-strain modulus. Alongside the value and two derivatives,
evaluation returns ``J h'(J)`` and the factor ``chi(J) = h'(J) + J h''(J)``
from their own closed forms; chi's sign decides the volumetric part of the
Hill inequality, and J h' appears in every mixed-model stress.

The built-in catalog ids 1..8 cover two parametric families plus two
standalone functions:

===  =======================  =======================================
id   family                    h(J)
===  =======================  =======================================
1    power-pair, q = 0         (ln J)^2 / 2   (q -> 0 limit)
2    power-pair, q = 1         (J + 1/J - 2) / 2
3    power-pair, q = 2         (J^2 + J^-2 - 2) / 8
4    power-pair, q = 5         (J^5 + J^-5 - 2) / 50
5    log-augmented, beta = -2  (J^2 - 2 ln J - 1) / 4
6    log-augmented, beta = -1  J - ln J - 1
7    quadratic                 (J - 1)^2 / 2
8    exp-log-squared           (exp(ln^2 J) - 1) / 2
===  =======================  =======================================

The five audited constraints are: (1) the normalization at J = 1; (2) h'
has the sign of J - 1; (3) convexity h'' > 0; (4) chi > 0; (5) h diverges
in both the compression and expansion limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nhcomp import _kernels as _k

__all__ = [
    "VolFun",
    "VolFunEval",
    "PropertyReport",
    "catalog",
    "parse_volfun",
    "evaluate",
    "evaluate_grid",
    "audit",
]


# Largest |q| and |beta| the parametric families take. Near J = 1 one ulp of
# J moves J^q by q * 2.2e-16 relative; up to 1e6 that stays below 2.2e-10,
# while from about 1e8 on a vol-iso root is no longer resolved to the
# solver's 1e-8 stress cross-check.
_FAMILY_PAR_MAX = 1e6


def _family_par(name, value):
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if abs(value) > _FAMILY_PAR_MAX:
        raise ValueError(
            f"{name} must be at most {_FAMILY_PAR_MAX:g} in absolute value, got {value}"
        )
    return float(value)


def _par_label(prefix, par):
    """``prefix:par`` in ``%g`` when that reads back as ``par``, else in full.

    So every label parses back to the parameter of its own model.
    """
    short = f"{par:g}"
    return f"{prefix}:{short if float(short) == par else repr(par)}"


@dataclass(frozen=True)
class VolFun:
    """One volumetric function: a family code plus its parameter.

    Use the classmethod constructors or :func:`catalog`; ``label`` is a
    short stable name used in CSV output.
    """

    family: int
    par: float
    label: str

    @classmethod
    def power_pair(cls, q):
        """Symmetric power family (J^q + J^-q - 2)/(2 q^2), q >= 0.

        The q = 0 member is the (ln J)^2 / 2 limit; the branch switches at
        q < 1e-8 with no blending. q is at most 1e6.
        """
        q = _family_par("power-pair exponent q", q)
        if q < 0:
            raise ValueError("power-pair exponent q must be >= 0")
        return cls(_k.FAMILY_HN, q, _par_label("hn", q))

    @classmethod
    def log_augmented(cls, beta):
        """Family (beta ln J + J^-beta - 1)/beta^2, 0 < |beta| <= 1e6.

        Below |beta| < 1e-8 it is evaluated as its (ln J)^2 / 2 limit, like
        the power pair below q < 1e-8.
        """
        beta = _family_par("log-augmented exponent beta", beta)
        if beta == 0:
            raise ValueError("log-augmented exponent beta must be nonzero")
        return cls(_k.FAMILY_OGDEN, beta, _par_label("ogden", beta))

    @classmethod
    def quadratic(cls):
        """(J - 1)^2 / 2; bounded under compression, chi changes sign at 1/2."""
        return cls(_k.FAMILY_QUADRATIC, 0.0, "7")

    @classmethod
    def exp_log_squared(cls):
        """(exp(ln^2 J) - 1)/2; faster-than-power growth both ways."""
        return cls(_k.FAMILY_EXP_LOG2, 0.0, "8")


def catalog():
    """The eight built-in functions keyed by their catalog id."""
    return {
        1: VolFun(_k.FAMILY_HN, 0.0, "1"),
        2: VolFun(_k.FAMILY_HN, 1.0, "2"),
        3: VolFun(_k.FAMILY_HN, 2.0, "3"),
        4: VolFun(_k.FAMILY_HN, 5.0, "4"),
        5: VolFun(_k.FAMILY_OGDEN, -2.0, "5"),
        6: VolFun(_k.FAMILY_OGDEN, -1.0, "6"),
        7: VolFun.quadratic(),
        8: VolFun.exp_log_squared(),
    }


def parse_volfun(text):
    """Parse a CLI volumetric-function label: '1'..'8', 'hn:q' or 'ogden:beta'."""
    text = text.strip()
    if text.startswith("hn:"):
        return VolFun.power_pair(float(text[3:]))
    if text.startswith("ogden:"):
        return VolFun.log_augmented(float(text[6:]))
    try:
        ident = int(text)
    except ValueError:
        raise ValueError(f"unknown volumetric function {text!r}") from None
    cat = catalog()
    if ident not in cat:
        raise ValueError(f"volumetric function id must be 1..8, got {ident}")
    return cat[ident]


@dataclass(frozen=True)
class VolFunEval:
    """Point evaluation: value, two derivatives, J h'(J), and chi(J)."""

    h: float
    hp: float
    hpp: float
    jhp: float
    chi: float


# h_tuple forms powers of J (J^q, J^-q, J^-beta, exp(ln^2 J), J * J) and
# their products and quotients. While |ln J| (|par| + 2) stays within this
# span (|ln J| (|ln J| + 2) for the exp family), every one of them lies
# within e^+-680 (5e-296 .. 2e295), so no intermediate overflows, underflows
# or loses bits as a subnormal, with room for the factors 2 q and 1 / q^2.
_DIRECT_SPAN = 680.0


def _direct_span(vf):
    """The largest |ln J| at which the closed forms of ``h_tuple`` are used."""
    if vf.family == _k.FAMILY_QUADRATIC:
        return math.inf  # its only powers are J - 1, J (J - 1) and 2 J
    if vf.family == _k.FAMILY_EXP_LOG2:
        return math.sqrt(_DIRECT_SPAN + 1.0) - 1.0
    return _DIRECT_SPAN / (abs(vf.par) + 2.0)


def _signed_exp(sign, log_abs):
    """The value whose sign and log |value| are given (0 where log_abs = -inf)."""
    return sign * np.exp(log_abs)


def _log_abs_expm1(x):
    """log |e^x - 1| (-inf at x = 0), accurate at every x."""
    return np.where(x > 0.0, x + np.log(-np.expm1(-x)), np.log(-np.expm1(x)))


def _log_tuple(family, par, J):
    """(h, h', h'', J h', chi) of ``h_tuple``, each as sign * exp(log |value|).

    The log of each closed form is a sum of terms of size |ln J| and
    |par ln J|, so no intermediate leaves the float range: a value beyond
    it comes out +-inf with its sign, and one below it as 0 or a subnormal.
    Not used for the quadratic family, whose closed forms never need it.
    """
    L = np.log(J)
    if family in (_k.FAMILY_HN, _k.FAMILY_OGDEN) and abs(par) < _k._LOG_LIMIT_PAR:
        hp = _signed_exp(np.sign(L), np.log(np.abs(L)) - L)
        hpp = _signed_exp(np.sign(1.0 - L), np.log(np.abs(1.0 - L)) - 2.0 * L)
        return 0.5 * L * L, hp, hpp, L, np.exp(-L)
    if family == _k.FAMILY_HN:
        # a = q ln J: J^q + J^-q = 2 cosh a and J^q - J^-q = 2 sinh a
        q = par
        A, s = np.abs(q * L), np.sign(L)
        log_2q = math.log(2.0 * q)
        log_sinh = A + np.log(-np.expm1(-2.0 * A))  # log |2 sinh a|
        log_cosh = A + np.log1p(np.exp(-2.0 * A))  # log 2 cosh a
        h = np.exp(A + 2.0 * np.log(-np.expm1(-A)) - math.log(2.0 * q * q))
        # (q - 1) J^q + (q + 1) J^-q = e^A ((q - s) + (q + s) e^(-2A))
        br = (q - s) + (q + s) * np.exp(-2.0 * A)
        hpp = _signed_exp(np.sign(br), A + np.log(np.abs(br)) - log_2q - 2.0 * L)
        hp = _signed_exp(s, log_sinh - log_2q - L)
        return h, hp, hpp, _signed_exp(s, log_sinh - log_2q), np.exp(log_cosh - math.log(2.0) - L)
    if family == _k.FAMILY_OGDEN:
        # a = -beta ln J, J^-beta = e^a
        b = par
        a = -b * L
        log_b, sb = math.log(abs(b)), math.copysign(1.0, b)
        # h = (e^a - 1 - a) / beta^2, which is positive
        log_g = np.where(
            a > 1.0, a + np.log1p(-(1.0 + a) * np.exp(-a)), np.log(np.expm1(a) - a)
        )
        log_em1, s = _log_abs_expm1(a), -sb * np.sign(a)  # 1 - e^a over beta
        # h'' = ((beta + 1) e^a - 1) / (beta J^2)
        if b == -1.0:
            log_br, s_br = np.zeros_like(a), -1.0
        elif b > -1.0:
            la = a + math.log(b + 1.0)
            log_br, s_br = _log_abs_expm1(la), np.sign(la)
        else:
            log_br, s_br = np.logaddexp(a + math.log(-(b + 1.0)), 0.0), -1.0
        hpp = _signed_exp(s_br * sb, log_br - log_b - 2.0 * L)
        h = np.exp(log_g - 2.0 * log_b)
        hp = _signed_exp(s, log_em1 - log_b - L)
        return h, hp, hpp, _signed_exp(s, log_em1 - log_b), np.exp(a - L)
    # FAMILY_EXP_LOG2, e = exp(ln^2 J)
    L2 = L * L
    h = np.exp(L2 + np.log(-np.expm1(-L2)) - math.log(2.0))
    hp = _signed_exp(np.sign(L), L2 + np.log(np.abs(L)) - L)
    hpp = np.exp(L2 - 2.0 * L + np.log(2.0 * L2 + 1.0 - L))
    jhp = _signed_exp(np.sign(L), L2 + np.log(np.abs(L)))
    return h, hp, hpp, jhp, np.exp(L2 - L + np.log1p(2.0 * L2))


def evaluate(vf, J):
    """Evaluate one volumetric function at a single J > 0.

    Each column comes out finite wherever its exact value is within the
    float range, and +-inf beyond it, with no warning raised; the same
    holds for :func:`evaluate_grid`. Near J = 1 these are the closed forms
    of ``_kernels.h_tuple``; farther out than ``_direct_span`` allows, where
    a power of J inside a closed form would leave the float range, all five
    columns are evaluated in log space (``_log_tuple``).
    """
    if not J > 0.0:
        raise ValueError(f"volume ratio must be positive, got J = {J}")
    form = _k.h_tuple if abs(math.log(J)) <= _direct_span(vf) else _log_tuple
    with np.errstate(all="ignore"):
        h, hp, hpp, jhp, chi = form(vf.family, vf.par, np.float64(J))
    return VolFunEval(h=h, hp=hp, hpp=hpp, jhp=jhp, chi=chi)


def evaluate_grid(vf, Js):
    """Vectorized evaluation; returns an (n, 5) array (h, h', h'', Jh', chi)."""
    Js = np.ascontiguousarray(Js, dtype=float)
    if Js.ndim != 1:
        raise ValueError("expected a 1-D grid of volume ratios")
    if np.any(Js <= 0.0):
        raise ValueError("volume ratios must be positive")
    span = _direct_span(vf)
    # a constant column (h'' of the quadratic) comes back as a scalar
    with np.errstate(all="ignore"):
        table = np.column_stack(np.broadcast_arrays(*_k.h_tuple(vf.family, vf.par, Js)))
        if Js.size and (Js.min() < math.exp(-span) or Js.max() > math.exp(span)):
            far = np.abs(np.log(Js)) > span
            table[far] = np.column_stack(_log_tuple(vf.family, vf.par, Js[far]))
    return table


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the five-constraint audit.

    ``passed[k]`` is the verdict for constraint k+1; ``witness[k]`` holds a
    violating J for failed grid-checked constraints (None when the
    constraint passed or has no meaningful witness).
    """

    passed: tuple
    witness: tuple

    def as_row(self):
        flags = tuple(1 if p else 0 for p in self.passed)
        wit = next((w for p, w in zip(self.passed, self.witness) if not p and w is not None), None)
        return flags, wit


# threshold for the divergence constraint (5), probed at J = 1e-6 and 1e6:
# the slowest-diverging catalog member reaches only ~6.7 there (logarithmic
# growth), while the lone bounded-compression member sits at 0.5, so any
# cut strictly between those separates them; 1.0 keeps a wide margin
_DIVERGENCE_PROBES = (1e-6, 1e6)
_DIVERGENCE_THRESHOLD = 1.0

# the J grid of the sign constraints (2)-(4)
_AUDIT_GRID = np.logspace(-4, 4, 801)


def audit(vf):
    """Check the five structural constraints of one volumetric function.

    The normalization (1) is checked analytically at J = 1; the sign
    constraints (2)-(4) by evaluating on 801 log-spaced points over
    [1e-4, 1e4]; the divergence constraint (5) at fixed probes far in each
    tail.
    """
    grid = _AUDIT_GRID
    vals = evaluate_grid(vf, grid)
    at_one = evaluate(vf, 1.0)

    passed = [True] * 5
    witness = [None] * 5

    c1 = abs(at_one.h) <= 1e-12 and abs(at_one.hp) <= 1e-12 and abs(at_one.hpp - 1.0) <= 1e-12
    passed[0] = bool(c1)
    if not c1:
        witness[0] = 1.0

    signs_ok = np.sign(vals[:, 1]) == np.sign(grid - 1.0)
    signs_ok |= np.isclose(grid, 1.0)
    if not np.all(signs_ok):
        passed[1] = False
        witness[1] = float(grid[~signs_ok][0])

    convex = vals[:, 2] > 0.0
    if not np.all(convex):
        passed[2] = False
        witness[2] = float(grid[~convex][0])

    chi_pos = vals[:, 4] > 0.0
    if not np.all(chi_pos):
        passed[3] = False
        witness[3] = float(grid[~chi_pos][0])

    for probe in _DIVERGENCE_PROBES:
        if evaluate(vf, probe).h <= _DIVERGENCE_THRESHOLD:
            passed[4] = False
            witness[4] = probe
            break

    return PropertyReport(passed=tuple(passed), witness=tuple(witness))
