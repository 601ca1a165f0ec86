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
    "symmetry_check",
]


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
        q < 1e-8 with no blending.
        """
        if not np.isfinite(q):
            raise ValueError(f"power-pair exponent q must be finite, got {q}")
        if q < 0:
            raise ValueError("power-pair exponent q must be >= 0")
        return cls(_k.FAMILY_HN, float(q), f"hn:{q:g}")

    @classmethod
    def log_augmented(cls, beta):
        """Family (beta ln J + J^-beta - 1)/beta^2, beta != 0."""
        if not np.isfinite(beta):
            raise ValueError(f"log-augmented exponent beta must be finite, got {beta}")
        if beta == 0:
            raise ValueError("log-augmented exponent beta must be nonzero")
        return cls(_k.FAMILY_OGDEN, float(beta), f"ogden:{beta:g}")

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


def evaluate(vf, J):
    """Evaluate one volumetric function at a single J > 0."""
    if not J > 0.0:
        raise ValueError(f"volume ratio must be positive, got J = {J}")
    h, hp, hpp, jhp, chi = _k.h_tuple(vf.family, vf.par, float(J))
    return VolFunEval(h=h, hp=hp, hpp=hpp, jhp=jhp, chi=chi)


def evaluate_grid(vf, Js):
    """Vectorized evaluation; returns an (n, 5) array (h, h', h'', Jh', chi)."""
    Js = np.ascontiguousarray(Js, dtype=float)
    if Js.ndim != 1:
        raise ValueError("expected a 1-D grid of volume ratios")
    if np.any(Js <= 0.0):
        raise ValueError("volume ratios must be positive")
    # a constant column (h'' of the quadratic) comes back as a scalar
    return np.column_stack(np.broadcast_arrays(*_k.h_tuple(vf.family, vf.par, Js)))


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


def audit(vf, grid=None):
    """Check the five structural constraints on a J grid.

    The normalization (1) is checked analytically at J = 1; the sign
    constraints (2)-(4) by evaluating on the grid (log-spaced over at least
    [1e-4, 1e4], 801 points by default); the divergence constraint (5) at
    fixed probes far in each tail.
    """
    if grid is None:
        grid = np.logspace(-4, 4, 801)
    grid = np.asarray(grid, dtype=float)
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


def symmetry_check(q, J):
    """Evaluate the power-pair function at J and 1/J; the two are equal."""
    vf = VolFun.power_pair(q)
    return evaluate(vf, J).h, evaluate(vf, 1.0 / J).h
