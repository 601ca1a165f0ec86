"""Material parameters, energies, and total-form stress evaluation.

Three model kinds share one neo-Hookean deviatoric backbone:

``inc``
    Incompressible; the pressure-like multiplier p is an explicit input to
    every evaluation (it is a reaction, not a material constant), and the
    Cauchy stress is ``mu (c - I) - p I``.
``mixed``
    Compressible, coupled form: ``W = mu (|F|^2 - 3 - 2 ln J)/2 + lam h(J)``
    with Cauchy stress ``(mu/J)(c - I) + lam h'(J) I``.
``voliso``
    Compressible, decoupled form built from the modified (isochoric)
    tensor: ``W = mu (|Fbar|^2 - 3)/2 + K h(J)`` with Cauchy stress
    ``mu J^(-5/3) dev c + K h'(J) I``.

Both compressible kinds linearize to the same isotropic small-strain solid,
which is what ties mu, nu, lam, K, E together through the usual conversion
formulas.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from nhcomp._kernels import LOAD_CASES
from nhcomp.tensor3 import I3, dev, scaled, sym, trace
from nhcomp.volfun import VolFun, evaluate

__all__ = [
    "PAPER_NUS",
    "MaterialParams",
    "ModelSpec",
    "StressResult",
    "params_from_mu_nu",
    "params_from_E_nu",
    "mantissa_params",
    "energy",
    "cauchy_stress",
    "linear_stress",
]

KINDS = ("inc", "mixed", "voliso")

# the names of the homogeneous load cases of ``homsolve``, which the CLI
# parser lists without importing the solver
CASES = tuple(LOAD_CASES)

# the Poisson ratios of the paper's published curves, in ascending order
PAPER_NUS = (0.0, 0.25, 0.4, 0.45, 0.499, 0.4999)


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic elastic constants, all five kept mutually consistent.

    ``lam`` is the first Lame constant. For the incompressible kind
    (nu = 1/2) ``lam`` and ``K`` are infinite and never used in stress
    evaluation.
    """

    mu: float
    nu: float
    lam: float
    K: float
    E: float


def _check_nu(nu):
    if not -1.0 < nu <= 0.5:
        raise ValueError(f"Poisson's ratio must lie in (-1, 1/2], got nu = {nu}")


def params_from_mu_nu(mu, nu):
    """Constants from the shear modulus and Poisson's ratio."""
    if not 0 < mu < math.inf:
        raise ValueError(f"shear modulus must be positive and finite, got mu = {mu}")
    _check_nu(nu)
    if 0.0 < abs(nu) < sys.float_info.min:
        # lam would be subnormal, and products such as lam * J underflow to 0
        raise ValueError(f"Poisson's ratio nu = {nu} is subnormal; use 0 or |nu| >= 2.2e-308")
    if nu == 0.5:
        lam = math.inf
        K = math.inf
    else:
        lam = 2.0 * mu * nu / (1.0 - 2.0 * nu)
        K = lam + 2.0 * mu / 3.0
    return MaterialParams(mu=float(mu), nu=float(nu), lam=lam, K=K, E=2.0 * mu * (1.0 + nu))


def params_from_E_nu(E, nu):
    """Constants from Young's modulus and Poisson's ratio."""
    if not 0 < E < math.inf:
        raise ValueError(f"Young's modulus must be positive and finite, got E = {E}")
    _check_nu(nu)  # before 1 + nu divides: nu = -1 would divide by zero
    mu = E / (2.0 * (1.0 + nu))
    # every check here names the E and nu that were given, not a derived mu
    if mu == math.inf:
        raise ValueError(
            f"Young's modulus E = {E} at nu = {nu} gives shear modulus mu = inf; use a smaller E"
        )
    if mu < sys.float_info.min:
        raise ValueError(
            f"Young's modulus E = {E} at nu = {nu} gives a subnormal shear modulus mu = {mu}; "
            "use a larger E"
        )
    params = params_from_mu_nu(mu, nu)
    # at nu = 1/2, lam and K are infinite by definition
    bad = None if nu == 0.5 else _first_overflow(params)
    if bad is not None:
        raise ValueError(f"{bad[0]} overflows to {bad[1]} (E = {E}, nu = {nu}); use a smaller E")
    return params


def mantissa_params(params):
    """The constants divided by 2^e, where mu = m 2^e with 1/2 <= m < 1, and e.

    Stresses, residuals and stability forms are linear in (mu, lam, K, E),
    and scaling by a power of two is exact. So a computation at the
    returned constants, scaled back by ``ldexp(x, e)``, gives the bits of
    the unscaled one wherever that stays in the float range, and keeps its
    intermediate products in range at any admissible modulus.
    """
    m, e = math.frexp(params.mu)
    scaled = MaterialParams(
        mu=m,
        nu=params.nu,
        lam=math.ldexp(params.lam, -e),
        K=math.ldexp(params.K, -e),
        E=math.ldexp(params.E, -e),
    )
    return scaled, e


def _first_overflow(p):
    """``(name, value)`` of the first of mu, lam, K and mu + lam + K that is
    not finite, or None."""
    for name, value in (
        ("shear modulus mu", p.mu),
        ("first Lame constant lam", p.lam),
        ("bulk modulus K", p.K),
        ("stress scale mu + lam + K", p.mu + p.lam + p.K),
    ):
        if not math.isfinite(value):
            return name, value
    return None


def _check_scale(p):
    """Reject compressible constants that overflow or lose precision.

    Every stress, tolerance and stability matrix is a multiple of these
    constants, so one that is infinite, or a subnormal mu, turns the
    output into inf or NaN rows instead of an error.
    """
    bad = _first_overflow(p)
    if bad is not None:
        raise ValueError(
            f"{bad[0]} overflows to {bad[1]} (mu = {p.mu}, nu = {p.nu}); use a smaller modulus"
        )
    _check_normal_mu(p.mu)


def _check_normal_mu(mu):
    """Reject a subnormal shear modulus, whose stresses lose digits."""
    if mu < sys.float_info.min:
        raise ValueError(
            f"shear modulus mu = {mu} is subnormal; it must be at least {sys.float_info.min}"
        )


@dataclass(frozen=True)
class ModelSpec:
    """A model kind, its volumetric function (compressible kinds), and params.

    Admissibility is validated here once: the mixed kind needs lam >= 0
    (0 <= nu < 1/2), the vol-iso kind only K > 0 (-1 < nu < 1/2), and
    nu = 1/2 is rejected for both with a pointer to the incompressible kind.
    The compressible kinds differ in two scalar factors, stated once here:
    :meth:`shear_factor` and :meth:`volumetric_term` (callers hold the errstate).
    """

    kind: str
    volfun: VolFun | None
    params: MaterialParams

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        nu = self.params.nu
        if self.kind == "inc":
            if self.volfun is not None:
                raise ValueError("the incompressible kind takes no volumetric function")
            _check_normal_mu(self.params.mu)
        else:
            if self.volfun is None:
                raise ValueError(f"the {self.kind!r} kind requires a volumetric function")
            if nu == 0.5:
                raise ValueError(
                    "nu = 1/2 is the incompressible limit; use the 'inc' kind instead"
                )
            if self.kind == "mixed" and not 0.0 <= nu < 0.5:
                raise ValueError(f"mixed kind requires 0 <= nu < 1/2, got nu = {nu}")
            if self.kind == "voliso" and not -1.0 < nu < 0.5:
                raise ValueError(f"vol-iso kind requires -1 < nu < 1/2, got nu = {nu}")
            _check_scale(self.params)

    @classmethod
    def incompressible(cls, mu):
        return cls("inc", None, params_from_mu_nu(mu, 0.5))

    @classmethod
    def mixed(cls, volfun, mu, nu):
        return cls("mixed", volfun, params_from_mu_nu(mu, nu))

    @classmethod
    def vol_iso(cls, volfun, mu, nu):
        return cls("voliso", volfun, params_from_mu_nu(mu, nu))

    @functools.cached_property
    def at_mantissa(self):
        """``(model, e)``: this model at the constants of :func:`mantissa_params`
        and their exponent e, built and validated once per model object."""
        prm, e = mantissa_params(self.params)
        return ModelSpec(self.kind, self.volfun, prm), e

    def shear_factor(self, J):
        """mu / J (mixed) or mu J^(-5/3) (vol-iso), the factor of c - I or dev c
        in the Cauchy stress; inf past the float range, never OverflowError."""
        if self.kind == "mixed":
            return self.params.mu / J
        return self.params.mu * np.float64(J) ** (-5.0 / 3.0)

    def volumetric_term(self, column):
        """lam or K times a scalar column of h (h, h', chi, ...); 0.0 for the mixed
        kind at nu = 0, which has no volumetric term, even where the column is not finite."""
        if self.kind == "mixed":
            lam = self.params.lam
            return lam * column if lam or math.isfinite(column) else 0.0
        return self.params.K * column


@dataclass(frozen=True)
class StressResult:
    """Cauchy, Kirchhoff and first Piola-Kirchhoff stress at one state.

    :func:`cauchy_stress` computes ``cauchy`` and ``kirchhoff`` and stores
    a copy of the deformation gradient ``F``. ``first_pk`` (tau F^-T) and
    ``mean_stress`` (tr sigma / 3) are computed from ``F``, ``kirchhoff``
    and ``cauchy`` on first read and kept; most callers read only one
    tensor. Neither leaks a numpy warning, and in ``first_pk`` an infinite
    entry times an exact zero adds 0, as in :func:`cauchy_stress`.
    """

    cauchy: np.ndarray
    kirchhoff: np.ndarray
    F: np.ndarray

    @functools.cached_property
    @np.errstate(all="ignore")
    def first_pk(self):
        tau, inv_ft = self.kirchhoff, np.linalg.inv(self.F).T
        if np.isfinite(tau).all() and np.isfinite(inv_ft).all():
            return tau @ inv_ft
        terms = tau[:, :, None] * inv_ft  # tau_ij (F^-T)_jk, summed over j
        terms[(tau == 0.0)[:, :, None] | (inv_ft == 0.0)] = 0.0
        return terms.sum(axis=1)

    @functools.cached_property
    @np.errstate(all="ignore")
    def mean_stress(self):
        return float(trace(self.cauchy)) / 3.0


def _check_p(model, p):
    if model.kind == "inc" and p is None:
        raise ValueError("the incompressible kind requires the multiplier p")


@np.errstate(all="ignore")
def energy(model, F, p=None):
    """Strain energy density W(F) (per reference volume).

    For the incompressible kind the multiplier enters as the conjugate of
    (J - 1); the energy is written so that its F-gradient reproduces the
    ``mu (c - I) - p I`` stress parameterization on the J = 1 manifold:
    ``W = mu (|F|^2 - 3)/2 - (mu + p)(J - 1)``. An energy beyond the float
    range is inf, with no numpy warning; det F <= 0 raises ``ValueError``.
    """
    _check_p(model, p)
    F = np.asarray(F, dtype=float)
    J = float(np.linalg.det(F))
    if not J > 0.0:
        raise ValueError(f"deformation gradient must have positive determinant, got {J}")
    mu = model.params.mu
    norm2 = float(np.tensordot(F, F, axes=2))
    if model.kind == "inc":
        return 0.5 * mu * (norm2 - 3.0) - (mu + p) * (J - 1.0)
    vol = model.volumetric_term(evaluate(model.volfun, J, "h"))
    if model.kind == "mixed":
        return 0.5 * mu * (norm2 - 3.0 - 2.0 * math.log(J)) + vol
    # voliso: |Fbar|^2 = J^(-2/3) |F|^2; the log of the modified volume
    # ratio is identically zero and contributes nothing
    return 0.5 * mu * (J ** (-2.0 / 3.0) * norm2 - 3.0) + vol


@np.errstate(all="ignore")
def cauchy_stress(model, F, p=None):
    """Total-form Cauchy stress, with Kirchhoff and first P-K derived. An
    entry beyond the float range is +-inf, or NaN where two infinite terms
    cancel (inf - inf); an infinite factor times an exact zero of c - I,
    dev c or I gives 0, not NaN. No numpy warning leaks; det F <= 0 raises
    ``ValueError``."""
    _check_p(model, p)
    F = np.array(F, dtype=float)  # a copy: first_pk reads it later
    J = float(np.linalg.det(F))
    if not J > 0.0:
        raise ValueError(f"deformation gradient must have positive determinant, got {J}")
    c = F @ F.T
    if model.kind == "inc":
        sigma = model.params.mu * (c - I3) - p * I3
    else:
        shear = scaled(model.shear_factor(J), c - I3 if model.kind == "mixed" else dev(c))
        sigma = shear + scaled(model.volumetric_term(evaluate(model.volfun, J, "hp")), I3)
    return StressResult(cauchy=sigma, kirchhoff=J * sigma, F=F)


@np.errstate(all="ignore")
def linear_stress(params, eps, decoupled=False):
    """Small-strain isotropic stress in coupled or decoupled form.

    Coupled: ``lam tr(eps) I + 2 mu eps``. Decoupled:
    ``2 mu dev(eps) + K tr(eps) I``. The two agree identically because
    K = lam + 2 mu / 3. An entry beyond the float range is +-inf, with no
    numpy warning; an infinite factor times an exact zero of I gives 0.
    """
    eps = sym(np.asarray(eps, dtype=float))
    tr = float(trace(eps))
    if decoupled:
        return 2.0 * params.mu * dev(eps) + scaled(params.K * tr, I3)
    return scaled(params.lam * tr, I3) + 2.0 * params.mu * eps
