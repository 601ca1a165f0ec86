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

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from nhcomp.tensor3 import I3, dev, sym
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


def params_from_mu_nu(mu, nu):
    """Constants from the shear modulus and Poisson's ratio."""
    if not 0 < mu < math.inf:
        raise ValueError(f"shear modulus must be positive and finite, got mu = {mu}")
    if not -1.0 < nu <= 0.5:
        raise ValueError(f"Poisson's ratio must lie in (-1, 1/2], got nu = {nu}")
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
    return params_from_mu_nu(E / (2.0 * (1.0 + nu)), nu)


def mantissa_params(params):
    """The constants divided by 2^e, where mu = m 2^e with 1/2 <= m < 1, and e.

    Stresses, residuals and stability forms are linear in (mu, lam, K, E),
    and scaling by a power of two is exact. So a computation at the
    returned constants, scaled back by ``ldexp(x, e)``, gives the bits of
    the unscaled one wherever that stays in the float range, and keeps its
    intermediate products in range at any admissible modulus.
    """
    m, e = math.frexp(params.mu)
    scaled = replace(
        params,
        mu=m,
        lam=math.ldexp(params.lam, -e),
        K=math.ldexp(params.K, -e),
        E=math.ldexp(params.E, -e),
    )
    return scaled, e


def _check_scale(p):
    """Reject compressible constants that overflow or lose precision.

    Every stress, tolerance and stability matrix is a multiple of these
    constants, so one that is infinite, or a subnormal mu, turns the
    output into inf or NaN rows instead of an error.
    """
    for name, value in (
        ("shear modulus mu", p.mu),
        ("first Lame constant lam", p.lam),
        ("bulk modulus K", p.K),
        ("stress scale mu + lam + K", p.mu + p.lam + p.K),
    ):
        if not math.isfinite(value):
            raise ValueError(
                f"{name} overflows to {value} (mu = {p.mu}, nu = {p.nu}); use a smaller modulus"
            )
    if p.mu < sys.float_info.min:
        raise ValueError(
            f"shear modulus mu = {p.mu} is subnormal; it must be at least {sys.float_info.min}"
        )


@dataclass(frozen=True)
class ModelSpec:
    """A model kind, its volumetric function (compressible kinds), and params.

    Admissibility is validated here once: the mixed kind needs lam >= 0
    (0 <= nu < 1/2), the vol-iso kind only K > 0 (-1 < nu < 1/2), and
    nu = 1/2 is rejected for both with a pointer to the incompressible kind.
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


@dataclass(frozen=True)
class StressResult:
    """Cauchy, Kirchhoff and first Piola-Kirchhoff stress at one state."""

    cauchy: np.ndarray
    kirchhoff: np.ndarray
    first_pk: np.ndarray
    mean_stress: float


def _check_p(model, p):
    if model.kind == "inc" and p is None:
        raise ValueError("the incompressible kind requires the multiplier p")


def energy(model, F, p=None):
    """Strain energy density W(F) (per reference volume).

    For the incompressible kind the multiplier enters as the conjugate of
    (J - 1); the energy is written so that its F-gradient reproduces the
    ``mu (c - I) - p I`` stress parameterization on the J = 1 manifold:
    ``W = mu (|F|^2 - 3)/2 - (mu + p)(J - 1)``.
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
    h = evaluate(model.volfun, J).h
    if model.kind == "mixed":
        return 0.5 * mu * (norm2 - 3.0 - 2.0 * math.log(J)) + model.params.lam * h
    # voliso: |Fbar|^2 = J^(-2/3) |F|^2; the log of the modified volume
    # ratio is identically zero and contributes nothing
    return 0.5 * mu * (J ** (-2.0 / 3.0) * norm2 - 3.0) + model.params.K * h


def cauchy_stress(model, F, p=None):
    """Total-form Cauchy stress, with Kirchhoff and first P-K derived."""
    _check_p(model, p)
    F = np.asarray(F, dtype=float)
    J = float(np.linalg.det(F))
    if not J > 0.0:
        raise ValueError(f"deformation gradient must have positive determinant, got {J}")
    mu = model.params.mu
    c = F @ F.T
    if model.kind == "inc":
        sigma = mu * (c - I3) - p * I3
    elif model.kind == "mixed":
        hp, lam = evaluate(model.volfun, J).hp, model.params.lam
        # lam = 0 (nu = 0) has no volumetric term: skip 0 * h' where h' is not finite
        vol = lam * hp if lam or math.isfinite(hp) else 0.0
        sigma = (mu / J) * (c - I3) + vol * I3
    else:
        hp = evaluate(model.volfun, J).hp
        sigma = mu * J ** (-5.0 / 3.0) * dev(c) + model.params.K * hp * I3
    tau = J * sigma
    first_pk = tau @ np.linalg.inv(F).T
    return StressResult(
        cauchy=sigma,
        kirchhoff=tau,
        first_pk=first_pk,
        mean_stress=float(np.trace(sigma)) / 3.0,
    )


def linear_stress(params, eps, decoupled=False):
    """Small-strain isotropic stress in coupled or decoupled form.

    Coupled: ``lam tr(eps) I + 2 mu eps``. Decoupled:
    ``2 mu dev(eps) + K tr(eps) I``. The two agree identically because
    K = lam + 2 mu / 3.
    """
    eps = sym(np.asarray(eps, dtype=float))
    tr = float(np.trace(eps))
    if decoupled:
        return 2.0 * params.mu * dev(eps) + params.K * tr * I3
    return params.lam * tr * I3 + 2.0 * params.mu * eps
