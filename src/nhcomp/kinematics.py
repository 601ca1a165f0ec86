"""Kinematic quantities derived from the deformation gradient.

Everything downstream works with Eulerian measures: the left Cauchy-Green
tensor ``c = F F^T``, principal stretches (square roots of its eigenvalues)
with their eigenprojections, and strain rates split into parts coaxial and
orthogonal to the current stretch directions. The right stretch tensor and
rotation are never formed; no formula here needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nhcomp.tensor3 import SpectralDecomp, coaxial_orthogonal_split, skew, spectral, sym

__all__ = [
    "DeformationState",
    "RateState",
    "kinematics_from_F",
    "rate_from_motion",
]


@dataclass(frozen=True)
class DeformationState:
    """Deformation gradient with its derived measures.

    ``stretches`` holds the distinct principal stretches (ascending) and
    ``decomp`` the spectral decomposition of ``c`` whose eigenprojections are
    shared by the left stretch tensor V.
    """

    F: np.ndarray
    J: float
    c: np.ndarray
    decomp: SpectralDecomp
    stretches: tuple

    @property
    def mults(self):
        return self.decomp.mults

    @property
    def projections(self):
        return self.decomp.projections


@dataclass(frozen=True)
class RateState:
    """Velocity-gradient data at a deformation state.

    ``dhat``/``dtilde`` are the parts of the stretching tensor d coaxial and
    orthogonal to the principal directions; ``lamdot`` are the rates of the
    distinct principal stretches, aligned with ``state.stretches``.
    """

    l: np.ndarray
    d: np.ndarray
    w: np.ndarray
    dhat: np.ndarray
    dtilde: np.ndarray
    lamdot: tuple


def kinematics_from_F(F):
    """Build a :class:`DeformationState` from a deformation gradient.

    Raises ``ValueError`` if ``det F <= 0`` (inverted or degenerate
    deformation). An entry of ``c`` past the float range is inf, and the
    spectral data of a ``c`` at or near that range are NaN, with no numpy
    warning.
    """
    F = np.asarray(F, dtype=float)
    J = float(np.linalg.det(F))
    if not J > 0.0:
        raise ValueError(f"deformation gradient must have positive determinant, got det F = {J}")
    with np.errstate(over="ignore"):  # F F^T, and sym(c) in spectral
        c = F @ F.T
        dec = spectral(c)
    stretches = tuple(float(np.sqrt(max(v, 0.0))) for v in dec.values)
    return DeformationState(F=F, J=J, c=c, decomp=dec, stretches=stretches)


def rate_from_motion(F, Fdot):
    """Velocity gradient data from (F, Fdot) along a motion.

    The spatial velocity gradient is ``l = Fdot F^(-1)``; its symmetric part
    d is split against the eigenbasis of ``c = F F^T``. The stretch rates
    follow from projecting d: ``lamdot_i = lam_i * (d : V_i) / mult_i``,
    which for a coaxial motion reduces to the diagonal rates.
    """
    state = kinematics_from_F(F)
    l = np.asarray(Fdot, dtype=float) @ np.linalg.inv(state.F)
    d = sym(l)
    w = skew(l)
    dhat, dtilde = coaxial_orthogonal_split(state.decomp, d)
    lamdot = tuple(
        lam * float(np.tensordot(d, P, axes=2)) / mult
        for lam, mult, P in zip(state.stretches, state.mults, state.projections)
    )
    return state, RateState(l=l, d=d, w=w, dhat=dhat, dtilde=dtilde, lamdot=lamdot)
