"""Kinematic quantities derived from the deformation gradient.

Everything downstream works with Eulerian measures: the left Cauchy-Green
tensor ``c = F F^T``, principal stretches (square roots of its eigenvalues)
with their eigenprojections, and the velocity gradient with its symmetric
and skew parts. The right stretch tensor and rotation are never formed; no
formula here needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nhcomp.tensor3 import SpectralDecomp, skew, spectral, sym

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
    """Velocity gradient ``l`` with its stretching ``d = sym(l)`` and spin
    ``w = skew(l)``."""

    l: np.ndarray
    d: np.ndarray
    w: np.ndarray


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
    """The state at F and the velocity gradient ``l = Fdot F^(-1)`` of a
    motion through it, with its symmetric and skew parts."""
    state = kinematics_from_F(F)
    l = np.asarray(Fdot, dtype=float) @ np.linalg.inv(state.F)
    return state, RateState(l=l, d=sym(l), w=skew(l))
