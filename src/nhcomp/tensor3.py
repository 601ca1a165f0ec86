"""Small fixed-size tensor algebra in three dimensions.

Second-order tensors are plain ``(3, 3)`` float ndarrays. Symmetric tensors
are ndarrays that happen to be symmetric; nothing here stores packed 6-vectors
except the Voigt mapping layer at the bottom of the module. Fourth-order
tensors are plain ``(3, 3, 3, 3)`` float ndarrays with the major and both
minor symmetries. :func:`sym_outer` and :func:`outer` average their result
once over those symmetries; sums, differences and scalar multiples of such
arrays keep every symmetry bit for bit (IEEE ``+`` and ``*`` commute), so
nothing averages again.

The one genuinely delicate operation is :func:`spectral`: eigenvalues of a
symmetric tensor must be *clustered* before eigenprojections are formed,
because the projection formulas change discontinuously with the number of
distinct eigenvalues. Clustering is controlled by an explicit relative
tolerance, ``_REL_TOL``, rather than whatever ``numpy.linalg.eigh`` happens
to return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I3 = np.eye(3)

__all__ = [
    "I3",
    "SpectralDecomp",
    "sym",
    "skew",
    "ddot",
    "fnorm",
    "trace",
    "dev",
    "scaled",
    "spectral",
    "sym_outer",
    "outer",
    "apply4",
    "quad_form",
    "voigt_strain_vec",
    "voigt_mat",
]


def sym(A):
    """Symmetric part ``(A + A.T)/2``."""
    return 0.5 * (A + A.T)


def skew(A):
    """Skew-symmetric part ``(A - A.T)/2``."""
    return 0.5 * (A - A.T)


def ddot(A, B):
    """Double contraction A : B = A_ij B_ij."""
    return float(np.tensordot(A, B, axes=2))


def fnorm(A):
    """Frobenius norm sqrt(A : A)."""
    return float(np.linalg.norm(A))


def trace(A):
    """Trace of a ``(3, 3)`` array, summed as ``np.trace`` sums it: onto
    +0.0 in index order, so its bits match (a -0.0 diagonal gives +0.0)."""
    return ((0.0 + A[0, 0]) + A[1, 1]) + A[2, 2]


def dev(A):
    """Deviatoric part ``A - (tr A / 3) I``."""
    return A - (trace(A) / 3.0) * I3


def scaled(factor, tensor):
    """factor * tensor, where an exact zero of the tensor stays 0 at a factor
    that is not finite (inf * 0 would be NaN). Call under an errstate."""
    out = factor * tensor
    if not math.isfinite(factor):
        out[tensor == 0.0] = 0.0
    return out


@dataclass(frozen=True)
class SpectralDecomp:
    """Spectral decomposition of a symmetric 3x3 tensor.

    Attributes
    ----------
    values : tuple of float
        The distinct eigenvalues after clustering (one, two or three),
        ascending.
    mults : tuple of int
        Multiplicities, summing to 3.
    projections : tuple of ndarray
        Orthogonal eigenprojections; ``sum(projections) = I`` and
        ``sum(values[i] * projections[i])`` reconstructs the input.
    """

    values: tuple
    mults: tuple
    projections: tuple


# relative clustering tolerance that decides eigenvalue multiplicity
_REL_TOL = 1e-8


def _cluster(vals):
    """Group ascending eigenvalues whose gaps fall below the tolerance.

    Two eigenvalues belong to one cluster when
    ``|s_a - s_b| <= _REL_TOL * max(1, |s_a|, |s_b|)``. Returns a list of
    index lists.
    """
    groups = [[0]]
    for k in (1, 2):
        prev = vals[groups[-1][0]]
        cur = vals[k]
        if abs(cur - prev) <= _REL_TOL * max(1.0, abs(cur), abs(prev)):
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def spectral(S):
    """Eigenvalues and eigenprojections of a symmetric tensor.

    Parameters
    ----------
    S : (3, 3) ndarray
        Symmetric input. Eigenvalues closer than ``_REL_TOL`` relative are
        one repeated eigenvalue.

    Notes
    -----
    For a repeated pair the second projection is built as the complement
    ``I - P_isolated`` instead of summing the two near-degenerate eigenvector
    dyads, whose mutual orthogonality is numerically unreliable. For a fully
    clustered spectrum the single projection is ``I``.
    """
    Ssym = sym(np.asarray(S, dtype=float))
    vals, vecs = np.linalg.eigh(Ssym)
    groups = _cluster(vals)
    m = len(groups)

    if m == 1:
        values = (float(np.mean(vals)),)
        return SpectralDecomp(values, (3,), (I3.copy(),))

    if m == 3:
        projs = tuple(np.outer(vecs[:, k], vecs[:, k]) for k in range(3))
        return SpectralDecomp(tuple(float(v) for v in vals), (1, 1, 1), projs)

    # m == 2: one isolated eigenvalue, one repeated pair. Build the isolated
    # dyad directly and take the complement for the pair.
    if len(groups[0]) == 1:
        iso_group, pair_group = groups[0], groups[1]
    else:
        iso_group, pair_group = groups[1], groups[0]
    k_iso = iso_group[0]
    P_iso = np.outer(vecs[:, k_iso], vecs[:, k_iso])
    P_pair = I3 - P_iso
    s_iso = float(vals[k_iso])
    s_pair = float(np.mean([vals[k] for k in pair_group]))
    if s_iso < s_pair:
        return SpectralDecomp((s_iso, s_pair), (1, 2), (P_iso, P_pair))
    return SpectralDecomp((s_pair, s_iso), (2, 1), (P_pair, P_iso))


def _supersym(a):
    """Average a (3, 3, 3, 3) array over the two minor and the major symmetry."""
    a = 0.5 * (a + a.transpose(1, 0, 2, 3))
    a = 0.5 * (a + a.transpose(0, 1, 3, 2))
    return 0.5 * (a + a.transpose(2, 3, 0, 1))


def sym_outer(A, B):
    """Symmetrized tensor product with action (A o B) : X = A sym(X) B^T.

    Componentwise ``(A o B)_ijkl = (A_ik B_jl + A_il B_jk) / 2``, then
    averaged over the major and both minor symmetries; returns a
    ``(3, 3, 3, 3)`` ndarray. For symmetric A, B the quadratic form
    ``H : (A o B) : H`` equals ``H : (A sym(H) B)``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return _supersym(0.5 * (np.einsum("ik,jl->ijkl", A, B) + np.einsum("il,jk->ijkl", A, B)))


def outer(A, B):
    """Dyadic product (A x B)_ijkl = A_ij B_kl, averaged over the major and
    both minor symmetries; returns a ``(3, 3, 3, 3)`` ndarray.

    For symmetric A != B the major average makes this ``(A x B + B x A) / 2``,
    so ``outer(c, I3)`` is already the (c x I + I x c)/2 pairing a tangent
    uses.
    """
    return _supersym(np.einsum("ij,kl->ijkl", np.asarray(A, float), np.asarray(B, float)))


def apply4(X4, H):
    """Contraction (X : H)_ij = X_ijkl H_kl."""
    return np.einsum("ijkl,kl->ij", X4, np.asarray(H, dtype=float))


def quad_form(X4, H):
    """Quadratic form H : X : H."""
    H = np.asarray(H, dtype=float)
    return float(np.einsum("ij,ijkl,kl->", H, X4, H))


# --- Voigt mapping -----------------------------------------------------------
#
# Index pair order (11, 22, 33, 23, 13, 12). The strain vector doubles the
# shear entries and the 6x6 matrix of a supersymmetric fourth-order tensor
# carries no extra factors; the identity
#     vec_strain(H)^T  mat(X)  vec_strain(H)  ==  H : X : H
# then holds up to rounding.

_VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def voigt_strain_vec(H):
    """6-vector of a symmetric tensor with doubled shear components."""
    H = sym(np.asarray(H, dtype=float))
    return np.array([H[0, 0], H[1, 1], H[2, 2], 2 * H[1, 2], 2 * H[0, 2], 2 * H[0, 1]])


def voigt_mat(X4):
    """6x6 matrix of a supersymmetric fourth-order tensor."""
    M = np.empty((6, 6))
    for I, (i, j) in enumerate(_VOIGT_PAIRS):
        for J, (k, l) in enumerate(_VOIGT_PAIRS):
            M[I, J] = X4[i, j, k, l]
    return M
