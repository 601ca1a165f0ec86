import numpy as np
import pytest

from nhcomp.tensor3 import (
    I3,
    apply4,
    dev,
    fnorm,
    quad_form,
    spectral,
    sym,
    sym_outer,
    trace,
    voigt_mat,
    voigt_strain_vec,
)

rng = np.random.default_rng(20240811)


def random_sym(scale=1.0):
    A = rng.normal(size=(3, 3)) * scale
    return sym(A)


def random_supersym():
    """A random (3, 3, 3, 3) array averaged over the minor and major symmetries."""
    a = rng.normal(size=(3, 3, 3, 3))
    a = 0.5 * (a + a.transpose(1, 0, 2, 3))
    a = 0.5 * (a + a.transpose(0, 1, 3, 2))
    return 0.5 * (a + a.transpose(2, 3, 0, 1))


# --- spectral decomposition ---------------------------------------------------


def test_spectral_identity_is_m1():
    dec = spectral(I3)
    assert len(dec.values) == 1
    assert dec.mults == (3,)
    assert dec.values[0] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(dec.projections[0], I3, atol=1e-15)


def test_spectral_transverse_pair_is_m2_with_complement():
    lam_axial, lam_trans = 1.7, 0.9
    S = np.diag([lam_axial, lam_trans, lam_trans])
    dec = spectral(S)
    assert len(dec.values) == 2
    assert sorted(dec.mults) == [1, 2]
    # the isolated direction carries a rank-one projection e1 x e1 and the
    # repeated pair gets the complement I - e1 x e1
    by_mult = {mult: (s, P) for s, mult, P in zip(dec.values, dec.mults, dec.projections)}
    s_iso, P_iso = by_mult[1]
    s_pair, P_pair = by_mult[2]
    assert s_iso == pytest.approx(lam_axial)
    assert s_pair == pytest.approx(lam_trans)
    np.testing.assert_allclose(P_iso, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(P_pair, I3 - P_iso, atol=0)


def test_spectral_distinct_diagonal():
    S = np.diag([1.0, 2.0, 3.0])
    dec = spectral(S)
    assert len(dec.values) == 3
    assert dec.values == pytest.approx((1.0, 2.0, 3.0))
    for k, P in enumerate(dec.projections):
        expected = np.zeros((3, 3))
        expected[k, k] = 1.0
        np.testing.assert_allclose(P, expected, atol=1e-12)


def test_projection_identities_random():
    # P_i P_j = delta_ij P_i, sum P_i = I, tr P_i = multiplicity
    for _ in range(50):
        S = random_sym(2.0)
        dec = spectral(S)
        total = np.zeros((3, 3))
        for i, Pi in enumerate(dec.projections):
            total += Pi
            assert np.trace(Pi) == pytest.approx(dec.mults[i], abs=1e-10)
            for j, Pj in enumerate(dec.projections):
                target = Pi if i == j else np.zeros((3, 3))
                np.testing.assert_allclose(Pi @ Pj, target, atol=1e-10)
        np.testing.assert_allclose(total, I3, atol=1e-12)


def test_reconstruction_bound():
    for _ in range(50):
        S = random_sym(5.0)
        dec = spectral(S)
        recon = sum(s * P for s, P in zip(dec.values, dec.projections))
        err = fnorm(recon - S)
        assert err <= 10 * 1e-8 * max(fnorm(S), 1e-30)


def test_clustering_uses_relative_tolerance():
    # gap of 1e-6 on eigenvalues of order 1e2: relative gap 1e-8-ish
    S = np.diag([100.0, 100.0 + 1e-7, 50.0])
    assert len(spectral(S).values) == 2


# --- fourth-order tensors -------------------------------------------------------


def test_sym_outer_identity_acts_as_symmetrizer():
    X = sym_outer(I3, I3)
    A = rng.normal(size=(3, 3))
    np.testing.assert_allclose(apply4(X, sym(A)), sym(A), atol=1e-14)


def test_planar_shear_coupling_tensor():
    # X = (s1+s2) * [ (n1 n1) o (n2 n2) + (n2 n2) o (n1 n1) ] has its only
    # independent nonzero component X_1212 = (s1+s2)/2, and the quadratic
    # form picks out the 12-shear of H twice over.
    s1, s2 = 1.6, 0.4
    n1n1 = np.diag([1.0, 0.0, 0.0])
    n2n2 = np.diag([0.0, 1.0, 0.0])
    X = (s1 + s2) * (sym_outer(n1n1, n2n2) + sym_outer(n2n2, n1n1))
    assert X[0, 1, 0, 1] == pytest.approx((s1 + s2) / 2)
    # every component not of 1212 type vanishes
    mask = np.zeros((3, 3, 3, 3), dtype=bool)
    for idx in [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]:
        mask[idx] = True
    assert np.max(np.abs(X[~mask])) == 0.0

    for _ in range(20):
        H = random_sym()
        assert quad_form(X, H) == pytest.approx(2 * H[0, 1] ** 2 * (s1 + s2), rel=1e-13)

    M = voigt_mat(X)
    expected = np.zeros((6, 6))
    expected[5, 5] = (s1 + s2) / 2
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_offdiagonal_quadratic_form_positive_expansion():
    # X = sum_{i != j} x_ij P_i o P_j on a distinct-eigenvalue basis gives
    # Htilde : X : Htilde = 2 (x12 H12^2 + x13 H13^2 + x23 H23^2) > 0
    x12, x13, x23 = 0.8, 2.5, 1.1
    P = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    x = {(0, 1): x12, (1, 0): x12, (0, 2): x13, (2, 0): x13, (1, 2): x23, (2, 1): x23}
    X = np.zeros((3, 3, 3, 3))
    for (i, j), xv in x.items():
        X = X + xv * sym_outer(P[i], P[j])
    for _ in range(20):
        H = random_sym()
        Ht = H - np.diag(np.diag(H))
        expected = 2 * (x12 * H[0, 1] ** 2 + x13 * H[0, 2] ** 2 + x23 * H[1, 2] ** 2)
        assert quad_form(X, Ht) == pytest.approx(expected, rel=1e-12)
        if fnorm(Ht) > 0:
            assert quad_form(X, Ht) > 0


# --- Voigt mapping --------------------------------------------------------------


def test_voigt_vector_conventions():
    H = random_sym()
    want = [H[0, 0], H[1, 1], H[2, 2], 2 * H[1, 2], 2 * H[0, 2], 2 * H[0, 1]]
    np.testing.assert_array_equal(voigt_strain_vec(H), want)


def test_voigt_roundtrip_zero():
    X = np.zeros((3, 3, 3, 3))
    H = random_sym()
    v = voigt_strain_vec(H)
    assert quad_form(X, H) == 0.0 and v @ voigt_mat(X) @ v == 0.0


def test_voigt_roundtrip_random_supersym():
    for _ in range(1000):
        X = random_supersym()
        H = random_sym()
        v = voigt_strain_vec(H)
        assert v @ voigt_mat(X) @ v == pytest.approx(quad_form(X, H), rel=1e-12, abs=1e-12)


def test_dev_is_traceless():
    A = random_sym(4.0)
    assert np.trace(dev(A)) == pytest.approx(0.0, abs=1e-13)


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def _trace_test_matrices():
    yield from rng.standard_normal((2000, 3, 3)) * 10.0 ** rng.integers(-300, 300, (2000, 3, 3))
    specials = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, 5e-324)
    for diagonal in np.array(np.meshgrid(specials, specials, specials)).T.reshape(-1, 3):
        yield np.diag(diagonal) + np.triu(rng.standard_normal((3, 3)), 1)
    yield np.diag([-0.0, -0.0, -0.0])  # np.trace sums onto +0.0


def test_trace_and_dev_match_np_trace_bit_for_bit():
    # the eager forms they replace: np.trace(A) and A - (np.trace(A) / 3) I
    with np.errstate(all="ignore"):
        for A in _trace_test_matrices():
            assert _hex([trace(A)]) == _hex([np.trace(A)])
            assert _hex(dev(A)) == _hex(A - (np.trace(A) / 3.0) * I3)
