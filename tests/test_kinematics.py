import numpy as np
import pytest

from nhcomp.kinematics import kinematics_from_F, rate_from_motion
from nhcomp.tensor3 import I3

rng = np.random.default_rng(77123)


def random_F(scale=0.5):
    # rejection-sample away near-singular gradients; eigenvalues of F F^T
    # lose digits as det -> 0 and no physical state lives there
    while True:
        F = I3 + scale * rng.normal(size=(3, 3))
        if np.linalg.det(F) > 0.3:
            return F


def test_identity_state():
    st = kinematics_from_F(I3)
    assert st.J == 1.0
    np.testing.assert_allclose(st.c, I3, atol=0)
    assert st.stretches == (1.0,)
    assert st.mults == (3,)


def test_uniaxial_stretch_state():
    st = kinematics_from_F(np.diag([2.0, 1.0, 1.0]))
    assert st.J == pytest.approx(2.0)
    assert st.stretches == pytest.approx((1.0, 2.0))
    assert st.mults == (2, 1)


def test_transversely_isotropic_c():
    lam, lamT = 1.8, 0.6
    st = kinematics_from_F(np.diag([lam, lamT, lamT]))
    np.testing.assert_allclose(st.c, np.diag([lam**2, lamT**2, lamT**2]), atol=1e-15)


def test_negative_determinant_rejected():
    F = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        kinematics_from_F(F)


def test_rate_pure_scaling_flow():
    F = random_F()
    _, rate = rate_from_motion(F, F)
    np.testing.assert_allclose(rate.d, I3, atol=1e-12)
    np.testing.assert_allclose(rate.w, np.zeros((3, 3)), atol=1e-12)
    assert np.trace(rate.d) == pytest.approx(3.0)


def test_rate_pure_spin_at_identity():
    W = np.array([[0.0, 0.4, -0.1], [-0.4, 0.0, 0.2], [0.1, -0.2, 0.0]])
    _, rate = rate_from_motion(I3, W)
    np.testing.assert_allclose(rate.d, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(rate.w, W, atol=1e-15)


def test_rate_diagonal_exponential_motion():
    a, b, c = 0.3, -0.5, 0.2
    t = 0.7
    F = np.diag([np.exp(a * t), np.exp(b * t), np.exp(c * t)])
    Fdot = np.diag([a, b, c]) @ F
    _, rate = rate_from_motion(F, Fdot)
    np.testing.assert_allclose(rate.d, np.diag([a, b, c]), atol=1e-13)


def test_volume_rate_identity_fd():
    # (d/dt) J = J tr d, checked with central differences along F(t) = F0 + t F1
    F0 = random_F()
    F1 = 0.3 * rng.normal(size=(3, 3))
    h = 1e-6
    Jp = np.linalg.det(F0 + h * F1)
    Jm = np.linalg.det(F0 - h * F1)
    state, rate = rate_from_motion(F0, F1)
    fd = (Jp - Jm) / (2 * h)
    assert fd == pytest.approx(state.J * np.trace(rate.d), rel=1e-8)


def test_rate_parts_sum_to_l():
    F = random_F()
    Fdot = rng.normal(size=(3, 3))
    _, rate = rate_from_motion(F, Fdot)
    np.testing.assert_allclose(rate.l, rate.d + rate.w, atol=1e-14)
    np.testing.assert_array_equal(rate.d, rate.d.T)
    np.testing.assert_array_equal(rate.w, -rate.w.T)


def test_modified_stretch_product_is_one():
    # the isochoric stretches lam J^(-1/3), counted with multiplicity,
    # multiply to one: the distinct stretches carry the whole volume change
    for _ in range(100):
        st = kinematics_from_F(random_F())
        prod = 1.0
        for lam, mult in zip(st.stretches, st.mults):
            prod *= (lam * st.J ** (-1.0 / 3.0)) ** mult
        assert prod == pytest.approx(1.0, rel=1e-12)


def test_hencky_trace_is_log_volume():
    for _ in range(20):
        st = kinematics_from_F(random_F())
        logV = sum(np.log(lam) * P for lam, P in zip(st.stretches, st.projections))
        assert np.trace(logV) == pytest.approx(np.log(st.J), rel=1e-10)
        # the same eigenprojections rebuild c from the squared stretches
        c = sum(lam**2 * P for lam, P in zip(st.stretches, st.projections))
        np.testing.assert_allclose(c, st.c, rtol=0, atol=1e-12 * np.abs(st.c).max())
    # unimodular part of V has traceless logarithm
    st = kinematics_from_F(random_F())
    logV = sum(np.log(lam) * P for lam, P in zip(st.stretches, st.projections))
    assert np.trace(logV - (np.log(st.J) / 3.0) * I3) == pytest.approx(0.0, abs=1e-12)
