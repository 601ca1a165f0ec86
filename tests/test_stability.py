import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hst

from nhcomp import cli, stability
from nhcomp.kinematics import kinematics_from_F, rate_from_motion
from nhcomp.materials import PAPER_NUS, ModelSpec, cauchy_stress, mantissa_params, params_from_mu_nu
from nhcomp.stability import (
    bh_rate,
    csp_contraction,
    detA_identity,
    find_csp_violation,
    find_hill_violation,
    hill_contraction,
    min_coaxial_eig,
    oldroyd_rate,
    quad_form_E,
    stretch_grid,
    tangent_fd_error,
    tangents,
    witness_report,
    zj_rate,
)
from nhcomp.tensor3 import I3, apply4, ddot, dev, outer, sym_outer
from nhcomp.volfun import VolFun, catalog, evaluate, evaluate_grid
from nhcomp.kinematics import DeformationState

rng = np.random.default_rng(61205)

MU = 2.53
NU = 0.34


def random_F(scale=0.3, min_det=0.4):
    while True:
        F = I3 + scale * rng.standard_normal((3, 3))
        if np.linalg.det(F) > min_det:
            return F


def random_rate(F, scale=0.6):
    Fdot = scale * rng.standard_normal((3, 3))
    return rate_from_motion(F, Fdot)


_TRANSPOSES = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1))


def symmetry_error(a):
    """Number of entries of a fourth-order array whose bits differ from the
    same entry of its two minor or its major transpose (0: supersymmetric)."""
    bits = a.view(np.uint64)
    return sum(int(np.count_nonzero(bits != bits.transpose(p))) for p in _TRANSPOSES)


def make_rate(F, d):
    """State and rate for a prescribed stretching d (zero spin)."""
    return rate_from_motion(F, np.asarray(d, float) @ F)


def assert_glossary_identities(rep):
    """The breakdown is the module glossary, its derived letters exact."""
    b = rep.breakdown
    assert list(b) == ["P", "R", "A", "B", "C", "F", "E", "D", "G"]
    assert b["A"] == b["P"] + b["R"]
    assert b["D"] == b["E"] + b["R"]
    assert b["G"] == b["P"] + b["F"] - b["B"]


class TestZJRate:
    def test_pure_spin_gives_zero(self):
        w = np.array([[0.0, 1.3, -0.2], [-1.3, 0.0, 0.7], [0.2, -0.7, 0.0]])
        F = random_F()
        state, rate = rate_from_motion(F, w @ F)
        for kind in ("mixed", "voliso"):
            model = ModelSpec(kind, catalog()[3], params_from_mu_nu(MU, NU))
            np.testing.assert_allclose(zj_rate(model, state, rate), 0.0, atol=1e-12)

    def test_mixed_spherical_closed_form(self):
        k, alpha = 1.3, 0.7
        model = ModelSpec.mixed(catalog()[2], MU, NU)
        state, rate = make_rate(k * I3, alpha * I3)
        J = k**3
        chi = (J + 1.0 / J) / (2.0 * J)  # independent closed form for id 2
        expect = (2.0 * MU * alpha * k**2 + 3.0 * model.params.lam * chi * J * alpha) * I3
        np.testing.assert_allclose(zj_rate(model, state, rate), expect, rtol=1e-13)

    def test_fd_oracle_compressible(self):
        h = 1e-5
        for vid in (1, 5, 7):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, NU))
                F0 = random_F()
                Fdot = 0.5 * rng.standard_normal((3, 3))
                state, rate = rate_from_motion(F0, Fdot)
                tau_dot = (
                    cauchy_stress(model, F0 + h * Fdot).kirchhoff
                    - cauchy_stress(model, F0 - h * Fdot).kirchhoff
                ) / (2.0 * h)
                tau = cauchy_stress(model, F0).kirchhoff
                fd = tau_dot - rate.w @ tau + tau @ rate.w
                zj = zj_rate(model, state, rate)
                np.testing.assert_allclose(zj, fd, rtol=0, atol=1e-6 * np.abs(fd).max())

    def test_fd_oracle_incompressible(self):
        # isochoric diagonal motion with a linearly varying multiplier
        model = ModelSpec.incompressible(MU)
        d0 = np.diag([0.4, -0.1, -0.3])
        F0 = np.diag([1.2, 0.9, 1.0 / (1.2 * 0.9)])
        p0, pdot = 0.3 * MU, 0.8
        h = 1e-5

        def F_at(t):
            return np.diag(np.exp(np.diag(d0) * t)) @ F0

        state, rate = rate_from_motion(F0, d0 @ F0)
        sig_dot = (
            cauchy_stress(model, F_at(h), p=p0 + pdot * h).cauchy
            - cauchy_stress(model, F_at(-h), p=p0 - pdot * h).cauchy
        ) / (2.0 * h)
        zj = zj_rate(model, state, rate, pdot=pdot)
        np.testing.assert_allclose(zj, sig_dot, rtol=0, atol=1e-6 * max(1.0, np.abs(sig_dot).max()))

    def test_incompressible_requires_pdot(self):
        model = ModelSpec.incompressible(MU)
        state, rate = make_rate(I3, np.diag([1.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            zj_rate(model, state, rate)


class TestRateIdentities:
    def test_oldroyd_vs_fd(self):
        h = 1e-5
        model = ModelSpec.vol_iso(catalog()[4], MU, NU)
        F0 = random_F()
        Fdot = 0.5 * rng.standard_normal((3, 3))
        state, rate = rate_from_motion(F0, Fdot)
        tau_dot = (
            cauchy_stress(model, F0 + h * Fdot).kirchhoff
            - cauchy_stress(model, F0 - h * Fdot).kirchhoff
        ) / (2.0 * h)
        tau = cauchy_stress(model, F0).kirchhoff
        fd = tau_dot - rate.l @ tau - tau @ rate.l.T
        np.testing.assert_allclose(
            oldroyd_rate(model, state, rate), fd, rtol=0, atol=1e-6 * np.abs(fd).max()
        )

    def test_bh_rate_vs_fd(self):
        h = 1e-5
        model = ModelSpec.mixed(catalog()[8], MU, NU)
        F0 = random_F()
        Fdot = 0.4 * rng.standard_normal((3, 3))
        state, rate = rate_from_motion(F0, Fdot)
        sig_dot = (
            cauchy_stress(model, F0 + h * Fdot).cauchy
            - cauchy_stress(model, F0 - h * Fdot).cauchy
        ) / (2.0 * h)
        sigma = cauchy_stress(model, F0).cauchy
        # corotational part of sigma-dot plus the volume-rate term
        fd = sig_dot - rate.w @ sigma + sigma @ rate.w + np.trace(rate.d) * sigma
        np.testing.assert_allclose(
            bh_rate(model, state, rate), fd, rtol=0, atol=1e-6 * np.abs(fd).max()
        )

    def test_zj_tau_equals_J_times_bh(self):
        model = ModelSpec.vol_iso(catalog()[2], MU, NU)
        F = random_F()
        state, rate = random_rate(F)
        np.testing.assert_allclose(
            zj_rate(model, state, rate),
            state.J * bh_rate(model, state, rate),
            rtol=1e-14,
        )


class TestHill:
    def test_zero_rate(self):
        model = ModelSpec.mixed(catalog()[1], MU, NU)
        state, rate = make_rate(random_F(), np.zeros((3, 3)))
        rep = hill_contraction(model, state, rate)
        assert rep.value == pytest.approx(0.0, abs=1e-14)
        assert rep.verdict == "zero"

    def test_positive_for_chi_positive_random(self):
        for vid in (1, 3, 6, 8):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, NU))
                for _ in range(5):
                    state, rate = random_rate(random_F())
                    rep = hill_contraction(model, state, rate)
                    assert rep.value > 0.0
                    assert rep.verdict == "positive"

    def test_recomposition_invariant(self):
        for vid in (2, 5, 7):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, NU))
                for _ in range(10):
                    state, rate = random_rate(random_F())
                    rep = hill_contraction(model, state, rate)
                    scale = max(abs(rep.value), abs(rep.recomposed), 1e-12)
                    assert abs(rep.value - rep.recomposed) <= 1e-10 * scale
                    assert_glossary_identities(rep)

    def test_voliso_spherical_keeps_only_volumetric_term(self):
        k, alpha = 1.4, 0.6
        model = ModelSpec.vol_iso(catalog()[5], MU, NU)
        state, rate = make_rate(k * I3, alpha * I3)
        rep = hill_contraction(model, state, rate)
        J = k**3
        expect = model.params.K * evaluate(model.volfun, J).chi * J * (3.0 * alpha) ** 2
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert abs(rep.breakdown["E"]) <= 1e-12 * rep.value
        assert rep.breakdown["R"] == 0.0

    def test_incompressible_path(self):
        model = ModelSpec.incompressible(MU)
        F = random_F()
        state, rate = random_rate(F)
        rep = hill_contraction(model, state, rate)
        dt = rate.d - (np.trace(rate.d) / 3.0) * I3
        expect = 2.0 * MU * float(np.tensordot(F.T @ dt, F.T @ dt, axes=2))
        assert rep.value == pytest.approx(expect, rel=1e-11)
        assert rep.value > 0.0

    def test_model7_spherical_compressed_state_violates(self):
        # J = 0.216 < 1/2 makes chi = 2J - 1 negative; with nu = 0.45 the
        # volumetric term dominates the always-positive mu A part
        model = ModelSpec.mixed(catalog()[7], 1.0, 0.45)
        state, rate = make_rate(0.6 * I3, 0.5 * I3)
        rep = hill_contraction(model, state, rate)
        assert rep.value < 0.0
        assert rep.verdict == "negative"


class TestCSP:
    def test_spherical_witness_negative(self):
        # triple stretch 2 > sqrt(3), nu = 0 kills the volumetric term and
        # the isochoric form G = 3 alpha^2 (3 - k^2) < 0 for k = 2
        model = ModelSpec.mixed(catalog()[1], 1.0, 0.0)
        state, rate = make_rate(2.0 * I3, 1.0 * I3)
        rep = csp_contraction(model, state, rate)
        assert rep.value == pytest.approx(-0.375, rel=1e-12)
        assert rep.verdict == "negative"

    def test_spherical_below_sqrt3_positive(self):
        model = ModelSpec.mixed(catalog()[1], 1.0, 0.0)
        state, rate = make_rate(1.5 * I3, 1.0 * I3)
        rep = csp_contraction(model, state, rate)
        k = 1.5
        expect = (1.0 / k**3) * 3.0 * k**2 * (3.0 / k**2 - 1.0)  # (mu/J) G, lamdot = k
        assert rep.value == pytest.approx(expect, rel=1e-12)
        assert rep.value > 0.0

    def test_recomposition_invariant(self):
        for vid in (1, 4, 7):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, NU))
                for _ in range(10):
                    state, rate = random_rate(random_F())
                    rep = csp_contraction(model, state, rate)
                    scale = max(abs(rep.value), abs(rep.recomposed), 1e-12)
                    assert abs(rep.value - rep.recomposed) <= 1e-10 * scale
                    assert_glossary_identities(rep)

    def test_voliso_family_negative(self):
        # stretched plane states lose corotational positivity even at nu = 0
        model = ModelSpec.vol_iso(catalog()[3], 1.0, 0.0)
        state, rate = make_rate(np.diag([2.0, 2.0, 0.25]), np.diag([1.0, 1.0, 0.0]))
        rep = csp_contraction(model, state, rate)
        assert rep.value < 0.0

    def test_incompressible_rejected(self):
        model = ModelSpec.incompressible(MU)
        state, rate = make_rate(I3, np.diag([1.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            csp_contraction(model, state, rate)


@pytest.mark.parametrize("kind", ("mixed", "voliso"))
@pytest.mark.parametrize("contraction", (hill_contraction, csp_contraction))
def test_a_non_finite_contraction_raises_without_a_warning(kind, contraction):
    # J^q overflows at q = 1e6, J = 2 and meets tr d = 1.5: the value is
    # inf or NaN, which has no verdict, and the report leaks no RuntimeWarning
    model = ModelSpec(kind, VolFun.power_pair(1e6), params_from_mu_nu(1.0, 0.3))
    state, rate = make_rate(np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 0.5, 0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="no sign verdict"):
            contraction(model, state, rate)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_finite_value_at_an_infinite_scale_has_no_verdict():
    # mixed nu = 0.25, volfun 1, F = diag(1e-300, 1, 1): the CSP value is
    # finite (1.56e303) but its recomposition, and so its scale, is inf, and
    # a tolerance of 1e-12 * inf would call every finite value "zero"
    model = ModelSpec("mixed", catalog()[1], params_from_mu_nu(1.0, 0.25))
    state, rate = make_rate(np.diag([1e-300, 1.0, 1.0]), np.diag([1.0, 0.5, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"value 1\.55.*e\+303 at scale inf has no sign"):
            csp_contraction(model, state, rate)


@pytest.mark.parametrize("kind", ("mixed", "voliso"))
@pytest.mark.parametrize("contraction", (hill_contraction, csp_contraction))
def test_an_isochoric_rate_drops_an_overflowing_volumetric_term(kind, contraction):
    # J^q overflows at q = 1e6, J = 2, but meets tr d = 0: the volumetric
    # terms of the rate, the stress power and the recomposition are 0, so the
    # report is the quadratic's, verdict and all
    state, rate = make_rate(np.diag([2.0, 1.0, 1.0]), np.diag([1.0, -1.0, 0.0]))
    got, want = (
        contraction(ModelSpec(kind, vf, params_from_mu_nu(1.0, 0.3)), state, rate)
        for vf in (VolFun.power_pair(1e6), catalog()[7])
    )
    assert got == want and got.verdict == "positive"


@pytest.mark.parametrize("kind", ("mixed", "voliso"))
def test_a_shear_rate_at_a_vanishing_stretch_drops_every_volumetric_term(kind):
    # F = diag(1e-200, 1, 1) and d = e1 e2 + e2 e1: chi J, sigma and the
    # volumetric coefficient may be inf or NaN, but each meets tr d = 0, so
    # every catalog member gives one report; only the vol-iso CSP value,
    # (1/J) ZJ[tau] : d, overflows to +inf and has no verdict
    F = np.diag([1e-200, 1.0, 1.0])
    shear = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    state, rate = rate_from_motion(F, shear @ F)
    for contraction in (hill_contraction, csp_contraction):
        reports = []
        for vid, vf in sorted(catalog().items()):
            model = ModelSpec(kind, vf, params_from_mu_nu(1.0, 0.3))
            if kind == "voliso" and contraction is csp_contraction:
                with pytest.raises(ValueError, match="value inf at scale inf has no sign"):
                    contraction(model, state, rate)
            else:
                reports.append(contraction(model, state, rate))
        assert all(r == reports[0] and r.verdict == "positive" for r in reports)


@pytest.mark.parametrize("kind", ("mixed", "voliso"))
@pytest.mark.parametrize("vid", sorted(catalog()))
def test_contractions_at_a_vanishing_stretch_reach_a_verdict_or_no_verdict(kind, vid):
    # F = diag(1e-200, 1, 1): the shear factor or the volumetric term may be
    # infinite; each contraction returns a verdict or raises its documented
    # ValueError (a value that is NaN or infinite has no verdict)
    model = ModelSpec(kind, catalog()[vid], params_from_mu_nu(1.0, 0.3))
    F = np.diag([1e-200, 1.0, 1.0])
    shear = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for d in (np.diag([1.0, 0.5, 0.0]), I3, shear):
        state, rate = rate_from_motion(F, d @ F)
        for contraction in (hill_contraction, csp_contraction):
            try:
                verdict = contraction(model, state, rate).verdict
            except ValueError as err:
                assert "has no sign verdict" in str(err)
            else:
                assert verdict in ("positive", "zero", "negative")


class TestQuadFormE:
    def test_frozen_example(self):
        assert quad_form_E((1.0, 1.0, 1.0), (1.0, -1.0, 0.0)) == 18.0

    def test_zero_on_proportional_ray_exact(self):
        # power-of-two stretches make every division exact in binary
        assert quad_form_E((2.0, 1.0, 4.0), (1.0, 0.5, 2.0)) == 0.0

    def test_zero_on_proportional_ray_generic(self):
        lams = np.array([1.7, 0.9, 2.3])
        t = 0.37
        val = quad_form_E(lams, t * lams)
        assert abs(val) <= 1e-28 * float(np.sum(lams**2))

    def test_nonnegative_random(self):
        for _ in range(200):
            lams = np.exp(rng.uniform(-1, 1, 3))
            dots = rng.standard_normal(3)
            assert quad_form_E(lams, dots) >= 0.0

    def test_rejects_bad_stretch(self):
        with pytest.raises(ValueError):
            quad_form_E((1.0, -1.0, 1.0), (0.0, 0.0, 0.0))


class TestDetAIdentity:
    def test_examples(self):
        assert detA_identity(1.0, 1.0, 1.0) == (0.0, 0.0)
        det, sq = detA_identity(2.0, 6.0, 3.0)
        assert det == pytest.approx(0.0, abs=1e-12)
        assert sq == 0.0
        det, sq = detA_identity(1.0, 2.0, 1.0)
        assert det == pytest.approx(1.0, rel=1e-12)
        assert sq == 1.0

    def test_random_identity(self):
        for _ in range(200):
            a, b, c = np.exp(rng.uniform(-1, 1, 3))
            det, sq = detA_identity(a, b, c)
            assert det == pytest.approx(sq, rel=1e-12, abs=1e-12 * (a * c + b) ** 2)

    def test_stretch_ratios_always_singular(self):
        # ratios built from a common stretch triple force b = a c
        for _ in range(50):
            l1, l2, l3 = np.exp(rng.uniform(-1, 1, 3))
            det, sq = detA_identity(l1 / l2, l1 / l3, l2 / l3)
            assert abs(det) <= 1e-12 * (l1 / l3) ** 2 + 1e-12
            assert abs(sq) <= 1e-12 * (l1 / l3) ** 2 + 1e-12


class TestTangents:
    def test_identity_state_is_linear_elasticity(self):
        prm = params_from_mu_nu(MU, NU)
        expect = prm.lam * outer(I3, I3) + 2.0 * MU * sym_outer(I3, I3)
        state = kinematics_from_F(I3)
        for vid in (1, 4, 7, 8):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                pair = tangents(ModelSpec(kind, vf, prm), state)
                np.testing.assert_allclose(pair.c_tr, expect, rtol=0, atol=1e-13 * MU)

    def test_mixed_log_volfun_closed_form(self):
        # for the log-squared volumetric function chi(J) J = 1
        model = ModelSpec.mixed(catalog()[1], MU, NU)
        F = random_F()
        state = kinematics_from_F(F)
        J = state.J
        lam = model.params.lam
        expect = (1.0 / J) * (
            2.0 * (MU - lam * math.log(J)) * sym_outer(I3, I3) + lam * outer(I3, I3)
        )
        pair = tangents(model, state)
        np.testing.assert_allclose(pair.c_tr, expect, rtol=1e-12, atol=1e-14)

    def test_every_fourth_order_result_equals_its_transposes(self):
        results = []
        for vf in catalog().values():
            for kind in ("mixed", "voliso"):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, NU))
                for _ in range(3):
                    pair = tangents(model, kinematics_from_F(random_F()))
                    results += [pair.c_tr, pair.c_bh]
        for _ in range(10):
            A, B = rng.standard_normal((2, 3, 3))
            results += [sym_outer(A, B), outer(A, B)]
        assert all(symmetry_error(a) == 0 for a in results)

    def test_tr_contraction_equals_oldroyd(self):
        for vid in (2, 7):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, NU))
                state, rate = random_rate(random_F())
                lhs = apply4(tangents(model, state).c_tr, rate.d)
                rhs = oldroyd_rate(model, state, rate) / state.J
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11 * max(1.0, np.abs(rhs).max()))

    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    def test_bh_correction_machine_precision(self, kind):
        # c_bh : d = ZJ[tau]/J holds only with the Cauchy stress in c_bh's
        # stress terms (the Kirchhoff stress differs from it by the factor J)
        for vf in catalog().values():
            for nu in (0.0, 0.3, 0.4999):
                model = ModelSpec(kind, vf, params_from_mu_nu(MU, nu))
                state, rate = random_rate(random_F())
                lhs = apply4(tangents(model, state).c_bh, rate.d)
                rhs = zj_rate(model, state, rate) / state.J
                atol = 1e-13 * max(1.0, np.abs(rhs).max())
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=atol, err_msg=vf.label)

    def test_fd_error_reads_no_c_bh(self, monkeypatch):
        models = [
            ModelSpec(kind, catalog()[vid], params_from_mu_nu(MU, NU))
            for kind in ("mixed", "voliso")
            for vid in (2, 7)
        ]
        want = [tangent_fd_error(model, n_motions=3) for model in models]

        def no_stress_terms(*args):
            raise AssertionError("c_bh is built")

        monkeypatch.setattr(stability, "sym_outer", no_stress_terms)
        assert [tangent_fd_error(model, n_motions=3) for model in models] == want
        with pytest.raises(AssertionError, match="c_bh is built"):
            tangents(models[0], kinematics_from_F(I3))

    def test_fd_error_mixed_nu_zero_ignores_infinite_volumetric_terms(self):
        # lam = 0: the infinite chi and J h' of hn:1000 at small J must not give 0 * inf
        assert tangent_fd_error(ModelSpec.mixed(VolFun.power_pair(1000), 1.0, 0.0)) < 1e-6

    def test_fd_error_small(self):
        assert tangent_fd_error(ModelSpec.mixed(catalog()[3], MU, NU), n_motions=4) < 1e-6
        assert tangent_fd_error(ModelSpec.vol_iso(catalog()[8], MU, NU), n_motions=4) < 1e-6

    def test_fd_error_beyond_the_float_range_raises(self):
        # J^q of hn:1e5 overflows at the motions' J; a NaN error used to be
        # dropped by max(), so the check reported the other motions' error
        for model in (
            ModelSpec.mixed(VolFun.power_pair(1e5), MU, NU),
            ModelSpec.vol_iso(VolFun.log_augmented(-1e5), MU, NU),
        ):
            with pytest.raises(ValueError, match="beyond the float range at J = "):
                tangent_fd_error(model, n_motions=2)

    def test_incompressible_unsupported(self):
        with pytest.raises(ValueError):
            tangents(ModelSpec.incompressible(MU), kinematics_from_F(I3))

    @pytest.mark.parametrize("e", (-996, -1, 1, 996))
    def test_fd_error_is_the_same_at_every_power_of_two_modulus(self, e):
        # the error is a ratio of two stresses, so m 2^e must give m's bits
        for kind, vid in (("mixed", 1), ("voliso", 3), ("voliso", 8)):
            base, scaled = (
                tangent_fd_error(
                    ModelSpec(kind, catalog()[vid], params_from_mu_nu(mu, 0.3)), n_motions=3
                )
                for mu in (0.75, math.ldexp(0.75, e))
            )
            assert np.float64(scaled).tobytes() == np.float64(base).tobytes(), (kind, vid)


def reference_tangents(model, state):
    """``tangents`` as it was before the stress could come from the caller."""
    if model.kind == "inc":
        raise ValueError("tangent tensors are unsupported for the incompressible kind")
    J = state.J
    mu = model.params.mu
    ev = evaluate(model.volfun, J)
    II, IsI = outer(I3, I3), sym_outer(I3, I3)
    with np.errstate(all="ignore"):
        if model.kind == "mixed":
            lam = model.params.lam
            vol_chi = lam * ev.chi if lam or math.isfinite(ev.chi) else 0.0
            vol_hp = lam * J * ev.hp if lam or math.isfinite(ev.hp) else 0.0
            c_tr = vol_chi * II + (2.0 / J) * (mu - vol_hp) * IsI
        else:
            K = model.params.K
            c = state.c
            trc = float(np.trace(c))
            w = mu * J ** (-5.0 / 3.0)
            c_tr = (
                K * ev.chi * II
                - 2.0 * K * ev.hp * IsI
                + (2.0 / 3.0) * w * trc * IsI
                - (2.0 / 9.0) * w * trc * II
                - (4.0 / 3.0) * w * outer(dev(c), I3)
            )
        sigma = cauchy_stress(model, state.F).cauchy
        c_bh = c_tr + sym_outer(I3, sigma) + sym_outer(sigma, I3)
    if not np.isfinite(c_bh).all():
        raise ValueError(
            f"the {model.kind} kind with volfun {model.volfun.label} has a stress or "
            f"tangent beyond the float range at J = {J:.6g}"
        )
    return c_tr


def drawn_motions(n_motions):
    """The (F0, Fdot) of the first ``n_motions`` motions, drawn from the
    seeded stream that ``_fd_motions.f64`` was made from."""
    gen = np.random.default_rng(913)
    for _ in range(n_motions):
        while True:
            F0 = I3 + 0.3 * gen.standard_normal((3, 3))
            if np.linalg.det(F0) > 0.4:
                break
        yield F0, 0.5 * gen.standard_normal((3, 3))


def reference_fd_error(model, n_motions):
    """``tangent_fd_error`` as it was before its motions were shared: every
    motion drawn and decomposed again on each call, the stress at F0
    evaluated twice, and the model taken as given."""
    h = 1e-5
    worst = 0.0
    for F0, Fdot in drawn_motions(n_motions):
        state, rate = rate_from_motion(F0, Fdot)
        with np.errstate(all="ignore"):
            tau_p = cauchy_stress(model, F0 + h * Fdot).kirchhoff
            tau_m = cauchy_stress(model, F0 - h * Fdot).kirchhoff
            tau_dot = (tau_p - tau_m) / (2.0 * h)
            tau = cauchy_stress(model, F0).kirchhoff
            old_fd = tau_dot - rate.l @ tau - tau @ rate.l.T
            pred = apply4(reference_tangents(model, state), rate.d) * state.J
            scale = max(float(np.abs(old_fd).max()), 1e-12)
            error = float(np.abs(pred - old_fd).max()) / scale
        if not math.isfinite(error):
            raise ValueError(
                f"the {model.kind} kind with volfun {model.volfun.label} has a stress or "
                f"tangent beyond the float range at J = {state.J:.6g}"
            )
        worst = max(worst, error)
    return worst


def outcome(fn, *args):
    """The bits of fn's float result, or the type and message of its error."""
    try:
        return np.float64(fn(*args)).tobytes()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)


class TestSharedMotions:
    @staticmethod
    def models():
        vfs = [*catalog().values(), VolFun.power_pair(1e-6), VolFun.power_pair(1e6)]
        vfs += [VolFun.log_augmented(1e6), VolFun.log_augmented(-1e6)]
        # where the stress or c_tr leaves the float range at the motions' J
        vfs += [VolFun.power_pair(1e4), VolFun.power_pair(1e5)]
        vfs += [VolFun.log_augmented(1e3), VolFun.log_augmented(-1e3)]
        for mu in (1.0, 3.1, 1e-300, 1e300):
            yield ModelSpec.incompressible(mu)
            for kind, nus in (("mixed", (0.0, 0.3, 0.4999)), ("voliso", (-0.5, 0.0, 0.3, 0.4999))):
                for vf in vfs:
                    for nu in nus:
                        yield ModelSpec(kind, vf, params_from_mu_nu(mu, nu))

    def test_matches_the_unshared_loop_bitwise(self):
        # the reference runs at the mantissa of mu, which a power-of-two
        # scale leaves with the same bits wherever the unscaled loop is in
        # range; errors must keep their type, message and order
        errors = set()
        for n_motions in (3, 2):
            stability._fd_motions.cache_clear()
            for model in self.models():
                scaled = ModelSpec(model.kind, model.volfun, mantissa_params(model.params)[0])
                want = outcome(reference_fd_error, scaled, n_motions)
                assert outcome(tangent_fd_error, model, n_motions) == want, model
                if isinstance(want, tuple):
                    errors.add(want[1].split(" with volfun ")[0])
        # the multiplier check and the float-range check of both kinds are reached
        assert errors == {
            "the incompressible kind requires the multiplier p",
            "the mixed kind",
            "the voliso kind",
        }

    def test_the_table_holds_the_seeded_draws_bitwise(self):
        drawn = np.array([np.stack(pair) for pair in drawn_motions(1000)])
        with open(stability._FD_TABLE, "rb") as f:
            assert f.read() == drawn.astype("<f8").tobytes()
        assert stability._FD_TABLE_MOTIONS == cli._MOTIONS_MAX == len(drawn)

    @pytest.mark.parametrize("n_motions", [0, 1001])
    def test_counts_beyond_the_table_raise(self, n_motions):
        model = ModelSpec("mixed", catalog()[1], params_from_mu_nu(1.0, 0.3))
        with pytest.raises(ValueError, match=rf"n_motions must be in 1\.\.1000, got {n_motions}"):
            tangent_fd_error(model, n_motions=n_motions)

    def test_every_cached_array_is_read_only(self):
        stability._fd_motions.cache_clear()
        motions = stability._fd_motions(3)
        assert stability._fd_motions(3) is motions and len(motions) == 3
        arrays = []
        for F0, F_p, F_m, state, rate in motions:
            arrays += [F0, F_p, F_m, state.F, state.c, *state.projections]
            arrays += [rate.l, rate.d, rate.w]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestGridSearch:
    def test_coaxial_matrix_matches_contractions(self):
        # the tests' own coaxial matrices, which the scan is pinned to bit for
        # bit (TestCoaxialScanBytes), against the pointwise contractions
        lams = np.array([[1.3, 0.8, 1.9], [0.5, 2.2, 1.1]])
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                prm = params_from_mu_nu(1.0, 0.3)
                model = ModelSpec(kind, catalog()[7], prm)
                S, c = reference_matrices(kind, catalog()[7], prm, lams, contraction)
                M = S + c[:, None, None]
                fn = hill_contraction if contraction == "hill" else csp_contraction
                for s in range(len(lams)):
                    F = np.diag(lams[s])
                    basis = [np.diag(e) for e in np.eye(3)]

                    def q(d):
                        state, rate = make_rate(F, d)
                        return fn(model, state, rate).value

                    for i in range(3):
                        assert q(basis[i]) == pytest.approx(M[s, i, i], rel=1e-10)
                        for j in range(i + 1, 3):
                            mij = 0.5 * (q(basis[i] + basis[j]) - q(basis[i]) - q(basis[j]))
                            assert mij == pytest.approx(M[s, i, j], rel=1e-9, abs=1e-12)

    def test_hill_positive_small_grid(self):
        grid = stretch_grid(8)
        for vid in (1, 2, 5, 8):
            vf = catalog()[vid]
            for kind in ("mixed", "voliso"):
                value, _, _ = min_coaxial_eig(kind, vf, params_from_mu_nu(1.0, 0.3), grid)
                assert value > 0.0

    def test_search_without_a_violation_returns_none(self):
        for kind in ("mixed", "voliso"):
            assert find_hill_violation(kind, catalog()[2], n=4) is None

    @pytest.mark.parametrize("contraction", ("hill", "csp"))
    def test_overflowing_volumetric_factor_at_nu_zero_drops_out(self, contraction):
        # chi and h'' of hn:400 are inf at the grid corners; at nu = 0 the
        # mixed form has no volumetric term, so every h gives the same scan
        grid, prm = stretch_grid(4), params_from_mu_nu(1.0, 0.0)
        got = min_coaxial_eig("mixed", VolFun.power_pair(400.0), prm, grid, contraction)
        want = min_coaxial_eig("mixed", catalog()[2], prm, grid, contraction)
        assert got[:2] == want[:2] and math.isfinite(got[0])
        prm = params_from_mu_nu(1.0, 0.3)
        value, _, _ = min_coaxial_eig("voliso", VolFun.power_pair(400.0), prm, grid, contraction)
        assert math.isfinite(value)

    @pytest.mark.parametrize("contraction", (hill_contraction, csp_contraction))
    def test_pointwise_forms_at_nu_zero_drop_the_volumetric_term(self, contraction):
        # J h' and chi of hn:400 are inf at J = 10; at nu = 0 the mixed model
        # has no volumetric term, so the report is that of any other h
        prm = params_from_mu_nu(1.0, 0.0)
        state, rate = make_rate(np.diag([10.0, 1.0, 1.0]), np.diag([1.0, 0.5, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = contraction(ModelSpec("mixed", VolFun.power_pair(400.0), prm), state, rate)
        want = contraction(ModelSpec("mixed", catalog()[2], prm), state, rate)
        assert math.isfinite(got.value) and got.verdict == "positive"
        assert (got.value, got.recomposed) == (want.value, want.recomposed)

    def test_csp_witness_at_nu_zero_is_reported(self):
        volfun, grid = VolFun.power_pair(400.0), np.array([[10.0, 1.0, 1.0]])
        value, i, direction = min_coaxial_eig(
            "mixed", volfun, params_from_mu_nu(1.0, 0.0), grid, "csp"
        )
        w = stability.Witness(
            contraction="csp",
            kind="mixed",
            volfun=volfun,
            nu=0.0,
            lams=tuple(float(x) for x in grid[i]),
            J=float(np.prod(grid[i])),
            direction=tuple(float(x) for x in direction),
            value=value,
        )
        rep = witness_report(w)
        assert value < 0.0
        assert rep.value == pytest.approx(value, rel=1e-9)
        assert rep.verdict == "negative"

    def test_hill_violation_found_for_7(self):
        for kind in ("mixed", "voliso"):
            w = find_hill_violation(kind, catalog()[7], n=12)
            assert w is not None
            assert w.value < 0.0
            assert w.J < 0.5
            rep = witness_report(w)
            assert rep.value == pytest.approx(w.value, rel=1e-9)
            assert rep.verdict == "negative"

    def test_csp_violation_found_everywhere(self):
        for vid, vf in catalog().items():
            for kind in ("mixed", "voliso"):
                w = find_csp_violation(kind, vf, n=12)
                assert w is not None, (kind, vid)
                assert w.value < 0.0
                rep = witness_report(w)
                assert rep.value == pytest.approx(w.value, rel=1e-9)

    @pytest.mark.parametrize(
        "find, volfun",
        (
            (find_hill_violation, catalog()[7]),
            (find_csp_violation, VolFun.power_pair(2.5)),
        ),
        ids=("hill-7", "csp-hn2.5"),
    )
    def test_witness_carries_its_volfun(self, find, volfun):
        # the witness states its own model, so the report needs nothing else
        for kind in ("mixed", "voliso"):
            w = find(kind, volfun, n=12)
            assert w is not None and w.volfun == volfun
            rep = witness_report(w)
            assert rep.value == pytest.approx(w.value, rel=1e-9)
            assert rep.verdict == "negative"


# --------------------------------------------------------------------------
# the grid scan against the full-eigh implementation it replaced


def log_grid(n, lo, hi):
    """The grid of ``stretch_grid(n)``, with each axis from 10^lo to 10^hi."""
    axis = np.logspace(lo, hi, n)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def classes_of(grid):
    """The stretch classes that a scan of ``grid`` sorts its states into."""
    with np.errstate(all="ignore"):  # J may overflow or underflow
        return stability._stretch_classes(np.asarray(grid, dtype=float))


def reference_matrices(kind, volfun, params, lams, contraction):
    """(S, c) of the coaxial forms M = S + c ones(3, 3) of a stretch grid,
    built from MP = diag(2 lam2) and MB_jk = (lam2_j + lam2_k) / 2."""
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[0]
    lam2 = lams**2
    J = np.prod(lams, axis=1)
    tab = evaluate_grid(volfun, J)
    hpp, chi = tab[:, 2], tab[:, 4]
    # the mixed kind at nu = 0 has no volumetric term, even where chi, h'' or J is inf
    coef = params.lam if kind == "mixed" else params.K
    if coef == 0.0:
        vol = np.zeros(n)
    else:
        vol = coef * chi * J if contraction == "hill" else coef * J * hpp
    mu = params.mu
    MP = np.zeros((n, 3, 3))
    idx = np.arange(3)
    MP[:, idx, idx] = 2.0 * lam2
    MB = 0.5 * (lam2[:, :, None] + lam2[:, None, :])
    trc = lam2.sum(axis=1)
    if contraction == "hill":
        if kind == "mixed":
            S = mu * MP
            c = vol
        else:
            w = mu * J ** (-2.0 / 3.0)
            S = w[:, None, None] * (MP - (4.0 / 3.0) * MB)
            c = vol + (2.0 / 9.0) * w * trc
    else:
        if kind == "mixed":
            w = mu / J
            S = w[:, None, None] * (MP - MB)
            c = vol + w
        else:
            w = mu * J ** (-5.0 / 3.0)
            S = w[:, None, None] * (MP - (7.0 / 3.0) * MB)
            c = vol + (5.0 / 9.0) * w * trc
    return S, c


def reference_min_coaxial_eig(kind, volfun, params, lams, contraction):
    """The scan with every piece built per call, and eigh run on every
    state, graded or not, whose form has finite entries (the value of any
    other is NaN).

    Returns (value, index, direction, branch, mins, graded): branch names
    the path that produced the minimum, mins holds every state's value and
    graded marks the states the analytic deflation covers.
    """
    S, c = reference_matrices(kind, volfun, params, lams, contraction)
    Q = stability._TRACE_ROT
    qu = Q.T @ np.ones(3)
    Sp = np.einsum("ji,njk,kl->nil", Q, S, Q)
    alpha = Sp[:, 0, 0] + c * qu[0] * qu[0]
    b1, b2 = Sp[:, 1, 0], Sp[:, 2, 0]
    p, r, q = Sp[:, 1, 1], Sp[:, 2, 1], Sp[:, 2, 2]
    s_scale = np.max(np.abs(np.stack([Sp[:, 0, 0], b1, b2, p, r, q], axis=-1)), axis=-1)
    graded = np.abs(alpha) > 1e3 * (s_scale + 1e-300)
    eig2 = stability._eig2_min
    with np.errstate(divide="ignore", invalid="ignore"):
        den = np.where(alpha == 0.0, 1.0, alpha)
        x = eig2(p - b1 * b1 / den, r - b1 * b2 / den, q - b2 * b2 / den)
        for _ in range(2):
            den = np.where(alpha == x, 1.0, alpha - x)
            x = eig2(p - b1 * b1 / den, r - b1 * b2 / den, q - b2 * b2 / den)
        big = alpha + (b1 * b1 + b2 * b2) / np.where(alpha == x, 1.0, alpha - x)
        deflated = np.minimum(x, big)

    Mp = Sp.copy()
    Mp[:, 0, 0] = alpha
    # eigh reads the lower triangle; LAPACK may fail on a non-finite one
    finite = np.isfinite(np.tril(Mp)).all(axis=(1, 2))
    vals, vecs = np.full((len(Mp), 3), np.nan), np.full(Mp.shape, np.nan)
    vals[finite], vecs[finite] = np.linalg.eigh(Mp[finite])
    mins = np.where(graded, deflated, vals[:, 0])

    i = int(np.argmin(mins))
    value = float(mins[i])
    if graded[i] and value == x[i]:
        d = value - alpha[i]
        pp = p[i] - b1[i] * b1[i] / -d
        qq = q[i] - b2[i] * b2[i] / -d
        rr = r[i] - b1[i] * b2[i] / -d
        cand1 = np.array([rr, value - pp])
        cand2 = np.array([value - qq, rr])
        v2 = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        if np.linalg.norm(v2) == 0.0:
            v2 = np.array([1.0, 0.0])
        v1 = (b1[i] * v2[0] + b2[i] * v2[1]) / d
        vp = np.array([v1, v2[0], v2[1]])
        branch = "deflated"
    elif graded[i]:
        vp = np.array([1.0, 0.0, 0.0])
        branch = "spherical"
    else:
        vp = vecs[i, :, 0]
        branch = "eigh"
    direction = Q @ vp
    return value, i, direction / np.linalg.norm(direction), branch, mins, graded


def bits(result):
    """(value, index, direction) as exactly comparable bytes."""
    value, i, direction = result[:3]
    return np.float64(value).tobytes(), i, np.asarray(direction, dtype=float).tobytes()


def volfuns():
    """Catalog members and both parametric families over their useful range."""
    cat = catalog()
    return hst.one_of(
        hst.sampled_from(sorted(cat)).map(cat.__getitem__),
        hst.floats(0.0, 6.0).map(VolFun.power_pair),
        hst.tuples(hst.floats(0.1, 4.0), hst.sampled_from((-1.0, 1.0))).map(
            lambda t: VolFun.log_augmented(t[0] * t[1])
        ),
    )


class TestCoaxialScanBytes:
    def test_matches_the_full_eigh_reference_bitwise(self):
        branches = set()
        # stretch_grid(16) is the size the stability command scans
        for grid, mu in ((stretch_grid(8), 1.0), (stretch_grid(16), 2.2)):
            for kind in ("mixed", "voliso"):
                for contraction in ("hill", "csp"):
                    for vid, vf in catalog().items():
                        for nu in PAPER_NUS:
                            params = params_from_mu_nu(mu, nu)
                            want = reference_min_coaxial_eig(kind, vf, params, grid, contraction)
                            got = min_coaxial_eig(kind, vf, params, grid, contraction)
                            assert bits(got) == bits(want), (len(grid), kind, contraction, vid, nu)
                            branches.add(want[3])
        # the argmin comes from both eigh and the analytic deflation
        assert {"eigh", "deflated"} <= branches

    @given(
        kind=hst.sampled_from(("mixed", "voliso")),
        contraction=hst.sampled_from(("hill", "csp")),
        volfun=volfuns(),
        nu=hst.one_of(
            hst.sampled_from(PAPER_NUS), hst.floats(-0.99, 0.4999, allow_subnormal=False)
        ),
        mu=hst.floats(0.1, 10.0),
        n=hst.integers(2, 12),
        lo=hst.floats(-1.0, 1.0),
        hi=hst.floats(-1.0, 1.0),
    )
    def test_pruned_scan_matches_the_reference(self, kind, contraction, volfun, nu, mu, n, lo, hi):
        assume(kind == "voliso" or nu >= 0.0)
        params = params_from_mu_nu(mu, nu)
        grid = log_grid(n, lo, hi)
        want = reference_min_coaxial_eig(kind, volfun, params, grid, contraction)
        assert bits(min_coaxial_eig(kind, volfun, params, grid, contraction)) == bits(want)

    @staticmethod
    def record_routes(monkeypatch):
        """Lists that fill, while the scan runs, with the number of states of
        each ``_eig2_min`` pass and the batch of each ``eigh`` call."""
        passes, batches = [], []
        eig2, eigh = stability._eig2_min, np.linalg.eigh

        def counting_eig2(p, r, q):
            passes.append(len(p))
            return eig2(p, r, q)

        def recording_eigh(a):
            batches.append(a.copy())
            return eigh(a)

        monkeypatch.setattr(stability, "_eig2_min", counting_eig2)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        return passes, batches

    @staticmethod
    def record_open_members(monkeypatch):
        """A list that fills, while the scan runs, with the grid rows of each
        chunk of open-class members that the scan takes its routes on."""
        opened = []
        open_members = stability._open_members

        def recording(*args):
            for cells, rows in open_members(*args):
                opened.append(rows.copy())
                yield cells, rows

        monkeypatch.setattr(stability, "_open_members", recording)
        return opened

    @staticmethod
    def assert_deflation_passes(passes, graded, reps, opened):
        """Check the ``_eig2_min`` pass sizes of one scan: the deflation runs
        on graded states alone, three equal passes at a time, first on
        graded representatives, then on exactly the graded members of each
        chunk of open members (``opened``) in turn. The representatives' passes
        cover every graded representative of an open class and at most all
        graded representatives: a graded representative whose bound clears
        U (``_graded_clears``) settles its class undeflated, so a
        representative of an open class never skips the deflation."""
        sizes = passes[::3]
        assert passes == [k for k in sizes for _ in range(3)] and 0 not in sizes
        members = [k for k in (np.count_nonzero(graded[rows]) for rows in opened) if k]
        head = sizes[: len(sizes) - len(members)]
        assert sizes[len(head) :] == members
        open_reps = np.intersect1d(reps, np.concatenate([[], *opened]).astype(int))
        assert np.count_nonzero(graded[open_reps]) <= sum(head) <= np.count_nonzero(graded[reps])
        return sum(head)

    @pytest.mark.parametrize(
        "kind, contraction, vid, nu, grid, case",
        (
            ("mixed", "hill", 2, 0.4999, log_grid(3, -0.01, 0.01), "all graded"),
            ("voliso", "csp", 2, 0.4999, log_grid(3, -0.01, 0.01), "all graded"),
            ("mixed", "hill", 7, 0.4999, stretch_grid(8), "graded minimum"),
            ("mixed", "csp", 5, 0.45, stretch_grid(8), "graded minimum"),
            # stretch_grid holds every permutation of each triple, and the
            # repeated rows make the minimum a tie, bit for bit
            ("voliso", "hill", 3, 0.45, np.tile(stretch_grid(5), (2, 1)), "tie"),
            ("mixed", "csp", 1, 0.0, np.tile(log_grid(4, -0.3, 0.6), (3, 1)), "tie"),
            ("mixed", "hill", 1, 0.25, stretch_grid(8), "no graded"),
            ("mixed", "csp", 1, 0.4, stretch_grid(8), "one graded"),
            ("mixed", "csp", 1, 0.499, stretch_grid(8), "same candidates"),
        ),
    )
    def test_edge_cases_match_the_reference(
        self, kind, contraction, vid, nu, grid, case, monkeypatch
    ):
        params = params_from_mu_nu(1.0, nu)
        vf = catalog()[vid]
        want = reference_min_coaxial_eig(kind, vf, params, grid, contraction)
        value, _, _, branch, mins, graded = want
        passes, batches = self.record_routes(monkeypatch)
        opened = self.record_open_members(monkeypatch)
        got = min_coaxial_eig(kind, vf, params, grid, contraction)
        if case == "all graded":
            assert graded.all()
        elif case == "graded minimum":
            assert branch != "eigh" and not graded.all()
        elif case == "tie":
            assert branch == "eigh" and np.count_nonzero(mins == value) >= 2
        elif case == "no graded":
            assert not graded.any()
        elif case == "one graded":
            assert np.count_nonzero(graded) == 1
        else:  # the smallest upper and the smallest lower bound share a state
            assert len(batches[0]) == 2 and batches[0][0].tobytes() == batches[0][1].tobytes()
        # the deflation runs on graded states alone, three passes each: the
        # graded representatives, then the graded members of open classes
        reps = classes_of(grid).reps
        assert len(opened) <= 1
        self.assert_deflation_passes(passes, graded, reps, opened)
        assert bits(got) == bits(want)

    @given(
        kind=hst.sampled_from(("mixed", "voliso")),
        contraction=hst.sampled_from(("hill", "csp")),
        volfun=volfuns(),
        nu=hst.one_of(
            hst.sampled_from(PAPER_NUS), hst.floats(-0.99, 0.4999, allow_subnormal=False)
        ),
        mu=hst.floats(0.5, 4.0),
        k=hst.integers(-1000, 1000),
        n=hst.integers(2, 6),
    )
    def test_power_of_two_modulus_scales_the_minimum_exactly(
        self, kind, contraction, volfun, nu, mu, k, n
    ):
        # the form is linear in (mu, lam, K): mu 2^k gives the minimum at mu
        # times 2^k, bit for bit, with the same argmin and direction, even
        # where the unscaled form would overflow or underflow
        assume(kind == "voliso" or nu >= 0.0)
        grid = stretch_grid(n)
        base = min_coaxial_eig(kind, volfun, params_from_mu_nu(mu, nu), grid, contraction)
        scaled = params_from_mu_nu(math.ldexp(mu, k), nu)
        value, i, direction = min_coaxial_eig(kind, volfun, scaled, grid, contraction)
        assert bits((value, i, direction)) == bits((math.ldexp(base[0], k), *base[1:]))

    @pytest.mark.parametrize(
        "mus, kind, contraction",
        (
            ((), "voliso", "csp"),
            ((1.0, 2.0), "voliso", "csp"),
            ((1.0, 1.0), ["voliso"], "csp"),
            ((1.0, 1.0), "voliso", ["csp", "hill", "csp"]),
        ),
    )
    def test_a_batch_takes_one_or_more_cells_that_share_mu(self, mus, kind, contraction):
        cells = [params_from_mu_nu(mu, 0.3) for mu in mus]
        with pytest.raises(ValueError, match="one or more cells that share mu"):
            min_coaxial_eig(kind, catalog()[1], cells, stretch_grid(3), contraction)

    def test_minimum_beyond_the_float_range_raises(self):
        params = params_from_mu_nu(1e307, 0.3)
        with pytest.raises(ValueError, match="overflows at modulus mu = 1e"):
            min_coaxial_eig("voliso", catalog()[1], params, stretch_grid(5), "csp")

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_classify_value_rejects_a_non_finite_value(self, value):
        with pytest.raises(ValueError, match="no sign verdict"):
            stability.classify_value(value, 1.0)

    @pytest.mark.parametrize("scale", (math.nan, math.inf))
    def test_classify_value_rejects_a_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="no sign verdict"):
            stability.classify_value(1.0, scale)

    def test_a_nan_form_raises_naming_the_contraction(self):
        # the vol-iso CSP form of volfun 2 at nu = -0.9 is NaN at the first of
        # these stretches, where np.argmin lands
        grid = [[1e-150, 1.0, 1.0], [1e150, 1.0, 1.0], [1.0, 1.0, 1.0]]
        params = params_from_mu_nu(1.0, -0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the csp stability form is NaN at grid state 0"):
                min_coaxial_eig("voliso", catalog()[2], params, grid, "csp")

    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    @pytest.mark.parametrize("contraction", ("hill", "csp"))
    def test_a_non_finite_form_never_reaches_eigh(self, kind, contraction, monkeypatch):
        # every rotated entry of state 27's form is inf or NaN; LAPACK
        # fails on such a matrix, and eigh then raises its bare LinAlgError
        # for the whole call
        grid = np.concatenate([stretch_grid(3), [[1e154, 1.0, 1.0]]])
        args = (kind, catalog()[2], params_from_mu_nu(1.0, 0.3), grid, contraction)
        message = f"the {contraction} stability form is NaN at grid state 27"
        assert reference_or_error(*args) == message
        _, batches = self.record_routes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                min_coaxial_eig(*args)
        assert batches and all(np.isfinite(b).all() for b in batches)

    def test_a_lapack_failure_scans_the_cells_of_its_pass_alone(self, monkeypatch):
        # LAPACK fails on some finite matrices too, and eigh then raises for
        # its whole call. Here eigh fails on every call that holds the forms
        # of one state for two cells, which only a pass over several cells
        # makes, so each such pass scans its cells alone
        eigh, failed = np.linalg.eigh, []

        def failing(a):
            rest = a.reshape(len(a), 9)[:, 1:]  # all but alpha, the one entry c moves
            if len(np.unique(rest, axis=0)) < len(rest):
                failed.append(len(a))
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        grid, c2, c7 = stretch_grid(5), catalog()[2], catalog()[7]
        vfs = [c2, c2, c7, c7]
        cells = [params_from_mu_nu(1.0, nu) for nu in (0.25, 0.45, 0.25, 0.45)]
        want = [scan_outcome("voliso", vf, p, grid, "csp") for vf, p in zip(vfs, cells)]
        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert batch_outcome("voliso", vfs, cells, grid, "csp") == want
        assert len(failed) == 2

    def test_eigh_of_a_subset_equals_the_same_rows_of_the_batch(self):
        # the scan runs eigh on a subset of states and relies on batched
        # eigh treating every matrix on its own
        grid = stretch_grid(10)
        block = stability._build_shear_block("voliso", "hill", 1.0, grid, classes_of(grid))
        scan = stability._lower_matrices(block.lower)
        sym = rng.standard_normal((500, 3, 3))
        for batch in (scan, sym + sym.transpose(0, 2, 1)):
            vals, vecs = np.linalg.eigh(batch)
            for keep in (rng.random(len(batch)) < 0.1, np.arange(len(batch)) == 7):
                if batch is scan:
                    sub = stability._lower_matrices([v[keep] for v in block.lower])
                    assert sub.tobytes() == batch[keep].tobytes()
                sub_vals, sub_vecs = np.linalg.eigh(batch[keep])
                assert sub_vals.tobytes() == vals[keep].tobytes()
                assert sub_vecs.tobytes() == vecs[keep].tobytes()

    @pytest.mark.parametrize(
        "kind, contraction, vid, nu",
        (("voliso", "csp", 7, 0.25), ("mixed", "hill", 1, 0.25)),  # 96 and no graded states
    )
    def test_the_deflation_sees_only_the_graded_states(
        self, kind, contraction, vid, nu, monkeypatch
    ):
        args = (kind, catalog()[vid], params_from_mu_nu(1.0, nu), stretch_grid(16), contraction)
        graded = reference_min_coaxial_eig(*args)[5]
        passes, _ = self.record_routes(monkeypatch)
        opened = self.record_open_members(monkeypatch)
        min_coaxial_eig(*args)
        reps = classes_of(args[3]).reps
        assert len(opened) == 1
        deflated = self.assert_deflation_passes(passes, graded, reps, opened)
        # the bound settles most graded representatives undeflated
        assert deflated <= np.count_nonzero(graded[reps]) / 4

    def test_eigh_budget_of_one_cell(self, monkeypatch):
        # 4000 ungraded states in 1179 classes; eigh sees the two candidates
        # of the upper bound, the representatives near it, which the
        # certificate cannot settle, then the members of the minimizing
        # stretch triple's class, whose values agree to rounding: the
        # budget of scanning every state, the two candidates and the six
        # permutations of that triple
        args = ("voliso", catalog()[7], params_from_mu_nu(1.0, 0.25), stretch_grid(16), "csp")
        _, batches = self.record_routes(monkeypatch)
        min_coaxial_eig(*args)
        assert len(batches) == 3 and len(batches[0]) == 2 and sum(map(len, batches)) <= 2 + 6

    def test_most_ungraded_states_skip_eigh(self, monkeypatch):
        grid = stretch_grid(16)
        params = params_from_mu_nu(1.0, 0.25)
        cells = [("voliso", vf, params, grid, "csp") for vf in catalog().values()]
        ungraded = sum(np.count_nonzero(~reference_min_coaxial_eig(*args)[5]) for args in cells)
        _, batches = self.record_routes(monkeypatch)
        for args in cells:
            min_coaxial_eig(*args)
        assert 0 < sum(map(len, batches)) < ungraded / 25

    def test_a_call_keeps_nothing_for_the_next(self):
        # calls on alternating grids, mu, kinds and contractions, and on a
        # grid changed in place, give the same bits again in reverse order
        grids = [stretch_grid(5), log_grid(6, -0.5, 0.9)]
        mutated = stretch_grid(5).copy()  # a writeable grid
        calls = []
        for mu in (1.0, 2.7):
            for g in grids:
                for kind in ("mixed", "voliso"):
                    for contraction in ("hill", "csp", "hill"):
                        for vid in (2, 7, 8):
                            calls.append((kind, vid, mu, 0.45, g, contraction))
        # alternate grids and mu between neighbouring calls too
        calls += [
            ("voliso", 3, 1.0, 0.25, grids[0], "csp"),
            ("voliso", 3, 1.0, 0.25, grids[1], "csp"),
            ("voliso", 3, 2.7, 0.25, grids[1], "csp"),
            ("voliso", 3, 1.0, 0.25, grids[0], "csp"),
            ("mixed", 5, 1.0, 0.4999, mutated, "hill"),
        ]
        seen = []
        for kind, vid, mu, nu, g, contraction in calls:
            args = (kind, catalog()[vid], params_from_mu_nu(mu, nu), g, contraction)
            seen.append((args[:3] + (g.copy(), contraction), bits(min_coaxial_eig(*args))))
        # the same grid object, changed in place, gives the new grid's scan
        args = ("mixed", catalog()[5], params_from_mu_nu(1.0, 0.4999), mutated, "hill")
        before = bits(min_coaxial_eig(*args))
        mutated[:] = mutated[::-1] * 0.7
        after = bits(min_coaxial_eig(*args))
        assert after != before
        seen.append((args[:3] + (mutated.copy(), "hill"), after))

        for args, got in seen[::-1]:
            assert got == bits(min_coaxial_eig(*args)), (args[0], args[2].mu, args[4])

    def test_each_call_reads_one_column_per_volfun(self, monkeypatch):
        # a call reads the column of each of its volfuns, in the order they
        # first appear, on the J of its own grid's classes, once for all
        # the nu of that volfun, and keeps nothing of it for the next call;
        # the cells with no volumetric term (the mixed kind at nu = 0) scan
        # with the first volfun that has one
        grid, other = stretch_grid(6).copy(), log_grid(6, -0.5, 0.9)
        reads = []
        original = stability.evaluate_grid

        def counting(vf, Js):
            reads.append((vf.label, Js.tobytes()))
            return original(vf, Js)

        def class_J(g):
            return np.prod(g[classes_of(g).reps], axis=1).tobytes()

        monkeypatch.setattr(stability, "evaluate_grid", counting)
        c3, c7, hn = catalog()[3], catalog()[7], VolFun.power_pair(1.5)
        # (kind, (volfun, nu) of each cell, grid, contraction, the volfuns read)
        calls = [
            ("voliso", [(c3, 0.25)], grid, "csp", [c3]),
            ("voliso", [(c3, 0.25), (c3, 0.45), (c3, -0.5)], grid, "csp", [c3]),
            ("voliso", [(c3, 0.45)], grid, "csp", [c3]),  # read again
            ("voliso", [(c7, 0.25), (c3, 0.25), (c7, 0.4)], grid, "hill", [c7, c3]),
            ("mixed", [(c3, 0.0), (c3, 0.25)], grid, "csp", [c3]),
            ("mixed", [(c7, 0.4), (c3, 0.0), (c7, 0.0), (hn, 0.0)], other, "csp", [c7, c3]),
            ("mixed", [(hn, 0.4), (VolFun.power_pair(1.5), 0.0)], other, "csp", [hn]),  # equal
        ]
        for kind, pairs, g, contraction, read in calls:
            reads.clear()
            vfs, cells = [vf for vf, _ in pairs], [params_from_mu_nu(1.0, nu) for _, nu in pairs]
            got = batch_outcome(kind, vfs, cells, g, contraction)
            assert got == reference_batch(kind, vfs, cells, g, contraction), (kind, pairs)
            assert reads == [(vf.label, class_J(g)) for vf in read], (kind, pairs, contraction)
        # a call over several (kind, contraction) reads the columns of each
        # in turn, in the order the pairs first appear
        reads.clear()
        kinds, contractions = ["voliso", "mixed", "voliso"], ["csp", "hill", "csp"]
        cells = [params_from_mu_nu(1.0, nu) for nu in (0.25, 0.4, 0.45)]
        vfs = [c3, c3, c7]
        got = batch_outcome(kinds, vfs, cells, grid, contractions)
        cell_args = zip(kinds, vfs, cells, contractions)
        want = [reference_outcome(k, vf, p, grid, c) for k, vf, p, c in cell_args]
        assert got == want
        assert reads == [(vf.label, class_J(grid)) for vf in (c3, c7, c3)]
        # the same grid object, changed in place, gets fresh classes
        grid[:] = grid[::-1] * 0.7
        reads.clear()
        params = params_from_mu_nu(1.0, 0.4)
        got = min_coaxial_eig("mixed", hn, params, grid, "csp")
        assert reads == [(hn.label, class_J(grid))]
        assert bits(got) == bits(reference_min_coaxial_eig("mixed", hn, params, grid, "csp"))

    def test_block_and_column_are_contiguous_class_vectors(self):
        grid = stretch_grid(3)
        classes = classes_of(grid)
        block = stability._build_shear_block("voliso", "csp", 1.0, grid, classes)
        column = stability._volumetric_column("csp", catalog()[2], block.J)
        S = shear_matrices("voliso", "csp", 1.0, grid[classes.reps])
        assert len(block.lower) == 6 and block.J.shape == (10,)  # the 10 multisets
        for v in (*block.lower, column):
            assert v.shape == block.J.shape and v.flags.c_contiguous
        TestShearRotation.assert_matches_einsum(S, block.lower)

    @pytest.mark.parametrize("n", (1, 2, 5, 16))
    def test_stretch_grid_is_one_read_only_array_kept_by_reference(self, n, monkeypatch):
        grid = stretch_grid(n)
        assert np.array_equal(grid, log_grid(n, stability._GRID_LO, stability._GRID_HI))
        assert grid.shape == (n**3, 3) and grid.flags.c_contiguous and grid.flags.owndata
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        # a scan builds every shear block on the caller's grid itself,
        # read-only or writeable, with no copy
        build, seen = stability._build_shear_block, []

        def recorded(kind, contraction, mu, g, classes):
            seen.append(g)
            return build(kind, contraction, mu, g, classes)

        monkeypatch.setattr(stability, "_build_shear_block", recorded)
        cells = [params_from_mu_nu(1.0, 0.3)] * 2
        for g in (grid, grid.copy()):
            seen.clear()
            min_coaxial_eig(["mixed", "voliso"], catalog()[2], cells, g, "csp")
            assert len(seen) == 2 and all(s is g for s in seen)


def scan_outcome(kind, volfun, params, grid, contraction):
    """The bits of a scan's (value, index, direction), or its error message."""
    try:
        return bits(min_coaxial_eig(kind, volfun, params, grid, contraction))
    except ValueError as err:
        return str(err)


def reference_outcome(kind, volfun, params, grid, contraction):
    """:func:`scan_outcome` of the reference, run at the mantissa of mu and
    scaled back the way the scan is, with the scan's two error messages."""
    scaled, e = mantissa_params(params)
    value, i, direction = reference_min_coaxial_eig(kind, volfun, scaled, grid, contraction)[:3]
    if value != value:
        return f"the {contraction} stability form is NaN at grid state {i}"
    try:
        return bits((math.ldexp(value, e), i, direction))
    except OverflowError:
        return f"the minimum {contraction} stability value overflows at modulus mu = {params.mu}"


def batch_outcome(kind, volfun, cells, grid, contraction):
    """Each cell's bits of a batch scan's (value, index, direction), or the
    message of its error."""
    found = min_coaxial_eig(kind, volfun, cells, grid, contraction)
    return [str(r) if isinstance(r, ValueError) else bits(r) for r in found]


def reference_batch(kind, volfun, cells, grid, contraction, outcome=reference_outcome):
    """Each cell's ``outcome`` (:func:`reference_outcome` by default), for
    one volfun or a list of one per cell."""
    volfuns = volfun if isinstance(volfun, list) else [volfun] * len(cells)
    return [outcome(kind, vf, p, grid, contraction) for vf, p in zip(volfuns, cells)]


def reference_classes(grid):
    """(reps, of) of a stretch grid's classes, grouped by a dict keyed on
    each state's sorted stretches and the bits of its J, and numbered by
    their first state."""
    grid = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # J may overflow or underflow
        keys = zip(np.sort(grid, axis=1), np.prod(grid, axis=1))
    seen = {}
    of = np.array([seen.setdefault((row.tobytes(), J.tobytes()), len(seen)) for row, J in keys])
    reps = np.flatnonzero(np.diff(np.maximum.accumulate(of), prepend=-1))
    return reps, of


def shared_arrays(classes, block, column):
    """The arrays of a shear block, its column and its grid's classes,
    named."""
    names = [f"lower{i}{l}" for i, l in stability._LOWER]
    names += ["grading", "tail", "plane", "coupling", "J", "shift", "settles"]
    names += ["column", "reps", "of"]
    arrays = (*block.lower, block.grading, block.tail, block.plane, block.coupling)
    arrays += (block.J, block.shift, block.settles)
    return dict(zip(names, (*arrays, column, classes.reps, classes.of)))


def one_shot_shared(kind, contraction, mu, grid, volfun):
    """The named arrays of :func:`shared_arrays`, from
    :func:`reference_classes` and one pass over the whole grid: ``settles``
    marks a shear scale in the settle range and a finite shift at every
    member of the class. The scan reads the shear scale alone: a shift that
    is not finite at some member leaves the representative's scale outside
    the range (see ``min_coaxial_eig``), and the equality checks that."""
    reps, of = reference_classes(grid)
    entry, J, shift = stability._shear_form(kind, contraction, mu, grid[reps])
    lower = np.zeros((len(stability._LOWER), len(reps)))
    with np.errstate(all="ignore"):
        stability._rotate_lower(entry, lower)
        member_shift = np.broadcast_to(stability._shear_form(kind, contraction, mu, grid)[2], of.shape)
    tail = stability._max_abs(lower[1:])
    with np.errstate(all="ignore"):
        plane = stability._eig2_min(lower[3], lower[4], lower[5])
        coupling = np.hypot(lower[1], lower[2])
    s_scale = np.maximum(np.abs(lower[0]), tail)
    lo, hi = stability._SETTLE_SHEAR
    unsteady = np.bincount(of, weights=~np.isfinite(member_shift), minlength=len(reps))
    settles = (s_scale >= lo) & (s_scale <= hi) & (unsteady == 0)
    column = evaluate_grid(volfun, J)[:, stability._VOLUMETRIC_COLUMN[contraction]]
    names = [f"lower{i}{l}" for i, l in stability._LOWER]
    names += ["grading", "tail", "plane", "coupling", "J", "shift", "settles"]
    names += ["column", "reps", "of"]
    grading = 1e3 * (s_scale + 1e-300)
    shift = np.broadcast_to(shift, J.shape)
    arrays = (*lower, grading, tail, plane, coupling, J, shift, settles)
    return dict(zip(names, (*arrays, column, reps, of)))


# the scan's catalog plus a steep power pair, one whose table leaves the
# direct forms on the grid, and an Ogden member
_BLOCK_VOLFUNS = (
    *catalog().values(),
    VolFun.power_pair(5.0),
    VolFun.power_pair(400.0),
    VolFun.log_augmented(-2.0),
)


class TestScanBlocks:
    """The scan and the shared data, streamed over blocks of _SCAN_BLOCK
    states, against one pass over the whole grid."""

    # the small blocks run on the smaller grid only, since every block costs
    # the scan's fixed work: stretch_grid(9) is 729 blocks of 1 state and 105
    # of 7, against 12 of 64
    @pytest.mark.parametrize("block, n", ((1, 5), (7, 5), (64, 5), (64, 9)))
    def test_every_block_size_matches_the_reference_bitwise(self, block, n, monkeypatch):
        monkeypatch.setattr(stability, "_SCAN_BLOCK", block)
        grid = stretch_grid(n)
        assert len(stability._blocks(len(grid))) > 1
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                for mu in (1.0, 1e300):
                    for vf in _BLOCK_VOLFUNS:
                        for nu in PAPER_NUS:
                            args = (kind, vf, params_from_mu_nu(mu, nu), grid, contraction)
                            want = reference_outcome(*args)
                            assert scan_outcome(*args) == want, (kind, contraction, mu, vf, nu)

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_a_batch_matches_the_reference_at_every_block_size(self, block, monkeypatch):
        # six nu share each block of representatives, which holds a sixth
        # of _SCAN_BLOCK classes (at least one), and each chunk of open members
        monkeypatch.setattr(stability, "_SCAN_BLOCK", block)
        grid = stretch_grid(5)
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                for mu, vfs in ((1.0, _BLOCK_VOLFUNS), (1e300, _BLOCK_VOLFUNS[::3])):
                    cells = [params_from_mu_nu(mu, nu) for nu in PAPER_NUS]
                    for vf in vfs:
                        want = reference_batch(kind, vf, cells, grid, contraction)
                        got = batch_outcome(kind, vf, cells, grid, contraction)
                        assert got == want, (kind, contraction, mu, vf)

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_a_tie_keeps_its_first_block(self, block, monkeypatch):
        # both copies of the minimizing state tie bit for bit, and they lie
        # in different blocks
        args = ("voliso", catalog()[3], params_from_mu_nu(1.0, 0.45))
        grid = np.tile(stretch_grid(5), (2, 1))
        value, i, _, _, mins, _ = reference_min_coaxial_eig(*args, grid, "hill")
        ties = np.flatnonzero(mins == value)
        assert ties[0] == i and len({k // block for k in ties}) >= 2
        monkeypatch.setattr(stability, "_SCAN_BLOCK", block)
        assert scan_outcome(*args, grid, "hill") == reference_outcome(*args, grid, "hill")

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_a_nan_in_a_later_block_raises_after_a_finite_minimum(self, block, monkeypatch):
        # the vol-iso CSP form of volfun 2 at nu = -0.9 is NaN at a stretch
        # of 1e-150 and finite on stretch_grid(5), whose minimum lies in an
        # earlier block than the first NaN state, 125
        args = ("voliso", catalog()[2], params_from_mu_nu(1.0, -0.9))
        nan_state = [[1e-150, 1.0, 1.0]]
        grid = np.concatenate([stretch_grid(5), nan_state, stretch_grid(2), nan_state])
        monkeypatch.setattr(stability, "_SCAN_BLOCK", block)
        finite = reference_min_coaxial_eig(*args, grid[:125], "csp")[1]
        assert finite // block < 125 // block
        assert scan_outcome(*args, grid[:125], "csp") == reference_outcome(*args, grid[:125], "csp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the csp stability form is NaN at grid state 125$"):
                min_coaxial_eig(*args, grid, "csp")

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_an_all_graded_block_next_to_an_ungraded_one(self, block, monkeypatch):
        # blocks of graded, ungraded and graded states, in that order; the
        # deflation runs block by block, on graded states alone: the blocks
        # of representatives, then the open members of each grid block
        args = ("mixed", catalog()[2], params_from_mu_nu(1.0, 0.4999))
        states = stretch_grid(8)
        graded = reference_min_coaxial_eig(*args, states, "hill")[5]
        grid = np.concatenate(
            [states[graded][:block], states[~graded][:block], states[graded][block : 2 * block]]
        )
        mask = reference_min_coaxial_eig(*args, grid, "hill")[5]
        assert mask[:block].all() and not mask[block : 2 * block].any() and mask[2 * block :].all()
        want = reference_outcome(*args, grid, "hill")
        monkeypatch.setattr(stability, "_SCAN_BLOCK", block)
        passes, _ = TestCoaxialScanBytes.record_routes(monkeypatch)
        opened = TestCoaxialScanBytes.record_open_members(monkeypatch)
        assert scan_outcome(*args, grid, "hill") == want
        reps = reference_classes(grid)[0]
        TestCoaxialScanBytes.assert_deflation_passes(passes, mask, reps, opened)
        # a block deflates at most its own representatives
        assert max(passes, default=0) <= block

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_streamed_shared_data_equals_a_one_shot_build(self, block, monkeypatch):
        # the grid with each row also reversed: classes of one and of two
        grid = log_grid(5, -0.9, 0.8)
        grid = np.concatenate([grid, grid[::7, ::-1]])
        monkeypatch.setattr(stability, "_SCAN_BLOCK", block)
        classes = classes_of(grid)
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                for vf in (catalog()[2], catalog()[7], VolFun.power_pair(400.0)):
                    block = stability._build_shear_block(kind, contraction, 0.6, grid, classes)
                    column = stability._volumetric_column(contraction, vf, block.J)
                    got = shared_arrays(classes, block, column)
                    want = one_shot_shared(kind, contraction, 0.6, grid, vf)
                    assert list(got) == list(want)
                    for name, a in got.items():
                        assert a.tobytes() == want[name].tobytes(), (kind, contraction, vf, name)
                        assert a.shape == want[name].shape and a.flags.c_contiguous

    def test_each_block_and_column_is_freed_before_the_next(self, monkeypatch):
        # a call builds its classes once, with no block or column alive, and
        # each (kind, contraction) frees its block and columns before the
        # next builds its own; within a pair, a volfun's column is read
        # while at most the column of the volfun before it is alive, and a
        # call keeps nothing for the next
        classes = stability._stretch_classes
        build, read = stability._build_shear_block, stability._volumetric_column
        seen, blocks, columns = [], [], []

        def alive(refs):
            return sum(ref() is not None for ref in refs)

        def checked_classes(*args):
            seen.append(("classes", alive(blocks), alive(columns)))
            return classes(*args)

        def checked_build(*args):
            seen.append(("block", alive(blocks), alive(columns)))
            block = build(*args)
            blocks.append(weakref.ref(block.J))
            return block

        def checked_read(*args):
            seen.append(("column", alive(blocks), alive(columns)))
            column = read(*args)
            columns.append(weakref.ref(column))
            return column

        monkeypatch.setattr(stability, "_stretch_classes", checked_classes)
        monkeypatch.setattr(stability, "_build_shear_block", checked_build)
        monkeypatch.setattr(stability, "_volumetric_column", checked_read)
        params = params_from_mu_nu(1.0, 0.3)
        batch = [params, params_from_mu_nu(1.0, 0.45)]
        three = [params, *batch]
        for kind, vf, n, contraction, cells in (
            ("voliso", catalog()[2], 4, "csp", params),
            ("voliso", catalog()[7], 4, "csp", batch),
            ("voliso", [catalog()[2], catalog()[7]], 4, "hill", batch),
            ("voliso", catalog()[7], 5, "hill", batch),
            (["voliso", "mixed", "voliso"], catalog()[2], 4, ["csp", "hill", "hill"], three),
        ):
            min_coaxial_eig(kind, vf, cells, stretch_grid(n), contraction)
        pair = [("block", 0, 0), ("column", 1, 0)]
        call = [("classes", 0, 0)] + pair
        want = call + call + call + [("column", 1, 1)] + call + call + pair + pair
        assert seen == want
        assert alive(blocks) == alive(columns) == 0 and len(columns) == 8

    def test_a_scan_holds_a_few_blocks_of_temporaries(self):
        # numpy reports its buffers to tracemalloc. stretch_grid(32) is
        # eight blocks of states in 8805 classes; scanning it whole made
        # about 19 temporaries of the grid's size, 150 blocks. A batch of six
        # nu takes a sixth of a block of classes at a time
        grid = stretch_grid(32)
        args = ("voliso", catalog()[7], grid, "csp")
        batch = [params_from_mu_nu(1.0, nu) for nu in PAPER_NUS]
        limit = 32 * stability._SCAN_BLOCK * 8
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            peaks, kept = [], []
            for cells in (batch, batch[::-1]):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                min_coaxial_eig(args[0], args[1], cells, *args[2:])
                now, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - base)
                kept.append(now - base)
        finally:
            if started:
                tracemalloc.stop()
        # a call reads the caller's grid, sorts it into classes (four keys
        # and an order per state) and builds its shear block; it keeps
        # nothing of them once it returns
        classes = classes_of(grid)
        block = stability._build_shear_block("voliso", "csp", 0.5, grid, classes)
        arrays = (*block.lower, block.grading, block.tail, block.plane, block.coupling)
        held = sum(a.nbytes for a in (*arrays, block.J, block.shift, block.settles))
        resident = classes.reps.nbytes + classes.of.nbytes
        assert max(peaks) < resident + held + limit, (peaks, resident, held)
        assert max(kept) < classes.reps.nbytes, kept


def reference_or_error(kind, volfun, params, grid, contraction):
    """:func:`reference_outcome`, or the message of the ``ValueError`` it
    raises (a J of 0 has no volumetric column). The reference may overflow
    on the way, and it does not hold the scan's error state."""
    try:
        with np.errstate(all="ignore"):
            return reference_outcome(kind, volfun, params, grid, contraction)
    except ValueError as err:
        return str(err)


def stretch_rows(exponent):
    """Hypothesis strategy of a stretch triple, each stretch 10^x with
    |x| <= ``exponent``."""
    return hst.tuples(*[hst.floats(-exponent, exponent)] * 3).map(
        lambda t: [10.0**x for x in t]
    )


_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

_SCAN_CELL = {
    "kind": hst.sampled_from(("mixed", "voliso")),
    "contraction": hst.sampled_from(("hill", "csp")),
    "volfun": volfuns(),
    "nu": hst.one_of(hst.sampled_from(PAPER_NUS), hst.floats(-0.99, 0.4999, allow_subnormal=False)),
    "mu": hst.floats(0.1, 10.0),
}


# permutation-closed grids: log grids, and rows out to 1e+-150 with every
# permutation; then random rows out to 1e+-150
_SCAN_GRIDS = hst.one_of(
    hst.tuples(hst.integers(2, 6), hst.floats(-1.0, 1.0), hst.floats(-1.0, 1.0)).map(
        lambda t: log_grid(*t)
    ),
    hst.lists(stretch_rows(150.0), min_size=1, max_size=6).map(
        lambda rows: np.concatenate([np.array(rows)[:, p] for p in _PERMUTATIONS])
    ),
    hst.lists(stretch_rows(150.0), min_size=1, max_size=30).map(np.array),
)


class TestStretchClasses:
    """The scan on one representative per stretch-permutation class, against
    the reference that scans every state."""

    @pytest.mark.parametrize("n, classes", ((1, 1), (3, 10), (16, 1179), (32, 8805)))
    def test_classes_group_equal_multisets_with_equal_j(self, n, classes):
        grid = stretch_grid(n)
        with np.errstate(all="ignore"):
            got = stability._stretch_classes(grid)
        reps, of = reference_classes(grid)
        assert len(reps) == classes
        assert got.reps.tobytes() == reps.tobytes() and np.array_equal(got.of, of)

    @given(
        rows=hst.lists(stretch_rows(150.0), min_size=1, max_size=40),
        picks=hst.lists(hst.integers(0, 10**6), max_size=60),
        perms=hst.lists(hst.permutations(range(3)), min_size=1, max_size=6),
    )
    def test_classes_of_permuted_and_repeated_rows(self, rows, picks, perms):
        # rows, some repeated or permuted, out to stretches of 1e+-150,
        # where permuted products round J differently
        rows = np.array(rows)
        extra = [rows[k % len(rows)][perms[k % len(perms)]] for k in picks]
        grid = np.concatenate([rows, np.reshape(extra, (-1, 3))])
        with np.errstate(all="ignore"):
            got = stability._stretch_classes(grid)
        reps, of = reference_classes(grid)
        assert got.reps.tobytes() == reps.tobytes() and np.array_equal(got.of, of)

    @given(
        **_SCAN_CELL,
        shape=hst.tuples(*[hst.integers(1, 6)] * 3),
        spans=hst.lists(hst.floats(-1.0, 1.0), min_size=6, max_size=6),
        rows=hst.lists(stretch_rows(1.0), max_size=30),
    )
    def test_grids_without_every_permutation_match_the_reference(
        self, kind, contraction, volfun, nu, mu, shape, spans, rows
    ):
        # distinct axes, so the grid misses most permutations of its rows,
        # then random rows
        assume(kind == "voliso" or nu >= 0.0)
        axes = [np.logspace(spans[2 * a], spans[2 * a + 1], shape[a]) for a in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = np.concatenate([grid, np.reshape(rows, (-1, 3))])
        args = (kind, volfun, params_from_mu_nu(mu, nu), grid, contraction)
        assert scan_outcome(*args) == reference_or_error(*args)

    @given(
        **_SCAN_CELL,
        n=hst.integers(2, 7),
        seed=hst.integers(0, 2**32 - 1),
        repeats=hst.integers(0, 40),
    )
    def test_shuffled_and_repeated_rows_match_the_reference(
        self, kind, contraction, volfun, nu, mu, n, seed, repeats
    ):
        # a shuffled stretch grid with some rows repeated: every class holds
        # rows far apart in the grid, and repeated rows tie bit for bit
        assume(kind == "voliso" or nu >= 0.0)
        gen = np.random.default_rng(seed)
        grid = stretch_grid(n)
        grid = grid[gen.permutation(len(grid))]
        grid = np.concatenate([grid, grid[gen.integers(0, len(grid), repeats)]])
        args = (kind, volfun, params_from_mu_nu(mu, nu), grid, contraction)
        assert scan_outcome(*args) == reference_or_error(*args)

    @given(
        **_SCAN_CELL,
        rows=hst.lists(stretch_rows(150.0), min_size=1, max_size=12),
        perms=hst.lists(hst.permutations(range(3)), min_size=1, max_size=6),
    )
    # J overflows to inf, where the mixed kind at nu = 0 still has c = 0
    @example(
        kind="mixed",
        contraction="csp",
        volfun=catalog()[8],
        nu=0.0,
        mu=1.0,
        rows=[[1.76e142, 4.15e118, 1.18e133]],
        perms=[(0, 1, 2)],
    )
    def test_extreme_stretches_match_the_reference(
        self, kind, contraction, volfun, nu, mu, rows, perms
    ):
        # stretches out to 1e+-150 with their permutations: products that
        # round J differently, overflow or underflow, and forms beyond the
        # settle range, with the errors of the reference
        assume(kind == "voliso" or nu >= 0.0)
        rows = np.array(rows)
        grid = np.concatenate([rows[:, p] for p in perms])
        args = (kind, volfun, params_from_mu_nu(mu, nu), grid, contraction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scan_outcome(*args)
        assert got == reference_or_error(*args)

    @given(
        kind=_SCAN_CELL["kind"],
        contraction=_SCAN_CELL["contraction"],
        vfs=hst.lists(_SCAN_CELL["volfun"], min_size=1, max_size=3),
        nus=hst.lists(_SCAN_CELL["nu"], min_size=1, max_size=6),
        mu=_SCAN_CELL["mu"],
        grid=_SCAN_GRIDS,
    )
    # both cells' forms are NaN at state 0, and the second cell's holds a
    # non-finite entry on which eigh fails for its whole call
    @example(
        kind="mixed",
        contraction="csp",
        vfs=[catalog()[1]],
        nus=[0.0, 1.9466992773220358e-272],
        mu=3.0,
        grid=np.concatenate([np.array([[0.01, 1e-07, 1e-150]])[:, p] for p in _PERMUTATIONS]),
    )
    def test_a_batch_matches_each_cell_of_the_reference(
        self, kind, contraction, vfs, nus, mu, grid
    ):
        # every volfun at every nu of one batch, among them the paper's, and
        # nu = 0 (where the mixed kind has no volumetric term): each cell's
        # value, index and direction, or its error, as the reference and the
        # scan of the cell alone give them
        if kind == "mixed":
            nus = [nu for nu in nus if nu >= 0.0]
        pairs = [(vf, nu) for vf in vfs for nu in [*nus, 0.0]]
        cells = [params_from_mu_nu(mu, nu) for _, nu in pairs]
        args = (kind, [vf for vf, _ in pairs], cells, grid, contraction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = batch_outcome(*args)
            alone = reference_batch(*args, outcome=scan_outcome)
        assert got == alone == reference_batch(*args, outcome=reference_or_error)

    @given(
        cells=hst.lists(
            hst.tuples(*(_SCAN_CELL[k] for k in ("kind", "contraction", "volfun", "nu"))),
            min_size=1,
            max_size=8,
        ),
        zero=hst.tuples(_SCAN_CELL["contraction"], _SCAN_CELL["volfun"], hst.integers(0, 8)),
        mu=_SCAN_CELL["mu"],
        grid=_SCAN_GRIDS,
    )
    # the vol-iso CSP form of volfun 2 at nu = -0.9 is NaN at the stretch
    # 1e-150, so that cell's scan raises while the others return a minimum
    @example(
        cells=[
            ("voliso", "csp", catalog()[2], -0.9),
            ("mixed", "hill", catalog()[7], 0.45),
            ("voliso", "hill", catalog()[2], 0.25),
            ("mixed", "csp", catalog()[2], 0.4),
        ],
        zero=("csp", catalog()[5], 2),
        mu=1.0,
        grid=np.concatenate([stretch_grid(3), [[1e-150, 1.0, 1.0]]]),
    )
    def test_one_call_equals_a_scan_of_each_cell_alone(self, cells, zero, mu, grid):
        # interleaved cells of both kinds, both contractions, several
        # volfuns and nu, and a mixed cell at nu = 0 (no volumetric term):
        # one call gives each cell's bits, or its error, of scanning that
        # cell alone
        cells = [(k, c, vf, nu if k == "voliso" else abs(nu) % 0.5) for k, c, vf, nu in cells]
        contraction, volfun, at = zero
        cells.insert(at, ("mixed", contraction, volfun, 0.0))
        kinds, contractions, vfs, nus = (list(v) for v in zip(*cells))
        params = [params_from_mu_nu(mu, nu) for nu in nus]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = batch_outcome(kinds, vfs, params, grid, contractions)
            alone = [
                scan_outcome(k, vf, p, grid, c)
                for k, vf, p, c in zip(kinds, vfs, params, contractions)
            ]
        assert got == alone

    @pytest.mark.parametrize(
        "kind, contraction, vid, nu, mu, grid",
        (
            (
                "voliso", "hill", 7, 0.25, 1.0,
                [
                    [7.684249988699792e-20, 1.8055977754377267e120, 0.20957555038197137],
                    [0.20957555038197137, 7.684249988699792e-20, 1.8055977754377267e120],
                    [3.6492514555890627e104, 12264485145975.248, 1.4589521735963849e-124],
                ],
            ),
            (
                "mixed", "csp", 7, 0.4999, 2.7,
                [
                    [7.991622752789365e-31, 1.41237378382639e-143, 0.05186745374189163],
                    [0.05186745374189163, 1.41237378382639e-143, 7.991622752789365e-31],
                    [0.09433763708900257, 2.0237781403373683e116, 1.1608904436267001e-95],
                ],
            ),
            (
                "voliso", "hill", 5, 0.0, 1e-300,
                [
                    [0.053075127830230065, 62410137.591894574, 1.150403425042471e134],
                    [1.150403425042471e134, 0.053075127830230065, 62410137.591894574],
                    [5.161870134889311e-147, 2.1341805411693743e-21, 3.148840144163047e104],
                ],
            ),
        ),
    )  # fmt: skip
    def test_a_class_beyond_the_settle_range_stays_open(
        self, kind, contraction, vid, nu, mu, grid
    ):
        # two orderings of one triple, with shear entries near 1e172: the
        # representative's value is finite and clears U, the other
        # ordering's form is NaN, so settling the class on its
        # representative would return a value where the reference raises
        params = params_from_mu_nu(mu, nu)
        args = (kind, catalog()[vid], params, np.array(grid), contraction)
        got = scan_outcome(*args)
        classes = classes_of(grid)
        scaled_mu = mantissa_params(params)[0].mu
        block = stability._build_shear_block(kind, contraction, scaled_mu, args[3], classes)
        assert classes.reps.tolist() == [0, 2] and not block.settles.any()
        assert got == reference_or_error(*args)
        assert got == f"the {contraction} stability form is NaN at grid state 1"

    @given(
        scale=hst.floats(-100.0, 100.0),
        grade=hst.floats(3.5, 8.0),
        shear=hst.lists(hst.floats(-1.0, 1.0), min_size=5, max_size=5),
        offset=hst.floats(-8.0, 0.0),
        side=hst.sampled_from((-1.0, 1.0)),
    )
    def test_a_bounded_graded_state_exceeds_u(self, scale, grade, shear, offset, side):
        # the bound that settles a graded representative undeflated holds
        # for its deflated value across the settle range, with U just above
        # or below that value, where the coupling column's second-order
        # term decides
        s = 10.0**scale
        row = [np.array([s * v]) for v in (10.0**grade, *shear)]
        grading = stability._grading(np.max(np.abs(row[1:])))
        _, b1, b2, p, r, q = row
        with np.errstate(all="ignore"):
            assert row[0] > grading
            x, big = stability._deflate(*row)
            value = np.minimum(x, big)
            upper = float(value[0]) + side * s * 10.0**offset
            plane = stability._eig2_min(p, r, q)
            clears = stability._graded_clears(upper, grading, row[0], plane, np.hypot(b1, b2))
            assert not clears[0] or stability._clears(value, upper, grading)[0]
            if side < 0.0:  # the bound lies within coupling^2 / (alpha - t) of the value
                assert clears[0] or 10.0**offset <= 4.0 * 10.0**-grade + 1e-5

    def test_a_cell_takes_routes_on_the_representatives_and_open_members(self, monkeypatch):
        # each representative is deflated or sent to eigh at most once, and
        # so is each member of an open class, beside the two candidates;
        # of the open representatives, whose values every form here has in
        # the settle range, only the first smallest is taken again
        grid = stretch_grid(16)
        passes, batches = TestCoaxialScanBytes.record_routes(monkeypatch)
        opened = TestCoaxialScanBytes.record_open_members(monkeypatch)
        reps, routed = classes_of(grid).reps, 0
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                for vf in (catalog()[1], catalog()[4], catalog()[7]):
                    for nu in (0.0, 0.25, 0.4999):
                        del passes[:], batches[:], opened[:]
                        min_coaxial_eig(kind, vf, params_from_mu_nu(1.0, nu), grid, contraction)
                        members = sum(map(len, opened))
                        cell = sum(passes[::3]) + sum(map(len, batches))
                        assert cell <= len(reps) + 2 + members, (kind, contraction, vf, nu)
                        assert len(np.intersect1d(reps, np.concatenate(opened))) == 1
                        routed += cell
        assert routed < 36 * len(grid) / 3

    def test_a_zero_volumetric_coefficient_scans_the_same_for_every_volfun(self, monkeypatch):
        # the mixed kind at nu = 0 has c = 0, even where the column is inf:
        # every volfun's scan gives the reference's outcome, the same one,
        # at every modulus, alone or in a batch with other nu and volfuns;
        # each call reads each of its volfuns' columns once, and scans one
        # cell with no volumetric term for all of them
        reads, scanned = [], []
        original, scan = stability.evaluate_grid, stability._class_scan

        def counting(vf, Js):
            reads.append(vf.label)
            return original(vf, Js)

        def counting_scan(grid, classes, block, coefs, column):
            scanned.append(len(coefs))
            return scan(grid, classes, block, coefs, column)

        vfs = [*catalog().values(), VolFun.power_pair(400.0), VolFun.log_augmented(-2.0)]
        monkeypatch.setattr(stability, "evaluate_grid", counting)
        monkeypatch.setattr(stability, "_class_scan", counting_scan)
        for grid in (stretch_grid(5), log_grid(6, -0.5, 0.9)):
            for mu in (1.0, 2.7, 1e300):
                zero, other = params_from_mu_nu(mu, 0.0), params_from_mu_nu(mu, 0.4)
                for contraction in ("hill", "csp"):
                    want = reference_outcome("mixed", vfs[0], zero, grid, contraction)
                    for vf in vfs:
                        reads.clear()
                        assert scan_outcome("mixed", vf, zero, grid, contraction) == want
                        batch = min_coaxial_eig("mixed", vf, [other, zero], grid, contraction)
                        assert bits(batch[1]) == want and reads == [vf.label] * 2
                    del reads[:], scanned[:]
                    cells = [zero, other] * len(vfs)
                    got = batch_outcome("mixed", sorted(vfs * 2, key=vfs.index), cells, grid, contraction)
                    assert got[::2] == [want] * len(vfs) and reads == [vf.label for vf in vfs]
                    assert sum(scanned) == len(vfs) + 1


def nan_blind_bits(x):
    """Exactly comparable bits, with every NaN as numpy's positive NaN.

    A NaN's sign bit is no property of the rotation: numpy's own ``add``
    keeps the left operand's NaN in its vector loop and the right one's in
    its scalar tail, so NaN + NaN can come out either way in one array.
    """
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def exact_bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def shear_matrices(kind, contraction, mu, grid):
    """The shear parts S of a grid's coaxial forms, stacked from the entries
    that the scan rotates without storing them."""
    entry, J, _ = stability._shear_form(kind, contraction, mu, grid)
    S = np.empty((len(J), 3, 3))
    for j, k in np.ndindex(3, 3):
        S[:, j, k] = entry(j, k)
    return S


def rotate(S):
    """``_rotate_lower`` fed the entries of a stored batch S, under the error
    state its callers hold."""
    lower = np.zeros((len(stability._LOWER), len(S)))
    with np.errstate(all="ignore"):
        stability._rotate_lower(lambda j, k: S[:, j, k], lower)
    return lower


def einsum_rotation(S):
    """Q^T S Q for a batch S, the way the scan rotated it before."""
    Q = stability._TRACE_ROT
    return np.einsum("ji,njk,kl->nil", Q, S, Q)


class TestShearRotation:
    """``_rotate_lower`` against the einsum rotation it replaced."""

    @staticmethod
    def assert_matches_einsum(S, lower, bits=exact_bits):
        want = einsum_rotation(S)
        for (i, l), v in zip(stability._LOWER, lower):
            assert v.flags.c_contiguous and v.shape == (len(S),)
            assert bits(v).tobytes() == bits(want[:, i, l]).tobytes(), (i, l)

    @pytest.mark.parametrize("n", (16, 32))
    def test_every_block_matches_einsum_bitwise(self, n):
        # the block holds the representatives; the rotation of every state
        # of the grid is checked too
        grid = stretch_grid(n)
        with np.errstate(all="ignore"):
            classes = stability._stretch_classes(grid)
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                block = stability._build_shear_block(kind, contraction, 1.0, grid, classes)
                S = shear_matrices(kind, contraction, 1.0, grid)
                self.assert_matches_einsum(S[classes.reps], block.lower)
                self.assert_matches_einsum(S, rotate(S))

    @pytest.mark.parametrize("n", (1, 7, 8, 17, 1000, 4099))
    def test_wide_exponents_match_einsum_bitwise(self, n):
        gen = np.random.default_rng(n)
        S = gen.standard_normal((n, 3, 3)) * 10.0 ** gen.uniform(-300, 300, (n, 3, 3))
        self.assert_matches_einsum(S, rotate(S))

    @pytest.mark.parametrize("n", (9, 64, 1001))
    @pytest.mark.parametrize("specials", ("inf", "nan", "inf and nan"))
    def test_non_finite_and_signed_zero_entries_match_einsum(self, n, specials):
        gen = np.random.default_rng(n)
        S = gen.standard_normal((n, 3, 3))
        u = gen.random((n, 3, 3))
        S[u < 0.2] = -0.0
        if "inf" in specials:
            S[(u >= 0.2) & (u < 0.3)] = np.inf
            S[(u >= 0.3) & (u < 0.4)] = -np.inf
        if "nan" in specials:
            S[(u >= 0.4) & (u < 0.5)] = np.nan
        # with one kind of NaN only (numpy's, or the invalid-operation NaN of
        # inf - inf and 0 * inf) even the sign bits agree
        bits = nan_blind_bits if specials == "inf and nan" else exact_bits
        self.assert_matches_einsum(S, rotate(S), bits)

    def test_all_negative_zero_rotates_to_positive_zero(self):
        # einsum sums onto +0.0, and so does the rotation
        S = np.full((5, 3, 3), -0.0)
        lower = rotate(S)
        self.assert_matches_einsum(S, lower)
        assert not any(np.signbit(v).any() for v in lower)
