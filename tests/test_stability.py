import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as hst

from nhcomp import stability
from nhcomp.kinematics import kinematics_from_F, rate_from_motion
from nhcomp.materials import PAPER_NUS, ModelSpec, cauchy_stress, mantissa_params, params_from_mu_nu
from nhcomp.stability import (
    bh_rate,
    coaxial_matrices,
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
    # J^q overflows at q = 1e6, J = 2 and meets tr d = 0: the value is
    # NaN, which has no verdict, and the report leaks no RuntimeWarning
    model = ModelSpec(kind, VolFun.power_pair(1e6), params_from_mu_nu(1.0, 0.3))
    state, rate = make_rate(np.diag([2.0, 1.0, 1.0]), np.diag([1.0, -1.0, 0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="no sign verdict"):
            contraction(model, state, rate)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def reference_fd_error(model, n_motions):
    """``tangent_fd_error`` as it was before its motions were shared: every
    motion drawn and decomposed again on each call, the stress at F0
    evaluated twice, and the model taken as given."""
    h, gen = 1e-5, np.random.default_rng(913)
    worst = 0.0
    for _ in range(n_motions):
        while True:
            F0 = I3 + 0.3 * gen.standard_normal((3, 3))
            if np.linalg.det(F0) > 0.4:
                break
        Fdot = 0.5 * gen.standard_normal((3, 3))
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

    def test_every_cached_array_is_read_only(self):
        stability._fd_motions.cache_clear()
        motions = stability._fd_motions(3)
        assert stability._fd_motions(3) is motions and len(motions) == 3
        arrays = []
        for F0, F_p, F_m, state, rate in motions:
            arrays += [F0, F_p, F_m, state.F, state.c, *state.projections]
            arrays += [rate.l, rate.d, rate.w, rate.dhat, rate.dtilde]
        stability._block_slot[0] = None
        min_coaxial_eig("voliso", catalog()[2], params_from_mu_nu(1.0, 0.3), stretch_grid(4), "csp")
        column = stability._block_slot[0][3][1]
        assert column.flags.c_contiguous and column.shape == (64,)
        for a in (*arrays, column):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestGridSearch:
    def test_coaxial_matrix_matches_contractions(self):
        lams = np.array([[1.3, 0.8, 1.9], [0.5, 2.2, 1.1]])
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                prm = params_from_mu_nu(1.0, 0.3)
                model = ModelSpec(kind, catalog()[7], prm)
                M = coaxial_matrices(kind, catalog()[7], prm, lams, contraction)
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


def reference_min_coaxial_eig(kind, volfun, params, lams, contraction):
    """The scan as it was before the shear block was shared: every piece
    rebuilt per call, and eigh run on every state, graded or not.

    Returns (value, index, direction, branch, mins, graded): branch names
    the path that produced the minimum, mins holds every state's value and
    graded marks the states the analytic deflation covers.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[0]
    lam2 = lams**2
    J = np.prod(lams, axis=1)
    tab = evaluate_grid(volfun, J)
    hpp, chi = tab[:, 2], tab[:, 4]
    mu = params.mu
    MP = np.zeros((n, 3, 3))
    idx = np.arange(3)
    MP[:, idx, idx] = 2.0 * lam2
    MB = 0.5 * (lam2[:, :, None] + lam2[:, None, :])
    trc = lam2.sum(axis=1)
    if contraction == "hill":
        if kind == "mixed":
            S = mu * MP
            c = params.lam * chi * J
        else:
            w = mu * J ** (-2.0 / 3.0)
            S = w[:, None, None] * (MP - (4.0 / 3.0) * MB)
            c = params.K * chi * J + (2.0 / 9.0) * w * trc
    else:
        if kind == "mixed":
            w = mu / J
            S = w[:, None, None] * (MP - MB)
            c = params.lam * J * hpp + w
        else:
            w = mu * J ** (-5.0 / 3.0)
            S = w[:, None, None] * (MP - (7.0 / 3.0) * MB)
            c = params.K * J * hpp + (5.0 / 9.0) * w * trc

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
    vals, vecs = np.linalg.eigh(Mp)
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
        nu=hst.one_of(hst.sampled_from(PAPER_NUS), hst.floats(-0.99, 0.4999)),
        mu=hst.floats(0.1, 10.0),
        n=hst.integers(2, 12),
        lo=hst.floats(-1.0, 1.0),
        hi=hst.floats(-1.0, 1.0),
    )
    def test_pruned_scan_matches_the_reference(self, kind, contraction, volfun, nu, mu, n, lo, hi):
        assume(kind == "voliso" or nu >= 0.0)
        params = params_from_mu_nu(mu, nu)
        grid = stretch_grid(n, lo, hi)
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

    @pytest.mark.parametrize(
        "kind, contraction, vid, nu, grid, case",
        (
            ("mixed", "hill", 2, 0.4999, stretch_grid(3, -0.01, 0.01), "all graded"),
            ("voliso", "csp", 2, 0.4999, stretch_grid(3, -0.01, 0.01), "all graded"),
            ("mixed", "hill", 7, 0.4999, stretch_grid(8), "graded minimum"),
            ("mixed", "csp", 5, 0.45, stretch_grid(8), "graded minimum"),
            # stretch_grid holds every permutation of each triple, and the
            # repeated rows make the minimum a tie, bit for bit
            ("voliso", "hill", 3, 0.45, np.tile(stretch_grid(5), (2, 1)), "tie"),
            ("mixed", "csp", 1, 0.0, np.tile(stretch_grid(4, -0.3, 0.6), (3, 1)), "tie"),
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
        else:  # the smallest diagonal and the smallest Gershgorin bound share a state
            assert len(batches[0]) == 2 and batches[0][0].tobytes() == batches[0][1].tobytes()
        # the deflation runs on the graded states alone, three passes each
        assert passes == ([np.count_nonzero(graded)] * 3 if graded.any() else [])
        assert bits(got) == bits(want)

    @given(
        kind=hst.sampled_from(("mixed", "voliso")),
        contraction=hst.sampled_from(("hill", "csp")),
        volfun=volfuns(),
        nu=hst.one_of(hst.sampled_from(PAPER_NUS), hst.floats(-0.99, 0.4999)),
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

    def test_minimum_beyond_the_float_range_raises(self):
        params = params_from_mu_nu(1e307, 0.3)
        with pytest.raises(ValueError, match="overflows at modulus mu = 1e"):
            min_coaxial_eig("voliso", catalog()[1], params, stretch_grid(5), "csp")

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_classify_value_rejects_a_non_finite_value(self, value):
        with pytest.raises(ValueError, match="no sign verdict"):
            stability.classify_value(value, 1.0)

    def test_eigh_of_a_subset_equals_the_same_rows_of_the_batch(self):
        # the scan runs eigh on a subset of states and relies on batched
        # eigh treating every matrix on its own
        block = stability._shared("voliso", "hill", 1.0, stretch_grid(10), catalog()[7])[0]
        scan = stability._lower_matrices(block.lower, np.ones(len(block.J), dtype=bool))
        sym = rng.standard_normal((500, 3, 3))
        for batch in (scan, sym + sym.transpose(0, 2, 1)):
            vals, vecs = np.linalg.eigh(batch)
            for keep in (rng.random(len(batch)) < 0.1, np.arange(len(batch)) == 7):
                if batch is scan:
                    sub = stability._lower_matrices(block.lower, keep)
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
        min_coaxial_eig(*args)
        assert passes == ([np.count_nonzero(graded)] * 3 if graded.any() else [])

    def test_eigh_budget_of_one_cell(self, monkeypatch):
        # 4000 ungraded states; eigh sees the two candidates of the upper
        # bound, then at most the six permutations of the minimizing stretch
        # triple, whose values agree to rounding, so none is certified
        args = ("voliso", catalog()[7], params_from_mu_nu(1.0, 0.25), stretch_grid(16), "csp")
        _, batches = self.record_routes(monkeypatch)
        min_coaxial_eig(*args)
        assert len(batches[0]) == 2 and sum(map(len, batches)) <= 2 + 6

    def test_most_ungraded_states_skip_eigh(self, monkeypatch):
        grid = stretch_grid(16)
        params = params_from_mu_nu(1.0, 0.25)
        cells = [("voliso", vf, params, grid, "csp") for vf in catalog().values()]
        ungraded = sum(np.count_nonzero(~reference_min_coaxial_eig(*args)[5]) for args in cells)
        _, batches = self.record_routes(monkeypatch)
        for args in cells:
            min_coaxial_eig(*args)
        assert 0 < sum(map(len, batches)) < ungraded / 25

    def test_reused_shear_block_is_invisible(self):
        grids = [stretch_grid(5), stretch_grid(6, lo=-0.5, hi=0.9)]
        mutated = stretch_grid(5)
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
        # the same grid object, changed in place, must not hit the slot
        args = ("mixed", catalog()[5], params_from_mu_nu(1.0, 0.4999), mutated, "hill")
        before = bits(min_coaxial_eig(*args))
        mutated[:] = mutated[::-1] * 0.7
        after = bits(min_coaxial_eig(*args))
        assert after != before
        seen.append((args[:3] + (mutated.copy(), "hill"), after))

        for args, got in seen:
            stability._block_slot[0] = None
            assert got == bits(min_coaxial_eig(*args)), (args[0], args[2].mu, args[4])

    def test_the_volumetric_column_follows_volfun_contraction_and_grid(self, monkeypatch):
        grid, other = stretch_grid(6), stretch_grid(6, lo=-0.5, hi=0.9)
        reads = []
        original = stability.evaluate_grid

        def counting(vf, Js):
            reads.append(vf.label)
            return original(vf, Js)

        monkeypatch.setattr(stability, "evaluate_grid", counting)
        hn = VolFun.power_pair(1.5)
        # (kind, volfun, nu, grid, contraction, volfuns read by the call)
        calls = [
            ("voliso", catalog()[3], 0.25, grid, "csp", ["3"]),
            ("voliso", catalog()[3], 0.45, grid, "csp", []),  # one column, every nu
            ("voliso", catalog()[7], 0.25, grid, "csp", ["7"]),  # alternating volfuns
            ("voliso", catalog()[3], 0.25, grid, "csp", ["3"]),
            ("voliso", catalog()[3], 0.25, grid, "hill", ["3"]),  # alternating contractions
            ("voliso", catalog()[3], 0.25, grid, "csp", ["3"]),
            ("mixed", catalog()[3], 0.25, grid, "csp", ["3"]),  # alternating kinds
            ("mixed", catalog()[3], 0.25, other, "csp", ["3"]),  # alternating grids
            ("mixed", hn, 0.4, other, "csp", [hn.label]),
            ("mixed", VolFun.power_pair(1.5), 0.0, other, "csp", []),  # an equal volfun
            ("mixed", hn, 0.4, grid, "csp", [hn.label]),
        ]
        stability._block_slot[0] = None
        for kind, vf, nu, g, contraction, read in calls:
            reads.clear()
            params = params_from_mu_nu(1.0, nu)
            got = min_coaxial_eig(kind, vf, params, g, contraction)
            want = reference_min_coaxial_eig(kind, vf, params, g, contraction)
            assert bits(got) == bits(want) and reads == read, (kind, vf.label, nu, contraction)
        # the same grid object, changed in place, gets a fresh block and column
        grid[:] = grid[::-1] * 0.7
        reads.clear()
        params = params_from_mu_nu(1.0, 0.4)
        got = min_coaxial_eig("mixed", hn, params, grid, "csp")
        assert reads == [hn.label]
        assert bits(got) == bits(reference_min_coaxial_eig("mixed", hn, params, grid, "csp"))

    def test_shared_arrays_are_read_only(self):
        grid = stretch_grid(3)
        block, column = stability._shared("voliso", "csp", 1.0, grid, catalog()[2])
        S = stability._shear_matrices("voliso", "csp", 1.0, grid)[0]
        assert len(block.lower) == 6
        for v in (*block.lower, column):
            assert v.shape == block.J.shape and v.flags.c_contiguous
        TestShearRotation.assert_matches_einsum(S, block.lower)
        for a in (*block.lower, block.s_scale, block.J, block.shift, column):
            with pytest.raises(ValueError):
                a[0] = 0.0


def nan_blind_bits(x):
    """Exactly comparable bits, with every NaN as numpy's positive NaN.

    A NaN's sign bit is no property of the rotation: numpy's own ``add``
    keeps the left operand's NaN in its vector loop and the right one's in
    its scalar tail, so NaN + NaN can come out either way in one array.
    """
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def exact_bits(x):
    return np.ascontiguousarray(x).view(np.int64)


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
        grid = stretch_grid(n)
        for kind in ("mixed", "voliso"):
            for contraction in ("hill", "csp"):
                block = stability._build_shear_block(kind, contraction, 1.0, grid)
                S = stability._shear_matrices(kind, contraction, 1.0, grid)[0]
                self.assert_matches_einsum(S, block.lower)
                # the C-ordered S the scan gave einsum before: same bits
                S = np.ascontiguousarray(S)
                self.assert_matches_einsum(S, stability._rotate_lower(S))

    @pytest.mark.parametrize("n", (1, 7, 8, 17, 1000, 4099))
    def test_wide_exponents_match_einsum_bitwise(self, n):
        gen = np.random.default_rng(n)
        S = gen.standard_normal((n, 3, 3)) * 10.0 ** gen.uniform(-300, 300, (n, 3, 3))
        self.assert_matches_einsum(S, stability._rotate_lower(S))

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
        self.assert_matches_einsum(S, stability._rotate_lower(S), bits)

    def test_all_negative_zero_rotates_to_positive_zero(self):
        # einsum sums onto +0.0, and so does the rotation
        S = np.full((5, 3, 3), -0.0)
        lower = stability._rotate_lower(S)
        self.assert_matches_einsum(S, lower)
        assert not any(np.signbit(v).any() for v in lower)
