import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from nhcomp.materials import (
    PAPER_NUS,
    MaterialParams,
    ModelSpec,
    cauchy_stress,
    energy,
    linear_stress,
    mantissa_params,
    params_from_E_nu,
    params_from_mu_nu,
)
from nhcomp.tensor3 import I3, dev
from nhcomp.volfun import VolFun, catalog, evaluate, parse_volfun

rng = np.random.default_rng(52408)

MU = 2.53
NU = 0.34
# frozen by hand: lam = 2*2.53*0.34/0.32, K = lam + 2*2.53/3, E = 2*2.53*1.34
LAM_REF = 5.37625
K_REF = 7.062916666666667
E_REF = 6.7804


def random_rotation():
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_F(scale=0.4):
    while True:
        F = I3 + scale * rng.standard_normal((3, 3))
        if np.linalg.det(F) > 0.3:
            return F


def fd_first_pk(model, F, p=None, h=1e-6):
    P = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            Fp, Fm = F.copy(), F.copy()
            Fp[i, j] += h
            Fm[i, j] -= h
            P[i, j] = (energy(model, Fp, p) - energy(model, Fm, p)) / (2.0 * h)
    return P


class TestParams:
    def test_reference_constants(self):
        prm = params_from_mu_nu(MU, NU)
        assert prm.lam == pytest.approx(LAM_REF, rel=1e-14)
        assert prm.K == pytest.approx(K_REF, rel=1e-14)
        assert prm.E == pytest.approx(E_REF, rel=1e-14)

    def test_nu_zero_and_near_half(self):
        prm0 = params_from_mu_nu(1.0, 0.0)
        assert prm0.lam == 0.0
        assert prm0.K == pytest.approx(2.0 / 3.0, rel=1e-15)
        prm = params_from_mu_nu(1.0, 0.4999)
        assert prm.lam == pytest.approx(0.9998 / 0.0002, rel=1e-12)

    def test_constructors_agree(self):
        base = params_from_mu_nu(MU, NU)
        other = params_from_E_nu(base.E, NU)
        assert other.mu == pytest.approx(base.mu, rel=1e-14)
        assert other.nu == pytest.approx(base.nu, rel=1e-14)
        assert other.lam == pytest.approx(base.lam, rel=1e-14)
        assert other.K == pytest.approx(base.K, rel=1e-14)

    def test_incompressible_limit_params(self):
        prm = params_from_mu_nu(MU, 0.5)
        assert math.isinf(prm.lam) and math.isinf(prm.K)
        assert prm.E == pytest.approx(3.0 * MU, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            params_from_mu_nu(-1.0, 0.3)
        with pytest.raises(ValueError):
            params_from_mu_nu(1.0, 0.6)
        with pytest.raises(ValueError):
            params_from_E_nu(0.0, 0.3)


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


class TestMantissaParams:
    @pytest.mark.parametrize("nu", (*PAPER_NUS, 0.5, -0.9, 0.3))
    @pytest.mark.parametrize("mu", (1.0, 0.75, 2.53, 1e-300, 3e-308, 1e300, 1.7e308))
    def test_matches_the_replace_built_constants_field_by_field(self, mu, nu):
        params = params_from_mu_nu(mu, nu)
        got, e = mantissa_params(params)
        m, e_want = math.frexp(params.mu)
        want = replace(
            params,
            mu=m,
            lam=math.ldexp(params.lam, -e_want),
            K=math.ldexp(params.K, -e_want),
            E=math.ldexp(params.E, -e_want),
        )
        assert type(got) is MaterialParams and e == e_want
        for field in fields(MaterialParams):
            assert float.hex(getattr(got, field.name)) == float.hex(getattr(want, field.name))


class TestModelSpec:
    def test_kind_validation(self):
        vf = catalog()[1]
        with pytest.raises(ValueError):
            ModelSpec("mixed", vf, params_from_mu_nu(1.0, -0.1))
        with pytest.raises(ValueError):
            ModelSpec("voliso", vf, params_from_mu_nu(1.0, -1.0))
        with pytest.raises(ValueError, match="incompressible"):
            ModelSpec("mixed", vf, params_from_mu_nu(1.0, 0.5))
        with pytest.raises(ValueError):
            ModelSpec("mixed", None, params_from_mu_nu(1.0, 0.3))
        with pytest.raises(ValueError):
            ModelSpec("inc", vf, params_from_mu_nu(1.0, 0.5))
        with pytest.raises(ValueError):
            ModelSpec("magic", vf, params_from_mu_nu(1.0, 0.3))
        # vol-iso admits auxetic ratios that the mixed form rejects
        ModelSpec.vol_iso(vf, 1.0, -0.5)
        with pytest.raises(ValueError):
            ModelSpec.mixed(vf, 1.0, -0.5)

    def test_constants_must_stay_in_float_range(self):
        vf = catalog()[1]
        for kind in ("mixed", "voliso"):
            for params, name in (
                (MaterialParams(mu=math.nan, nu=0.3, lam=1.0, K=1.0, E=1.0), "shear modulus mu"),
                (params_from_mu_nu(1e308, 0.3), "first Lame constant lam"),
                (MaterialParams(mu=1.0, nu=0.3, lam=1.0, K=math.inf, E=1.0), "bulk modulus K"),
                (params_from_mu_nu(8e307, 0.2), r"stress scale mu \+ lam \+ K"),
                (params_from_mu_nu(1e-320, 0.3), "shear modulus mu = 1e-320 is subnormal"),
            ):
                with pytest.raises(ValueError, match=name):
                    ModelSpec(kind, vf, params)
            # the extremes of the normal range stay admissible
            ModelSpec(kind, vf, params_from_mu_nu(2.2250738585072014e-308, 0.3))
            ModelSpec(kind, vf, params_from_mu_nu(1e307, 0.3))

    @pytest.mark.parametrize("nu", (5e-324, -5e-324, 1e-310))
    def test_subnormal_poisson_ratio_is_rejected(self, nu):
        with pytest.raises(ValueError, match=f"Poisson's ratio nu = {nu} is subnormal"):
            params_from_mu_nu(1.0, nu)
        for nu_ok in (0.0, -0.0, 2.2250738585072014e-308):
            assert params_from_mu_nu(1.0, nu_ok).nu == nu_ok


# The per-site expressions the two ModelSpec methods replaced, kept as the
# reference: the volumetric term with the mixed nu = 0 rule of the stress,
# zj_rate and _c_tr, and the shear factor of cauchy_stress (Python float J,
# which raised OverflowError past the float range) and solve (np.float64 J).
def _old_volumetric_term(model, column):
    if model.kind == "mixed":
        lam = model.params.lam
        return lam * column if lam or math.isfinite(column) else 0.0
    return model.params.K * column


def _old_shear_factor(model, J):
    mu = model.params.mu
    return mu / J if model.kind == "mixed" else mu * J ** (-5.0 / 3.0)


_COLUMNS = hst.one_of(
    hst.sampled_from((math.inf, -math.inf, math.nan, 0.0, -0.0)),
    hst.floats(allow_nan=True, allow_infinity=True),
)
_KIND_NU = [("mixed", nu) for nu in PAPER_NUS] + [("voliso", nu) for nu in (*PAPER_NUS, -0.5)]


class TestScalarFactors:
    @settings(max_examples=400)
    @given(
        kind_nu=hst.sampled_from(_KIND_NU),
        mu=hst.floats(0.5, 3.0),
        log10_J=hst.floats(-300.0, 300.0),
        column=_COLUMNS,
    )
    def test_methods_match_the_inline_forms_bit_for_bit(self, kind_nu, mu, log10_J, column):
        kind, nu = kind_nu
        model = ModelSpec(kind, catalog()[2], params_from_mu_nu(mu, nu))
        got, want = [], []
        with np.errstate(all="ignore"):
            for col in (column, np.float64(column)):
                got.append(model.volumetric_term(col))
                want.append(_old_volumetric_term(model, col))
            for J in (10.0**log10_J, np.float64(10.0**log10_J)):
                got.append(model.shear_factor(J))
                try:
                    want.append(_old_shear_factor(model, J))
                except OverflowError:  # the Python-float power; the method gives inf
                    want.append(math.inf)
        assert _hex(got) == _hex(want)

    def test_mixed_nu_zero_drops_a_non_finite_column(self):
        model = ModelSpec.mixed(catalog()[2], 1.0, 0.0)
        for column in (math.inf, -math.inf, math.nan):
            assert float.hex(model.volumetric_term(column)) == float.hex(0.0)
        voliso = ModelSpec.vol_iso(catalog()[2], 1.0, 0.0)
        assert voliso.volumetric_term(math.inf) == math.inf

    def test_voliso_shear_factor_overflows_to_inf(self):
        model = ModelSpec.vol_iso(catalog()[2], 1.0, 0.3)
        with np.errstate(over="ignore"):
            assert model.shear_factor(1e-200) == math.inf


class TestEnergy:
    @pytest.mark.parametrize("s", (1e-70, 1e70))
    def test_mixed_nu_zero_energy_is_its_shear_part(self, s):
        # h of hn:5 overflows at J = 1e-+70; nu = 0 has no volumetric term
        model = ModelSpec.mixed(parse_volfun("hn:5"), 1.0, 0.0)
        F = np.diag([s, 1.0, 1.0])
        assert evaluate(model.volfun, s).h == math.inf
        norm2 = float(np.tensordot(F, F, axes=2))
        shear = 0.5 * 1.0 * (norm2 - 3.0 - 2.0 * math.log(s))
        assert float.hex(energy(model, F)) == float.hex(shear)

    def test_zero_at_identity(self):
        vf = catalog()[3]
        assert energy(ModelSpec.incompressible(MU), I3, p=0.37) == pytest.approx(0.0, abs=1e-15)
        assert energy(ModelSpec.mixed(vf, MU, NU), I3) == pytest.approx(0.0, abs=1e-15)
        assert energy(ModelSpec.vol_iso(vf, MU, NU), I3) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_mixed_value(self):
        # F = diag(2,1,1), log-squared volumetric term:
        # W = mu(3 - 2 ln 2)/2 + lam (ln 2)^2 / 2
        model = ModelSpec.mixed(catalog()[1], MU, NU)
        F = np.diag([2.0, 1.0, 1.0])
        expect = 0.5 * MU * (3.0 - 2.0 * math.log(2.0)) + 0.5 * LAM_REF * math.log(2.0) ** 2
        assert energy(model, F) == pytest.approx(expect, rel=1e-14)

    def test_frozen_voliso_value(self):
        # same F, quadratic volumetric term: h(2) = 1/2
        model = ModelSpec.vol_iso(catalog()[7], MU, NU)
        F = np.diag([2.0, 1.0, 1.0])
        expect = 0.5 * MU * (6.0 * 2.0 ** (-2.0 / 3.0) - 3.0) + 0.5 * K_REF
        assert energy(model, F) == pytest.approx(expect, rel=1e-14)

    def test_voliso_energy_insensitive_to_pure_dilatation_in_iso_part(self):
        # scaling F by a factor only moves the volumetric term
        model = ModelSpec.vol_iso(catalog()[2], MU, NU)
        F = random_F()
        k = 1.37
        J1 = np.linalg.det(F)
        dW = energy(model, k * F) - energy(model, F)
        dvol = model.params.K * (evaluate(model.volfun, k**3 * J1).h - evaluate(model.volfun, J1).h)
        assert dW == pytest.approx(dvol, rel=1e-12)

    def test_incompressible_requires_p(self):
        with pytest.raises(ValueError):
            energy(ModelSpec.incompressible(MU), I3)
        with pytest.raises(ValueError):
            cauchy_stress(ModelSpec.incompressible(MU), I3)

    def test_rejects_nonpositive_det(self):
        model = ModelSpec.mixed(catalog()[1], MU, NU)
        with pytest.raises(ValueError):
            energy(model, np.diag([1.0, -1.0, 1.0]))


class TestCauchyStress:
    @pytest.mark.parametrize("kind", ("inc", "mixed", "voliso"))
    def test_derived_stresses_match_the_eager_formulas_bit_for_bit(self, kind):
        # first_pk and mean_stress are computed on first read; they keep the
        # bits of tau @ inv(F).T and float(np.trace(sigma)) / 3
        for vid in (1, 2, 5, 7, 8) if kind != "inc" else (None,):
            model = (
                ModelSpec.incompressible(MU)
                if kind == "inc"
                else ModelSpec(kind, catalog()[vid], params_from_mu_nu(MU, NU))
            )
            for _ in range(40):
                F = random_F(0.6)
                s = cauchy_stress(model, F, p=0.7 if kind == "inc" else None)
                tau = s.kirchhoff
                assert _hex(tau) == _hex(float(np.linalg.det(F)) * s.cauchy)
                assert _hex(s.first_pk) == _hex(tau @ np.linalg.inv(F).T)
                assert _hex([s.mean_stress]) == _hex([float(np.trace(s.cauchy)) / 3.0])
                assert type(s.mean_stress) is float
                assert s.first_pk is s.first_pk  # computed once, then kept

    def test_first_pk_reads_the_deformation_gradient_of_the_call(self):
        model = ModelSpec.vol_iso(catalog()[2], MU, NU)
        F = random_F()
        want = cauchy_stress(model, F).first_pk
        s = cauchy_stress(model, F)
        F[0, 0] += 1.0  # the result holds its own copy
        np.testing.assert_array_equal(s.first_pk, want)

    @settings(max_examples=200)
    @given(
        kind=hst.sampled_from(("mixed", "voliso")),
        vid=hst.sampled_from(sorted(catalog())),
        nu=hst.sampled_from(PAPER_NUS),
        log10_s=hst.floats(-150.0, 150.0),
        shear=hst.floats(-1.0, 1.0),
    )
    def test_finite_factors_give_the_plain_products_bit_for_bit(
        self, kind, vid, nu, log10_s, shear
    ):
        # the zero-keeping branch runs only at a factor that is not finite
        model = ModelSpec(kind, catalog()[vid], params_from_mu_nu(MU, nu))
        F = np.array([[10.0**log10_s, shear, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        J = float(np.linalg.det(F))
        with np.errstate(all="ignore"):
            factor = model.shear_factor(J)
            vol = model.volumetric_term(evaluate(model.volfun, J).hp)
            c = F @ F.T
            want = factor * (c - I3 if kind == "mixed" else dev(c)) + vol * I3
        assume(math.isfinite(factor) and math.isfinite(vol))
        assert _hex(cauchy_stress(model, F).cauchy) == _hex(want)

    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    @pytest.mark.parametrize("nu", PAPER_NUS)
    def test_an_infinite_factor_keeps_the_exact_zeros(self, kind, nu):
        # at F = diag(1e-200, 1, 1) mu J^(-5/3), and K h' or lam h' of some
        # catalog members, overflow; every off-diagonal entry is exactly 0
        F = np.diag([1e-200, 1.0, 1.0])
        off = ~np.eye(3, dtype=bool)
        for vid, vf in sorted(catalog().items()):
            s = cauchy_stress(ModelSpec(kind, vf, params_from_mu_nu(1.0, nu)), F)
            assert (s.cauchy[off] == 0.0).all() and (s.kirchhoff[off] == 0.0).all(), vid
            assert s.cauchy[0, 0] < -1e199, vid
        # vol-iso 2: an inf shear and a -inf volumetric term; the transverse
        # diagonal is a genuine inf - inf
        s = cauchy_stress(ModelSpec.vol_iso(catalog()[2], 1.0, 0.3), F)
        assert s.cauchy[0, 0] == -math.inf and np.isnan(s.cauchy[1, 1])
        assert (s.cauchy[off] == 0.0).all()

    @pytest.mark.parametrize("kind", ("mixed", "voliso"))
    def test_first_pk_keeps_the_exact_zeros(self, kind):
        # an infinite Kirchhoff entry meets the exact zeros of F^-T = diag(1e200,
        # 1, 1); as in the Cauchy stress, every off-diagonal entry is exactly 0
        F = np.diag([1e-200, 1.0, 1.0])
        off = ~np.eye(3, dtype=bool)
        for vid, vf in sorted(catalog().items()):
            s = cauchy_stress(ModelSpec(kind, vf, params_from_mu_nu(1.0, 0.3)), F)
            assert (s.first_pk[off] == 0.0).all(), vid
            assert s.first_pk[0, 0] < -1e199, vid
        s = cauchy_stress(ModelSpec.vol_iso(catalog()[2], 1.0, 0.3), F)
        assert s.first_pk[0].tolist() == [-math.inf, 0.0, 0.0]

    def test_zero_at_identity(self):
        for vid in (1, 4, 7, 8):
            vf = catalog()[vid]
            for model in (ModelSpec.mixed(vf, MU, NU), ModelSpec.vol_iso(vf, MU, NU)):
                s = cauchy_stress(model, I3)
                np.testing.assert_allclose(s.cauchy, 0.0, atol=1e-15)
        s = cauchy_stress(ModelSpec.incompressible(MU), I3, p=0.0)
        np.testing.assert_allclose(s.cauchy, 0.0, atol=1e-15)

    def test_incompressible_uniaxial(self):
        lam = 2.0
        F = np.diag([lam, lam**-0.5, lam**-0.5])
        p = MU * (1.0 / lam - 1.0)  # the value that kills the transverse stress
        s = cauchy_stress(ModelSpec.incompressible(MU), F, p=p)
        assert s.cauchy[1, 1] == pytest.approx(0.0, abs=1e-14)
        assert s.cauchy[0, 0] == pytest.approx(MU * (lam**2 - 1.0 / lam), rel=1e-14)
        assert s.first_pk[0, 0] == pytest.approx(MU * (lam - lam**-2), rel=1e-14)

    def test_mixed_at_nu_zero_has_no_volumetric_term(self):
        # h' of hn:400 is inf at J = 10, and lam = 0 must drop it, not make NaN
        F = np.diag([10.0, 1.0, 1.0])
        prm = params_from_mu_nu(1.0, 0.0)
        with np.errstate(all="raise"):
            s = cauchy_stress(ModelSpec("mixed", VolFun.power_pair(400.0), prm), F)
        assert np.isfinite(s.cauchy).all() and np.isfinite(s.first_pk).all()
        np.testing.assert_allclose(s.cauchy, (F @ F.T - I3) / 10.0, rtol=1e-15)
        want = cauchy_stress(ModelSpec("mixed", catalog()[2], prm), F)
        np.testing.assert_array_equal(s.cauchy, want.cauchy)

    def test_mixed_spherical_mean(self):
        # F = k I with the quadratic term, k = 2:
        # sigma_m = (mu/8)(4 - 1) + lam h'(8) = 0.375 mu + 7 lam
        model = ModelSpec.mixed(catalog()[7], MU, NU)
        s = cauchy_stress(model, 2.0 * I3)
        assert s.mean_stress == pytest.approx(0.375 * MU + 7.0 * LAM_REF, rel=1e-14)
        np.testing.assert_allclose(s.cauchy, s.mean_stress * I3, rtol=1e-14)

    def test_voliso_spherical_is_purely_volumetric(self):
        for vid in (1, 5, 8):
            model = ModelSpec.vol_iso(catalog()[vid], MU, NU)
            k = 1.31
            s = cauchy_stress(model, k * I3)
            expect = K_REF * evaluate(model.volfun, k**3).hp
            np.testing.assert_allclose(s.cauchy, expect * I3, rtol=1e-13, atol=1e-15)

    def test_voliso_trace_identity(self):
        # tr sigma = 3 K h'(J) for any F, since the deviatoric part is traceless
        model = ModelSpec.vol_iso(catalog()[4], MU, NU)
        for _ in range(20):
            F = random_F()
            J = np.linalg.det(F)
            s = cauchy_stress(model, F)
            assert s.mean_stress == pytest.approx(K_REF * evaluate(model.volfun, J).hp, rel=1e-12)

    def test_voliso_uniaxial_deviator(self):
        # diag(lam, lamT, lamT): the deviator of sigma is mu/J times dev of
        # J^(-2/3) c, diagonal with entries
        # (2(lam^2-lamT^2), lamT^2-lam^2, lamT^2-lam^2) * J^(-2/3)/3
        lam, lamT = 1.7, 0.8
        J = lam * lamT**2
        s = cauchy_stress(ModelSpec.vol_iso(catalog()[4], MU, NU), np.diag([lam, lamT, lamT]))
        pref = MU / J * J ** (-2.0 / 3.0) / 3.0
        expected = pref * np.diag([2 * (lam**2 - lamT**2), lamT**2 - lam**2, lamT**2 - lam**2])
        np.testing.assert_allclose(s.cauchy - s.mean_stress * I3, expected, rtol=1e-13, atol=1e-15)

    def test_voliso_plane_strain_deviator(self):
        # diag(lam, 1, lamT): diagonal deviator entries
        # (2lam^2-1-lamT^2, 2-lam^2-lamT^2, 2lamT^2-lam^2-1) * mu J^(-5/3)/3
        lam, lamT = 1.4, 0.75
        J = lam * lamT
        s = cauchy_stress(ModelSpec.vol_iso(catalog()[7], MU, NU), np.diag([lam, 1.0, lamT]))
        pref = MU / J * J ** (-2.0 / 3.0) / 3.0
        expected = pref * np.diag(
            [2 * lam**2 - 1 - lamT**2, 2 - lam**2 - lamT**2, 2 * lamT**2 - lam**2 - 1]
        )
        np.testing.assert_allclose(s.cauchy - s.mean_stress * I3, expected, rtol=1e-13, atol=1e-15)

    def test_stress_measure_relations(self):
        model = ModelSpec.mixed(catalog()[2], MU, NU)
        F = random_F()
        J = np.linalg.det(F)
        s = cauchy_stress(model, F)
        np.testing.assert_allclose(s.kirchhoff, J * s.cauchy, rtol=1e-14)
        np.testing.assert_allclose(s.first_pk @ F.T, s.kirchhoff, rtol=1e-12, atol=1e-13)

    def test_isotropy(self):
        for vid in (1, 6, 7):
            vf = catalog()[vid]
            for model in (ModelSpec.mixed(vf, MU, NU), ModelSpec.vol_iso(vf, MU, NU)):
                F = random_F()
                Q = random_rotation()
                s = cauchy_stress(model, F).cauchy
                sq = cauchy_stress(model, Q @ F).cauchy
                np.testing.assert_allclose(sq, Q @ s @ Q.T, rtol=0, atol=1e-10)

    def test_energy_gradient_consistency(self):
        # first P-K from central differences of W against the closed form
        vf = catalog()[3]
        for model in (ModelSpec.mixed(vf, MU, NU), ModelSpec.vol_iso(vf, MU, NU)):
            for _ in range(5):
                F = random_F()
                P = cauchy_stress(model, F).first_pk
                P_fd = fd_first_pk(model, F)
                np.testing.assert_allclose(P_fd, P, rtol=0, atol=1e-6 * max(1.0, np.abs(P).max()))

    def test_energy_gradient_consistency_incompressible(self):
        # the chosen energy convention reproduces mu(c - I) - p I exactly
        # on the J = 1 manifold
        model = ModelSpec.incompressible(MU)
        for _ in range(5):
            F = random_F()
            F = F / np.linalg.det(F) ** (1.0 / 3.0)
            p = 0.7 * MU
            P = cauchy_stress(model, F, p=p).first_pk
            P_fd = fd_first_pk(model, F, p=p)
            np.testing.assert_allclose(P_fd, P, rtol=0, atol=1e-6 * max(1.0, np.abs(P).max()))

    def test_valanis_landel_split_on_isochoric_states(self):
        # at J = 1 the incompressible energy is a sum over principal
        # stretches, mu (lam_k^2 - 1)/2 each
        model = ModelSpec.incompressible(MU)
        lams = np.array([1.7, 0.9, 1.0 / (1.7 * 0.9)])
        F = np.diag(lams)
        expect = sum(0.5 * MU * (lk**2 - 1.0) for lk in lams)
        assert energy(model, F, p=0.123) == pytest.approx(expect, rel=1e-14)


class TestLinearStress:
    def test_spherical_strain(self):
        prm = params_from_mu_nu(MU, NU)
        alpha = 0.002
        eps = (alpha / 3.0) * I3
        for dec in (False, True):
            np.testing.assert_allclose(
                linear_stress(prm, eps, decoupled=dec), K_REF * alpha * I3, rtol=1e-14
            )

    def test_coupled_equals_decoupled(self):
        prm = params_from_mu_nu(MU, NU)
        for _ in range(10):
            eps = 1e-3 * rng.standard_normal((3, 3))
            a = linear_stress(prm, eps, decoupled=False)
            b = linear_stress(prm, eps, decoupled=True)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14 * max(1.0, np.abs(a).max()))

    def test_small_strain_limit_of_both_kinds(self):
        # finite-strain stress at F = I + eps matches the linear law to
        # first order for every volumetric function
        prm = params_from_mu_nu(MU, NU)
        eps = 1e-6 * sym_rand()
        for vid, vf in catalog().items():
            for model in (ModelSpec.mixed(vf, MU, NU), ModelSpec.vol_iso(vf, MU, NU)):
                s = cauchy_stress(model, I3 + eps).cauchy
                lin = linear_stress(prm, eps)
                np.testing.assert_allclose(s, lin, rtol=0, atol=1e-4 * np.abs(lin).max())


def sym_rand():
    a = rng.standard_normal((3, 3))
    return 0.5 * (a + a.T)
