"""Properties of the transverse-equilibrium solver over random models.

Each example draws a compressible kind, a volumetric function (a catalog
member, ``hn:q`` or ``ogden:beta``), a Poisson ratio admissible for the
kind, a load case, and axial stretches log-uniform in [1e-3, 1e3] (in
[1e-6, 1e6], the range ``limit_probe`` reaches, for the modulus scale).
The properties are the contract of a ``converged=true`` row and of the
continuation in ``sweep``:

* the row is an equilibrium by the benchmark's rule;
* the eliminated stresses vanish through the full tensor path, and the
  reported sigma22, P11 and P22 are its stresses;
* continuation equals an independent solve wherever the scan found one root;
* the modulus enters only as a power-of-two scale of every stress.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from nhcomp import homsolve as hs
from nhcomp._kernels import load_case
from nhcomp.materials import ModelSpec, cauchy_stress, params_from_mu_nu
from nhcomp.volfun import VolFun, catalog

FIELDS = ("lambda_T", "J", "sigma11", "sigma22", "P11", "P22", "residual")
SCALED = ("sigma11", "sigma22", "P11", "P22", "residual")


def volfuns():
    cat = catalog()
    return hst.one_of(
        hst.sampled_from(sorted(cat)).map(cat.__getitem__),
        hst.floats(0.0, 6.0).map(VolFun.power_pair),
        hst.tuples(hst.floats(0.1, 4.0), hst.sampled_from((-1.0, 1.0))).map(
            lambda t: VolFun.log_augmented(t[0] * t[1])
        ),
    )


@hst.composite
def models(draw, mu=hst.floats(0.5, 4.0)):
    kind = draw(hst.sampled_from(("mixed", "voliso")))
    low = 0.0 if kind == "mixed" else -0.99
    # a subnormal nu is rejected (its lam would be subnormal)
    nus = hst.floats(low, 0.4999, allow_subnormal=False)
    nu = draw(hst.one_of(hst.sampled_from((0.0, 0.25, 0.45, 0.4999)), nus))
    return ModelSpec(kind, draw(volfuns()), params_from_mu_nu(draw(mu), nu))


stretches = hst.floats(-3.0, 3.0).map(lambda x: 10.0**x)
# the stretches limit_probe reaches
probe_stretches = hst.floats(-6.0, 6.0).map(lambda x: 10.0**x)
cases = hst.sampled_from(hs.CASES)


def solved(case, model, lam):
    try:
        return hs.solve(case, model, lam)
    except hs.SolveError:
        return None


def bits(result, scale=0):
    """The bytes of a result's floats, those in ``SCALED`` times 2^scale."""
    with np.errstate(all="ignore"):
        values = [
            np.ldexp(getattr(result, f), scale if f in SCALED else 0) for f in FIELDS
        ]
    return np.array(values).tobytes(), result.converged, result.warning


@settings(max_examples=150)
@given(model=models(), case=cases, lam=stretches)
def test_a_converged_row_is_an_equilibrium(model, case, lam):
    r = solved(case, model, lam)
    assume(r is not None and r.converged)
    prm = model.params
    with np.errstate(all="ignore"):
        res = hs.residual(case, model, lam, r.lambda_T)
        lo = hs.residual(case, model, lam, r.lambda_T * (1.0 - 1e-9))
        hi = hs.residual(case, model, lam, r.lambda_T * (1.0 + 1e-9))
    assert abs(res) <= 1e-12 * (prm.mu + prm.lam + prm.K) or np.sign(lo) * np.sign(hi) <= 0.0


@settings(max_examples=150)
@given(model=models(), case=cases, lam=stretches)
# both are converged roots whose tensor-path sigma33 exceeds 1e-10 (|sigma11| + mu)
# but stays within a few times the rounding noise of cauchy_stress
@example(ModelSpec.vol_iso(catalog()[7], 1.0, 0.0), "ul", 1e-3)
@example(ModelSpec.vol_iso(catalog()[7], 1.0202840608681036, 0.25), "elp", 0.0012106301729350667)
def test_eliminated_stresses_vanish_through_the_tensor_path(model, case, lam):
    r = solved(case, model, lam)
    assume(r is not None and r.converged)
    F = hs.case_F(case, lam, r.lambda_T)
    sig = cauchy_stress(model, F).cauchy
    # the rounding noise of the tensor path: its shear factor (mu/J mixed,
    # mu J^(-5/3) vol-iso) times one ulp of the largest squared stretch, as
    # in the solver's own cross-check
    mu, J = model.params.mu, r.J
    shear = mu / J if model.kind == "mixed" else mu * J ** (-5.0 / 3.0)
    noise = shear * np.spacing(max(lam, r.lambda_T) ** 2)
    bound = 1e-10 * (abs(r.sigma11) + mu) + 8.0 * noise
    for i in (2, 1)[: load_case(case).m]:  # the case's free axes: 3, and 2 where m = 2
        assert abs(sig[i, i]) <= bound
    # the reported stresses are the tensor path's, with P = J sigma F^-T; the
    # closed forms drop the eliminated stress, which the tensor path keeps
    # within the bound, so the two may differ by twice the bound
    assert abs(r.sigma22 - sig[1, 1]) <= 2.0 * bound
    for P, i in ((r.P11, 0), (r.P22, 1)):
        assert abs(P - J * sig[i, i] / F[i, i]) <= 2.0 * bound * J / F[i, i]


@settings(max_examples=60)
@given(model=models(), case=cases, lams=hst.lists(stretches, min_size=2, max_size=6))
def test_continuation_equals_an_independent_solve_at_a_single_root(model, case, lams):
    for lam, r in zip(lams, hs.sweep(case, model, lams)):
        if r.warning == "":
            assert bits(r) == bits(hs.solve(case, model, lam))


@settings(max_examples=60)
@given(
    model=models(mu=hst.floats(0.5, 1.0, exclude_max=True)),
    e=hst.integers(-1000, 1000),
    case=cases,
    lams=hst.lists(probe_stretches, min_size=1, max_size=4),
)
# mu = 1e300 and 1e-300: unscaled, the residual overflows (underflows)
# across the whole scan at the limit probe lam = 1e-6
@example(ModelSpec.vol_iso(catalog()[2], 0.7466108948025751, 0.3), 997, "ul", [1e-6])
@example(ModelSpec.vol_iso(catalog()[2], 0.6696928794914171, 0.3), -996, "ul", [1e-6, 1e6])
def test_sweep_scales_exactly_with_a_power_of_two_modulus(model, e, case, lams):
    # lam and K of mu = m 2^e are those of m times 2^e, so every stress is
    # the mantissa run's times 2^e, bit for bit, and lamT, J and the
    # converged flag are the same; a stress past the float range is +-inf
    prm = model.params
    try:
        params = params_from_mu_nu(math.ldexp(prm.mu, e), prm.nu)
        big = ModelSpec(model.kind, model.volfun, params)
    except ValueError:  # a constant beyond the float range
        assume(False)
    assume(params.lam == math.ldexp(prm.lam, e) and params.K == math.ldexp(prm.K, e))
    for got, ref in zip(hs.sweep(case, big, lams), hs.sweep(case, model, lams)):
        assert bits(got) == bits(ref, e)
