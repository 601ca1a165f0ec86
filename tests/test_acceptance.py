"""The acceptance suite: one numbered criterion per check, stated tolerances.

Each test carries the ``acceptance`` marker; the conftest hook turns the
results into a one-line-per-criterion summary at the end of the run. The
criteria exercise the package end to end -- CLI table generation, closed
forms, finite-difference consistency, stability scans and the dilatation
curves -- at the tolerances they state.
"""

import csv
import math
import time

import numpy as np
import pytest

from nhcomp import cli
from nhcomp import homsolve as hs
from nhcomp.kinematics import rate_from_motion
from nhcomp.materials import (
    ModelSpec,
    cauchy_stress,
    energy,
    linear_stress,
    params_from_mu_nu,
)
from nhcomp.stability import (
    _letters,
    csp_contraction,
    detA_identity,
    find_csp_violation,
    find_hill_violation,
    min_coaxial_eig,
    quad_form_E,
    stretch_grid,
    tangent_fd_error,
    tangents,
)
from nhcomp.tensor3 import fnorm, quad_form, sym, sym_outer, voigt_mat, voigt_strain_vec
from nhcomp.volfun import catalog

I3 = np.eye(3)
CAT = catalog()
ALL_VIDS = tuple(sorted(CAT))
KINDS = ("mixed", "voliso")


def criterion(number, title):
    return pytest.mark.acceptance(criterion=number, title=title)


def _model(kind, vid, mu=1.0, nu=0.3):
    return ModelSpec(kind, CAT[vid], params_from_mu_nu(mu, nu))


def _random_F(rng, spread=0.4, floor=0.4):
    while True:
        F = I3 + spread * rng.standard_normal((3, 3))
        if np.linalg.det(F) > floor:
            return F


# --------------------------------------------------------------------------
# criterion 1


@criterion(1, "volfun audit reproduces all 40 catalog cells in under 1 s")
def test_criterion_01_volfun_audit(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "audit.csv"
    assert cli.main(["audit-volfun", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start

    with open(out) as fh:
        rows = {r["volfun"]: r for r in csv.DictReader(fh)}
    assert len(rows) == 8
    columns = ("normalized", "sign_of_hp", "convex", "chi_positive", "diverges")
    expected = {vid: {c: "1" for c in columns} for vid in "12345678"}
    expected["1"]["convex"] = "0"
    expected["7"]["chi_positive"] = "0"
    expected["7"]["diverges"] = "0"
    for vid in "12345678":
        for c in columns:
            assert rows[vid][c] == expected[vid][c], (vid, c)
    assert float(rows["1"]["witness"]) >= math.e
    assert elapsed < 1.0, f"audit took {elapsed:.2f} s"


# --------------------------------------------------------------------------
# criterion 2


@pytest.fixture(scope="module")
def table_runs(tmp_path_factory):
    """The three table reproductions, parsed, plus the total wall time."""
    out = {}
    root = tmp_path_factory.mktemp("tables")
    start = time.perf_counter()
    for table in (3, 4, 6):
        path = root / f"table{table}.csv"
        assert cli.main(["table-repro", "--table", str(table), "--out", str(path)]) == 0
        with open(path) as fh:
            out[table] = list(csv.DictReader(fh))
    out["elapsed"] = time.perf_counter() - start
    return out


def _cells(rows):
    """Group the per-ratio rows back into table cells."""
    cells = {}
    for r in rows:
        key = (r["model"], r["volfun"], r["quantity"], r["direction"])
        cell = cells.setdefault(key, {"expected": r["expected"], "rows": []})
        cell["rows"].append(r)
    return cells


@criterion(2, "limit tables 3/4/6 reproduced cell by cell in under 2 min")
def test_criterion_02_every_classification_cell_matches(table_runs):
    counts = {3: 96, 4: 48, 6: 80}
    for table in (3, 4, 6):
        cells = _cells(table_runs[table])
        assert len(cells) == counts[table]
        for key, cell in cells.items():
            if cell["expected"] == "*":
                continue
            matches = [r["match"] for r in cell["rows"]]
            assert "yes" in matches, (table, key, matches)
    assert table_runs["elapsed"] < 120.0


@criterion(2, "limit tables 3/4/6 reproduced cell by cell in under 2 min")
def test_criterion_02_quadratic_voliso_constants(table_runs):
    for table, factor in ((3, -3.0), (4, -1.5)):
        picked = [
            r
            for r in table_runs[table]
            if r["model"] == "voliso"
            and r["volfun"] == "7"
            and r["quantity"] == "sigma11"
            and r["direction"] == "to_zero"
        ]
        assert len(picked) == 3
        for r in picked:
            K = params_from_mu_nu(1.0, float(r["nu"])).K
            assert r["match"] == "yes"
            assert float(r["constant"]) == pytest.approx(factor * K, rel=0.01)


# The uncorrected reference prints +inf in seven cells whose values are
# pinned by exact identities at the root (sigma11 = 3 K h'(J) with h' -> 1;
# sigma22 = mu J^(-5/3)(1 - lambda_T^2) and P22 = J sigma22 with
# lambda_T -> 0, J -> inf). The corrected classes are asserted above; this
# records that the uncorrected ones are never observed.
_UNCORRECTED_CELLS = [(3, "voliso", "6", "sigma11", "to_infinity")] + [
    (6, "voliso", vid, q, "to_infinity")
    for vid in ("4", "7", "8")
    for q in ("sigma22", "P22")
]


@pytest.mark.xfail(
    strict=True,
    reason="seven uncorrected cells contradict exact root identities;"
    " the corrected classes are asserted in the criterion-2 tests",
)
def test_seven_cells_match_their_uncorrected_classes(table_runs):
    for table, model, vid, quantity, direction in _UNCORRECTED_CELLS:
        observed = {
            r["observed"]
            for r in table_runs[table]
            if (r["model"], r["volfun"], r["quantity"], r["direction"])
            == (model, vid, quantity, direction)
        }
        assert "+inf" in observed, (table, vid, quantity, observed)


# --------------------------------------------------------------------------
# criterion 3


@criterion(3, "incompressible closed forms to 1e-12; ULP tails -> +mu within 0.1%")
def test_criterion_03_incompressible_closed_forms():
    mu = 1.7

    def close(got, want):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    for lam in np.logspace(-1.0, 1.0, 41):
        r = hs.solve_incompressible("ul", lam, mu)
        close(r.lambda_T, lam**-0.5)
        close(r.sigma11, mu * (lam**2 - 1.0 / lam))
        close(r.P11, mu * (lam - lam**-2))
        assert r.sigma22 == 0.0 and r.P22 == 0.0

        r = hs.solve_incompressible("elp", lam, mu)
        close(r.lambda_T, lam**-2)
        close(r.sigma11, mu * (lam**2 - lam**-4))
        close(r.sigma22, mu * (lam**2 - lam**-4))
        close(r.P11, mu * (lam - lam**-5))
        close(r.P22, mu * (lam - lam**-5))

        r = hs.solve_incompressible("ulp", lam, mu)
        close(r.lambda_T, 1.0 / lam)
        close(r.sigma11, mu * (lam**2 - lam**-2))
        close(r.sigma22, mu * (1.0 - lam**-2))
        close(r.P11, mu * (lam - lam**-3))
        close(r.P22, mu * (1.0 - lam**-2))

    tail = hs.solve_incompressible("ulp", 1e4, mu)
    assert abs(tail.sigma22 - mu) <= 1e-3 * mu
    assert abs(tail.P22 - mu) <= 1e-3 * mu


# --------------------------------------------------------------------------
# criterion 4


@criterion(4, "nu = 0.4999 sweeps track the incompressible curves within 1%")
def test_criterion_04_slight_compressibility_convergence():
    grid = hs.SweepSpec(0.5, 2.0, 16).grid()
    for case in hs.CASES:
        reference = [hs.solve_incompressible(case, lam) for lam in grid]
        for kind in KINDS:
            for vid in ALL_VIDS:
                model = _model(kind, vid, nu=0.4999)
                results = hs.sweep(case, model, grid)
                for res, ref in zip(results, reference):
                    assert res.converged
                    for name in ("lambda_T", "sigma11", "P11"):
                        got, want = getattr(res, name), getattr(ref, name)
                        assert abs(got - want) <= 0.01 * abs(want), (
                            case,
                            kind,
                            vid,
                            name,
                        )


# --------------------------------------------------------------------------
# criterion 5


@criterion(5, "mixed-quadratic roots agree with the radical formulas to 1e-10")
def test_criterion_05_quadratic_oracle_equivalence():
    for nu in (0.25, 0.45):
        params = params_from_mu_nu(1.0, nu)
        model = ModelSpec("mixed", CAT[7], params)
        for case in hs.CASES:
            for lam in np.logspace(-1.0, 1.0, 21):
                radical = hs.closed_form_quadratic_mixed(case, lam, params)
                solved = hs.solve(case, model, lam)
                assert solved.converged
                assert abs(solved.lambda_T - radical) <= 1e-10 * radical


# --------------------------------------------------------------------------
# criterion 6


@criterion(6, "Cauchy stress matches the FD energy gradient (1e-6, 100 F per model)")
def test_criterion_06_energy_gradient_consistency():
    step = 1e-6

    def fd_first_pk(model, F, p=None):
        P = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += step
                Fm[i, j] -= step
                P[i, j] = (energy(model, Fp, p) - energy(model, Fm, p)) / (2 * step)
        return P

    models = [_model(kind, vid, mu=1.3, nu=0.3) for kind in KINDS for vid in ALL_VIDS]
    for index, model in enumerate(models):
        rng = np.random.default_rng(5000 + index)
        for _ in range(100):
            F = _random_F(rng)
            got = cauchy_stress(model, F).first_pk
            want = fd_first_pk(model, F)
            scale = max(float(np.abs(want).max()), model.params.mu)
            assert float(np.abs(got - want).max()) <= 1e-6 * scale


# --------------------------------------------------------------------------
# criterion 7


@criterion(7, "small-strain stresses match the linear model; both linear forms agree")
def test_criterion_07_linearization_consistency():
    rng = np.random.default_rng(7321)
    for kind in KINDS:
        for vid in ALL_VIDS:
            model = _model(kind, vid, mu=1.0, nu=0.3)
            for _ in range(10):
                eps = sym(rng.standard_normal((3, 3)))
                eps *= 1e-6 / fnorm(eps)
                nonlinear = cauchy_stress(model, I3 + eps).cauchy
                linear = linear_stress(model.params, eps)
                assert fnorm(nonlinear - linear) <= 1e-4 * fnorm(linear)

    for _ in range(100):
        params = params_from_mu_nu(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 0.49)))
        eps = sym(rng.standard_normal((3, 3)))
        coupled = linear_stress(params, eps)
        decoupled = linear_stress(params, eps, decoupled=True)
        assert fnorm(coupled - decoupled) <= 1e-14 * fnorm(coupled)


# --------------------------------------------------------------------------
# criterion 8


@criterion(8, "rate forms match FD motions (1e-6); BH tangent shift holds exactly")
def test_criterion_08_rate_forms_follow_fd_motions():
    from nhcomp.stability import zj_rate

    h = 1e-5
    rng = np.random.default_rng(8111)
    for kind, vid in (("mixed", 2), ("mixed", 7), ("voliso", 3), ("voliso", 8)):
        model = _model(kind, vid, nu=0.3)
        for _ in range(10):
            F0 = _random_F(rng, spread=0.3)
            Fdot = 0.5 * rng.standard_normal((3, 3))
            state, rate = rate_from_motion(F0, Fdot)
            tau_p = cauchy_stress(model, F0 + h * Fdot).kirchhoff
            tau_m = cauchy_stress(model, F0 - h * Fdot).kirchhoff
            tau_dot = (tau_p - tau_m) / (2.0 * h)
            tau = cauchy_stress(model, F0).kirchhoff
            fd = tau_dot - rate.w @ tau + tau @ rate.w
            got = zj_rate(model, state, rate)
            scale = max(fnorm(fd), model.params.mu)
            assert fnorm(got - fd) <= 1e-6 * scale, (kind, vid)


@criterion(8, "rate forms match FD motions (1e-6); BH tangent shift holds exactly")
def test_criterion_08_tangent_contraction_and_bh_shift():
    rng = np.random.default_rng(8222)
    for kind in KINDS:
        for vid in ALL_VIDS:
            model = _model(kind, vid, nu=0.3)
            assert tangent_fd_error(model, n_motions=10) < 1e-6, (kind, vid)

    for kind, vid in (("mixed", 1), ("mixed", 7), ("voliso", 4), ("voliso", 8)):
        model = _model(kind, vid, nu=0.3)
        for _ in range(5):
            F = _random_F(rng, spread=0.3)
            state, _ = rate_from_motion(F, np.zeros((3, 3)))
            pair = tangents(model, state)
            sigma = cauchy_stress(model, F).cauchy
            shifted = pair.c_tr + sym_outer(I3, sigma) + sym_outer(sigma, I3)
            scale = float(np.abs(pair.c_bh).max()) + model.params.mu
            assert float(np.abs(pair.c_bh - shifted).max()) <= 1e-14 * scale


# --------------------------------------------------------------------------
# criterion 9


@criterion(9, "Hill positivity on 1e4 states, #7 violations, CSP witnesses (< 1 min)")
def test_criterion_09_stability_postulates():
    start = time.perf_counter()

    # (a) chi > 0 catalog members: the Hill form stays positive everywhere
    grid = stretch_grid(22)
    assert grid.shape[0] >= 10_000
    chi_positive = (1, 2, 3, 4, 5, 6, 8)
    for kind in KINDS:
        for vid in chi_positive:
            for nu in (0.0, 0.25, 0.45, 0.4999):
                params = params_from_mu_nu(1.0, nu)
                value, _, _ = min_coaxial_eig(kind, CAT[vid], params, grid, "hill")
                assert value > 0.0, (kind, vid, nu, value)

    # (b) the quadratic member violates Hill in strong compression
    for kind in KINDS:
        witness = find_hill_violation(kind, CAT[7])
        assert witness is not None
        assert witness.J < 0.5
        assert witness.value < 0.0

    # (c) the spherical-rate witness at lambda = 2, nu = 0
    model = ModelSpec("mixed", CAT[1], params_from_mu_nu(1.0, 0.0))
    F = 2.0 * I3
    state, rate = rate_from_motion(F, F.copy())  # l = I, a pure spherical rate
    report = csp_contraction(model, state, rate)
    assert report.value == pytest.approx(-0.375, rel=1e-12)
    assert report.verdict == "negative"

    # (d) every compressible catalog model admits a CSP violation
    for kind in KINDS:
        for vid in ALL_VIDS:
            witness = find_csp_violation(kind, CAT[vid], n=12)
            assert witness is not None, (kind, vid)
            assert witness.value < 0.0

    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# criterion 10


@criterion(10, "quadratic-form identities: sum of squares, det A, A = 2|F^T d|^2")
def test_criterion_10_quadratic_form_identities():
    rng = np.random.default_rng(10400)

    # sum-of-squares form vs expanded polynomial; the helper itself raises
    # beyond 1e-10 relative disagreement
    for _ in range(10_000):
        lams = np.exp(rng.uniform(-1.5, 1.5, 3))
        dots = rng.standard_normal(3)
        assert quad_form_E(lams, dots) >= 0.0

    # exact vanishing on the proportional ray (power-of-two stretches make
    # every division exact, so the squares cancel bit for bit)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert quad_form_E((2.0, 1.0, 4.0), (2.0 * t, t, 4.0 * t)) == 0.0
    for _ in range(100):
        lams = np.exp(rng.uniform(-1.0, 1.0, 3))
        t = float(rng.uniform(0.1, 3.0))
        value = quad_form_E(lams, t * lams)
        assert value <= 1e-26 * float(t * t * (lams**2).sum())

    # det A == (b - ac)^2
    for _ in range(1_000):
        a, b, c = np.exp(rng.uniform(-2.0, 2.0, 3))
        det, square = detA_identity(a, b, c)
        assert abs(det - square) <= 1e-12 * max(1.0, (a * c + b) ** 2)

    # the full coaxial form A equals 2 |F^T d|^2
    for _ in range(200):
        F = _random_F(rng)
        d = sym(rng.standard_normal((3, 3)))
        state, _ = rate_from_motion(F, np.zeros((3, 3)))
        P, R, _, _, _ = _letters(state, d)
        direct = 2.0 * float(np.tensordot(F.T @ d, F.T @ d, axes=2))
        assert abs(P + R - direct) <= 1e-11 * direct


# --------------------------------------------------------------------------
# criterion 11


@criterion(11, "planar-coupling quadratic form agrees on tensor and Voigt paths")
def test_criterion_11_tensor_and_voigt_paths():
    rng = np.random.default_rng(11003)
    n1n1 = np.diag([1.0, 0.0, 0.0])
    n2n2 = np.diag([0.0, 1.0, 0.0])
    for _ in range(1_000):
        s1, s2 = rng.uniform(0.2, 3.0, 2)
        h12 = float(rng.standard_normal())
        X = (s1 + s2) * (sym_outer(n1n1, n2n2) + sym_outer(n2n2, n1n1))
        H = np.zeros((3, 3))
        H[0, 1] = H[1, 0] = h12
        expected = 2.0 * h12 * h12 * (s1 + s2)
        tensor_path = quad_form(X, H)
        v = voigt_strain_vec(H)
        voigt_path = float(v @ voigt_mat(X) @ v)
        assert tensor_path == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert voigt_path == pytest.approx(expected, rel=1e-12, abs=1e-300)


# --------------------------------------------------------------------------
# criterion 12


@criterion(12, "dilatation curve equals the mean stress (1e-12); vol-iso #7 -> -K")
def test_criterion_12_dilatation_curves():
    mu, nu = 2.53, 0.34
    for kind in KINDS:
        for vid in ALL_VIDS:
            model = _model(kind, vid, mu=mu, nu=nu)
            for k in np.linspace(0.5, 1.5, 101):
                sm = hs.dilatation_response(model, float(k))
                ms = cauchy_stress(model, float(k) * I3).mean_stress
                assert abs(sm - ms) <= 1e-12 * (abs(ms) + mu), (kind, vid, k)

    # the quadratic vol-iso member compresses to a finite mean stress -K
    model = _model("voliso", 7, mu=mu, nu=nu)
    K = model.params.K
    gaps = [abs(hs.dilatation_response(model, k) + K) for k in (0.2, 0.1, 0.02)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-5 * K
