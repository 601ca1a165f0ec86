"""The array kernels agree with the scalar closed forms they are built from."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from nhcomp import _kernels as _k
from nhcomp import homsolve as hs
from nhcomp.volfun import VolFun, catalog, evaluate_grid

# the catalog covers all four families; (0, 5e-9) takes the power pair's
# (ln J)^2 / 2 branch below q = 1e-8 with a nonzero parameter
_FAMILIES = [(vf.family, vf.par) for vf in catalog().values()] + [(_k.FAMILY_HN, 5e-9)]


def _volumetric_term_reference(kind, family, par, J):
    # the per-call branch chain that residual_fn's closures replace
    mixed = kind == "mixed"
    if family in (_k.FAMILY_HN, _k.FAMILY_OGDEN) and abs(par) < 1e-8:
        lnJ = np.log(J)
        return lnJ if mixed else lnJ / J
    if family == _k.FAMILY_HN:
        q = par
        Jq = J**q
        Jmq = 1.0 / Jq
        return (Jq - Jmq) / (2.0 * q) if mixed else (Jq - Jmq) / (2.0 * q * J)
    if family == _k.FAMILY_OGDEN:
        b = par
        Jmb = J ** (-b)
        return (1.0 - Jmb) / b if mixed else (1.0 / J - Jmb / J) / b
    if family == _k.FAMILY_QUADRATIC:
        return J * (J - 1.0) if mixed else J - 1.0
    lnJ = np.log(J)
    e = np.exp(lnJ * lnJ)
    return e * lnJ if mixed else e * lnJ / J


def _transverse_residual_reference(kind, family, par, case, lam, mu, lame_lambda, K, lamT):
    # the residual as one function of every argument, re-resolving the kind,
    # family and case at each point; the oracle for residual_fn's closures
    if case == "ul":
        J = lam * lamT * lamT
    elif case == "elp":
        J = lam * lam * lamT
    else:
        J = lam * lamT
    vol = _volumetric_term_reference(kind, family, par, J)
    if kind == "mixed":
        return lame_lambda * vol - mu * (1.0 - lamT * lamT)
    if case == "ul":
        g = lamT * lamT - lam * lam
    elif case == "elp":
        g = 2.0 * (lamT * lamT - lam * lam)
    else:
        g = 2.0 * lamT * lamT - 1.0 - lam * lam
    return K * vol + (mu / 3.0) * J ** (-5.0 / 3.0) * g


def _outcome(f, x):
    # the hex bits of f(x), or the class of the ArithmeticError it raises
    try:
        return float(f(x)).hex()
    except ArithmeticError as exc:
        return type(exc)


# a power pair and a log-augmented function whose powers leave the float
# range, or underflow to 0, inside the lamT range below
_RAISING = [(_k.FAMILY_HN, 1000.0), (_k.FAMILY_OGDEN, -400.0)]


@pytest.mark.parametrize("kind", ("mixed", "voliso"), ids=("0", "1"))
@pytest.mark.parametrize("case", hs.CASES, ids=("0", "1", "2"))
def test_residual_fn_matches_the_reference_bit_for_bit(kind, case):
    # mu, lambda, K of mu = 1, nu = 0.3
    consts = (1.0, 1.5, 2.1666666666666665)
    lamTs = np.logspace(-12, 12, 97)
    # J = 0 (underflow) and a J^(-5/3) past the float range, at lam = 1e-6
    extremes = np.array([1e-200, 1e-170, 1e-120])
    n_raised = 0
    for family, par in _FAMILIES + _RAISING:
        for lam in (1e-6, 0.3, 1.7, 1e6):
            args = (kind, family, par, case, lam, *consts)
            python_lane = _k.residual_fn(*args, scalar=True)
            numpy_lane = _k.residual_fn(*args)
            with np.errstate(all="ignore"):
                for x in np.concatenate([lamTs, extremes]):
                    want = _transverse_residual_reference(*args, x)
                    assert numpy_lane(x).hex() == want.hex(), (family, par, lam, x)
                    got = _outcome(python_lane, float(x))
                    if isinstance(got, type):
                        # bisect_log evaluates such a point again on the numpy lane;
                        # the reference raises only where the closure does
                        n_raised += 1
                        continue
                    assert got == _outcome(
                        lambda t: _transverse_residual_reference(*args, t), float(x)
                    ), (family, par, lam, x)
                    assert got == want.hex()
                got = numpy_lane(lamTs)
                want = _transverse_residual_reference(*args, lamTs)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert n_raised > 0


@pytest.mark.parametrize("family, par", _FAMILIES)
def test_h_grid_agrees_with_h_tuple_within_4_ulp(family, par):
    # array ** may round the last bit differently from the scalar power
    Js = np.logspace(-6, 6, 241)
    out = evaluate_grid(VolFun(family, par, "grid"), Js)
    want = np.array([_k.h_tuple(family, par, float(J)) for J in Js])
    np.testing.assert_array_max_ulp(out, want, maxulp=4)


# ids are the positions in each tuple, which keeps the test ids stable
@pytest.mark.parametrize("kind", ("mixed", "voliso"), ids=("0", "1"))
@pytest.mark.parametrize("case", hs.CASES, ids=("0", "1", "2"))
def test_residual_scan_signs_match_scalar(kind, case):
    # mu, lambda, K of mu = 1, nu = 0.3
    mu, lame, K = 1.0, 1.5, 2.1666666666666665
    n, u_lo, u_hi = 201, math.log(1e-9), math.log(1e9)
    du = (u_hi - u_lo) / (n - 1)
    for family, par in _FAMILIES:
        for lam in (0.3, 1.7):
            with np.errstate(all="ignore"):
                _, out = _k.residual_scan(kind, family, par, case, lam, mu, lame, K, u_lo, u_hi, n)
                want = np.array(
                    [
                        _transverse_residual_reference(
                            kind, family, par, case, lam, mu, lame, K, np.exp(u_lo + du * k)
                        )
                        for k in range(n)
                    ]
                )
            np.testing.assert_array_equal(np.isnan(out), np.isnan(want))
            clear = np.abs(want) >= 1e-12
            np.testing.assert_array_equal(np.sign(out[clear]), np.sign(want[clear]))


def _sign_brackets_loop(us, fs):
    # the pointwise definition the vectorised helper replaces
    out = []
    for i in range(len(us) - 1):
        a, b = fs[i], fs[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            out.append((us[i], us[i], a))
        elif b != 0.0 and (a > 0.0) != (b > 0.0):
            out.append((us[i], us[i + 1], a))
    if len(fs) and fs[-1] == 0.0:
        out.append((us[-1], us[-1], 0.0))
    return out


@pytest.mark.parametrize(
    "fs",
    [
        [],
        [0.0],
        [1.0, 2.0, 3.0],
        [1.0, -1.0, -2.0, 3.0, math.inf, -math.inf],
        [math.nan, 1.0, -1.0, math.nan, -2.0, 2.0, math.nan],
        [2.0, 0.0, -3.0, math.nan],
        [-1.0, 0.0, 0.0, 1.0, -0.0, -4.0],
        [1.0, math.nan, 0.0, -1.0, 0.0],
        [1.0, 0.0, math.nan, -1.0],
        [3.0, -3.0, 0.0],
        [math.nan, 0.0],
    ],
)
def test_sign_brackets_matches_the_loop(fs):
    fs = np.array(fs, dtype=float)
    us = np.linspace(-1.0, 1.0, fs.size)
    got = hs._sign_brackets(us, fs)
    want = _sign_brackets_loop(us, fs)
    assert got == want
    assert [tuple(map(type, br)) for br in got] == [tuple(map(type, br)) for br in want]


def _typed_bits(brackets):
    # type and exact bits of every entry, so -0.0 and 0.0 differ
    return [tuple((type(v), np.float64(v).tobytes()) for v in br) for br in brackets]


_SPECIALS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0, -1.0, 1e300, -1e300)


@given(fs=hst.lists(hst.sampled_from(_SPECIALS), max_size=60))
@example(fs=[1.0, -1.0, 0.0])  # a zero at the last point
@example(fs=[1.0, 0.0, math.nan, -1.0])  # a zero just before a NaN
@example(fs=[1.0, math.nan, math.nan, -1.0, math.nan, 1.0])  # NaN runs between opposite signs
def test_sign_brackets_equals_the_loop_in_types_and_bits(fs):
    fs = np.array(fs, dtype=float)
    us = np.linspace(-1.0, 1.0, fs.size)
    got = hs._sign_brackets(us, fs)
    assert _typed_bits(got) == _typed_bits(_sign_brackets_loop(us, fs))


def _sign_brackets_by_product(us, fs):
    # the np.sign-product form that the boolean masks replaced
    s = np.sign(fs)  # NaN stays NaN, and NaN * x < 0 is False
    zero = (fs[:-1] == 0.0) & ~np.isnan(fs[1:])
    idx = np.flatnonzero(zero | (s[:-1] * s[1:] < 0.0))
    ends = np.where(zero[idx], idx, idx + 1)
    out = list(zip(us[idx], us[ends], fs[idx]))
    if len(fs) and fs[-1] == 0.0:
        out.append((us[-1], us[-1], 0.0))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_sign_brackets_masks_match_the_sign_product(seed):
    rng = np.random.default_rng(seed)
    specials = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf])
    for size in (*range(7), 33, 2001):
        for _ in range(20):
            fs = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
            hit = rng.random(size) < 0.3
            fs[hit] = rng.choice(specials, size=hit.sum())
            if size and rng.random() < 0.5:  # zeros at the first and last point
                fs[[0, -1]] = rng.choice(specials[1:3], size=2)
            if size > 3 and rng.random() < 0.5:  # a run of adjacent zeros
                k = rng.integers(size - 2)
                fs[k : k + 3] = rng.choice(specials[1:3], size=3)
            us = np.linspace(-1.0, 1.0, size)
            got = hs._sign_brackets(us, fs)
            assert _typed_bits(got) == _typed_bits(_sign_brackets_by_product(us, fs))


def _sign_brackets_flatnonzero(us, fs):
    # the body before the candidate mask was built in place
    pos = fs > 0.0
    out = []
    for i in np.flatnonzero((pos[:-1] != pos[1:]) | (fs[:-1] == 0.0)).tolist():
        a, b = fs[i], fs[i + 1]
        if a != a or b != b:  # NaN
            continue
        if a == 0.0:
            out.append((us[i], us[i], a))
        elif b != 0.0 and (a > 0.0) != (b > 0.0):
            out.append((us[i], us[i + 1], a))
    if len(fs) and fs[-1] == 0.0:
        out.append((us[-1], us[-1], 0.0))
    return out


@given(
    fs=hst.lists(hst.one_of(hst.sampled_from(_SPECIALS), hst.floats()), max_size=200),
    zero_last=hst.booleans(),
)
@example(fs=[1.0, -1.0], zero_last=True)
@example(fs=[0.0, -0.0, math.nan, math.inf, -math.inf], zero_last=False)
def test_sign_brackets_equals_the_flatnonzero_body_in_types_and_bits(fs, zero_last):
    if zero_last:
        fs = [*fs, 0.0]
    fs = np.array(fs, dtype=float)
    us = np.linspace(-1.0, 1.0, fs.size)
    got = hs._sign_brackets(us, fs)
    assert _typed_bits(got) == _typed_bits(_sign_brackets_flatnonzero(us, fs))


def test_grid_kernel_matches_scalar():
    Js = np.logspace(-2, 2, 57)
    out = evaluate_grid(VolFun(1, -1.0, "grid"), Js)
    for i, J in enumerate(Js):
        np.testing.assert_array_equal(out[i], np.array(_k.h_tuple(1, -1.0, J)))


def test_residual_scan_matches_scalar():
    # array ** may round the last bit differently from the scalar power, so
    # compare tightly but not bitwise
    n = 33
    _, out = _k.residual_scan("mixed", 0, 2.0, "ul", 1.4, 1.0, 2.0, 3.0, -2.0, 2.0, n)
    du = 4.0 / (n - 1)
    for i, got in enumerate(out):
        u = -2.0 + du * i
        args = ("mixed", 0, 2.0, "ul", 1.4, 1.0, 2.0, 3.0)
        want = _transverse_residual_reference(*args, float(np.exp(u)))
        assert got == pytest.approx(want, rel=1e-12)


def test_case_volume_ratio():
    assert hs.volume_ratio("ul", 2.0, 3.0) == 18.0
    assert hs.volume_ratio("elp", 2.0, 3.0) == 12.0
    assert hs.volume_ratio("ulp", 2.0, 3.0) == 6.0


def test_solver_brackets_come_from_the_points_the_scan_evaluated():
    # bisection starts from the grid residual_scan returns, so it must hold
    # exactly the points whose residual the kernel sampled (np.linspace ends
    # an ulp away from that grid)
    args = ("voliso", 1, -0.5, "elp", 0.7, 1.0, 1.5, 2.1666666666666665)
    u_lo, u_hi = math.log(1e-9), math.log(1e9)
    with np.errstate(all="ignore"):  # solve's error state, which the scan runs under
        us, fs = _k.residual_scan(*args, u_lo, u_hi, hs._SCAN_POINTS)
        want = _transverse_residual_reference(*args, np.exp(us))
    np.testing.assert_array_equal(fs, want)
    assert us[0] == u_lo and abs(us[-1] - u_hi) <= 4 * np.spacing(u_hi)


@pytest.mark.parametrize("family, par", _FAMILIES)
def test_volumetric_term_is_its_h_tuple_column_bit_for_bit(family, par):
    # the residual's J h' (mixed) and h' (vol-iso) come from the closed
    # forms of h_tuple term by term, for a numpy scalar, an array and, on
    # the Python-float lane, a Python float
    Js = np.logspace(-6, 6, 241)
    for kind, col in (("mixed", 3), ("voliso", 1)):
        term = _k._volumetric_fn(kind, family, par)
        python_term = _k._volumetric_fn(kind, family, par, scalar=True)
        want = _k.h_tuple(family, par, Js)[col]
        np.testing.assert_array_equal(term(Js), want)
        for J in Js:
            want = _k.h_tuple(family, par, J)[col]
            assert term(J).hex() == want.hex()
            assert python_term(float(J)).hex() == want.hex()


def _bisect_log_numpy(kind, family, par, case, lam, mu, lame_lambda, K, u_a, u_b, f_a, max_iter):
    # the bisection on np.float64 scalars that the Python-float loop replaces
    a = np.float64(u_a)
    b = np.float64(u_b)
    fa = np.float64(f_a)
    it = 0
    while it < max_iter:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        args = (kind, family, par, case, lam, mu, lame_lambda, K)
        fm = _transverse_residual_reference(*args, np.exp(mid))
        if fm == 0.0:
            a = mid
            b = mid
            break
        if (fm > 0.0) == (fa > 0.0):
            a = mid
            fa = fm
        else:
            b = mid
        it += 1
    return 0.5 * (a + b), b - a, it


def _same_bits(got, want):
    u, width, it = got
    u_ref, width_ref, it_ref = want
    return (float(u).hex(), float(width).hex(), it) == (
        float(u_ref).hex(),
        float(width_ref).hex(),
        it_ref,
    )


@pytest.mark.parametrize("kind", ("mixed", "voliso"), ids=("0", "1"))
@pytest.mark.parametrize("case", hs.CASES, ids=("0", "1", "2"))
def test_bisect_log_matches_the_numpy_scalar_loop(kind, case):
    u_lo, u_hi = math.log(1e-9), math.log(1e9)
    n_brackets = 0
    for vf in catalog().values():
        for lam in (0.3, 1.7):
            args = (kind, vf.family, vf.par, case, lam, 1.0, 1.5, 2.1666666666666665)
            with np.errstate(all="ignore"):
                us, fs = _k.residual_scan(*args, u_lo, u_hi, hs._SCAN_POINTS)
            for u_a, u_b, f_a in hs._sign_brackets(us, fs):
                if u_a == u_b:
                    continue
                with np.errstate(all="ignore"):
                    got = _k.bisect_log(*args, u_a, u_b, f_a, 200)
                    want = _bisect_log_numpy(*args, u_a, u_b, f_a, 200)
                assert _same_bits(got, want), (vf.label, lam, u_a, u_b)
                n_brackets += 1
    assert n_brackets >= 16


@pytest.mark.parametrize(
    "u_a, u_b, error, iterations",
    ((-3.0, 3.0, ZeroDivisionError, 56), (-1.0, 5.0, OverflowError, 57)),
    ids=("underflow", "overflow"),
)
def test_bisect_log_falls_back_to_numpy_where_python_raises(
    monkeypatch, u_a, u_b, error, iterations
):
    # at two midpoints J^1000 underflows to 0, so 1 / J^q divides by zero,
    # or J^1000 leaves the float range; numpy gives +-inf there instead
    args = ("mixed", _k.FAMILY_HN, 1000.0, "ul", 2.0, 1.0, 1.5, 2.1666666666666665)
    with np.errstate(all="ignore"):
        f_a = _transverse_residual_reference(*args, np.exp(np.float64(u_a)))
        want = _bisect_log_numpy(*args, u_a, u_b, f_a, 200)
    real, raised, numpy_calls = _k.residual_fn, [], []

    def observed(*consts, **lane):
        # the closure the factory returns, recording numpy-lane arguments
        # and the errors it raises
        f = real(*consts, **lane)

        def recorded(lamT):
            if isinstance(lamT, np.float64):
                numpy_calls.append(lamT)
            try:
                return f(lamT)
            except ArithmeticError as exc:
                raised.append(type(exc))
                raise

        return recorded

    monkeypatch.setattr(_k, "residual_fn", observed)
    with np.errstate(all="ignore"):
        got = _k.bisect_log(*args, u_a, u_b, f_a, 200)
    assert raised == [error, error] and len(numpy_calls) == 2
    assert got[2] == iterations and _same_bits(got, want)


@pytest.mark.parametrize("widen", (0.0, 3.0), ids=("default", "widened"))
def test_scan_nodes_are_a_read_only_fresh_grid(widen):
    u_lo = math.log(1e-9) - widen * math.log(10.0)
    u_hi = math.log(1e9) + widen * math.log(10.0)
    us, lamT = _k.scan_nodes(u_lo, u_hi, 2001)
    fresh = u_lo + (u_hi - u_lo) / 2000 * np.arange(2001)
    np.testing.assert_array_equal(us, fresh)
    np.testing.assert_array_equal(lamT, np.exp(fresh))
    assert _k.scan_nodes(u_lo, u_hi, 2001)[0] is us
    for arr in (us, lamT):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# the nu of the paper's curves, with mixed nu = 0 (no volumetric term), and
# any other nu either kind admits
_SCAN_NUS = hst.sampled_from((0.0, 0.25, 0.4, 0.45, 0.499, 0.4999)) | hst.floats(-0.9, 0.49)


@given(
    kind=hst.sampled_from(("mixed", "voliso")),
    family_par=hst.sampled_from(_FAMILIES)
    | hst.tuples(hst.just(_k.FAMILY_HN), hst.floats(1e-3, 8.0))
    | hst.tuples(hst.just(_k.FAMILY_OGDEN), hst.floats(-4.0, 4.0).filter(bool)),
    case=hst.sampled_from(hs.CASES),
    lam=hst.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    mu=hst.floats(0.5, 1.0, exclude_max=True),
    calls=hst.lists(hst.tuples(_SCAN_NUS, hst.booleans()), min_size=1, max_size=6),
)
@example("mixed", (_k.FAMILY_HN, 2.0), "ul", 1.7, 0.5, [(0.25, False), (0.0, False), (0.45, False)])
@example("voliso", (_k.FAMILY_QUADRATIC, 0.0), "ulp", 0.3, 0.75, [(0.4, True), (0.499, False)])
def test_residual_scan_is_its_closure_on_the_scan_grid(kind, family_par, case, lam, mu, calls):
    # one residual_scan per nu in turn, each followed by a widened-range call
    # where drawn, gives a fresh residual_fn closure's bits on its grid, and
    # the kept nu-free terms are read-only
    family, par = family_par
    u_lo, u_hi = math.log(hs._SCAN_LO), math.log(hs._SCAN_HI)
    wide = (u_lo - 3.0 * math.log(10.0), u_hi + 3.0 * math.log(10.0))
    for nu, widen in calls:
        lame = 2.0 * mu * nu / (1.0 - 2.0 * nu)
        args = (kind, family, par, case, lam, mu, lame, lame + 2.0 * mu / 3.0)
        for lo, hi in ((u_lo, u_hi), wide) if widen else ((u_lo, u_hi),):
            with np.errstate(all="ignore"):
                us, fs = _k.residual_scan(*args, lo, hi, hs._SCAN_POINTS)
                want = _k.residual_fn(*args)(_k.scan_nodes(lo, hi, hs._SCAN_POINTS)[1])
            assert us is _k.scan_nodes(lo, hi, hs._SCAN_POINTS)[0]
            assert np.array_equal(fs, want, equal_nan=True), (nu, lo)
            for kept in _k._scan_slot[0][1:]:
                assert not kept.flags.writeable


def test_residual_scan_forms_the_nu_free_terms_once_per_stretch(monkeypatch):
    # the nu of one stretch share the kept terms, a new stretch or mu forms
    # them again, and the mixed kind at nu = 0 reads none
    built = []
    real = _k._scan_terms

    def counted(*args):
        built.append(args[:6])
        return real(*args)

    monkeypatch.setattr(_k, "_scan_terms", counted)
    _k._scan_slot[0] = None
    u = (math.log(hs._SCAN_LO), math.log(hs._SCAN_HI), hs._SCAN_POINTS)
    for kind in ("mixed", "voliso"):
        for lam, mu in ((1.7, 0.5), (1.7, 0.5), (2.0, 0.5), (2.0, 0.75)):
            for lame in (0.0, 0.5, 2.5):
                with np.errstate(all="ignore"):
                    _k.residual_scan(kind, 0, 2.0, "ul", lam, mu, lame, lame + mu, *u)
    case = _k.load_case("ul")
    cells = ((1.7, 0.5), (2.0, 0.5), (2.0, 0.75))
    assert built == [(kind, 0, 2.0, case, *cell) for kind in ("mixed", "voliso") for cell in cells]
