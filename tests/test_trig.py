"""Kernel tests: branch values, invariants, and triangle solver round trips."""

import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexkit import (
    DegenerateAngleError,
    InvalidTriangleError,
    InverseRangeError,
    TrigDomainError,
    UndefinedModelAngleError,
    angle_from_sides,
    cs,
    f,
    f_inverse,
    md,
    model_side,
    sn,
)
from alexkit.trig import (
    _HYP_RESCALE,
    _TRI_SLACK,
    SERIES_CUTOFF,
    _cos_angle_hyp_scaled,
    batch_angle,
    batch_f,
    batch_f_inverse,
    batch_md,
    batch_md_inverse,
    batch_model_side,
    batch_sn,
    f_pole,
    first_missing,
    md_inverse,
)
from alexkit.errors import GeometryError

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# pointwise values


def test_sn_branches():
    assert sn(0.0, 2.0) == 2.0
    assert sn(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert sn(-1.0, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-12)


def test_cs_md_values():
    assert md(1.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert md(0.0, 3.0) == 4.5
    assert cs(-1.0, 1.0) == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert md(1.0, 0.0) == 0.0
    assert md(-2.0, 0.0) == 0.0


def test_frozen_oracle_vectors():
    with open(DATA / "trig_vectors.csv") as fh:
        rows = list(csv.DictReader(fh))
    fns = {"sn": sn, "cs": cs, "md": md}
    assert rows
    for row in rows:
        kappa = float(row["kappa"])
        arg = float(row["arg"])
        expected = float(row["expected"])
        tol = float(row["tol"])
        if row["func"] == "f":
            got = f(arg, kappa)
        else:
            got = fns[row["func"]](kappa, arg)
        assert got == pytest.approx(expected, abs=tol), row


def test_f_values():
    assert f(2.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert f(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert f(1.0, -1.0) == pytest.approx(1.0 / math.tanh(1.0), abs=1e-12)


def test_f_domain_error_beyond_pole():
    with pytest.raises(TrigDomainError):
        f(1.0, math.pi ** 2)
    with pytest.raises(TrigDomainError):
        f(2.0, 4.0)


def test_curvature_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(TrigDomainError):
            sn(bad, 1.0)


# ---------------------------------------------------------------------------
# continuity and calculus invariants


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
def test_branch_continuity_near_zero(t):
    # tiny curvature probe: the true change is ~|kappa| t^3 / 6, negligible here
    for fn in (sn, cs, md):
        assert abs(fn(1e-12, t) - fn(0.0, t)) <= 1e-10
        assert abs(fn(-1e-12, t) - fn(0.0, t)) <= 1e-10


@pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
def test_branch_continuity_at_series_switch(t):
    # both branches must match a high-precision oracle right at the cutoff,
    # so switching between them cannot introduce a jump
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def exact(fn_name, k, tt):
        k = mp.mpf(k)
        tt = mp.mpf(tt)
        if fn_name == "sn":
            if k > 0:
                return mp.sin(mp.sqrt(k) * tt) / mp.sqrt(k)
            return mp.sinh(mp.sqrt(-k) * tt) / mp.sqrt(-k)
        if fn_name == "cs":
            if k > 0:
                return mp.cos(mp.sqrt(k) * tt)
            return mp.cosh(mp.sqrt(-k) * tt)
        if k > 0:
            return (1 - mp.cos(mp.sqrt(k) * tt)) / k
        return (1 - mp.cosh(mp.sqrt(-k) * tt)) / k

    k_switch = SERIES_CUTOFF / (t * t)
    for name, fn in (("sn", sn), ("cs", cs), ("md", md)):
        for sign in (1.0, -1.0):
            for factor in (0.999, 1.001):
                k = sign * k_switch * factor
                got = fn(k, t)
                want = float(exact(name, k, t))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_md_derivative_is_sn():
    h = 1e-5
    for kappa in (-2.0, -0.5, 0.0, 0.7, 2.0):
        for t in np.linspace(0.05, 2.0, 15):
            deriv = (md(kappa, t + h) - md(kappa, t - h)) / (2 * h)
            assert deriv == pytest.approx(sn(kappa, t), abs=1e-6)


def test_euclidean_reduction():
    rng = np.random.default_rng(0)
    for _ in range(200):
        b, c = rng.uniform(0.1, 3.0, 2)
        alpha = rng.uniform(0.0, math.pi)
        side = model_side(0.0, b, c, alpha)
        assert side * side == pytest.approx(
            b * b + c * c - 2 * b * c * math.cos(alpha), abs=1e-12
        )


def test_f_monotone_decreasing_and_concave():
    for c in (0.5, 1.0, 2.0):
        pole = (math.pi / c) ** 2
        grid = np.linspace(-8.0, pole - 0.05 * pole, 120)
        vals = np.array([f(c, k) for k in grid])
        first = np.diff(vals)
        assert np.all(first < 0.0)
        second = np.diff(first)
        assert np.all(second <= 1e-9)


def test_angle_monotone_in_kappa():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u, v = rng.uniform(0.2, 1.0, 2)
        opp = rng.uniform(abs(u - v) + 0.05, u + v - 0.05)
        kappas = np.linspace(-3.0, 1.5, 25)
        angles = [angle_from_sides(k, opp, u, v) for k in kappas]
        assert all(b >= a - 1e-12 for a, b in zip(angles, angles[1:]))


# ---------------------------------------------------------------------------
# f_inverse


def test_f_inverse_trivial_points():
    assert f_inverse(2.0, 0.5) == pytest.approx(0.0, abs=1e-10)
    assert f_inverse(math.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-10)
    # f_1(0) = 1 exactly, so the root must come back as zero
    assert f_inverse(1.0, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_f_inverse_bisection_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        c = rng.uniform(0.4, 2.0)
        k_true = rng.uniform(-5.0, 0.9 * (math.pi / c) ** 2)
        y = f(c, k_true)
        k_found = f_inverse(c, y)
        assert abs(f(c, k_found) - y) <= 1e-10 * max(1.0, abs(y))
        assert k_found == pytest.approx(k_true, abs=1e-8, rel=1e-8)


def test_f_inverse_range_error_reports_bracket():
    with pytest.raises(InverseRangeError) as err:
        f_inverse(1.0, 1e9)
    assert err.value.bracket is not None
    lo, hi = err.value.bracket
    assert lo < hi


# ---------------------------------------------------------------------------
# triangle solvers


def test_model_side_examples():
    assert model_side(0.0, 3.0, 4.0, math.pi / 2) == pytest.approx(5.0, abs=1e-12)
    assert model_side(1.0, math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_model_side_hyperboloid_oracle():
    # embed two unit-speed rays at angle pi/3 in the hyperboloid model
    ang = math.pi / 3
    b = c = 1.0
    inner = math.cosh(b) * math.cosh(c) - math.sinh(b) * math.sinh(c) * math.cos(ang)
    expected = math.acosh(inner)
    assert model_side(-1.0, b, c, ang) == pytest.approx(expected, abs=1e-10)


def test_model_side_sphere_domain_error():
    with pytest.raises(TrigDomainError):
        model_side(1.0, math.pi, 0.5, 1.0)


def _model_angle(kappa, sides, at):
    """Angle of the model triangle with these three sides, opposite ``sides[at]``."""
    return angle_from_sides(kappa, sides[at], sides[(at + 1) % 3], sides[(at + 2) % 3])


def test_model_angle_examples():
    assert _model_angle(0.0, (3.0, 4.0, 5.0), at=2) == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    # straight configuration
    assert angle_from_sides(-0.7, 1.9, 1.2, 0.7) == pytest.approx(math.pi, abs=1e-7)
    # spherical octant: equilateral with side pi/2
    eq = (math.pi / 2, math.pi / 2, math.pi / 2)
    for at in (0, 1, 2):
        assert _model_angle(1.0, eq, at=at) == pytest.approx(math.pi / 2, abs=1e-12)


def test_model_angle_errors():
    with pytest.raises(InvalidTriangleError):
        _model_angle(0.0, (10.0, 1.0, 2.0), at=0)
    with pytest.raises(DegenerateAngleError):
        angle_from_sides(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(UndefinedModelAngleError):
        angle_from_sides(1.0, 2.2, 2.1, 2.1)


def test_angle_side_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(300):
        kappa = rng.uniform(-2.0, 2.0)
        b, c = rng.uniform(0.1, 1.2, 2)
        alpha = rng.uniform(0.05, math.pi - 0.05)
        side = model_side(kappa, b, c, alpha)
        back = angle_from_sides(kappa, side, b, c)
        assert back == pytest.approx(alpha, abs=1e-9)


@given(
    kappa=st.floats(-2.0, 2.0),
    b=st.floats(0.05, 1.0),
    c=st.floats(0.05, 1.0),
    alpha=st.floats(0.1, math.pi - 0.1),
)
@settings(max_examples=150, deadline=None)
def test_model_side_triangle_inequality_property(kappa, b, c, alpha):
    side = model_side(kappa, b, c, alpha)
    assert side <= b + c + 1e-12
    assert side >= abs(b - c) - 1e-12


def _taylor_side_expansion(kappa, c, b, beta):
    """Second-order expansion of the side opposite a hinge in its short leg b; off by O(b^3)."""
    s = math.sin(beta)
    return c - b * math.cos(beta) + 0.5 * s * s * f(c, kappa) * b * b


def test_taylor_expansion_values():
    assert _taylor_side_expansion(0.0, 1.0, 0.0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert _taylor_side_expansion(0.0, 1.0, 0.01, math.pi / 2) == pytest.approx(
        1.00005, abs=1e-12
    )


def test_taylor_expansion_third_order_bound():
    # the constant 10 was established by this very sweep before freezing
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(4000):
        kappa = rng.uniform(-2.0, 2.0)
        c = rng.uniform(0.5, 2.0)
        b = rng.uniform(1e-4, 0.01)
        beta = rng.uniform(0.0, math.pi)
        exact = model_side(kappa, c, b, beta)
        approx = _taylor_side_expansion(kappa, c, b, beta)
        err = abs(exact - approx)
        worst = max(worst, err / b ** 3)
        assert err <= 10.0 * b ** 3
    assert worst <= 10.0


# ---------------------------------------------------------------------------
# batch kernel consistency


def test_batch_angle_matches_scalar():
    rng = np.random.default_rng(5)
    for kappa in (-1.5, 0.0, 1.0):
        u = rng.uniform(0.2, 1.0, 200)
        v = rng.uniform(0.2, 1.0, 200)
        opp = np.abs(u - v) + rng.uniform(0.05, 0.9, 200) * (u + v - np.abs(u - v) - 0.1)
        angles, undefined = batch_angle(kappa, opp, u, v)
        assert not np.isnan(angles).any() and not undefined.any()
        for i in range(0, 200, 17):
            assert angles[i] == pytest.approx(
                angle_from_sides(kappa, opp[i], u[i], v[i]), abs=1e-12
            )


def _sn_ref(k, x):
    """Scalar-curvature array ``sn`` that evaluates both branches everywhere."""
    u = k * x * x
    series = x * (1.0 - u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0 * (1.0 - u / 72.0))))
    if k == 0.0:
        return series
    with np.errstate(invalid="ignore"):
        s = math.sqrt(abs(k))
        main = np.sin(s * x) / s if k > 0.0 else np.sinh(s * x) / s
    return np.where(np.abs(u) < SERIES_CUTOFF, series, main)


def _md_ref(k, x):
    """Scalar-curvature array ``md`` that evaluates both branches everywhere."""
    u = k * x * x
    series = 0.5 * x * x * (1.0 - u / 12.0 * (1.0 - u / 30.0 * (1.0 - u / 56.0 * (1.0 - u / 90.0))))
    if k == 0.0:
        return series
    with np.errstate(invalid="ignore"):
        if k > 0.0:
            main = 2.0 * np.sin(0.5 * math.sqrt(k) * x) ** 2 / k
        else:
            main = -2.0 * np.sinh(0.5 * math.sqrt(-k) * x) ** 2 / k
    return np.where(np.abs(u) < SERIES_CUTOFF, series, main)


def _batch_angle_reference(k, opp, uu, vv):
    """``batch_angle``'s arithmetic as it stood with one curvature and both branches.

    Returns the angles and the mask of entries that have one.
    """
    per = opp + uu + vv
    slack = _TRI_SLACK * per
    ok = (
        (uu > 0.0)
        & (vv > 0.0)
        & (opp <= uu + vv + slack)
        & (uu <= opp + vv + slack)
        & (vv <= opp + uu + slack)
    )
    if k > 0.0:
        ok &= per < 2.0 * math.pi / math.sqrt(k)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if k < 0.0:
            s = math.sqrt(-k)
            big = s * per > _HYP_RESCALE
            su = np.where(big, 1.0, uu)
            sv = np.where(big, 1.0, vv)
            so = np.where(big, 1.0, opp)
            num = (_md_ref(k, su) + _md_ref(k, sv)
                   - k * _md_ref(k, su) * _md_ref(k, sv) - _md_ref(k, so))
            cosang = num / (_sn_ref(k, su) * _sn_ref(k, sv))
            cosang = np.where(big, _cos_angle_hyp_scaled(s, opp, uu, vv), cosang)
        else:
            num = (_md_ref(k, uu) + _md_ref(k, vv)
                   - k * _md_ref(k, uu) * _md_ref(k, vv) - _md_ref(k, opp))
            cosang = num / (_sn_ref(k, uu) * _sn_ref(k, vv))
        cosang = np.clip(cosang, -1.0, 1.0)
        out = np.where(ok, np.arccos(cosang), np.nan)
    return out, ok


@pytest.mark.parametrize("kappa", [-1e6, -1.5, 0.0, 1e-8, 1.0])
def test_batch_angle_bit_identical_to_reference(kappa):
    rng = np.random.default_rng(11)
    n = 4000
    sides = rng.uniform(0.0, 4.0, size=(3, n))
    # near-degenerate and tiny sides exercise the clip and the series branch
    sides[:, : n // 4] *= rng.uniform(1e-5, 1e-3, size=(3, n // 4))
    sides[0, n // 4: n // 2] = sides[1, n // 4: n // 2] + sides[2, n // 4: n // 2]
    zero = rng.integers(0, 3, size=n // 10)
    sides[zero, np.arange(n - n // 10, n)] = 0.0
    opp, u, v = sides
    angles, undefined = batch_angle(kappa, opp, u, v)
    ref_angles, ref_ok = _batch_angle_reference(kappa, opp, u, v)
    ok = ~np.isnan(angles)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(angles, ref_angles, equal_nan=True)
    # the draw reaches valid, invalid and zero-side triangles alike
    assert ok.any() and not ok.all()
    assert (~ok[n - n // 10:]).all()
    assert np.array_equal(undefined, _raises_undefined(kappa, opp, u, v))


def test_batch_angle_flags_undefined():
    # an undefined model angle, a defined one, and a broken triangle inequality
    angles, undefined = batch_angle(1.0, np.array([2.2, 1.0, 5.0]), np.array([2.1, 1.0, 1.0]),
                                    np.array([2.1, 1.0, 1.0]))
    assert undefined.tolist() == [True, False, False]
    assert np.isnan(angles).tolist() == [True, False, True]


def test_first_missing_follows_the_first_triangle_that_raises():
    # columns of three (opposite, u, v) triangles at kappa 1, taken in order
    fine, zero_side, broken = (1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (5.0, 1.0, 1.0)
    undefined = (2.2, 2.1, 2.1)  # perimeter past 2*pi
    columns = [(fine, fine, fine), (undefined, zero_side, fine), (zero_side, undefined, fine),
               (fine, broken, undefined), (fine, fine, undefined)]
    opp, u, v = np.array(columns).transpose(2, 1, 0)
    missing, first_undefined = first_missing(*batch_angle(1.0, opp, u, v))
    for j, column in enumerate(columns):
        try:
            for triangle in column:
                angle_from_sides(1.0, *triangle)
        except UndefinedModelAngleError:
            expect = (True, True)
        except GeometryError:
            expect = (True, False)
        else:
            expect = (False, False)
        assert (missing[j], first_undefined[j]) == expect, column


# ---------------------------------------------------------------------------
# array kernels against their scalar oracles


def _oracle(fn, *columns):
    """The scalar kernel entry by entry, NaN where it raises."""
    out = []
    for args in zip(*(np.broadcast_arrays(*columns))):
        try:
            out.append(fn(*(float(a) for a in args)))
        except GeometryError:
            out.append(math.nan)
    return np.array(out)


def _raises_undefined(*columns):
    """Entry by entry, whether ``angle_from_sides`` raises :class:`UndefinedModelAngleError`."""
    out = []
    for args in zip(*(np.broadcast_arrays(*columns))):
        try:
            angle_from_sides(*(float(a) for a in args))
        except UndefinedModelAngleError:
            out.append(True)
            continue
        except GeometryError:
            pass
        out.append(False)
    return np.array(out)


def _curvatures(rng, t, n):
    """Curvatures of both signs, in the series region and out of it, for lengths ``t``."""
    kappa = rng.uniform(-4.0, 4.0, n)
    series = rng.uniform(-0.9, 0.9, n) * SERIES_CUTOFF / np.maximum(t, 1e-3) ** 2
    kappa[: n // 4] = series[: n // 4]
    kappa[n // 4: n // 4 + 10] = 0.0
    return kappa


def _assert_matches(got, want, rtol=1e-13, atol=1e-15):
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, equal_nan=True)


@pytest.mark.parametrize("batch,scalar", [(batch_sn, sn), (batch_md, md)], ids=["sn", "md"])
def test_length_kernels_match_scalar(batch, scalar):
    rng = np.random.default_rng(21)
    n = 600
    t = rng.uniform(0.0, 3.0, n)
    t[-5:] = (-1.0, math.nan, math.inf, 0.0, 1e-12)
    kappa = _curvatures(rng, t, n)
    kappa[-10:-5] = (math.nan, math.inf, -2.0, 2.0, 1e-3)
    _assert_matches(batch(kappa, t), _oracle(scalar, kappa, t))
    # a scalar curvature broadcasts and takes one branch
    for k in (-1.5, 0.0, 1e-9, 2.0):
        _assert_matches(batch(k, t), _oracle(scalar, k, t))


def test_md_inverse_matches_scalar():
    rng = np.random.default_rng(22)
    n = 600
    t = rng.uniform(0.0, 2.5, n)
    kappa = _curvatures(rng, t, n)
    m = _oracle(md, kappa, t)
    m[:20] = 2.0 / np.where(kappa[:20] > 0, kappa[:20], 1.0) * 1.5  # past 2/kappa
    m[20:25] = (-1e-13, -1e-6, math.nan, math.inf, 0.0)
    _assert_matches(batch_md_inverse(kappa, m), _oracle(md_inverse, kappa, m), rtol=1e-12)


def test_f_matches_scalar_near_the_pole():
    rng = np.random.default_rng(23)
    n = 600
    c = rng.uniform(0.2, 3.0, n)
    pole = (math.pi / c) ** 2
    kappa = rng.uniform(-6.0, 1.0, n) * pole
    kappa[: n // 5] = pole[: n // 5] * (1.0 - rng.uniform(1e-12, 1e-6, n // 5))
    kappa[n // 5: n // 5 + 20] = pole[n // 5: n // 5 + 20]
    kappa[-100:] = rng.uniform(-0.9, 0.9, 100) * SERIES_CUTOFF / c[-100:] ** 2
    c[-110:-100] = (0.0, -1.0, math.nan, math.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    _assert_matches(batch_f(c, kappa), _oracle(f, c, kappa), rtol=1e-12)


def test_f_inverse_matches_scalar():
    rng = np.random.default_rng(24)
    n = 300
    c = rng.uniform(0.3, 3.0, n)
    lo = rng.uniform(-5.0, 1.0, n)
    hi = np.minimum(lo + rng.uniform(1e-6, 6.0, n), 0.999 * np.array([f_pole(x) for x in c]))
    kappa = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
    kappa[:30] = rng.uniform(-0.5, 0.5, 30) * SERIES_CUTOFF / c[:30] ** 2
    y = _oracle(f, c, kappa)
    y[30:40] += 10.0  # outside the bracketed image
    lo[40:45] = hi[40:45] + 1.0  # empty bracket
    got = batch_f_inverse(c, y, lo, hi)
    want = _oracle(lambda cc, yy, a, b: f_inverse(cc, yy, bracket=(a, b)), c, y, lo, hi)
    _assert_matches(got, want, rtol=0.0, atol=1e-12)
    # the default bracket: [-1e4, just below the pole]
    got = batch_f_inverse(c[50:], y[50:])
    _assert_matches(got, _oracle(f_inverse, c[50:], y[50:]), rtol=0.0, atol=1e-12)


def test_model_side_matches_scalar():
    rng = np.random.default_rng(25)
    n = 600
    b = rng.uniform(0.0, 2.0, n)
    c = rng.uniform(0.0, 2.0, n)
    alpha = rng.uniform(0.0, math.pi, n)
    kappa = _curvatures(rng, np.maximum(b, c), n)
    kappa[-20:-10] = 3.0  # legs past pi/sqrt(kappa) for most
    alpha[-10:] = (-1e-13, math.pi + 1e-13, -0.1, 4.0, math.nan, 0.0, math.pi, 1.0, 1.0, 1.0)
    b[-3:] = (-1.0, math.nan, 0.0)
    _assert_matches(batch_model_side(kappa, b, c, alpha),
                    _oracle(model_side, kappa, b, c, alpha), rtol=1e-12, atol=1e-14)


def test_batch_angle_matches_scalar_with_curvature_per_entry():
    # both signs, the series region and the rescaled hyperbolic form in one call
    rng = np.random.default_rng(26)
    n = 800
    u = rng.uniform(0.05, 3.0, n)
    v = rng.uniform(0.05, 3.0, n)
    opp = np.abs(u - v) + rng.uniform(0.0, 1.0, n) * (u + v - np.abs(u - v))
    kappa = _curvatures(rng, u + v + opp, n)
    kappa[-100:] = -rng.uniform(1e4, 1e6, 100)
    assert (np.sqrt(-kappa[-100:]) * (opp + u + v)[-100:] > _HYP_RESCALE).all()
    # entries the scalar kernel refuses before its perimeter test, and one
    # undefined model angle
    kappa[300:307] = (math.nan, math.inf, 1.0, 1.0, 1.0, 1.0, 5.0)
    opp[300:307] = (1.0, 1.0, math.inf, -0.5, 1.0, 2.5, 1.0)
    u[300:307] = (1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    v[300:307] = 1.0
    angles, undefined = batch_angle(kappa, opp, u, v)
    want = _oracle(angle_from_sides, kappa, opp, u, v)
    assert np.array_equal(np.isnan(angles), np.isnan(want))
    assert np.array_equal(undefined, _raises_undefined(kappa, opp, u, v))
    _assert_matches(angles, want, rtol=0.0, atol=1e-12)
