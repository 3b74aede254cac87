"""Hinge-blend calculators: pinned examples, bounds, and verification sweeps."""

import math

import numpy as np
import pytest

from alexkit import comparison
from alexkit.reporting import result_of
from alexkit.comparison import (
    AlternatingConfig,
    HingeConfig,
    _chain,
    alexandrov_lemma_check,
    kappa_bar_alternating,
    kappa_bar_multi,
    kappa_bar_two,
    kappa_star_extension,
    verify_alexandrov,
    verify_alternating,
    verify_extension,
    verify_weighted_multi,
    verify_weighted_pair,
)
from alexkit.errors import GeometryError, InverseRangeError, UndefinedModelAngleError
from alexkit.trig import angle_from_sides, f, f_inverse, model_side


# ---------------------------------------------------------------------------
# two-curvature blend


def test_kappa_bar_two_degenerate_far_segment():
    assert kappa_bar_two(1.0, 0.3, 0.0, 2.0, -5.0) == pytest.approx(2.0, abs=1e-9)


def test_kappa_bar_two_equal_curvatures():
    assert kappa_bar_two(1.0, 0.2, 0.4, 0.7, 0.7) == 0.7


def test_kappa_bar_two_bisection_oracle():
    # f_1(kbar) = (3 f_1(1) + f_1(-1)) / 4 for b = d
    y = (3.0 * f(1.0, 1.0) + f(1.0, -1.0)) / 4.0
    expected = f_inverse(1.0, y)
    got = kappa_bar_two(1.0, 0.005, 0.005, 1.0, -1.0)
    assert got == pytest.approx(expected, abs=1e-10)


def test_kappa_bar_two_remark_bounds():
    rng = np.random.default_rng(0)
    for _ in range(400):
        a = rng.uniform(0.5, 2.0)
        k1, k2 = rng.uniform(-2.0, 2.0, 2)
        b, d = rng.uniform(1e-4, 0.5, 2)
        kbar = kappa_bar_two(a, b, d, k1, k2)
        s = b + d
        weighted = ((b * b + 2 * b * d) * k1 + d * d * k2) / (s * s)
        floor = min(k1, (b * b * k1 + d * d * k2) / (b * b + d * d))
        assert kbar >= weighted - 1e-9
        assert weighted >= floor - 1e-12


def test_kappa_bar_two_monotone_in_each_curvature():
    grid = np.linspace(-2.0, 2.0, 9)
    for k2 in (-1.0, 0.5):
        vals = [kappa_bar_two(1.0, 0.2, 0.3, k1, k2) for k1 in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
    for k1 in (-1.0, 0.5):
        vals = [kappa_bar_two(1.0, 0.2, 0.3, k1, k2) for k2 in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_kappa_bar_two_rejects_bad_lengths():
    with pytest.raises(GeometryError):
        kappa_bar_two(1.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(GeometryError):
        kappa_bar_two(1.0, -0.1, 0.2, 1.0, 0.0)


# ---------------------------------------------------------------------------
# multi-segment blend


def test_kappa_bar_multi_single_segment():
    kf, kl = kappa_bar_multi(HingeConfig(base=1.0, segments=((0.5, 0.8),)))
    assert kf == 0.8
    assert kl == pytest.approx(0.8, abs=1e-15)


def test_kappa_bar_multi_equal_curvatures():
    cfg = HingeConfig(base=1.0, segments=((0.1, -0.4), (0.2, -0.4), (0.05, -0.4)))
    kf, kl = kappa_bar_multi(cfg)
    assert kf == -0.4
    assert kl == pytest.approx(-0.4, abs=1e-12)


def test_kappa_bar_multi_three_segment_oracle():
    lengths = (0.01, 0.02, 0.01)
    kappas = (1.0, 0.0, -1.0)
    cfg = HingeConfig(base=1.0, segments=tuple(zip(lengths, kappas)))
    kf, kl = kappa_bar_multi(cfg)
    # independent restatement of both published forms
    c1, c2, c3 = lengths
    total = c1 + c2 + c3
    w1 = c1 * c1 + 2 * c1 * (c2 + c3)
    w2 = c2 * c2 + 2 * c2 * c3
    w3 = c3 * c3
    lower = (w1 * kappas[0] + w2 * kappas[1] + w3 * kappas[2]) / total ** 2
    y = (w1 * f(1.0, 1.0) + w2 * f(1.0, 0.0) + w3 * f(1.0, -1.0)) / total ** 2
    assert kl == pytest.approx(lower, abs=1e-13)
    assert kf == pytest.approx(f_inverse(1.0, y), abs=1e-10)
    assert kf >= kl - 1e-9


def test_kappa_bar_multi_two_segments_match_pair_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        b, d = rng.uniform(1e-3, 0.3, 2)
        k1, k2 = rng.uniform(-2.0, 2.0, 2)
        cfg = HingeConfig(base=a, segments=((b, k1), (d, k2)))
        kf, _ = kappa_bar_multi(cfg)
        assert kf == pytest.approx(kappa_bar_two(a, b, d, k1, k2), abs=1e-10)


# ---------------------------------------------------------------------------
# alternating blend


def test_alternating_direct_substitution():
    cfg = AlternatingConfig(base=1.0, blocks=((0.1, 0.1),), kappa=0.0, kappa_star=-4.0)
    assert kappa_bar_alternating(cfg) == pytest.approx(-3.0, abs=1e-12)
    cfg = AlternatingConfig(base=1.0, blocks=((0.2, 0.3),), kappa=2.0, kappa_star=2.0)
    assert kappa_bar_alternating(cfg) == pytest.approx(2.0, abs=1e-12)
    # good fraction 0.9 of the total
    cfg = AlternatingConfig(
        base=1.0, blocks=((0.45, 0.05), (0.45, 0.05)), kappa=1.0, kappa_star=-1.0
    )
    assert kappa_bar_alternating(cfg) == pytest.approx(0.81 * 2.0 - 1.0, abs=1e-12)


def test_alternating_matches_squared_fraction_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        nb = int(rng.integers(1, 4))
        blocks = tuple((float(b), float(d)) for b, d in rng.uniform(0.0, 0.3, (nb, 2)))
        if sum(b + d for b, d in blocks) <= 0:
            continue
        kappa = rng.uniform(-2, 2)
        kstar = kappa - rng.uniform(0, 3)
        cfg = AlternatingConfig(base=1.0, blocks=blocks, kappa=kappa, kappa_star=kstar)
        got = kappa_bar_alternating(cfg)
        lam = sum(b for b, _ in blocks) / sum(b + d for b, d in blocks)
        assert got == pytest.approx(lam * lam * (kappa - kstar) + kstar, abs=1e-14)
        assert kstar - 1e-12 <= got <= kappa + 1e-12


def test_alternating_never_exceeds_relaxed_multi_blend():
    # the closed form relaxes the mixed cross terms down to kappa_star, so it
    # sits at or below the plain weighted average of the same chain
    rng = np.random.default_rng(3)
    for _ in range(100):
        nb = int(rng.integers(1, 4))
        kappa = rng.uniform(-2, 2)
        kstar = kappa - rng.uniform(0, 3)
        lengths = rng.uniform(0.01, 0.3, 2 * nb)
        blocks = tuple(
            (float(lengths[2 * j]), float(lengths[2 * j + 1])) for j in range(nb)
        )
        segs = []
        for b, d in blocks:
            segs.append((b, kappa))
            segs.append((d, kstar))
        _, lower = kappa_bar_multi(HingeConfig(base=1.0, segments=tuple(segs)))
        alt = kappa_bar_alternating(
            AlternatingConfig(base=1.0, blocks=blocks, kappa=kappa, kappa_star=kstar)
        )
        assert alt <= lower + 1e-9


def test_alternating_requires_dominance():
    with pytest.raises(GeometryError):
        AlternatingConfig(base=1.0, blocks=((0.1, 0.1),), kappa=-1.0, kappa_star=0.0)


# ---------------------------------------------------------------------------
# extension curvature


def test_extension_identity_at_equal_lengths():
    assert kappa_star_extension(1.0, 1.0, 0.5) == 0.5


def test_extension_sign_forced():
    # f_2(0) = 0.5 < 1 = f_1(0), and f decreases, so the root is negative
    ks = kappa_star_extension(2.0, 1.0, 0.0)
    assert ks < 0.0
    assert f(2.0, ks) == pytest.approx(1.0, abs=1e-10)


def test_extension_decreasing_in_a():
    vals = [kappa_star_extension(a, 0.5, 1.0) for a in (1.0, 1.5, 2.0)]
    assert vals[0] > vals[1] > vals[2]
    grid = np.linspace(0.5001, 2.0, 50)
    stars = [kappa_star_extension(float(a), 0.5, 1.0) for a in grid]
    assert all(b <= a + 1e-12 for a, b in zip(stars, stars[1:]))


def test_extension_limit_toward_base():
    for r, kappa in ((0.5, 1.0), (1.0, -2.0), (0.8, 0.3)):
        assert abs(kappa_star_extension(r + 1e-6, r, kappa) - kappa) <= 1e-3


def test_extension_range_error_for_tiny_base():
    with pytest.raises((InverseRangeError, GeometryError)):
        kappa_star_extension(1.0, 1e-5, 1.0)


# ---------------------------------------------------------------------------
# classic four-point lemma


def test_alexandrov_symmetric_right_angles():
    rep = alexandrov_lemma_check(
        0.0, pq=math.sqrt(2.0), ps=math.sqrt(2.0), px=1.0, qx=1.0, xs=1.0
    )
    assert not rep.vacuous
    assert rep.agree
    assert rep.split_angle_back == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.split_angle_forward == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.base_angle_near == pytest.approx(math.pi / 4, abs=1e-12)
    assert rep.base_angle_far == pytest.approx(math.pi / 4, abs=1e-12)


def test_alexandrov_collinear_configuration():
    # p beyond q on the same line: every triangle degenerates flat
    rep = alexandrov_lemma_check(0.0, pq=0.5, ps=2.0, px=1.0, qx=0.5, xs=1.0)
    assert not rep.vacuous
    assert rep.agree


def test_alexandrov_vacuous_on_small_sphere():
    rep = alexandrov_lemma_check(9.0, pq=1.0, ps=1.0, px=1.0, qx=0.5, xs=0.5)
    assert rep.vacuous


def test_alexandrov_sweep_all_agree():
    rep = verify_alexandrov(3000, seed=0)
    assert rep.extra["disagreement_failures"] == 0
    assert rep.evaluated > 0
    assert rep.passed


# ---------------------------------------------------------------------------
# sweeps


def test_weighted_pair_sweep_within_budget():
    rep = verify_weighted_pair(3000, seed=0)
    assert rep.budget_violations == 0
    assert rep.extra["remark_bound_failures"] == 0
    assert rep.evaluated > 2500
    assert rep.passed


def test_weighted_pair_tight_hypothesis_equal_curvatures():
    # second hinge angle exactly closing to pi with equal curvatures turns the
    # construction into a single model triangle: the defect is pure roundoff
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(0.5, 2.0)
        kappa = rng.uniform(-2.0, 2.0)
        b, d = rng.uniform(1e-3, 0.01, 2)
        theta1 = rng.uniform(0.1, math.pi - 0.1)
        px = model_side(kappa, a, b, theta1)
        phi1 = angle_from_sides(kappa, a, px, b)
        ps = model_side(kappa, px, d, math.pi - phi1)
        kbar = kappa_bar_two(a, b, d, kappa, kappa)
        rhs = angle_from_sides(kbar, ps, a, b + d)
        assert theta1 - rhs >= -1e-9


def test_weighted_multi_sweep_within_budget():
    rep = verify_weighted_multi(2000, seed=0)
    assert rep.budget_violations == 0
    assert rep.extra["ordering_failures"] == 0
    assert rep.extra["pair_consistency_failures"] == 0
    assert rep.passed


def test_alternating_sweep_within_budget():
    rep = verify_alternating(2000, seed=0)
    assert rep.budget_violations == 0
    assert rep.extra["dominance_failures"] == 0
    assert rep.passed


def test_extension_sweep_within_budget():
    rep = verify_extension(2000, seed=0)
    assert rep.budget_violations == 0
    assert rep.extra["monotonicity_failures"] == 0
    assert rep.extra["limit_failures"] == 0
    assert rep.passed


@pytest.mark.parametrize("verify", [
    verify_weighted_pair, verify_weighted_multi, verify_alternating, verify_extension,
], ids=["weighted2", "multi", "alternating", "extension"])
def test_sweep_reports_are_deterministic(verify):
    a = result_of(verify(500, seed=11))
    b = result_of(verify(500, seed=11))
    assert a == b
    c = result_of(verify(500, seed=12))
    assert c != a


class _ClosingRng:
    """Stub stream whose hinge angles close every junction flat."""

    def uniform(self, lo, hi):
        return hi


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_closed_flat_is_one_hinge(n):
    # each junction's hinge angle is pi minus its back angle, so the chain
    # continues the first hinge's far side in a straight line
    rng = np.random.default_rng(n)
    for _ in range(50):
        kappa = rng.uniform(-2.0, 2.0)
        a = rng.uniform(0.5, 2.0)
        lengths = rng.uniform(1e-3, 0.05, n)
        theta1 = rng.uniform(0.1, math.pi - 0.1)
        far, last = _chain(_ClosingRng(), a, lengths, [kappa] * n, theta1)
        assert far == pytest.approx(model_side(kappa, a, float(lengths.sum()), theta1),
                                    abs=1e-9)
        if n == 1:
            assert last == theta1


def test_chain_without_room_returns_none():
    # a first hinge angle near 0 leaves a back angle near pi at the junction
    assert _chain(_ClosingRng(), 1.0, [0.01, 0.01], [0.0, 0.0], 0.01) is None


# ---------------------------------------------------------------------------
# the batch engine against the scalar kernels

_PARAMS = {"scale": 1e-2, "kappa_range": (-2.0, 2.0), "a_range": (0.5, 2.0)}
# each sweep's block factory, its default parameters and its chain width
_BLOCKS = {
    "weighted2": (comparison._weighted2, _PARAMS, 2),
    "multi": (comparison._multi, {**_PARAMS, "max_segments": 6}, 6),
    "alternating": (comparison._alternating, _PARAMS, 6),
    "extension": (comparison._extension, {"scale": 1e-3, "kappa_range": (-2.0, 2.0)}, 1),
    "alexandrov": (comparison._alexandrov, {"kappas": (-1.0, 0.0, 1.0), "tol": 1e-9}, 1),
}
# parameters at which some comparison angles do not exist: curvatures just
# below f's pole, or above the configurations' perimeter bound.  The
# alternating and extension comparison triangles existed wherever their
# configurations did, over every range tried up to f's pole.
_NEAR_THE_LIMIT = {
    "weighted2": {"scale": 0.5, "kappa_range": (2.2, 2.4), "a_range": (1.9, 2.0)},
    "multi": {"scale": 0.5, "kappa_range": (2.2, 2.4), "a_range": (1.9, 2.0),
              "max_segments": 6},
    "alexandrov": {"kappas": (1.0, 9.0, 30.0), "tol": 1e-9},
}


def _outcomes(which, trials, seed, rows=None, **params):
    """Each block's rows, concatenated: defect, vacuous mask and inputs."""
    make, defaults, width = _BLOCKS[which]
    block = make(**{**defaults, **params})
    rows = rows or comparison._block_rows(width)
    outs = [block(stream) for stream in comparison._streams(trials, seed, rows)]
    inputs = {k: np.concatenate([o.inputs[k] for o in outs]) for k in outs[0].inputs}
    return {"defect": np.concatenate([o.defect for o in outs]),
            "vacuous": np.concatenate([o.vacuous for o in outs]), **inputs}


class _Vacuous(Exception):
    """The replayed comparison's model angle does not exist."""


def _comparison_angle(kappa, opposite, u, v):
    """The replayed comparison angle; raises ``_Vacuous`` where its model angle does not exist."""
    try:
        return angle_from_sides(kappa, opposite, u, v)
    except UndefinedModelAngleError:
        raise _Vacuous from None


class _Replay:
    """Stub stream for ``_chain`` that replays the batch engine's junction uniforms."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * next(self.uniforms)


def _scalar_weighted2(x, i):
    a, b, d, k1, k2, theta1 = (float(x[k][i]) for k in ("a", "b", "d", "k1", "k2", "theta1"))
    if b <= 0.0 or d <= 0.0:
        return None
    chain = _chain(_Replay(x["junction"][i]), a, (b, d), (k1, k2), theta1)
    if chain is None:
        return None
    return theta1 - _comparison_angle(kappa_bar_two(a, b, d, k1, k2), chain[0], a, b + d)


def _scalar_multi(x, i):
    n, a, theta1 = int(x["n"][i]), float(x["a"][i]), float(x["theta1"][i])
    lengths, kappas = x["lengths"][i, :n].tolist(), x["kappas"][i, :n].tolist()
    chain = _chain(_Replay(x["junction"][i]), a, lengths, kappas, theta1)
    if chain is None:
        return None
    kf, _ = kappa_bar_multi(HingeConfig(base=a, segments=tuple(zip(lengths, kappas))))
    if n == 2:
        kappa_bar_two(a, lengths[0], lengths[1], kappas[0], kappas[1])
    return theta1 - _comparison_angle(kf, chain[0], a, sum(lengths))


def _scalar_alternating(x, i):
    n, a, theta1 = int(x["n"][i]), float(x["a"][i]), float(x["theta1"][i])
    lengths, kappas = x["lengths"][i, :n].tolist(), x["kappas"][i, :n].tolist()
    chain = _chain(_Replay(x["junction"][i]), a, lengths, kappas, theta1)
    if chain is None:
        return None
    blocks = tuple(zip(lengths[0::2], lengths[1::2]))
    kalt = kappa_bar_alternating(AlternatingConfig(
        base=a, blocks=blocks, kappa=float(x["kappa"][i]), kappa_star=float(x["kappa_star"][i])))
    return theta1 - _comparison_angle(kalt, chain[0], a, sum(lengths))


def _scalar_extension(x, i):
    a, r, kappa, u, theta = (float(x[k][i]) for k in ("a", "r", "kappa", "u", "theta"))
    far = (a - r) + model_side(kappa, r, u, theta)
    return theta - _comparison_angle(kappa_star_extension(a, r, kappa), far, a, u)


_SCALAR = {"weighted2": _scalar_weighted2, "multi": _scalar_multi,
           "alternating": _scalar_alternating, "extension": _scalar_extension}


def _condition(which, x, i):
    """Condition number a / (shortest leg * sin(hinge angle)) of trial i's angles from sides.

    A relative change of one ulp in a side moves the defect by about eps
    times this much.
    """
    if which == "extension":
        return x["a"][i] / (x["u"][i] * math.sin(x["theta"][i]))
    if which == "weighted2":
        leg = min(x["b"][i], x["d"][i])
    else:
        leg = x["lengths"][i, : int(x["n"][i])].min()
    return x["a"][i] / (leg * math.sin(x["theta1"][i]))


def _assert_replays(which, x):
    """Every row's skip decision, vacuous flag and defect equal the scalar path's.

    numpy's sinh, cosh, arcsin and arcsinh may differ from the math
    module's by a few ulps, which the trial's angle-from-sides steps amplify
    by their condition number; 16 ulps of it is the allowance.  Returns the
    number of vacuous rows.
    """
    eps = np.finfo(float).eps
    for i in range(len(x["defect"])):
        vacuous = False
        try:
            want = _SCALAR[which](x, i)
        except _Vacuous:
            want, vacuous = None, True
        except GeometryError:
            want = None
        got = x["defect"][i]
        assert (want is None) == bool(np.isnan(got)), (which, i, want, got)
        assert bool(x["vacuous"][i]) == vacuous, (which, i)
        if want is not None:
            assert abs(got - want) <= 1e-12 + 16 * eps * _condition(which, x, i), (i, got, want)
    return int(x["vacuous"].sum())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("which", list(_SCALAR))
def test_batch_engine_replays_through_scalar_kernels(which, seed):
    # the drawn inputs of every trial, fed through _chain and the scalar
    # calculators, give the same skip decision, the same vacuous flag (the
    # scalar comparison angle raises UndefinedModelAngleError) and the same
    # defect
    _assert_replays(which, _outcomes(which, 2000, seed))


@pytest.mark.parametrize("which", ["weighted2", "multi"])
def test_vacuous_rows_replay_through_scalar_kernels(which):
    # near the curvature limits some comparison angles do not exist
    x = _outcomes(which, 2000, 7, **_NEAR_THE_LIMIT[which])
    assert _assert_replays(which, x) > 0


def test_batch_blends_match_scalar_calculators():
    pair = _outcomes("weighted2", 2000, 4)
    ext = _outcomes("extension", 2000, 4)
    worst = 0.0
    for i in np.flatnonzero(~np.isnan(pair["defect"])):
        a, b, d, k1, k2 = (float(pair[k][i]) for k in ("a", "b", "d", "k1", "k2"))
        worst = max(worst, abs(pair["kappa_bar"][i] - kappa_bar_two(a, b, d, k1, k2)))
    for i in np.flatnonzero(~np.isnan(ext["defect"])):
        a, r, kappa = (float(ext[k][i]) for k in ("a", "r", "kappa"))
        worst = max(worst, abs(ext["kappa_star"][i] - kappa_star_extension(a, r, kappa)))
    assert worst <= 1e-13, worst


def _assert_alexandrov_replays(x, tol=1e-9):
    """Every row against alexandrov_lemma_check on the scalar kernels' distances.

    Returns the number of vacuous rows.
    """
    worst = 0.0
    for i in range(len(x["defect"])):
        kappa, ambient, px, qx, xs, phi = (float(x[k][i]) for k in
                                           ("kappa", "ambient", "px", "qx", "xs", "phi"))
        defect, vacuous = x["defect"][i], bool(x["vacuous"][i])
        try:
            pq = model_side(ambient, px, qx, phi)
            ps = model_side(ambient, px, xs, math.pi - phi)
            rep = alexandrov_lemma_check(kappa, pq=pq, ps=ps, px=px, qx=qx, xs=xs, tol=tol)
        except GeometryError:
            assert np.isnan(defect) and not vacuous
            continue
        assert vacuous == rep.vacuous
        assert bool(np.isnan(defect)) == rep.vacuous
        if not rep.vacuous:
            assert bool(defect < -tol) == (not rep.agree)
            worst = max(worst, abs(x["margin_base"][i] - rep.margin_base),
                        abs(x["margin_split"][i] - rep.margin_split))
    assert worst <= 1e-12, worst
    return int(x["vacuous"].sum())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_alexandrov_batch_replays_through_scalar_check(seed):
    # one row per (trial, kappa), trial-major
    x = _outcomes("alexandrov", 2000, seed)
    assert len(x["defect"]) == 3 * 2000
    assert np.array_equal(x["kappa"][:6], [-1.0, 0.0, 1.0] * 2)
    _assert_alexandrov_replays(x)


def test_alexandrov_vacuous_rows_replay_through_scalar_check():
    x = _outcomes("alexandrov", 2000, 7, **_NEAR_THE_LIMIT["alexandrov"])
    assert _assert_alexandrov_replays(x) > 0


@pytest.mark.parametrize("seed", [0, 5])
def test_alexandrov_worst_case_is_the_least_signed_defect(seed):
    rep = verify_alexandrov(3000, seed=seed)
    w = rep.worst_case
    mb, ms = w["margin_base"], w["margin_split"]
    assert w["signed_defect"] == rep.min_signed_defect
    assert w["signed_defect"] == math.copysign(1.0, mb * ms) * min(abs(mb), abs(ms))
    check = alexandrov_lemma_check(w["kappa"], pq=w["pq"], ps=w["ps"], px=w["px"],
                                   qx=w["qx"], xs=w["xs"])
    assert abs(check.margin_base - mb) <= 1e-12 and abs(check.margin_split - ms) <= 1e-12
    # the sweep has no budget
    assert "budget" not in w and rep.budget_violations is None
    assert "budget_violations" not in result_of(rep)
    assert rep.tolerances == {"tol": 1e-9}


@pytest.mark.parametrize("rows", [None, 512])
@pytest.mark.parametrize("which", list(_BLOCKS))
def test_trial_outcomes_do_not_depend_on_the_trial_count(which, rows):
    # 1500 is not a multiple of either block size
    short = _outcomes(which, 1500, 5, rows)
    long = _outcomes(which, 3000, 5, rows)
    for key, got in short.items():
        assert np.array_equal(got, long[key][:len(got)], equal_nan=True), key


_SWEEPS = {"weighted2": verify_weighted_pair, "multi": verify_weighted_multi,
           "alternating": verify_alternating, "extension": verify_extension,
           "alexandrov": verify_alexandrov}


@pytest.mark.parametrize("which, params", [
    *((which, "defaults") for which in _SWEEPS),
    *((which, "near_the_limit") for which in _NEAR_THE_LIMIT),
])
def test_sweep_counts_every_comparison_once(which, params):
    kwargs = _NEAR_THE_LIMIT[which] if params == "near_the_limit" else {}
    rep = _SWEEPS[which](1500, seed=6, **kwargs)
    comparisons = 1500 * len(kwargs.get("kappas", (-1.0, 0.0, 1.0))) if which == "alexandrov" \
        else 1500
    assert rep.trials == 1500
    assert rep.evaluated + rep.vacuous + rep.skipped == comparisons
    assert min(rep.evaluated, rep.vacuous, rep.skipped) >= 0
    assert (rep.vacuous > 0) == (params == "near_the_limit")


def test_sweep_reports_count_their_work():
    rows = comparison._block_rows()
    pair = verify_weighted_pair(3000, seed=3)
    assert pair.work["blocks"] == -(-3000 // rows)
    assert 3000 < pair.work["hinges"] <= 6000
    assert pair.work["inverses"] == pair.evaluated
    ext = verify_extension(500, seed=3)
    assert ext.work == {"blocks": 1, "hinges": 500, "inverses": 500 + 8 * 51}
    alt = verify_alternating(500, seed=3)
    assert alt.work["inverses"] == 0
    assert verify_alexandrov(400, seed=3).work == {"blocks": 1, "hinges": 800, "inverses": 0}
    assert result_of(pair)["work"] == pair.work
