"""Curvature-blending hinge calculators and their brute-force verifiers.

The calculators solve for the blended comparison curvature that lets two
or more hinge triangles of different curvatures, glued along a common
short side, be replaced by a single comparison triangle: a weighted
average in f-value for the sharp form, a plain weighted average of the
curvatures for the relaxed lower form, a closed-form expression for the
alternating two-curvature pattern, and the extension curvature obtained
by pushing a hinge vertex further out along its ray.

Each calculator is paired with a synthetic-hinge sweep that constructs
random configurations satisfying the relevant hypothesis exactly and
records the signed defect of the conclusion against a third-order budget.
The sweeps run in blocks of trials on the array kernels of ``trig``: each
block draws from a Philox stream keyed by (seed, block index), and
``_synthesize_chains`` builds its chains junction by junction.  The scalar
calculators and ``_chain`` are the public API and the engine's oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GeometryError, UndefinedModelAngleError
from .trig import (
    angle_from_sides,
    batch_angle,
    batch_f,
    batch_f_inverse,
    batch_model_side,
    check_curvature,
    f,
    f_inverse,
    first_missing,
    model_side,
)

# a sweep's defect budget is (total length)^BUDGET_EXPONENT; the extension
# sweep's is EXTENSION_BUDGET_FACTOR * u^EXTENSION_BUDGET_EXPONENT
BUDGET_EXPONENT = 2.5
EXTENSION_BUDGET_EXPONENT = 2.0
EXTENSION_BUDGET_FACTOR = 50.0
# the alternating sweep chains 1 to MAX_BLOCKS (good, gap) segment pairs
MAX_BLOCKS = 3
# lengths on each of the extension sweep's monotonicity audit grids
_AUDIT_POINTS = 50

# hinge synthesis keeps angles away from the degenerate 0 / pi endpoints
_ANGLE_FLOOR = 0.1
_SECOND_ANGLE_FLOOR = 0.05


@dataclass(frozen=True)
class HingeConfig:
    """Base length |pq| plus (length, curvature) segments laid along the far side."""

    base: float
    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not math.isfinite(self.base) or self.base <= 0.0:
            raise GeometryError(f"base length must be positive, got {self.base!r}")
        if not self.segments:
            raise GeometryError("at least one segment is required")
        for length, kappa in self.segments:
            check_curvature(kappa)
            if not math.isfinite(length) or length <= 0.0:
                raise GeometryError(f"segment lengths must be positive, got {length!r}")

    @property
    def total(self) -> float:
        return sum(length for length, _ in self.segments)


@dataclass(frozen=True)
class AlternatingConfig:
    """Blocks of (good, uncontrolled) lengths with curvatures kappa >= kappa_star."""

    base: float
    blocks: tuple[tuple[float, float], ...]
    kappa: float
    kappa_star: float

    def __post_init__(self):
        check_curvature(self.kappa)
        check_curvature(self.kappa_star)
        if self.kappa < self.kappa_star:
            raise GeometryError(
                f"kappa ({self.kappa!r}) must dominate kappa_star ({self.kappa_star!r})"
            )
        if not self.blocks:
            raise GeometryError("at least one block is required")
        tot = 0.0
        for b, d in self.blocks:
            if b < 0.0 or d < 0.0:
                raise GeometryError("block lengths must be nonnegative")
            tot += b + d
        if tot <= 0.0:
            raise GeometryError("blocks must not all be zero")


def kappa_bar_two(a: float, b: float, d: float, k1: float, k2: float) -> float:
    """Blended curvature for two glued hinges: f_a-weighted average.

    Solves f_a(kbar) = ((b^2 + 2bd) f_a(k1) + d^2 f_a(k2)) / (b+d)^2.
    Nondecreasing in both curvatures; dominates the plain weighted average
    of k1, k2 by concavity of f.  No CLI command calls it: it is library API
    and the test oracle of the sweeps' array blend.
    """
    k1 = check_curvature(k1)
    k2 = check_curvature(k2)
    if b < 0.0 or d < 0.0 or b + d <= 0.0:
        raise GeometryError(f"need b, d >= 0 with b + d > 0, got ({b!r}, {d!r})")
    if k1 == k2:
        # f evaluation still validates the domain
        f(a, k1)
        return k1
    f1 = f(a, k1)
    f2 = f(a, k2)
    s = b + d
    y = ((b * b + 2.0 * b * d) * f1 + d * d * f2) / (s * s)
    lo = min(k1, k2)
    hi = max(k1, k2)
    pad = 1e-9 * (1.0 + hi - lo)
    return f_inverse(a, y, bracket=(lo - pad, hi + pad))


def _hinge_weights(lengths) -> np.ndarray:
    """Blend weight of each segment, along the last axis (zero-padded rows allowed)."""
    c = np.asarray(lengths, dtype=float)
    total = c.sum(axis=-1, keepdims=True)
    suffix = np.zeros_like(c)
    suffix[..., :-1] = np.cumsum(c[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return c * (c + 2.0 * suffix) / (total * total)


def kappa_bar_multi(config: HingeConfig) -> tuple[float, float]:
    """Blended curvature for a chain of glued hinges, in both published forms.

    Returns ``(kappa_bar_f, kappa_bar_lower)``: the sharp value solving the
    f-weighted equation, and the plain weighted average of the segment
    curvatures.  Concavity of f forces kappa_bar_f >= kappa_bar_lower, and
    for two segments kappa_bar_f coincides with :func:`kappa_bar_two`.
    No CLI command calls it: it is library API and the test oracle of the
    multi-hinge sweep's array blends.
    """
    lengths = [seg[0] for seg in config.segments]
    kappas = [seg[1] for seg in config.segments]
    w = _hinge_weights(lengths)
    lower = float((w * kappas).sum())
    if max(kappas) == min(kappas):
        f(config.base, kappas[0])
        return kappas[0], lower
    fvals = np.array([f(config.base, k) for k in kappas])
    y = float((w * fvals).sum())
    lo, hi = min(kappas), max(kappas)
    pad = 1e-9 * (1.0 + hi - lo)
    kf = f_inverse(config.base, y, bracket=(lo - pad, hi + pad))
    return kf, lower


def kappa_bar_alternating(config: AlternatingConfig) -> float:
    """Closed-form blend for the alternating pattern.

    (sum b)^2 (kappa - kappa_star) / (sum b + sum d)^2 + kappa_star; equal to
    kappa when nothing is uncontrolled, to kappa_star when nothing is good,
    and always between the two.  No CLI command calls it: it is library API
    and the test oracle of the alternating sweep's array blend.
    """
    bsum = sum(b for b, _ in config.blocks)
    total = sum(b + d for b, d in config.blocks)
    ratio = bsum / total
    return ratio * ratio * (config.kappa - config.kappa_star) + config.kappa_star


def kappa_star_extension(a: float, r: float, kappa: float) -> float:
    """Comparison curvature surviving an extension of a hinge leg from r to a.

    Returns f_a^{-1}(f_r(kappa)); equals kappa at a = r and decreases as the
    leg grows.  No CLI command calls it: it is library API and the test
    oracle of the extension sweep's array form.
    """
    if not (0.0 < r <= a):
        raise GeometryError(f"need 0 < r <= a, got r={r!r}, a={a!r}")
    k = check_curvature(kappa)
    y = f(r, k)
    if a == r:
        return k
    pad = 1e-9 * (1.0 + abs(k))
    return f_inverse(a, y, bracket=(-1.0e4, k + pad))


# ---------------------------------------------------------------------------
# classic four-point lemma


@dataclass
class AlexandrovReport:
    """Both sides of the four-point equivalence for one configuration."""

    vacuous: bool
    base_angle_near: float = math.nan   # angle at q toward the interior point
    base_angle_far: float = math.nan    # angle at q toward the far endpoint
    split_angle_back: float = math.nan  # angle at x toward q
    split_angle_forward: float = math.nan  # angle at x toward s
    margin_base: float = math.nan       # near - far, >= 0 means condition holds
    margin_split: float = math.nan      # pi - (back + forward)
    agree: bool = True


def alexandrov_lemma_check(
    kappa: float,
    pq: float,
    ps: float,
    px: float,
    qx: float,
    xs: float,
    tol: float = 1e-9,
) -> AlexandrovReport:
    """Evaluate both equivalent conditions of the four-point splitting lemma.

    The five distances describe points p, q, s and an interior point x of
    [qs] (so |qs| = qx + xs).  Checks that the angle condition at the base
    vertex q and the angle-sum condition at the split vertex x agree in
    sign, up to ``tol`` on the margins.  An undefined model angle makes the
    comparison vacuous.  No CLI command calls it: it is library API and the
    test oracle of the ``alexandrov`` sweep.
    """
    k = check_curvature(kappa)
    if qx <= 0.0 or xs <= 0.0:
        raise GeometryError("x must be interior: qx and xs must be positive")
    qs = qx + xs
    try:
        base_near = angle_from_sides(k, px, pq, qx)
        base_far = angle_from_sides(k, ps, pq, qs)
        split_back = angle_from_sides(k, pq, px, qx)
        split_forward = angle_from_sides(k, ps, px, xs)
    except UndefinedModelAngleError:
        return AlexandrovReport(vacuous=True)
    d_base = base_near - base_far
    d_split = math.pi - (split_back + split_forward)
    disagree = (d_base > tol and d_split < -tol) or (d_base < -tol and d_split > tol)
    return AlexandrovReport(
        vacuous=False,
        base_angle_near=base_near,
        base_angle_far=base_far,
        split_angle_back=split_back,
        split_angle_forward=split_forward,
        margin_base=d_base,
        margin_split=d_split,
        agree=not disagree,
    )


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass
class SweepReport:
    """Outcome of a verification sweep for one lemma.

    ``evaluated``, ``vacuous`` and ``skipped`` count comparisons: one per
    trial, or one per trial and curvature for ``alexandrov``.  A vacuous
    comparison is one whose model angle does not exist; a skipped one gives
    no defect for any other reason.  ``budget_violations`` is None for a
    sweep without a defect budget.  ``extra`` counts each audit's failures,
    by name.  ``tolerances`` holds the constants the verdict reads; the
    report's envelope carries them.
    """

    lemma: str
    trials: int
    evaluated: int
    vacuous: int
    skipped: int
    min_signed_defect: float
    budget_violations: int | None
    worst_case: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)  # blocks drawn, hinges built, inverses solved
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """No budget violation and no audit failure."""
        return not self.budget_violations and not any(self.extra.values())


def _check_range(name: str, bounds: tuple[float, float], positive: bool = False):
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and (lo > 0.0 or not positive)):
        kind = "finite positive" if positive else "finite"
        raise GeometryError(f"{name} must be a {kind} range with min <= max, got {bounds!r}")
    return lo, hi


def _chain(rng, base: float, lengths, kappas, theta1: float):
    """Glue hinges along the far side so the angle-sum hypothesis holds exactly.

    The first hinge has legs ``base`` and ``lengths[0]`` at angle
    ``theta1``; each later hinge opens at the far end of the previous one
    with an angle drawn from ``rng`` that keeps the junction's angle sum
    at most pi.  Returns the distance from p to the chain's far end and the
    last hinge angle, or None when a junction leaves no room for a hinge.
    The scalar oracle of :func:`_synthesize_chains`.
    """
    reach = model_side(kappas[0], base, lengths[0], theta1)
    theta = theta1
    for j in range(1, len(lengths)):
        back = angle_from_sides(kappas[j - 1], base, reach, lengths[j - 1])
        room = math.pi - back
        if room <= _SECOND_ANGLE_FLOOR:
            return None
        theta = rng.uniform(_SECOND_ANGLE_FLOOR, room)
        base, reach = reach, model_side(kappas[j], reach, lengths[j], theta)
    return reach, theta


# ---------------------------------------------------------------------------
# batch engine

# A block holds at most this many trial-by-segment cells (and at least one
# trial), so its memory grows with neither the trial count nor, up to this
# many segments, the chain length.
_BLOCK_CELLS = 16384
# the block index whose Philox key feeds extension's deterministic audits;
# no sweep draws 2**64 - 1 blocks
_AUDIT_BLOCK = 2**64 - 1


def _block_rows(width: int = 1) -> int:
    """Trials per block for trials that draw ``width`` values per segment column."""
    return max(1, _BLOCK_CELLS // max(width, 8))


class _Stream:
    """Uniform draws for one block of trials, from a Philox key of (seed, block).

    Every draw takes a whole block's worth of numbers and keeps the first
    ``count`` rows, so a trial's inputs do not depend on how many trials run.
    """

    def __init__(self, seed: int, index: int, rows: int, count: int):
        self.rng = np.random.Generator(np.random.Philox(key=int(seed) + (index << 64)))
        self.rows = rows
        self.count = count

    def uniform(self, lo=0.0, hi=1.0, cols: int | None = None) -> np.ndarray:
        size = self.rows if cols is None else (self.rows, cols)
        return lo + (hi - lo) * self.rng.random(size)[: self.count]

    def integers(self, lo: int, hi: int) -> np.ndarray:
        return self.rng.integers(lo, hi, self.rows)[: self.count]


def _streams(trials: int, seed: int, rows: int):
    for index, start in enumerate(range(0, trials, rows)):
        yield _Stream(seed, index, rows, min(rows, trials - start))


def _synthesize_chains(base, lengths, kappas, counts, theta1, uniforms):
    """:func:`_chain` for a block of trials at once, junction by junction.

    Row i glues ``counts[i]`` hinges from ``base[i]`` and the leading
    entries of ``lengths[i]`` and ``kappas[i]``; the hinge angle at junction
    j is ``lo + (hi - lo) * uniforms[i, j - 1]`` over the range ``_chain``
    draws from.  A row whose junction leaves no room, or whose kernel call
    would raise, dies there.  Returns the far distance and the last hinge
    angle per row, NaN for dead rows, and the number of hinges built.
    """
    reach = batch_model_side(kappas[:, 0], base, lengths[:, 0], theta1)
    near = np.array(base, dtype=float)
    theta = np.array(theta1, dtype=float)
    hinges = reach.size
    for j in range(1, lengths.shape[1]):
        rows = np.flatnonzero((counts > j) & ~np.isnan(reach))
        if rows.size == 0:
            break
        back, _ = batch_angle(kappas[rows, j - 1], near[rows], reach[rows], lengths[rows, j - 1])
        room = math.pi - back
        fits = room > _SECOND_ANGLE_FLOOR
        reach[rows[~fits]] = np.nan
        rows, room = rows[fits], room[fits]
        angle = _SECOND_ANGLE_FLOOR + (room - _SECOND_ANGLE_FLOOR) * uniforms[rows, j - 1]
        prev = reach[rows]
        near[rows] = prev
        reach[rows] = batch_model_side(kappas[rows, j], prev, lengths[rows, j], angle)
        theta[rows] = angle
        hinges += rows.size
    theta[np.isnan(reach)] = np.nan
    return reach, theta, hinges


def _blend_two(a, b, d, k1, k2, live):
    """:func:`kappa_bar_two` on the ``live`` rows, NaN elsewhere and where it raises.

    Also returns the number of inverses solved.
    """
    f1, f2 = batch_f(a, k1), batch_f(a, k2)
    kbar = np.where(live & ~np.isnan(f1), k1, np.nan)
    solve = ~np.isnan(kbar) & (k1 != k2)
    a, b, d, k1, k2, f1, f2 = (x[solve] for x in (a, b, d, k1, k2, f1, f2))
    s = b + d
    y = ((b * b + 2.0 * b * d) * f1 + d * d * f2) / (s * s)
    lo, hi = np.minimum(k1, k2), np.maximum(k1, k2)
    pad = 1e-9 * (1.0 + hi - lo)
    kbar[solve] = batch_f_inverse(a, y, lo - pad, hi + pad)
    return kbar, int(solve.sum())


def _blend_lower(lengths, kappas):
    """Relaxed lower blend of rows of zero-padded chains."""
    return (_hinge_weights(lengths) * kappas).sum(axis=-1)


def _blend_sharp(a, lengths, kappas, within, live):
    """Sharp blend of :func:`kappa_bar_multi` on the ``live`` rows, NaN elsewhere.

    ``within`` masks each row's segments.  Also returns the number of
    inverses solved.
    """
    y = np.where(within, _hinge_weights(lengths) * batch_f(a[:, None], kappas), 0.0).sum(axis=1)
    lo = np.where(within, kappas, np.inf).min(axis=1)
    hi = np.where(within, kappas, -np.inf).max(axis=1)
    sharp = np.where(live & ~np.isnan(y), lo, np.nan)
    solve = ~np.isnan(sharp) & (lo != hi)
    pad = 1e-9 * (1.0 + hi - lo)
    sharp[solve] = batch_f_inverse(a[solve], y[solve], (lo - pad)[solve], (hi + pad)[solve])
    return sharp, int(solve.sum())


def _extension_star(a, r, kappa, live):
    """:func:`kappa_star_extension` on the ``live`` entries, NaN elsewhere.

    Also returns the number of inverses solved.
    """
    a, r, kappa, live = np.broadcast_arrays(a, r, kappa, live)
    y = batch_f(r, kappa)
    star = np.where(live & (0.0 < r) & (r <= a) & ~np.isnan(y), kappa, np.nan)
    solve = ~np.isnan(star) & (a != r)
    k = kappa[solve]
    star[solve] = batch_f_inverse(a[solve], y[solve], -1.0e4, k + 1e-9 * (1.0 + np.abs(k)))
    return star, int(solve.sum())


@dataclass
class _Block:
    """Outcomes of one block of a sweep, one row per comparison.

    A NaN defect marks a row that gives none; ``vacuous`` marks those whose
    model angle does not exist.  ``budget`` is None for a sweep without a
    defect budget.  ``inputs`` holds what each row drew and derived;
    ``record(i)`` is row i's worst-case entry.
    """

    defect: np.ndarray
    vacuous: np.ndarray
    budget: np.ndarray | None
    failed: dict
    inputs: dict
    record: Callable[[int], dict]
    hinges: int = 0
    inverses: int = 0


def _floats(inputs: dict, names, i: int) -> dict:
    return {name: float(inputs[name][i]) for name in names}


def _sweep(lemma, trials, seed, block, rows, tolerances, audits=()) -> SweepReport:
    """Run ``block`` over the Philox blocks of ``trials`` and collect a report.

    Only the running minimum, its row's record and the counts outlive a
    block.  An audit counts a failure only on an evaluated row.
    """
    if trials < 1:
        raise GeometryError("trials must be >= 1")
    counts = dict.fromkeys(audits, 0)
    work = {"blocks": 0, "hinges": 0, "inverses": 0}
    comparisons = evaluated = vacuous = violations = 0
    min_defect, worst = math.inf, {}
    for stream in _streams(trials, seed, rows):
        out = block(stream)
        live = ~np.isnan(out.defect)
        work["blocks"] += 1
        work["hinges"] += out.hinges
        work["inverses"] += out.inverses
        comparisons += out.defect.size
        evaluated += int(live.sum())
        vacuous += int(out.vacuous.sum())
        if out.budget is not None:
            violations += int(np.sum(out.defect[live] < -out.budget[live]))
        for name in audits:
            counts[name] += int(np.sum(out.failed[name] & live))
        if live.any():
            i = int(np.nanargmin(out.defect))
            if out.defect[i] < min_defect:
                min_defect = float(out.defect[i])
                worst = {**out.record(i), "signed_defect": min_defect}
                if out.budget is not None:
                    worst["budget"] = float(out.budget[i])
    return SweepReport(
        lemma=lemma,
        trials=trials,
        evaluated=evaluated,
        vacuous=vacuous,
        skipped=comparisons - evaluated - vacuous,
        min_signed_defect=min_defect,
        budget_violations=None if out.budget is None else violations,
        worst_case=worst,
        extra=counts,
        work=work,
        tolerances=tolerances,
    )


def _check_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale > 0.0):
        raise GeometryError(f"scale must be finite and positive, got {scale!r}")


def _chain_lengths(stream, scale, within):
    """Segment lengths summing to a drawn total, zero past each row's count."""
    raw = np.where(within, stream.uniform(0.05, 1.0, within.shape[1]), 0.0)
    total = scale * stream.uniform(0.05, 1.0)
    return total[:, None] * raw / raw.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# verification sweeps


def _weighted2(scale, kappa_range, a_range):
    _check_scale(scale)
    klo, khi = _check_range("kappa_range", kappa_range)
    alo, ahi = _check_range("a_range", a_range, positive=True)

    def block(stream):
        a = stream.uniform(alo, ahi)
        k1 = stream.uniform(klo, khi)
        k2 = stream.uniform(klo, khi)
        total = scale * stream.uniform(0.05, 1.0)
        b = total * stream.uniform()
        d = total - b
        theta1 = stream.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        junction = stream.uniform(cols=1)
        ps, theta2, hinges = _synthesize_chains(
            a, np.stack([b, d], axis=1), np.stack([k1, k2], axis=1), 2, theta1, junction)
        live = ~np.isnan(ps) & (b > 0.0) & (d > 0.0)
        kbar, inverses = _blend_two(a, b, d, k1, k2, live)
        s = b + d
        rhs, vacuous = batch_angle(kbar, ps, a, s)
        bound1 = ((b * b + 2.0 * b * d) * k1 + d * d * k2) / (s * s)
        bound2 = np.minimum(k1, (b * b * k1 + d * d * k2) / (b * b + d * d))
        inputs = {"a": a, "b": b, "d": d, "k1": k1, "k2": k2, "theta1": theta1,
                  "theta2": theta2, "kappa_bar": kbar, "junction": junction}
        return _Block(
            defect=theta1 - rhs, vacuous=vacuous, budget=s ** BUDGET_EXPONENT,
            failed={"remark_bound_failures": kbar < np.maximum(bound1, bound2) - 1e-9},
            inputs=inputs, hinges=hinges, inverses=inverses,
            record=lambda i: _floats(inputs, ("a", "b", "d", "k1", "k2", "theta1",
                                              "theta2", "kappa_bar"), i))

    return block


def verify_weighted_pair(
    trials: int,
    scale: float = 1e-2,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    a_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
) -> SweepReport:
    """Sweep the two-hinge blend: synthesize, blend, compare, record defects.

    Each trial builds a hinge at q in curvature k1 (legs a and b, sampled
    angle), reads off the angle the first triangle makes at the interior
    point, attaches a second hinge there in curvature k2 whose angle keeps
    the hypothesis sum <= pi by construction, and compares the base angle
    against the comparison angle at the blended curvature.  The signed
    defect must stay above -(b+d)^BUDGET_EXPONENT.  Also audits both lower
    bounds on the blended curvature.
    """
    block = _weighted2(scale, kappa_range, a_range)
    return _sweep("weighted2", trials, seed, block, _block_rows(),
                  {"budget_exponent": BUDGET_EXPONENT}, audits=("remark_bound_failures",))


def _multi(scale, kappa_range, a_range, max_segments):
    _check_scale(scale)
    klo, khi = _check_range("kappa_range", kappa_range)
    alo, ahi = _check_range("a_range", a_range, positive=True)
    if max_segments < 2:
        raise GeometryError(f"max_segments must be >= 2, got {max_segments!r}")

    def block(stream):
        a = stream.uniform(alo, ahi)
        n = stream.integers(2, max_segments + 1)
        within = np.arange(max_segments) < n[:, None]
        kappas = stream.uniform(klo, khi, cols=max_segments)
        lengths = _chain_lengths(stream, scale, within)
        theta1 = stream.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        junction = stream.uniform(cols=max_segments - 1)
        reach, _, hinges = _synthesize_chains(a, lengths, kappas, n, theta1, junction)
        live = ~np.isnan(reach)
        s = lengths.sum(axis=1)
        kf, inverses = _blend_sharp(a, lengths, kappas, within, live)
        klower = _blend_lower(lengths, kappas)
        pair = live & (n == 2)
        kb2, paired = _blend_two(a, lengths[:, 0], lengths[:, 1], kappas[:, 0], kappas[:, 1], pair)
        rhs, undefined = batch_angle(kf, reach, a, s)
        defect = theta1 - rhs
        # kappa_bar_two raises on these rows before the comparison angle
        broken = pair & np.isnan(kb2)
        defect[broken] = np.nan
        inputs = {"a": a, "n": n, "lengths": lengths, "kappas": kappas, "theta1": theta1,
                  "kappa_bar_f": kf, "kappa_bar_lower": klower, "junction": junction}

        def record(i):
            m = int(n[i])
            return {**_floats(inputs, ("a", "theta1", "kappa_bar_f", "kappa_bar_lower"), i),
                    "n": m, "lengths": lengths[i, :m].tolist(), "kappas": kappas[i, :m].tolist()}

        return _Block(
            defect=defect, vacuous=undefined & ~broken, budget=s ** BUDGET_EXPONENT,
            failed={"ordering_failures": kf < klower - 1e-9,
                    "pair_consistency_failures": pair & (np.abs(kb2 - kf) > 1e-10)},
            inputs=inputs, record=record, hinges=hinges, inverses=inverses + paired)

    return block


def verify_weighted_multi(
    trials: int,
    scale: float = 1e-2,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    a_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
    max_segments: int = 6,
) -> SweepReport:
    """Sweep the multi-segment blend with chains of up to ``max_segments`` hinges.

    The chain is built so that the angle-sum hypothesis holds exactly at
    every interior point.  Audits the concavity ordering between the sharp
    and relaxed blend values and, for two-segment chains, agreement with
    :func:`kappa_bar_two`.
    """
    block = _multi(scale, kappa_range, a_range, max_segments)
    return _sweep("multi", trials, seed, block, _block_rows(max_segments),
                  {"budget_exponent": BUDGET_EXPONENT},
                  audits=("ordering_failures", "pair_consistency_failures"))


def _alternating(scale, kappa_range, a_range):
    _check_scale(scale)
    klo, khi = _check_range("kappa_range", kappa_range)
    alo, ahi = _check_range("a_range", a_range, positive=True)
    width = 2 * MAX_BLOCKS

    def block(stream):
        a = stream.uniform(alo, ahi)
        kappa = stream.uniform(klo, khi)
        kappa_star = kappa - stream.uniform(0.0, 3.0)
        nblocks = stream.integers(1, MAX_BLOCKS + 1)
        n = 2 * nblocks
        within = np.arange(width) < n[:, None]
        kappas = np.repeat(kappa[:, None], width, axis=1)
        kappas[:, 1::2] = stream.uniform(kappa_star[:, None], kappa[:, None], cols=MAX_BLOCKS)
        lengths = _chain_lengths(stream, scale, within)
        theta1 = stream.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        junction = stream.uniform(cols=width - 1)
        reach, _, hinges = _synthesize_chains(a, lengths, kappas, n, theta1, junction)
        s = lengths.sum(axis=1)
        good = lengths[:, 0::2].sum(axis=1)
        ratio = good / (lengths[:, 0::2] + lengths[:, 1::2]).sum(axis=1)
        kalt = ratio * ratio * (kappa - kappa_star) + kappa_star
        klower = _blend_lower(lengths, kappas)
        rhs, vacuous = batch_angle(kalt, reach, a, s)
        inputs = {"a": a, "kappa": kappa, "kappa_star": kappa_star, "n": n,
                  "lengths": lengths, "kappas": kappas, "theta1": theta1,
                  "kappa_bar_alt": kalt, "good_fraction": good / s, "junction": junction}

        def record(i):
            pairs = lengths[i, : n[i]].reshape(-1, 2)
            return {**_floats(inputs, ("a", "kappa", "kappa_star", "theta1", "kappa_bar_alt",
                                       "good_fraction"), i),
                    "blocks": pairs.tolist()}

        return _Block(
            defect=theta1 - rhs, vacuous=vacuous, budget=s ** BUDGET_EXPONENT,
            failed={"dominance_failures": kalt > klower + 1e-9},
            inputs=inputs, record=record, hinges=hinges)

    return block


def verify_alternating(
    trials: int,
    scale: float = 1e-2,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    a_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
) -> SweepReport:
    """Sweep the alternating blend: good segments at kappa, gaps above kappa_star.

    Chains 2N hinges whose odd segments carry the dominant curvature and
    whose even segments carry sampled curvatures in [kappa_star, kappa],
    then compares the base angle at the closed-form alternating blend.
    Also audits that the closed form never exceeds the relaxed multi-blend
    of the same chain, the plain weighted average of its curvatures.
    """
    block = _alternating(scale, kappa_range, a_range)
    return _sweep("alternating", trials, seed, block, _block_rows(2 * MAX_BLOCKS),
                  {"budget_exponent": BUDGET_EXPONENT}, audits=("dominance_failures",))


def _extension(scale, kappa_range):
    _check_scale(scale)
    klo, khi = _check_range("kappa_range", kappa_range)

    def block(stream):
        r = stream.uniform(0.3, 1.5)
        a = r * (1.0 + stream.uniform(1e-3, 1.5))
        kappa = stream.uniform(klo, khi)
        u = scale * stream.uniform(0.05, 1.0)
        theta = stream.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        far = (a - r) + batch_model_side(kappa, r, u, theta)
        kstar, inverses = _extension_star(a, r, kappa, ~np.isnan(far))
        psi, vacuous = batch_angle(kstar, far, a, u)
        inputs = {"a": a, "r": r, "kappa": kappa, "u": u, "theta": theta, "kappa_star": kstar}
        return _Block(
            defect=theta - psi, vacuous=vacuous,
            budget=EXTENSION_BUDGET_FACTOR * u ** EXTENSION_BUDGET_EXPONENT,
            failed={}, inputs=inputs,
            record=lambda i: _floats(inputs, tuple(inputs), i),
            hinges=r.size, inverses=inverses)

    return block


def verify_extension(
    trials: int,
    scale: float = 1e-3,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    seed: int = 0,
) -> SweepReport:
    """Sweep the extension curvature: hinge at r, worst-case growth to a.

    Each trial builds a hinge of legs r and u (u <= scale) at a sampled
    angle, extends the r-leg to length a taking the triangle-inequality
    extreme for the far distance, and compares the original angle against
    the comparison angle at the extension curvature.  The budget,
    EXTENSION_BUDGET_FACTOR * u^EXTENSION_BUDGET_EXPONENT, dominates the
    second-order residual.  Also audits, in one array inverse, monotonicity
    in the extension length on 8 deterministic grids of ``_AUDIT_POINTS``
    lengths and the a -> r limit; an inverse that fails there counts as an
    audit failure.
    """
    block = _extension(scale, kappa_range)
    report = _sweep("extension", trials, seed, block, _block_rows(),
                    {"budget_exponent": EXTENSION_BUDGET_EXPONENT,
                     "budget_factor": EXTENSION_BUDGET_FACTOR})
    klo, khi = kappa_range
    audit = _Stream(seed, _AUDIT_BLOCK, 8, 8)
    r = audit.uniform(0.3, 1.2)
    kappa = audit.uniform(klo, khi)
    grid = np.linspace(r * 1.001, r * 2.5, _AUDIT_POINTS, axis=1)
    lengths = np.concatenate([grid, (r + 1e-6)[:, None]], axis=1)
    stars, inverses = _extension_star(lengths, r[:, None], kappa[:, None], True)
    curve, limit = stars[:, :-1], stars[:, -1]
    monotone = (curve[:, 1:] <= curve[:, :-1] + 1e-12).all(axis=1)
    report.extra.update(monotonicity_failures=int(np.sum(~monotone)),
                        limit_failures=int(np.sum(~(np.abs(limit - kappa) <= 1e-3))))
    report.work["inverses"] += inverses
    return report


def _alexandrov(kappas, tol):
    ks = np.asarray(kappas, dtype=float)[:, None]

    def block(stream):
        def rows(x):
            """Trial-major rows: trial i at kappas[j] is row i * len(kappas) + j."""
            return np.broadcast_to(x, (ks.size, stream.count)).T.ravel()

        ambient = stream.uniform(-2.0, 2.0)
        b = stream.uniform(0.05, 0.5)
        d = stream.uniform(0.05, 0.5)
        e = stream.uniform(0.1, 0.8)
        phi = stream.uniform(0.05, math.pi - 0.05)
        pq = batch_model_side(ambient, e, b, phi)
        ps = batch_model_side(ambient, e, d, math.pi - phi)
        # alexandrov_lemma_check's four angles at every curvature, stacked in
        # its order: the first one that raises decides vacuous or skipped
        triangles = ((e, pq, b), (ps, pq, b + d), (pq, e, b), (ps, e, d))
        angles, undefined = batch_angle(ks, *(np.stack(side)[:, None]
                                              for side in zip(*triangles)))
        _, vacuous = first_missing(angles, undefined)
        near, far, back, forward = angles
        margin_base, margin_split = rows(near - far), rows(math.pi - (back + forward))
        # below -tol exactly where the two margins disagree in sign beyond tol
        defect = (np.sign(margin_base) * np.sign(margin_split)
                  * np.minimum(np.abs(margin_base), np.abs(margin_split)))
        inputs = {"kappa": rows(ks), "ambient": rows(ambient), "pq": rows(pq), "ps": rows(ps),
                  "px": rows(e), "qx": rows(b), "xs": rows(d), "phi": rows(phi),
                  "margin_base": margin_base, "margin_split": margin_split}
        return _Block(
            defect=defect, vacuous=rows(vacuous), budget=None,
            failed={"disagreement_failures": defect < -tol}, inputs=inputs,
            record=lambda i: _floats(inputs, ("kappa", "ambient", "pq", "ps", "px", "qx", "xs",
                                              "margin_base", "margin_split"), i),
            hinges=2 * b.size)

    return block


def verify_alexandrov(
    trials: int,
    kappas: tuple[float, ...] = (-1.0, 0.0, 1.0),
    seed: int = 0,
    tol: float = 1e-9,
) -> SweepReport:
    """Sweep the four-point equivalence over embedded random configurations.

    Configurations are synthesized inside a model surface of random ambient
    curvature (so the five distances are genuinely realizable with the
    interior point on the far side), then both conditions are evaluated at
    each requested comparison curvature.  A comparison's signed defect is
    sign(mb * ms) * min(|mb|, |ms|) for the base and split margins, so a
    disagreement outside ``tol`` is a defect below -tol and a failure; the
    sweep has no defect budget.  An undefined model angle makes a comparison
    vacuous; an unbuilt configuration or an invalid model triangle skips it.
    """
    return _sweep("alexandrov", trials, seed, _alexandrov(kappas, tol), _block_rows(),
                  {"tol": tol}, audits=("disagreement_failures",))
