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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAngleError,
    GeometryError,
    InvalidTriangleError,
    TrigDomainError,
    UndefinedModelAngleError,
)
from .trig import angle_from_sides, check_curvature, f, f_inverse, model_side

DEFAULT_BUDGET_EXPONENT = 2.5

# hinge synthesis keeps angles away from the degenerate 0 / pi endpoints
_ANGLE_FLOOR = 0.1
_SECOND_ANGLE_FLOOR = 0.05


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # keyed per trial so chunked/parallel execution cannot change results
    return np.random.default_rng([int(seed), int(index)])


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
    of k1, k2 by concavity of f.
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


def _hinge_weights(lengths: list[float]) -> np.ndarray:
    c = np.asarray(lengths, dtype=float)
    total = c.sum()
    suffix = np.concatenate([np.cumsum(c[::-1])[::-1][1:], [0.0]])
    return c * (c + 2.0 * suffix) / (total * total)


def kappa_bar_multi(config: HingeConfig) -> tuple[float, float]:
    """Blended curvature for a chain of glued hinges, in both published forms.

    Returns ``(kappa_bar_f, kappa_bar_lower)``: the sharp value solving the
    f-weighted equation, and the plain weighted average of the segment
    curvatures.  Concavity of f forces kappa_bar_f >= kappa_bar_lower, and
    for two segments kappa_bar_f coincides with :func:`kappa_bar_two`.
    """
    lengths = [seg[0] for seg in config.segments]
    kappas = [seg[1] for seg in config.segments]
    w = _hinge_weights(lengths)
    lower = float(np.dot(w, kappas))
    if max(kappas) == min(kappas):
        f(config.base, kappas[0])
        return kappas[0], lower
    fvals = np.array([f(config.base, k) for k in kappas])
    y = float(np.dot(w, fvals))
    lo, hi = min(kappas), max(kappas)
    pad = 1e-9 * (1.0 + hi - lo)
    kf = f_inverse(config.base, y, bracket=(lo - pad, hi + pad))
    return kf, lower


def kappa_bar_alternating(config: AlternatingConfig) -> float:
    """Closed-form blend for the alternating pattern.

    (sum b)^2 (kappa - kappa_star) / (sum b + sum d)^2 + kappa_star; equal to
    kappa when nothing is uncontrolled, to kappa_star when nothing is good,
    and always between the two.
    """
    bsum = sum(b for b, _ in config.blocks)
    total = sum(b + d for b, d in config.blocks)
    ratio = bsum / total
    return ratio * ratio * (config.kappa - config.kappa_star) + config.kappa_star


def kappa_star_extension(a: float, r: float, kappa: float) -> float:
    """Comparison curvature surviving an extension of a hinge leg from r to a.

    Returns f_a^{-1}(f_r(kappa)); equals kappa at a = r and decreases as the
    leg grows.
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
    comparison vacuous.
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
    """Outcome of a synthetic-hinge sweep for one lemma."""

    lemma: str
    trials: int
    evaluated: int
    skipped: int
    seed: int
    scale: float
    budget_exponent: float
    min_signed_defect: float
    max_defect: float            # worst violation, 0.0 when every defect is nonnegative
    budget_violations: int
    worst_case: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        ok = self.budget_violations == 0
        for key, val in self.extra.items():
            if key.endswith("_failures"):
                ok = ok and val == 0
        return ok

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "trials": self.trials,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "seed": self.seed,
            "scale": self.scale,
            "budget": {"exponent": self.budget_exponent, "form": "(total length)^exponent"},
            "min_signed_defect": self.min_signed_defect,
            "max_defect": self.max_defect,
            "budget_violations": self.budget_violations,
            "passed": self.passed,
            "worst_case": self.worst_case,
            **self.extra,
        }


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


def _sweep(lemma, trials, seed, scale, exponent, trial, audits=(), extra=None) -> SweepReport:
    """Run ``trial`` on per-trial streams and collect its defects into a report.

    ``trial(rng)`` returns None to skip, or ``(defect, budget, inputs,
    failed)`` with ``failed`` the names among ``audits`` whose check
    failed.  A trial that raises GeometryError is skipped.
    """
    if trials < 1:
        raise GeometryError("trials must be >= 1")
    if not (math.isfinite(scale) and scale > 0.0):
        raise GeometryError(f"scale must be finite and positive, got {scale!r}")
    counts = dict.fromkeys(audits, 0)
    defects, budgets, inputs = [], [], []
    skipped = 0
    for i in range(trials):
        try:
            outcome = trial(_trial_rng(seed, i))
        except GeometryError:
            outcome = None
        if outcome is None:
            skipped += 1
            continue
        defect, budget, record, failed = outcome
        for name in failed:
            counts[name] += 1
        defects.append(defect)
        budgets.append(budget)
        inputs.append(record)
    if defects:
        arr = np.asarray(defects)
        i = int(np.argmin(arr))
        min_defect = float(arr[i])
        violations = int(np.sum(arr < -np.asarray(budgets)))
        worst = dict(inputs[i])
        worst["signed_defect"] = min_defect
        worst["budget"] = float(budgets[i])
    else:
        min_defect = math.inf
        violations = 0
        worst = {}
    return SweepReport(
        lemma=lemma,
        trials=trials,
        evaluated=len(defects),
        skipped=skipped,
        seed=seed,
        scale=scale,
        budget_exponent=exponent,
        min_signed_defect=min_defect,
        max_defect=max(0.0, -min_defect) if defects else 0.0,
        budget_violations=violations,
        worst_case=worst,
        extra={**counts, **(extra or {})},
    )


def verify_weighted_pair(
    trials: int,
    scale: float = 1e-2,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    a_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
    budget_exponent: float = DEFAULT_BUDGET_EXPONENT,
) -> SweepReport:
    """Sweep the two-hinge blend: synthesize, blend, compare, record defects.

    Each trial builds a hinge at q in curvature k1 (legs a and b, sampled
    angle), reads off the angle the first triangle makes at the interior
    point, attaches a second hinge there in curvature k2 whose angle keeps
    the hypothesis sum <= pi by construction, and compares the base angle
    against the comparison angle at the blended curvature.  The signed
    defect must stay above -(b+d)^budget_exponent.  Also audits both lower
    bounds on the blended curvature.
    """
    klo, khi = _check_range("kappa_range", kappa_range)
    alo, ahi = _check_range("a_range", a_range, positive=True)

    def trial(rng):
        a = rng.uniform(alo, ahi)
        k1 = rng.uniform(klo, khi)
        k2 = rng.uniform(klo, khi)
        total = scale * rng.uniform(0.05, 1.0)
        b = total * rng.uniform(0.0, 1.0)
        d = total - b
        theta1 = rng.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        if b <= 0.0 or d <= 0.0:
            return None
        chain = _chain(rng, a, (b, d), (k1, k2), theta1)
        if chain is None:
            return None
        ps, theta2 = chain
        kbar = kappa_bar_two(a, b, d, k1, k2)
        s = b + d
        rhs = angle_from_sides(kbar, ps, a, s)
        bound1 = ((b * b + 2.0 * b * d) * k1 + d * d * k2) / (s * s)
        bound2 = min(k1, (b * b * k1 + d * d * k2) / (b * b + d * d))
        failed = ("remark_bound_failures",) if kbar < max(bound1, bound2) - 1e-9 else ()
        return (theta1 - rhs, s ** budget_exponent,
                {"a": a, "b": b, "d": d, "k1": k1, "k2": k2,
                 "theta1": theta1, "theta2": theta2, "kappa_bar": kbar},
                failed)

    return _sweep("weighted2", trials, seed, scale, budget_exponent, trial,
                  audits=("remark_bound_failures",))


def verify_weighted_multi(
    trials: int,
    scale: float = 1e-2,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    a_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
    max_segments: int = 6,
    budget_exponent: float = DEFAULT_BUDGET_EXPONENT,
) -> SweepReport:
    """Sweep the multi-segment blend with chains of up to ``max_segments`` hinges.

    The chain is built so that the angle-sum hypothesis holds exactly at
    every interior point.  Audits the concavity ordering between the sharp
    and relaxed blend values and, for two-segment chains, agreement with
    :func:`kappa_bar_two`.
    """
    klo, khi = _check_range("kappa_range", kappa_range)
    alo, ahi = _check_range("a_range", a_range, positive=True)
    if max_segments < 2:
        raise GeometryError(f"max_segments must be >= 2, got {max_segments!r}")

    def trial(rng):
        a = rng.uniform(alo, ahi)
        n = int(rng.integers(2, max_segments + 1))
        kappas = rng.uniform(klo, khi, size=n)
        raw = rng.uniform(0.05, 1.0, size=n)
        total = scale * rng.uniform(0.05, 1.0)
        lengths = total * raw / raw.sum()
        theta1 = rng.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        chain = _chain(rng, a, lengths, kappas, theta1)
        if chain is None:
            return None
        s = float(lengths.sum())
        kf, klower = kappa_bar_multi(HingeConfig(base=a, segments=tuple(zip(lengths, kappas))))
        rhs = angle_from_sides(kf, chain[0], a, s)
        failed = []
        if kf < klower - 1e-9:
            failed.append("ordering_failures")
        if n == 2:
            kb2 = kappa_bar_two(a, lengths[0], lengths[1], kappas[0], kappas[1])
            if abs(kb2 - kf) > 1e-10:
                failed.append("pair_consistency_failures")
        return (theta1 - rhs, s ** budget_exponent,
                {"a": a, "n": n, "lengths": [float(x) for x in lengths],
                 "kappas": [float(x) for x in kappas],
                 "theta1": theta1, "kappa_bar_f": kf, "kappa_bar_lower": klower},
                failed)

    return _sweep("multi", trials, seed, scale, budget_exponent, trial,
                  audits=("ordering_failures", "pair_consistency_failures"))


def verify_alternating(
    trials: int,
    scale: float = 1e-2,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    a_range: tuple[float, float] = (0.5, 2.0),
    seed: int = 0,
    max_blocks: int = 3,
    budget_exponent: float = DEFAULT_BUDGET_EXPONENT,
) -> SweepReport:
    """Sweep the alternating blend: good segments at kappa, gaps above kappa_star.

    Chains 2N hinges whose odd segments carry the dominant curvature and
    whose even segments carry sampled curvatures in [kappa_star, kappa],
    then compares the base angle at the closed-form alternating blend.
    Also audits that the closed form never exceeds the relaxed multi-blend
    of the same chain and matches the squared good-length fraction formula.
    """
    klo, khi = _check_range("kappa_range", kappa_range)
    alo, ahi = _check_range("a_range", a_range, positive=True)
    if max_blocks < 1:
        raise GeometryError(f"max_blocks must be >= 1, got {max_blocks!r}")

    def trial(rng):
        a = rng.uniform(alo, ahi)
        kappa = rng.uniform(klo, khi)
        kappa_star = kappa - rng.uniform(0.0, 3.0)
        nblocks = int(rng.integers(1, max_blocks + 1))
        n = 2 * nblocks
        kappas = np.empty(n)
        kappas[0::2] = kappa
        kappas[1::2] = rng.uniform(kappa_star, kappa, size=nblocks)
        raw = rng.uniform(0.05, 1.0, size=n)
        total = scale * rng.uniform(0.05, 1.0)
        lengths = total * raw / raw.sum()
        theta1 = rng.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        chain = _chain(rng, a, lengths, kappas, theta1)
        if chain is None:
            return None
        blocks = tuple(
            (float(lengths[2 * j]), float(lengths[2 * j + 1])) for j in range(nblocks)
        )
        s = float(lengths.sum())
        kalt = kappa_bar_alternating(
            AlternatingConfig(base=a, blocks=blocks, kappa=kappa, kappa_star=kappa_star)
        )
        _, klower = kappa_bar_multi(HingeConfig(base=a, segments=tuple(zip(lengths, kappas))))
        rhs = angle_from_sides(kalt, chain[0], a, s)
        failed = ("dominance_failures",) if kalt > klower + 1e-9 else ()
        return (theta1 - rhs, s ** budget_exponent,
                {"a": a, "kappa": kappa, "kappa_star": kappa_star,
                 "blocks": [list(b) for b in blocks], "theta1": theta1,
                 "kappa_bar_alt": kalt, "good_fraction": float(lengths[0::2].sum()) / s},
                failed)

    return _sweep("alternating", trials, seed, scale, budget_exponent, trial,
                  audits=("dominance_failures",))


def verify_extension(
    trials: int,
    scale: float = 1e-3,
    kappa_range: tuple[float, float] = (-2.0, 2.0),
    seed: int = 0,
    budget_exponent: float = 2.0,
    budget_factor: float = 50.0,
    sweep_points: int = 50,
) -> SweepReport:
    """Sweep the extension curvature: hinge at r, worst-case growth to a.

    Each trial builds a hinge of legs r and u (u <= scale) at a sampled
    angle, extends the r-leg to length a taking the triangle-inequality
    extreme for the far distance, and compares the original angle against
    the comparison angle at the extension curvature.  Budget is
    budget_factor * u^budget_exponent, dominating the second-order residual.
    Also audits monotonicity in the extension length on a deterministic
    grid and the a -> r limit.
    """
    klo, khi = _check_range("kappa_range", kappa_range)

    def trial(rng):
        r = rng.uniform(0.3, 1.5)
        a = r * (1.0 + rng.uniform(1e-3, 1.5))
        kappa = rng.uniform(klo, khi)
        u = scale * rng.uniform(0.05, 1.0)
        theta = rng.uniform(_ANGLE_FLOOR, math.pi - _ANGLE_FLOOR)
        far = (a - r) + model_side(kappa, r, u, theta)
        kstar = kappa_star_extension(a, r, kappa)
        psi = angle_from_sides(kstar, far, a, u)
        return (theta - psi, budget_factor * u ** budget_exponent,
                {"a": a, "r": r, "kappa": kappa, "u": u, "theta": theta, "kappa_star": kstar},
                ())

    report = _sweep("extension", trials, seed, scale, budget_exponent, trial,
                    extra={"budget_factor": budget_factor})
    # deterministic monotonicity and limit audits
    mono_failures = 0
    limit_failures = 0
    grid_rng = _trial_rng(seed, trials + 1)
    for _ in range(8):
        r = grid_rng.uniform(0.3, 1.2)
        kappa = grid_rng.uniform(klo, khi)
        avals = np.linspace(r * 1.001, r * 2.5, sweep_points)
        stars = [kappa_star_extension(float(av), r, kappa) for av in avals]
        if any(stars[j + 1] > stars[j] + 1e-12 for j in range(len(stars) - 1)):
            mono_failures += 1
        if abs(kappa_star_extension(r + 1e-6, r, kappa) - kappa) > 1e-3:
            limit_failures += 1
    report.extra.update(monotonicity_failures=mono_failures, limit_failures=limit_failures)
    return report


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
    each requested comparison curvature.  A disagreement outside ``tol``
    counts as a failure; undefined model angles count as vacuous.
    """
    if trials < 1:
        raise GeometryError("trials must be >= 1")
    disagreements = 0
    vacuous = 0
    evaluated = 0
    skipped = 0
    worst: dict = {}
    worst_margin = math.inf
    for i in range(trials):
        rng = _trial_rng(seed, i)
        ambient = rng.uniform(-2.0, 2.0)
        b = rng.uniform(0.05, 0.5)
        d = rng.uniform(0.05, 0.5)
        e = rng.uniform(0.1, 0.8)
        phi = rng.uniform(0.05, math.pi - 0.05)
        try:
            pq = model_side(ambient, e, b, phi)
            ps = model_side(ambient, e, d, math.pi - phi)
        except (TrigDomainError, UndefinedModelAngleError, InvalidTriangleError):
            skipped += 1
            continue
        for kappa in kappas:
            try:
                rep = alexandrov_lemma_check(kappa, pq=pq, ps=ps, px=e, qx=b, xs=d, tol=tol)
            except (InvalidTriangleError, DegenerateAngleError):
                skipped += 1
                continue
            if rep.vacuous:
                vacuous += 1
                continue
            evaluated += 1
            if not rep.agree:
                disagreements += 1
                gap = min(abs(rep.margin_base), abs(rep.margin_split))
                if gap < worst_margin:
                    worst_margin = gap
                    worst = {"kappa": kappa, "ambient": ambient, "pq": pq, "ps": ps,
                             "px": e, "qx": b, "xs": d,
                             "margin_base": rep.margin_base,
                             "margin_split": rep.margin_split}
    return SweepReport(
        lemma="alexandrov",
        trials=trials * len(kappas),
        evaluated=evaluated,
        skipped=skipped,
        seed=seed,
        scale=0.0,
        budget_exponent=0.0,
        min_signed_defect=0.0,
        max_defect=0.0,
        budget_violations=disagreements,
        worst_case=worst,
        extra={"vacuous": vacuous, "tolerance": tol,
               "disagreement_failures": disagreements},
    )
