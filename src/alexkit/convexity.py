"""Probabilistic convexity estimation on discretized incomplete domains.

A point x on a geodesic of the completion counts as connectable to p when
x itself carries the open-domain flag and the restricted-to-U graph
distance from p stays within a slack factor of the completion distance.
The slack separates mesh distortion from genuine obstruction: an open set
generally contains no exact minimizer (paths may graze the boundary), so
at discrete resolution "a minimizer survives inside U" means the
restricted length is within slack of optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryError, ResolutionError, TickBoundError, UnreachableError
from .spaces import DiscreteLengthSpace

_Z95 = 1.959963984540054
# the most points a geodesic is sampled at; a finer step is refused
_MAX_TICKS = 1_000_000
# a lattice length often equals a multiple of h exactly: the tick count and the
# ring index allow this relative slack, so that rescaling cannot move them
_REL_SLACK = 1e-12


def _slack(space: DiscreteLengthSpace, slack: float | None) -> float:
    """The given slack, checked, or twice the space's distortion bound by default."""
    if slack is None:
        return 2.0 * space.h_err
    if not 0.0 <= slack < math.inf:
        raise GeometryError(f"slack must be nonnegative and finite, got {slack!r}")
    return slack


def _step(space: DiscreteLengthSpace, step: float | None) -> float:
    """The given sample spacing along a geodesic, checked, or one mesh cell by default."""
    if step is None:
        if space.h <= 0.0:
            raise GeometryError("space lacks a mesh size; give a step")
        return space.h
    if not 0.0 < step < math.inf:
        raise GeometryError(f"step must be positive and finite, got {step!r}")
    return step


@dataclass
class ConvexityReport:
    """Outcome of one convexity estimate: the fields it measured, and None for the rest.

    Geodesic estimates set ``step`` and, when asked, ``series``; the domain
    estimate samples vertices and sets ``interval``.  README defines each field.
    """

    probability: float
    samples: int
    slack: float
    detail: dict
    step: float | None = None
    interval: list | None = None
    series: dict | None = None


def _connectable_mask(space: DiscreteLengthSpace, p: int, xs: np.ndarray,
                      slack: float) -> np.ndarray:
    """Which of the vertices ``xs`` a surviving in-domain minimizer reaches from p.

    Monotone nondecreasing in ``slack``; unreachable (or boundary) targets
    count as False, and p itself as True.
    """
    d_rest = space.distance_field(p, restrict_to_U=True)[xs]
    d_full = space.distance_field(p)[xs]
    reached = np.isfinite(d_rest) & (d_rest <= d_full * (1.0 + slack) * (1.0 + _REL_SLACK))
    return space.in_U[p] & space.in_U[xs] & ((xs == p) | reached)


def prob_convexity(
    space: DiscreteLengthSpace,
    p: int,
    q: int,
    s: int,
    step: float | None = None,
    slack: float | None = None,
    keep_series: bool = False,
) -> ConvexityReport:
    """Fraction of a fixed completion geodesic [qs] connectable to p.

    Samples the geodesic at arc spacing at most ``step`` (one mesh cell by
    default) up to a relative ``_REL_SLACK``, counting each sample point by
    measure; a step that would need more than ``_MAX_TICKS`` points raises
    :class:`TickBoundError` before they are built.  Deterministic for fixed
    inputs: the geodesic itself is the deterministic shortest-path walk.
    """
    if q == s:
        raise GeometryError("probability needs distinct geodesic endpoints")
    step = _step(space, step)
    slack = _slack(space, slack)
    path = space.shortest_path(q, s, restrict_to_U=False)
    length = path.length
    spans = length / step
    if spans > _MAX_TICKS - 1:
        raise TickBoundError(
            f"step {step!r} would sample the geodesic of length {length!r} at "
            f"{spans + 1:.4g} ticks, above the bound of {_MAX_TICKS}"
        )
    n_ticks = max(2, int(math.ceil(spans * (1.0 - _REL_SLACK))) + 1)
    ticks = np.linspace(0.0, length, n_ticks)
    xs = path.vertices_at_arcs(ticks)
    flags = _connectable_mask(space, p, xs, slack)
    series = None
    if keep_series:
        series = {"arc_length": ticks.tolist(), "connectable": flags.astype(int).tolist()}
    return ConvexityReport(
        probability=float(np.mean(flags)), samples=n_ticks, slack=slack,
        detail={"p": p, "q": q, "s": s, "geodesic_length": length}, step=step, series=series,
    )


# why the search passes over a drawn triple without a probability
DROP_REASONS = ("equal_endpoints", "unreachable", "geometry_error")


def _ball(space: DiscreteLengthSpace, center: int, epsilon: float):
    """The open vertices within epsilon of center, and their rings of width h, by ring and id."""
    d = space.distance_field(center)
    ids = np.flatnonzero((d <= epsilon) & space.in_U)
    if len(ids) == 0:
        raise ResolutionError(f"no open-domain vertices within epsilon of {center}")
    rings = np.minimum((d[ids] / max(space.h, 1e-300) * (1.0 + _REL_SLACK)).astype(int), 1_000_000)
    order = np.lexsort((ids, rings))
    return ids[order], rings[order]


def _draw(ball, rng) -> int:
    """A vertex of the ball: a uniform ring, then a uniform member of it."""
    ids, rings = ball
    ring_values = np.unique(rings)
    rv = ring_values[int(rng.integers(0, len(ring_values)))]
    members = ids[rings == rv]
    return int(members[int(rng.integers(0, len(members)))])


def weak_lambda_search(
    space: DiscreteLengthSpace,
    p: int,
    q: int,
    s: int,
    epsilon: float,
    candidates: int = 64,
    step: float | None = None,
    slack: float | None = None,
    seed: int = 0,
) -> ConvexityReport:
    """Best connectable fraction over perturbed triples within epsilon balls.

    Candidate perturbations are mesh vertices drawn from the epsilon balls
    around p, q and s, stratified by distance ring so near and far
    perturbations are both explored.  The unperturbed triple is always
    candidate zero.  The best probability found is a lower bound for the
    attainable level; ties go to the lowest (p, q, s).

    The distinct drawn triples are evaluated in ascending (p, q, s) order,
    so the first with probability 1 is the best one and the search stops
    there; ``candidates_evaluated`` counts the triples evaluated until then,
    and ``candidates_dropped`` the ones passed over on the way, by reason
    (:data:`DROP_REASONS`): q equal to s, no completion geodesic from q to
    s, or another :class:`GeometryError` of the estimate.
    """
    if candidates < 1:
        raise GeometryError(f"search needs at least one candidate, got {candidates}")
    step = _step(space, step)
    if epsilon == math.inf:
        raise GeometryError("search epsilon must be finite, got inf")
    if not epsilon >= space.h:
        raise ResolutionError(
            f"epsilon {epsilon!r} below one mesh cell {space.h!r}; nothing to perturb"
        )
    slack = _slack(space, slack)
    rng = np.random.default_rng(seed)
    balls = [_ball(space, center, epsilon) for center in (p, q, s)]
    best: ConvexityReport | None = None
    triples = {(p, q, s)}
    for _ in range(candidates - 1):
        triples.add(tuple(_draw(ball, rng) for ball in balls))
    evaluated = 0
    dropped = dict.fromkeys(DROP_REASONS, 0)
    for (pp, qq, ss) in sorted(triples):
        if qq == ss:
            dropped["equal_endpoints"] += 1
            continue
        try:
            rep = prob_convexity(space, pp, qq, ss, step=step, slack=slack)
        except TickBoundError:
            raise
        except UnreachableError:
            dropped["unreachable"] += 1
            continue
        except GeometryError:
            dropped["geometry_error"] += 1
            continue
        evaluated += 1
        # triples come in ascending order, so the first of equal probability is kept
        if best is None or rep.probability > best.probability:
            best = rep
            best_triple = (pp, qq, ss)
        if rep.probability == 1.0:
            break  # no later triple can do better
    if best is None:
        raise UnreachableError("no candidate triple admitted a geodesic")
    return replace(best, detail={
        "origin": {"p": p, "q": q, "s": s}, "best_triple": dict(zip("pqs", best_triple)),
        "geodesic_length": best.detail["geodesic_length"],
        "candidates_requested": candidates, "candidates_evaluated": evaluated,
        "candidates_dropped": dropped,
    })


def _wilson(k: int, n: int, population: int) -> list[float]:
    """Wilson's 95% interval for k hits in n draws without replacement from ``population``.

    The upper end takes the misses' term from d = n + c as the lower end adds
    the hits', so k = n gives exactly 1, k = 0 exactly 0, and c = 0 exactly k/n.
    """
    c = _Z95 * _Z95 * (population - n) / max(population - 1, 1)
    r = math.sqrt(c * (k * (n - k) / n + c / 4.0))
    d = n + c
    return [(k + c / 2.0 - r) / d, (d - (n - k + c / 2.0 - r)) / d]


def ae_convexity_estimate(
    space: DiscreteLengthSpace,
    p: int,
    samples: int = 2000,
    slack: float | None = None,
    seed: int = 0,
) -> ConvexityReport:
    """Fraction of the open domain connectable to p (vertex-count measure).

    Samples open-domain vertices uniformly without replacement, or counts
    all of them when there are at most ``samples``.  ``interval`` is the
    95% Wilson (1927) score interval for the fraction over all N open
    vertices, with the finite-population correction: z² is scaled by
    (N - n)/(N - 1), so the interval is [p, p] once all n = N are counted.
    Comparable against the perturbed-triple estimate on the same domain:
    almost-everywhere connectability should force the latter toward one.
    """
    if not space.in_U[p]:
        raise GeometryError("base point must lie in the open domain")
    if samples < 1:
        raise GeometryError(f"estimate needs at least one sample, got {samples}")
    slack = _slack(space, slack)
    rng = np.random.default_rng(seed)
    ids = np.flatnonzero(space.in_U)
    population = len(ids)
    if population > samples:
        ids = np.sort(rng.choice(ids, size=samples, replace=False))
    mask = _connectable_mask(space, p, ids, slack)
    return ConvexityReport(probability=float(np.mean(mask)), samples=len(ids), slack=slack,
                           detail={"p": p, "mode": "vertex_fraction"},
                           interval=_wilson(int(mask.sum()), len(ids), population))
