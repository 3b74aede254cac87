"""Command-line frontend: generation, verification sweeps, convexity scans.

All reports are JSON with the full run configuration embedded; CSV exists
only for plot series.  Assertion failures are data, not crashes: the
report is written and the process exits 1.  Usage errors exit 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict

import click
import numpy as np

from . import comparison, convexity, domains, reporting, spaces
from .errors import GeometryError

# every seed keys a random stream; the sweeps' Philox keys hold it in 64 bits
_SEED = click.IntRange(0, 2**64 - 1)


def _emit(path, envelope):
    if path is None:
        click.echo(reporting.dump_canonical(envelope), nl=False)
    else:
        reporting.write_report(path, envelope)


def _finish(path, envelope, passed):
    _emit(path, envelope)
    if not passed:
        click.echo("FAIL: assertions violated (report written)", err=True)
        sys.exit(1)


@click.group()
def main():
    """Comparison-geometry toolkit."""


# ---------------------------------------------------------------------------
# lemma sweeps


@main.group()
def lemma():
    """Verification sweeps for the hinge-blending calculators."""


@lemma.command("verify")
@click.option("--which", required=True,
              type=click.Choice(["weighted2", "multi", "alternating", "extension", "alexandrov"]))
@click.option("--trials", default=10_000, show_default=True, type=int)
@click.option("--scale", default=1e-2, show_default=True, type=float)
@click.option("--kappa-min", default=-2.0, show_default=True, type=float)
@click.option("--kappa-max", default=2.0, show_default=True, type=float)
@click.option("--a-min", default=0.5, show_default=True, type=float)
@click.option("--a-max", default=2.0, show_default=True, type=float)
@click.option("--segments", default=6, show_default=True, type=int,
              help="Maximum chain length for the multi sweep.")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def lemma_verify(which, trials, scale, kappa_min, kappa_max, a_min, a_max,
                 segments, seed, output, no_timestamp):
    """Run a synthetic-hinge sweep and assert its defect budget."""
    kr = (kappa_min, kappa_max)
    ar = (a_min, a_max)
    # each sweep with the parameters it reads; the config echoes exactly these
    sweep, params = {
        "weighted2": (comparison.verify_weighted_pair,
                      {"scale": scale, "kappa_range": kr, "a_range": ar}),
        "multi": (comparison.verify_weighted_multi,
                  {"scale": scale, "kappa_range": kr, "a_range": ar, "max_segments": segments}),
        "alternating": (comparison.verify_alternating,
                        {"scale": scale, "kappa_range": kr, "a_range": ar, "max_blocks": 3}),
        # extension never runs above its default scale
        "extension": (comparison.verify_extension,
                      {"scale": min(scale, 1e-3), "kappa_range": kr}),
        "alexandrov": (comparison.verify_alexandrov,
                       {"kappas": (-1.0, 0.0, 1.0), "tol": 1e-9}),
    }[which]
    try:
        rep = sweep(trials, seed=seed, **params)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    config = {"which": which, "trials": trials, "seed": seed, **params}
    env = reporting.make_envelope(
        "lemma verify", config, rep.to_dict(), seed=seed,
        tolerances={"budget_exponent": rep.budget_exponent},
        timestamp=not no_timestamp,
    )
    _finish(output, env, rep.passed)


# ---------------------------------------------------------------------------
# domains


@main.group()
def domain():
    """Domain generators."""


def _coordinates(text):
    """Parse a comma-separated coordinate list such as ``0.5,0.25``."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise GeometryError(f"{text!r} is not a comma-separated list of numbers") from None


@domain.command("generate")
@click.option("--kind", required=True,
              type=click.Choice(["cap", "dense_square", "punctured", "sphere_points"]))
@click.option("--r", "cap_radius", default=0.0, type=float, help="Cap radius (0, pi).")
@click.option("--h", "resolution", default=0.05, show_default=True, type=float)
@click.option("--delta", default=0.2, show_default=True, type=float)
@click.option("--segments", "num_segments", default=200, show_default=True, type=int)
@click.option("--side", default=1.0, show_default=True, type=float)
@click.option("--stencil-radius", default=2, show_default=True, type=int)
@click.option("--remove-point", "removed_points", multiple=True,
              help="x,y of a removed point (repeatable).")
@click.option("--remove-segment", "removed_segments", multiple=True,
              help="x1,y1,x2,y2 of a removed slit (repeatable).")
@click.option("--n", "n_points", default=500, show_default=True, type=int,
              help="Point count for sphere_points (CSV distance matrix).")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def domain_generate(kind, cap_radius, resolution, delta, num_segments, side,
                    stencil_radius, removed_points, removed_segments, n_points,
                    seed, output):
    """Write a domain file: a graph file, or a CSV distance matrix."""
    try:
        if kind == "sphere_points":
            pts = domains.unit_sphere_points(n_points, seed=seed)
            ms = spaces.FiniteMetricSpace(pts.submatrix(np.arange(pts.n_points)))
            ms.to_csv(output)
            return
        pt = tuple(_coordinates(s) for s in removed_points)
        sg = tuple(_coordinates(s) for s in removed_segments)
        spec = domains.DomainSpec(
            kind=kind, resolution=resolution, cap_radius=cap_radius, delta=delta,
            num_segments=num_segments, removed_points=pt, removed_segments=sg,
            side=side, stencil_radius=stencil_radius,
        )
        space = domains.generate(spec, seed=seed)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    space.save(output)


def _load_space(path):
    """A graph file when the first non-blank byte is ``{``, else a CSV distance matrix."""
    head = b""
    with open(path, "rb") as fh:
        while not head and (chunk := fh.read(4096)):
            head = chunk.lstrip()
    if not head:
        raise GeometryError(f"{path} holds no data")
    if head.startswith(b"{"):
        return spaces.DiscreteLengthSpace.load(path)
    return spaces.FiniteMetricSpace.from_csv(path)


def _load_graph(path, **vertex_ids):
    """Load a graph file and check the named vertex ids against it."""
    sp = spaces.DiscreteLengthSpace.load(path)
    for name, v in vertex_ids.items():
        if v is not None and not 0 <= v < sp.n_vertices:
            raise GeometryError(f"--{name} {v} is not a vertex id in [0, {sp.n_vertices})")
    return sp


# ---------------------------------------------------------------------------
# scans


@main.group()
def space():
    """Curvature scans over spaces."""


@space.command("scan")
@click.option("--input", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kappa", required=True, type=float)
@click.option("--samples", default=100_000, show_default=True, type=int)
@click.option("--subset", default=600, show_default=True, type=int)
@click.option("--exhaustive", is_flag=True, default=False)
@click.option("--min-defect-tol", default=None, type=float,
              help="Assert the minimum defect stays above -tol.")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def space_scan(path, kappa, samples, subset, exhaustive, min_defect_tol, seed,
               output, no_timestamp):
    """Scan quadruples for the curvature condition; estimate kappa_max."""
    try:
        sp = _load_space(path)
        rep = spaces.scan_quadruples(sp, kappa, samples=samples, seed=seed,
                                     subset=subset, tol=min_defect_tol,
                                     exhaustive=exhaustive)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    config = {"input": str(path), "kappa": kappa, "samples": samples,
              "subset": subset, "exhaustive": exhaustive, "seed": seed}
    env = reporting.make_envelope("space scan", config, asdict(rep), seed=seed,
                                  tolerances={"min_defect_tol": rep.tol},
                                  h_err=rep.h_err, timestamp=not no_timestamp)
    passed = not (math.isfinite(rep.min_defect) and rep.min_defect < -rep.tol)
    _finish(output, env, passed)


@space.command("local-check")
@click.option("--input", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--center", required=True, type=int)
@click.option("--radius", required=True, type=float)
@click.option("--kappa", required=True, type=float)
@click.option("--samples", default=20, show_default=True, type=int)
@click.option("--h-angle", default=3, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def space_local_check(path, center, radius, kappa, samples, h_angle, seed,
                      output, no_timestamp):
    """Check the two local comparison conditions inside a ball."""
    try:
        sp = _load_graph(path, center=center)
        rep = spaces.local_kappa_domain_check(sp, center, radius, kappa,
                                              samples=samples, h_angle=h_angle,
                                              seed=seed)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    config = {"input": str(path), "center": center, "radius": radius,
              "kappa": kappa, "samples": samples, "h_angle": h_angle, "seed": seed}
    result = {**asdict(rep), "passed": rep.passed}
    env = reporting.make_envelope("space local-check", config, result, seed=seed,
                                  tolerances={"angle_tol": rep.angle_tol,
                                              "split_tol": rep.split_tol,
                                              "stencil_gap": sp.stencil_gap},
                                  h_err=sp.h_err, timestamp=not no_timestamp)
    _finish(output, env, rep.passed)


# ---------------------------------------------------------------------------
# convexity


@main.group(name="convexity")
def convexity_group():
    """Probabilistic-convexity estimation."""


@convexity_group.command("estimate")
@click.option("--input", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", default="prob", show_default=True,
              type=click.Choice(["prob", "ae"]))
@click.option("--p", "p_id", required=True, type=int)
@click.option("--q", "q_id", default=None, type=int)
@click.option("--s", "s_id", default=None, type=int)
@click.option("--step", default=None, type=float)
@click.option("--slack", default=None, type=float)
@click.option("--samples", default=2000, show_default=True, type=int,
              help="Vertex sample count for the ae estimate.")
@click.option("--emit-samples", is_flag=True, default=False,
              help="Keep the per-sample (arc_length, connectable) series.")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def convexity_estimate(path, kind, p_id, q_id, s_id, step, slack, samples,
                       emit_samples, seed, output, no_timestamp):
    """Estimate the connectable fraction along a geodesic or over the domain."""
    try:
        sp = _load_graph(path, p=p_id, q=q_id, s=s_id)
        if kind == "prob":
            if q_id is None or s_id is None:
                raise click.UsageError("prob estimate needs --q and --s")
            rep = convexity.prob_convexity(sp, p_id, q_id, s_id, step=step,
                                           slack=slack, keep_series=emit_samples)
        else:
            rep = convexity.ae_convexity_estimate(sp, p_id, samples=samples,
                                                  slack=slack, seed=seed)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    config = {"input": str(path), "kind": kind, "p": p_id, "q": q_id, "s": s_id,
              "step": step, "slack": slack, "samples": samples, "seed": seed}
    env = reporting.make_envelope("convexity estimate", config, rep.to_dict(),
                                  seed=seed, tolerances={"slack": rep.slack},
                                  h_err=sp.h_err, timestamp=not no_timestamp)
    _emit(output, env)


@convexity_group.command("search")
@click.option("--input", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "p_id", required=True, type=int)
@click.option("--q", "q_id", required=True, type=int)
@click.option("--s", "s_id", required=True, type=int)
@click.option("--epsilon", required=True, type=float)
@click.option("--candidates", default=64, show_default=True, type=int)
@click.option("--step", default=None, type=float)
@click.option("--slack", default=None, type=float)
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def convexity_search(path, p_id, q_id, s_id, epsilon, candidates, step, slack,
                     seed, output, no_timestamp):
    """Maximize the connectable fraction over perturbed triples."""
    try:
        sp = _load_graph(path, p=p_id, q=q_id, s=s_id)
        rep = convexity.weak_lambda_search(sp, p_id, q_id, s_id, epsilon,
                                           candidates=candidates, step=step,
                                           slack=slack, seed=seed)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    config = {"input": str(path), "p": p_id, "q": q_id, "s": s_id,
              "epsilon": epsilon, "candidates": candidates, "step": step,
              "slack": slack, "seed": seed}
    env = reporting.make_envelope("convexity search", config, rep.to_dict(),
                                  seed=seed, tolerances={"slack": rep.slack},
                                  h_err=sp.h_err, timestamp=not no_timestamp)
    _emit(output, env)


# ---------------------------------------------------------------------------
# completion and area


@main.group()
def completion():
    """Completion-distance experiments."""


@completion.command("compare")
@click.option("--input", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pairs", default=200, show_default=True, type=int)
@click.option("--epsilon", default=0.05, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def completion_compare_cmd(path, pairs, epsilon, seed, output, no_timestamp):
    """Compare completion distances to in-domain distances after perturbation."""
    try:
        sp = _load_graph(path)
        rep = domains.completion_compare(sp, pairs=pairs, epsilon=epsilon, seed=seed)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    budget = 4.0 * epsilon + 2.0 * rep.h_err
    config = {"input": str(path), "pairs": pairs, "epsilon": epsilon, "seed": seed}
    env = reporting.make_envelope("completion compare", config, asdict(rep),
                                  seed=seed,
                                  tolerances={"violation_budget": budget},
                                  h_err=rep.h_err, timestamp=not no_timestamp)
    _finish(output, env, rep.matched == 0 or rep.max_violation <= budget)


@main.group()
def area():
    """Measure estimation."""


@area.command("estimate")
@click.option("--delta", required=True, type=float)
@click.option("--segments", "num_segments", default=200, show_default=True, type=int)
@click.option("--samples", default=100_000, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--no-timestamp", is_flag=True, default=False)
def area_estimate_cmd(delta, num_segments, samples, seed, output, no_timestamp):
    """Monte Carlo area of the thin segment cover."""
    try:
        # the estimate works on the continuum cover and never reads the mesh size
        spec = domains.DomainSpec(kind="dense_square", resolution=1.0,
                                  delta=delta, num_segments=num_segments)
        rep = domains.area_estimate(spec, samples=samples, seed=seed)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    config = {"delta": delta, "segments": num_segments, "samples": samples,
              "seed": seed}
    env = reporting.make_envelope("area estimate", config, asdict(rep),
                                  seed=seed, timestamp=not no_timestamp)
    _finish(output, env, rep.estimate <= delta + 3.0 * rep.sigma)


# ---------------------------------------------------------------------------
# plotting


@main.group()
def plot():
    """CSV emission for plotting."""


@plot.command("emit")
@click.option("--input", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--series", "series_name", default="series", show_default=True)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def plot_emit(path, series_name, output):
    """Extract a columnar series from a report into CSV."""
    import json

    try:
        with open(path) as fh:
            env = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"{path} is not a JSON report: {exc}")
    try:
        header, columns = reporting.extract_series(env, series_name)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    reporting.write_csv(output, header, columns)


if __name__ == "__main__":
    main()
