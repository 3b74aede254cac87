"""Command-line frontend: generation, verification sweeps, convexity scans.

All reports are JSON with the full run configuration embedded; CSV exists
only for plot series.  Assertion failures are data, not crashes: the
report is written and the process exits 1.  Usage errors exit 2.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import comparison, convexity, domains, reporting, spaces
from .errors import GeometryError

# every seed keys a random stream; the sweeps' Philox keys hold it in 64 bits
_seed_option = click.option("--seed", default=0, show_default=True,
                            type=click.IntRange(0, 2**64 - 1))


def _output_option(required=False):
    return click.option("-o", "--output", required=required, type=click.Path(dir_okay=False))


@contextlib.contextmanager
def _usage_errors():
    """Geometry errors and files that cannot be read or written are usage errors (exit 2)."""
    try:
        yield
    except GeometryError as exc:
        raise click.UsageError(str(exc)) from None
    except OSError as exc:
        raise click.UsageError(f"{exc.filename}: {exc.strerror}" if exc.filename
                               else str(exc)) from None


def _report_command(group, name):
    """Register a report-writing command as ``group name``.

    The decorated body takes its own options and ``seed``, and returns
    ``(config, report)``: the run configuration and the report object.  The
    envelope's result is :func:`reporting.result_of` the report, its
    ``tolerances`` the report's own, and it records ``seed`` only when the
    configuration holds one.  The runner adds ``--seed``, ``-o/--output``
    and ``--no-timestamp``, writes or echoes the envelope, and exits 1
    exactly when the result's ``passed`` is false.
    """
    command_name = f"{group.name} {name}"

    def decorate(body):
        @_seed_option
        @_output_option()
        @click.option("--no-timestamp", is_flag=True, default=False)
        def run(output, no_timestamp, **params):
            with _usage_errors():
                config, report = body(**params)
                result = reporting.result_of(report)
                env = reporting.make_envelope(command_name, config, result,
                                              seed=config.get("seed"),
                                              tolerances=getattr(report, "tolerances", None),
                                              timestamp=not no_timestamp)
                if output is None:
                    click.echo(reporting.dump_canonical(env), nl=False)
                else:
                    reporting.write_report(output, env)
            if not result.get("passed", True):
                click.echo("FAIL: assertions violated (report written)", err=True)
                sys.exit(1)

        # --help lists the body's options first, then the shared ones
        run.__click_params__ += body.__click_params__
        return group.command(name, help=body.__doc__)(run)

    return decorate


def _refuse_unread(mode, unread):
    """A usage error for the first ``unread`` parameter given on the command line."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        source = ctx.get_parameter_source(param.name)
        if param.name in unread and source is ParameterSource.COMMANDLINE:
            raise GeometryError(f"the {mode} does not read {param.opts[0]}")


@click.group()
def main():
    """Comparison-geometry toolkit."""


# ---------------------------------------------------------------------------
# lemma sweeps


@main.group()
def lemma():
    """Verification sweeps for the hinge-blending calculators."""


# the sweep parameter each option feeds; a sweep whose parameters lack it
# does not read the option
_SWEEP_OPTIONS = {"scale": "scale", "kappa_min": "kappa_range", "kappa_max": "kappa_range",
                  "a_min": "a_range", "a_max": "a_range", "segments": "max_segments"}


@_report_command(lemma, "verify")
@click.option("--which", required=True,
              type=click.Choice(["weighted2", "multi", "alternating", "extension", "alexandrov"]))
@click.option("--trials", default=10_000, show_default=True, type=int)
@click.option("--scale", default=None, type=float,
              help="Bound on the sampled chain length.  [default: 1e-2; 1e-3 for extension]")
@click.option("--kappa-min", default=-2.0, show_default=True, type=float)
@click.option("--kappa-max", default=2.0, show_default=True, type=float)
@click.option("--a-min", default=0.5, show_default=True, type=float)
@click.option("--a-max", default=2.0, show_default=True, type=float)
@click.option("--segments", default=6, show_default=True, type=int,
              help="Maximum chain length for the multi sweep.")
def lemma_verify(which, trials, scale, kappa_min, kappa_max, a_min, a_max, segments, seed):
    """Run a synthetic-hinge sweep and assert its defect budget."""
    if scale is None:
        scale = 1e-3 if which == "extension" else 1e-2
    kr = (kappa_min, kappa_max)
    ar = (a_min, a_max)
    # each sweep with the parameters it reads and the constants it runs at;
    # the config echoes both
    sweep, params, constants = {
        "weighted2": (comparison.verify_weighted_pair,
                      {"scale": scale, "kappa_range": kr, "a_range": ar}, {}),
        "multi": (comparison.verify_weighted_multi,
                  {"scale": scale, "kappa_range": kr, "a_range": ar, "max_segments": segments},
                  {}),
        "alternating": (comparison.verify_alternating,
                        {"scale": scale, "kappa_range": kr, "a_range": ar},
                        {"max_blocks": comparison.MAX_BLOCKS}),
        "extension": (comparison.verify_extension, {"scale": scale, "kappa_range": kr}, {}),
        "alexandrov": (comparison.verify_alexandrov,
                       {"kappas": (-1.0, 0.0, 1.0), "tol": 1e-9}, {}),
    }[which]
    _refuse_unread(f"{which} sweep", {o for o, p in _SWEEP_OPTIONS.items() if p not in params})
    rep = sweep(trials, seed=seed, **params)
    config = {"which": which, "trials": trials, "seed": seed, **params, **constants}
    return config, rep


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
@_seed_option
@_output_option(required=True)
def domain_generate(kind, cap_radius, resolution, delta, num_segments, side,
                    stencil_radius, removed_points, removed_segments, n_points,
                    seed, output):
    """Write a domain file: a graph file, or a CSV distance matrix."""
    with _usage_errors():
        reads = spaces.KIND_OPTIONS
        _refuse_unread(f"{kind} kind", set().union(*reads.values()) - set(reads[kind]))
        if kind == "sphere_points":
            pts = domains.unit_sphere_points(n_points, seed=seed)
            # exact great-circle distances form a metric; scans validate the CSV they read
            dist = pts.submatrix(np.arange(pts.n_points))
            spaces.FiniteMetricSpace(dist, validate=False).to_csv(output)
            return
        spec = domains.DomainSpec(
            kind=kind, resolution=resolution, cap_radius=cap_radius, delta=delta,
            num_segments=num_segments,
            removed_points=tuple(_coordinates(s) for s in removed_points),
            removed_segments=tuple(_coordinates(s) for s in removed_segments),
            side=side, stencil_radius=stencil_radius,
        )
        domains.generate(spec, seed=seed).save(output)


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
        if v is not None and not 0 <= v < sp.n_points:
            raise GeometryError(f"--{name} {v} is not a vertex id in [0, {sp.n_points})")
    return sp


_input_option = click.option("--input", "path", required=True,
                             type=click.Path(exists=True, dir_okay=False))


# ---------------------------------------------------------------------------
# scans


@main.group()
def space():
    """Curvature scans over spaces."""


@_report_command(space, "scan")
@_input_option
@click.option("--kappa", required=True, type=float)
@click.option("--samples", default=100_000, show_default=True, type=int)
@click.option("--subset", default=600, show_default=True, type=int)
@click.option("--exhaustive", is_flag=True, default=False)
@click.option("--min-defect-tol", default=None, type=float,
              help="Assert the minimum defect stays above -tol.")
def space_scan(path, kappa, samples, subset, exhaustive, min_defect_tol, seed):
    """Scan quadruples for the curvature condition; estimate kappa_max."""
    rep = spaces.scan_quadruples(_load_space(path), kappa, samples=samples, seed=seed,
                                 subset=subset, tol=min_defect_tol, exhaustive=exhaustive)
    config = {"input": str(path), "kappa": kappa, "samples": samples,
              "subset": subset, "exhaustive": exhaustive, "seed": seed}
    return config, rep


@_report_command(space, "local-check")
@_input_option
@click.option("--center", required=True, type=int)
@click.option("--radius", required=True, type=float)
@click.option("--kappa", required=True, type=float)
@click.option("--samples", default=20, show_default=True, type=int)
@click.option("--h-angle", default=3, show_default=True, type=int)
def space_local_check(path, center, radius, kappa, samples, h_angle, seed):
    """Check the two local comparison conditions inside a ball."""
    rep = spaces.local_kappa_domain_check(_load_graph(path, center=center), center, radius,
                                          kappa, samples=samples, h_angle=h_angle, seed=seed)
    config = {"input": str(path), "center": center, "radius": radius,
              "kappa": kappa, "samples": samples, "h_angle": h_angle, "seed": seed}
    return config, rep


# ---------------------------------------------------------------------------
# convexity: the reports carry no verdict


@main.group(name="convexity")
def convexity_group():
    """Probabilistic-convexity estimation."""


@_report_command(convexity_group, "estimate")
@_input_option
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
def convexity_estimate(path, kind, p_id, q_id, s_id, step, slack, samples, emit_samples,
                       seed):
    """Estimate the connectable fraction along a geodesic or over the domain."""
    _refuse_unread(f"{kind} estimate", {"prob": ("samples", "seed"),
                                        "ae": ("q_id", "s_id", "step", "emit_samples")}[kind])
    sp = _load_graph(path, p=p_id, q=q_id, s=s_id)
    if kind == "prob":
        if q_id is None or s_id is None:
            raise GeometryError("prob estimate needs --q and --s")
        rep = convexity.prob_convexity(sp, p_id, q_id, s_id, step=step, slack=slack,
                                       keep_series=emit_samples)
        read = {"q": q_id, "s": s_id, "step": step}
    else:
        rep = convexity.ae_convexity_estimate(sp, p_id, samples=samples, slack=slack,
                                              seed=seed)
        read = {"samples": samples, "seed": seed}
    config = {"input": str(path), "kind": kind, "p": p_id, "slack": slack, **read}
    return config, rep


@_report_command(convexity_group, "search")
@_input_option
@click.option("--p", "p_id", required=True, type=int)
@click.option("--q", "q_id", required=True, type=int)
@click.option("--s", "s_id", required=True, type=int)
@click.option("--epsilon", required=True, type=float)
@click.option("--candidates", default=64, show_default=True, type=int)
@click.option("--step", default=None, type=float)
@click.option("--slack", default=None, type=float)
def convexity_search(path, p_id, q_id, s_id, epsilon, candidates, step, slack, seed):
    """Maximize the connectable fraction over perturbed triples."""
    sp = _load_graph(path, p=p_id, q=q_id, s=s_id)
    rep = convexity.weak_lambda_search(sp, p_id, q_id, s_id, epsilon, candidates=candidates,
                                       step=step, slack=slack, seed=seed)
    config = {"input": str(path), "p": p_id, "q": q_id, "s": s_id, "epsilon": epsilon,
              "candidates": candidates, "step": step, "slack": slack, "seed": seed}
    return config, rep


# ---------------------------------------------------------------------------
# completion and area


@main.group()
def completion():
    """Completion-distance experiments."""


@_report_command(completion, "compare")
@_input_option
@click.option("--pairs", default=200, show_default=True, type=int)
@click.option("--epsilon", default=0.05, show_default=True, type=float)
def completion_compare_cmd(path, pairs, epsilon, seed):
    """Compare completion distances to in-domain distances after perturbation."""
    rep = domains.completion_compare(_load_graph(path), pairs=pairs, epsilon=epsilon, seed=seed)
    config = {"input": str(path), "pairs": pairs, "epsilon": epsilon, "seed": seed}
    return config, rep


@main.group()
def area():
    """Measure estimation."""


@_report_command(area, "estimate")
@click.option("--delta", required=True, type=float)
@click.option("--segments", "num_segments", default=200, show_default=True, type=int)
@click.option("--samples", default=100_000, show_default=True, type=int)
def area_estimate_cmd(delta, num_segments, samples, seed):
    """Monte Carlo area of the thin segment cover."""
    # the estimate works on the continuum cover and never reads the mesh size
    spec = domains.DomainSpec(kind="dense_square", resolution=1.0, delta=delta,
                              num_segments=num_segments)
    rep = domains.area_estimate(spec, samples=samples, seed=seed)
    config = {"delta": delta, "segments": num_segments, "samples": samples, "seed": seed}
    return config, rep


# ---------------------------------------------------------------------------
# plotting


@main.group()
def plot():
    """CSV emission for plotting."""


@plot.command("emit")
@_input_option
@click.option("--series", "series_name", default="series", show_default=True)
@_output_option(required=True)
def plot_emit(path, series_name, output):
    """Extract a columnar series from a report into CSV."""
    with _usage_errors():
        with open(path) as fh:
            try:
                env = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise GeometryError(f"{path} is not a JSON report: {exc}") from None
        header, columns = reporting.extract_series(env, series_name)
        reporting.write_csv(output, header, columns)


if __name__ == "__main__":
    main()
