"""The benchmark's workloads: README CLI commands, their inputs and their checks.

Each workload is a fixed command sequence.  Set-up commands write the inputs
(``domain generate``); the timed commands read them.  Every command has an
expected exit code and, when it writes a report, checks on the report that
hold whatever random stream or ``kappa_max`` method the program uses.  All
command seeds and vertex ids derive from the workload seed.

Why these three workloads: each loads a different layer, so an optimisation
of one layer has a workload that exercises it and workloads that bypass it.

* ``sweeps``: the five hinge-lemma sweeps.  ``comparison`` over the scalar
  ``trig`` kernels does all the work; no graph, batch kernel or domain.
* ``scan``: quadruple curvature scans of a 500-point sphere (CSV distance
  matrix, exact metric) and of a wide cap (graph metric, one multi-source
  Dijkstra block).  ``batch_angle`` and the ``kappa_max`` bisection dominate.
  The wide cap fails the kappa=1 condition by design, so its scan exits 1.
* ``geodesics``: local check, convexity estimates and search, and completion
  comparison on generated meshes.  Single-source Dijkstra, the Python
  geodesic walk and JSON loads of large graphs dominate.
"""

from __future__ import annotations

import functools
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

LEMMAS = ("weighted2", "multi", "alternating", "extension", "alexandrov")
LOCAL_CHECK_SEEDS = 4

SIZES = {
    "full": {
        "trials": 1000,
        "sphere_n": 500,
        "wide_cap_h": 0.09,
        "scan_samples": 25_000,
        "scan_subset": 600,
        "cap_h": 0.04,
        # The kappa=0 local check holds on this flat grid with margin (worst
        # gap 0.70 of its tolerance over 16 seeds).  On coarser grids (1/48
        # with stencil radius 3, 4 or 5) it reported violations for 1 to 5
        # seeds in 16, a defect of the check's tolerance.
        "grid_h": 0.015625,
        "grid_stencil": 5,
        "dense_h": 0.015625,
        "local_samples": 6,
        "h_angle": 8,
        "candidates": 64,
        "pairs": 1000,
        "single_thread_repeats": 3,
    },
    # same commands and checks at sizes that run all three workloads in seconds
    "smoke": {
        "trials": 60,
        "sphere_n": 40,
        "wide_cap_h": 0.3,
        "scan_samples": 20_000,  # the least that uses the scan's thread pool
        "scan_subset": 80,
        "cap_h": 0.12,
        "grid_h": 0.0625,
        "grid_stencil": 3,
        "dense_h": 0.015625,
        "local_samples": 4,
        "h_angle": 3,
        "candidates": 4,
        "pairs": 40,
        "single_thread_repeats": 1,
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation with its expected exit code and report checks."""

    name: str
    argv: tuple[str, ...]
    expect_exit: int = 0
    check: Callable[[dict], list[str]] | None = None
    report: str | None = None

    @property
    def kind(self) -> str:
        return "_".join(self.argv[:2]).replace("-", "_")


@dataclass
class Plan:
    setup: list[Command]
    # builds the timed commands of pass i once the set-up inputs exist
    timed: Callable[[int], list[Command]]
    # fresh-interpreter set-ups per untraced run; more where a set-up is cheap
    setup_repeats: int
    # requested work per timed pass, for throughput figures
    work: dict = field(default_factory=dict)
    # the reference computation (reference.py) that scales the times of the
    # timed passes and of the set-ups
    reference: str = "graph"
    # name of the timed command repeated with one worker in the traced run,
    # and how many times
    single_thread: str | None = None
    single_thread_repeats: int = 0


def _cmd(name, argv, expect_exit=0, check=None):
    argv = tuple(str(a) for a in argv)
    return Command(name, argv + ("--no-timestamp", "-o", f"{name}.json"), expect_exit,
                   check, f"{name}.json")


def _generate(name, path, seed, *options):
    return Command(name, ("domain", "generate", *map(str, options), "--seed", str(seed),
                          "-o", path))


def _num(x):
    # reports encode infinities as {"inf": true|false}
    if isinstance(x, dict):
        return math.inf if x["inf"] else -math.inf
    return float(x)


def _sweep_check(env):
    r = env["result"]
    problems = []
    if not r["passed"]:
        problems.append("sweep failed its assertions")
    if r["evaluated"] < 0.9 * r["trials"]:
        problems.append(f"evaluated {r['evaluated']} < 0.9 x trials {r['trials']}")
    return problems


def _sphere_scan_check(env):
    r = env["result"]
    problems = []
    if _num(r["min_defect"]) < -r["tol"]:
        problems.append(f"min_defect {r['min_defect']} below -tol {r['tol']}")
    if _num(r["kappa_max"]) < 1.0:
        problems.append(f"kappa_max {r['kappa_max']} < 1")
    return problems


def _wide_cap_check(env):
    r = env["result"]
    if _num(r["min_defect"]) < -r["tol"]:
        return []
    return [f"wide cap min_defect {r['min_defect']} not below -tol {r['tol']}"]


def _local_check(env):
    r = env["result"]
    problems = []
    if not r["passed"]:
        problems.append("local check failed")
    if r["evaluated"] < 1:
        problems.append("local check evaluated no sample")
    return problems


def _convex_check(env):
    p = env["result"]["probability"]
    return [] if p == 1.0 else [f"convex cap probability {p} != 1"]


def _completion_check(env):
    r = env["result"]
    budget = env["tolerances"]["violation_budget"]
    problems = []
    if r["matched"] <= 0:
        problems.append("completion matched no pair")
    if r["max_violation"] > budget:
        problems.append(f"max_violation {r['max_violation']} over budget {budget}")
    return problems


def _seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def sweeps(seed: int, size: dict) -> Plan:
    seeds = _seeds(seed)
    trials = size["trials"]
    cmds = [_cmd(f"sweep_{which}", ("lemma", "verify", "--which", which, "--trials", trials,
                                    "--seed", next(seeds)), check=_sweep_check)
            for which in LEMMAS]
    return Plan(setup=[], timed=lambda i: cmds, work={"trials": trials * len(LEMMAS)},
                setup_repeats=6, reference="interpreter")


def scan(seed: int, size: dict) -> Plan:
    seeds = _seeds(seed)
    setup = [
        _generate("gen_sphere", "sphere.csv", next(seeds), "--kind", "sphere_points",
                  "--n", size["sphere_n"]),
        _generate("gen_wide_cap", "wide_cap.json", next(seeds), "--kind", "cap",
                  "--r", 2.8274, "--h", size["wide_cap_h"]),
    ]
    common = ("--kappa", 1, "--samples", size["scan_samples"], "--subset", size["scan_subset"])
    cmds = [
        # Known program defect, left visible: the default tolerance for an
        # exact metric, 1e-9, is below the rounding error of an angle sum at
        # kappa=1 on the unit sphere, where the defect is exactly 0 for many
        # quadruples.  About one seed in 40 gives a min_defect between -1e-9
        # and -1e-8, exits 1 and fails this command.
        _cmd("scan_sphere", ("space", "scan", "--input", "sphere.csv", *common,
                             "--seed", next(seeds)),
             check=_sphere_scan_check),
        _cmd("scan_wide_cap", ("space", "scan", "--input", "wide_cap.json", *common,
                               "--seed", next(seeds)), expect_exit=1, check=_wide_cap_check),
    ]
    return Plan(setup=setup, timed=lambda i: cmds,
                work={"quadruples": 2 * size["scan_samples"]}, setup_repeats=4,
                reference="interpreter",
                single_thread="scan_sphere",
                single_thread_repeats=size["single_thread_repeats"])


def geodesics(seed: int, size: dict) -> Plan:
    seeds = _seeds(seed)
    side = 2.0
    setup = [
        _generate("gen_cap", "cap.json", next(seeds), "--kind", "cap", "--r", 1.2566,
                  "--h", size["cap_h"]),
        _generate("gen_grid", "grid.json", next(seeds), "--kind", "punctured",
                  "--h", size["grid_h"], "--side", side,
                  "--stencil-radius", size["grid_stencil"]),
        _generate("gen_dense", "dense.json", next(seeds), "--kind", "dense_square",
                  "--h", size["dense_h"], "--delta", 0.2, "--segments", 200),
    ]
    cmd_seeds = [next(seeds) for _ in range(4)]
    # The local check's cost depends on how many of its few samples are
    # skipped, so it varies by 25% between seeds.  Passes cycle through
    # several local-check seeds, which averages that out within a run.
    local_seeds = [next(seeds) for _ in range(LOCAL_CHECK_SEEDS)]

    @functools.cache
    def ids():
        return _vertex_ids("grid.json", (0.5 * side, 0.5 * side), "cap.json")

    def timed(i):
        center, open_ids = ids()
        p, q, s = random.Random(cmd_seeds[0]).sample(open_ids, 3)
        pqs = ("--p", p, "--q", q, "--s", s)
        j = i % LOCAL_CHECK_SEEDS
        return [
            _cmd(f"local_check{j}", ("space", "local-check", "--input", "grid.json",
                                     "--center", center, "--radius", 1.6, "--kappa", 0,
                                     "--samples", size["local_samples"],
                                     "--h-angle", size["h_angle"], "--seed", local_seeds[j]),
                 check=_local_check),
            _cmd("convexity_prob", ("convexity", "estimate", "--input", "cap.json",
                                    "--kind", "prob", *pqs, "--emit-samples"),
                 check=_convex_check),
            _cmd("convexity_ae", ("convexity", "estimate", "--input", "cap.json",
                                  "--kind", "ae", "--p", p, "--seed", cmd_seeds[1]),
                 check=_convex_check),
            _cmd("convexity_search", ("convexity", "search", "--input", "cap.json", *pqs,
                                      "--epsilon", 0.1, "--candidates", size["candidates"],
                                      "--seed", cmd_seeds[2]),
                 check=_convex_check),
            _cmd("completion", ("completion", "compare", "--input", "dense.json",
                                "--pairs", size["pairs"], "--seed", cmd_seeds[3]),
                 check=_completion_check),
        ]

    return Plan(setup=setup, timed=timed, setup_repeats=2)


WORKLOADS = {"sweeps": sweeps, "scan": scan, "geodesics": geodesics}


# Reads the inputs in a separate interpreter, so that the benchmark's own JSON
# parsing does not count in the peak memory of the run.
_VERTEX_IDS = """
import json, sys
import numpy as np
with open(sys.argv[1]) as fh:
    xy = np.array([v["xy"] for v in json.load(fh)["vertices"]])
point = np.array([float(sys.argv[2]), float(sys.argv[3])])
with open(sys.argv[4]) as fh:
    open_ids = [i for i, v in enumerate(json.load(fh)["vertices"]) if v["in_U"]]
print(json.dumps([int(np.argmin(((xy - point) ** 2).sum(axis=1))), open_ids]))
"""


def _vertex_ids(grid, point, cap) -> tuple[int, list[int]]:
    """The grid vertex nearest ``point`` and the open-domain vertices of ``cap``."""
    proc = subprocess.run([sys.executable, "-c", _VERTEX_IDS, grid, *map(str, point), cap],
                          capture_output=True, text=True, check=True, timeout=170)
    center, open_ids = json.loads(proc.stdout)
    return center, open_ids
