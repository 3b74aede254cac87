"""alexkit benchmark: README CLI workloads timed in process, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweeps,scan,geodesics} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, and ``--smoke`` runs every workload at small sizes,
traced and checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of each run goes to ``.perfbench_out/``; inputs and reports are
written under ``.perfbench_work/`` and removed at exit.  README.md in this
directory describes the workloads, the metrics and how they are measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweeps", "scan", "geodesics")


def _pin_threads() -> None:
    """One BLAS/OpenMP thread; the scan's pool gets every core (and no more)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["ALEXKIT_THREADS"] = str(len(os.sched_getaffinity(0)))


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# One set-up in a fresh interpreter: import the CLI, run the given argv lists,
# print their exit codes as the last line.
_SETUP_CHILD = """
import json, sys
from alexkit.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        main.main(args=argv, prog_name="alexkit", standalone_mode=True)
    except SystemExit as exc:
        codes.append(exc.code or 0)
    else:
        codes.append(0)
print(json.dumps(codes))
"""


# Time spent on the reference after a command or a set-up, as a share of its
# time.  The set-ups are few, so each is followed by a longer probe.
PROBE_SHARE = 0.1
SETUP_PROBE_SHARE = 0.2


class Speed:
    """Times of one reference computation, probed next to the program's commands."""

    def __init__(self, kind: str, share: float = PROBE_SHARE):
        import reference  # after _pin_threads, as it imports numpy

        self.fn = reference.FUNCTIONS[kind]
        self.seconds = reference.SECONDS[kind]
        self.share = share
        self.times: list[float] = []
        self.owed = 0.0  # reference time still due

    def probe(self, elapsed: float) -> None:
        """Time the reference for a share of ``elapsed``, carrying the rest over.

        Over a run the reference takes that share of the program's time,
        placed in proportion to where the time went.  The first probe always
        times it once.
        """
        self.owed += self.share * elapsed
        while self.owed > 0.0 or not self.times:
            self.times.append(self.fn())
            self.owed -= self.times[-1]

    def scale(self, times: list[float]) -> float:
        """The mean of ``times`` on a machine where the reference takes ``seconds``."""
        return statistics.fmean(times) * self.seconds / statistics.fmean(self.times)


def _invoke(main, argv) -> int:
    try:
        main.main(args=list(argv), prog_name="alexkit", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else code if isinstance(code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1  # an uncaught exception; matches no expected exit code
    return 0


class Runner:
    """Runs commands of one workload, keeping times, problems and report hashes."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}
        self.times: dict[str, list[float]] = {}

    def run(self, cmd, tracer=None) -> float:
        if cmd.report:
            Path(cmd.report).unlink(missing_ok=True)
        t0 = time.perf_counter()
        if tracer is None:
            code = _invoke(self.main, cmd.argv)
        else:
            code = tracer.call(f"cli.{cmd.kind}", _invoke, (self.main, cmd.argv), {})
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        self.times.setdefault(cmd.name, []).append(elapsed)
        problems = []
        if code != cmd.expect_exit:
            problems.append(f"exit {code}, expected {cmd.expect_exit}")
        if cmd.report:
            problems += self._check_report(cmd)
        if problems:
            self.problems.append(f"{cmd.name}: {'; '.join(problems)}")
        return elapsed

    def _check_report(self, cmd) -> list[str]:
        try:
            data = Path(cmd.report).read_bytes()
        except OSError:
            return ["no report written"]
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.hashes.setdefault(cmd.name, digest) != digest:
            problems.append("report bytes differ between passes")
        if cmd.check is not None:
            try:
                problems += cmd.check(json.loads(data))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problems.append(f"unreadable report: {exc!r}")
        return problems

    def fresh_setup(self, cmds, speed: Speed) -> float:
        """Run set-up commands in a new interpreter; its wall time from start to exit."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        argvs = json.dumps([list(c.argv) for c in cmds])
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, argvs], env=env,
                              capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - t0
        try:
            codes = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            codes = [None] * len(cmds)
            sys.stderr.write(proc.stderr)
        self.attempted += len(cmds)
        for cmd, code in zip(cmds, codes):
            if code != cmd.expect_exit:
                self.problems.append(f"{cmd.name}: exit {code}, expected {cmd.expect_exit}")
        speed.probe(elapsed)
        return elapsed

    def sequence(self, cmds, speed: Speed, tracer=None) -> float:
        """One pass, probing the reference after each command; its wall time."""
        wall = 0.0
        for cmd in cmds:
            elapsed = self.run(cmd, tracer)
            wall += elapsed
            speed.probe(elapsed)
        return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    import numpy
    import scipy

    import tracer as tracing
    import workloads

    t0 = time.perf_counter()
    import alexkit.cli

    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if Path(alexkit.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"alexkit imported from {alexkit.cli.__file__}, not from {src}")

    plan = workloads.WORKLOADS[name](seed, workloads.SIZES[size_name])
    runner = Runner(alexkit.cli.main)
    tracer = tracing.Tracer() if trace else None
    speed = Speed(plan.reference)
    setup_speed = Speed(plan.reference, SETUP_PROBE_SHARE)
    for _ in range(2):  # warm-up
        speed.fn()
        setup_speed.fn()
    setup_walls = []
    if tracer:
        tracer.install()
        try:
            setup_walls.append(import_s + runner.sequence(plan.setup, setup_speed, tracer))
        finally:
            tracer.uninstall()
    else:
        setup_walls.append(runner.fresh_setup(plan.setup, setup_speed))

    # The set-ups are spread over the timed phase, so that both see the
    # same machine; see reference.py for why times are scaled.
    walls, rss_mb = [], []
    timed_s = 0.0
    speed.probe(0.0)
    while not walls or timed_s < seconds:
        t0 = time.perf_counter()
        walls.append(runner.sequence(plan.timed(len(walls)), speed))
        timed_s += time.perf_counter() - t0
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        while (not tracer and len(setup_walls) < plan.setup_repeats
               and timed_s >= seconds * len(setup_walls) / plan.setup_repeats):
            setup_walls.append(runner.fresh_setup(plan.setup, setup_speed))
    while not tracer and len(setup_walls) < plan.setup_repeats:
        setup_walls.append(runner.fresh_setup(plan.setup, setup_speed))
    wall_s = speed.scale(walls)
    # a traced run's one set-up is traced and in process; it is recorded unscaled
    setup_s = setup_walls[0] if tracer else setup_speed.scale(setup_walls)
    # Up to the end of the first pass, where each command runs once on the
    # heap the import left (the inputs were written in other interpreters).
    # Later passes add 0 to 40 MB on geodesics, depending on how the seed's
    # earlier commands left the heap fragmented.
    peak_rss_mb = rss_mb[0]

    layers = {}
    if tracer:
        cmds = plan.timed(0)
        # the same commands untraced, for the overhead
        untraced_s = speed.scale([sum(statistics.fmean(runner.times[c.name]) for c in cmds)])
        if plan.single_thread:
            layers.update(_single_thread(runner, cmds, plan.single_thread,
                                         plan.single_thread_repeats))
        tracer.install()
        try:
            traced_speed = Speed(plan.reference)
            traced_speed.probe(0.0)
            traced_s = traced_speed.scale([runner.sequence(cmds, traced_speed, tracer)])
        finally:
            tracer.uninstall()
        layers.update(tracing.layer_metrics(tracer))
        layers["cli.import_s"] = import_s
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        layers["e2e.trials_per_s"] = plan.work.get("trials", 0) / wall_s
        layers["e2e.quadruples_per_s"] = plan.work.get("quadruples", 0) / wall_s
        layers.setdefault("scan.single_thread_s", 0.0)
        layers.setdefault("scan.thread_speedup", 0.0)
    failed = len(runner.problems)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": (runner.attempted - failed) / runner.attempted,
    }

    record = {
        "workload": name,
        "seed": seed,
        "sizes": size_name,
        "trace": int(trace),
        "seconds": seconds,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "ALEXKIT_THREADS": os.environ["ALEXKIT_THREADS"],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "commit": _commit(),
        },
        "setup_walls_s": setup_walls,
        "setup_reference_s": setup_speed.times,
        "pass_walls_s": walls,
        "peak_rss_mb_after_pass": rss_mb,
        "reference_s": speed.times,
        "command_times_s": runner.times,
        "report_sha256": runner.hashes,
        "problems": runner.problems,
        "metrics": metrics,
        "per_layer": layers,
        "spans": tracer.export() if tracer else [],
    }
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": layers if trace else metrics,
        "record": record,
    }


def _single_thread(runner, cmds, name, repeats) -> dict:
    """Repeat one timed command with one worker; its report must not change."""
    from dataclasses import replace

    cmd = next(c for c in cmds if c.name == name)
    solo_name = f"{name}_1thread"
    solo = replace(cmd, name=solo_name, report=f"{solo_name}.json",
                   argv=cmd.argv[:-1] + (f"{solo_name}.json",))
    threads = os.environ["ALEXKIT_THREADS"]
    os.environ["ALEXKIT_THREADS"] = "1"
    try:
        single_s = statistics.median(runner.run(solo) for _ in range(repeats))
    finally:
        os.environ["ALEXKIT_THREADS"] = threads
    if Path(solo.report).read_bytes() != Path(cmd.report).read_bytes():
        runner.problems.append(f"{name}: report differs with one worker")
    return {"scan.single_thread_s": single_s,
            "scan.thread_speedup": single_s / statistics.median(runner.times[name])}


def _save_record(record: dict) -> list[str]:
    """Write the run record; return the reports whose hash changed since the last one."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / (f"{record['workload']}-{record['sizes']}-seed{record['seed']}"
                  f"-trace{record['trace']}.json")
    changed = []
    if path.exists():
        previous = json.loads(path.read_text()).get("report_sha256", {})
        changed = sorted(k for k, v in record["report_sha256"].items()
                         if previous.get(k, v) != v)
    record["changed_reports"] = changed
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return changed


def _run_in_workdir(name, seed, seconds, trace, size_name) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)  # commands name their files relatively, so reports are path-free
    try:
        result = run_workload(name, seed, seconds, trace, size_name)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    record = result.pop("record")
    changed = _save_record(record)
    for problem in record["problems"]:
        print(f"perfbench: {name}: {problem}")
    if changed:
        print(f"perfbench: {name}: report bytes changed since the last record: {changed}")
    return result


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke() -> int:
    start = time.perf_counter()
    wanted = [m["name"] for m in _spec()["per_layer"]]
    ok = True
    for name in WORKLOAD_NAMES:
        result = _run_in_workdir(name, 0, 0.0, True, "smoke")
        missing = [m for m in wanted if m not in result["metrics"]]
        ok = ok and result["correct"] and not missing
        print(json.dumps({"workload": name, "correct": result["correct"],
                          "missing_metrics": missing, "attempted": result["attempted"],
                          "failed": result["failed"]}))
    print(f"smoke: {'ok' if ok else 'FAILED'} in {time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "alexkit" / "__init__.py").is_file():
        print(f"perfbench: no alexkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return _smoke()
    units = {m["name"]: m["unit"] for m in _spec()["per_layer" if args.trace else "end_to_end"]}
    result = _run_in_workdir(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
