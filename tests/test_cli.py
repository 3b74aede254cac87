"""CLI surface: schemas, exit codes, reproducibility, CSV emission."""

import base64
import dataclasses
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import alexkit
from alexkit import comparison, domains, reporting, spaces, trig
from alexkit.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


# ---------------------------------------------------------------------------
# lemma verify


def test_lemma_verify_weighted2(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = _run(runner, ["lemma", "verify", "--which", "weighted2", "--trials", "400",
                        "--scale", "1e-2", "--seed", "0", "-o", str(out),
                        "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["tool"] == "alexkit"
    assert rep["command"] == "lemma verify"
    assert rep["config"]["trials"] == 400
    assert rep["result"]["budget_violations"] == 0
    assert "timestamp" not in rep


@pytest.mark.parametrize("which", ["multi", "alternating", "extension", "alexandrov"])
def test_lemma_verify_other_sweeps(runner, tmp_path, which):
    out = tmp_path / f"{which}.json"
    res = _run(runner, ["lemma", "verify", "--which", which, "--trials", "200",
                        "--seed", "1", "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["passed"] is True
    # without --scale each sweep runs at its own default
    assert rep["config"].get("scale") == {"extension": 1e-3, "alexandrov": None}.get(which, 1e-2)


# the constants each sweep's verdict reads, echoed under the envelope's tolerances
_SWEEP_TOLERANCES = {
    "weighted2": {"budget_exponent": 2.5},
    "multi": {"budget_exponent": 2.5},
    "alternating": {"budget_exponent": 2.5},
    "extension": {"budget_exponent": 2.0, "budget_factor": 50.0},
    "alexandrov": {"tol": 1e-9},
}


@pytest.mark.parametrize("which", list(_SWEEP_TOLERANCES))
def test_sweep_reports_hold_only_measured_fields(runner, tmp_path, which):
    out = tmp_path / f"{which}.json"
    res = _run(runner, ["lemma", "verify", "--which", which, "--trials", "300",
                        "--seed", "2", "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    env = json.loads(out.read_text())
    result = env["result"]
    assert env["tolerances"] == _SWEEP_TOLERANCES[which]
    for key in ("seed", "scale", "budget", "budget_exponent", "budget_factor", "max_defect",
                "tolerance"):
        assert key not in result
    assert result["trials"] == 300
    comparisons = 300 * (3 if which == "alexandrov" else 1)
    assert result["evaluated"] + result["vacuous"] + result["skipped"] == comparisons
    assert math.isfinite(result["min_signed_defect"])
    if which == "alexandrov":
        # no budget: the verdict reads the disagreement audit alone
        assert "budget_violations" not in result
        assert "budget" not in result["worst_case"]
        assert result["disagreement_failures"] == 0
    else:
        assert result["budget_violations"] == 0
        assert result["worst_case"]["budget"] > 0.0


@pytest.mark.parametrize("argv", [
    ["--which", "bogus"],
    ["--which", "multi", "--segments", "1"],
    ["--which", "weighted2", "--kappa-min", "nan"],
    ["--which", "extension", "--kappa-min", "1", "--kappa-max", "-1"],
    ["--which", "weighted2", "--scale", "0"],
    ["--which", "multi", "--scale", "-1"],
    ["--which", "alternating", "--scale", "inf"],
    ["--which", "extension", "--scale", "nan"],
    ["--which", "alternating", "--a-min", "-2", "--a-max", "-1"],
    ["--which", "multi", "--a-min", "0"],
    ["--which", "weighted2", "--a-max", "inf"],
    ["--which", "weighted2", "--a-min", "2", "--a-max", "1"],
    ["--which", "alexandrov", "--scale", "1e-2"],
    ["--which", "alexandrov", "--kappa-max", "1"],
    ["--which", "alexandrov", "--a-min", "0.5"],
    ["--which", "weighted2", "--segments", "6"],
    ["--which", "alternating", "--segments", "4"],
    ["--which", "extension", "--a-max", "1.5"],
    ["--which", "extension", "--segments", "3"],
], ids=["bogus-which", "one-segment", "nan-kappa", "kappa-min-above-max", "zero-scale",
        "negative-scale", "infinite-scale", "nan-scale", "negative-a", "zero-a",
        "infinite-a", "a-min-above-max", "alexandrov-scale", "alexandrov-kappa",
        "alexandrov-a", "weighted2-segments", "alternating-segments", "extension-a",
        "extension-segments"])
def test_lemma_verify_usage_error(runner, argv):
    res = _run(runner, ["lemma", "verify", "--trials", "50", *argv])
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("which, option", [
    ("alexandrov", "--scale"), ("extension", "--a-min"), ("alternating", "--segments"),
])
def test_lemma_verify_names_an_option_the_sweep_does_not_read(runner, which, option):
    res = _run(runner, ["lemma", "verify", "--which", which, "--trials", "50", option, "1"])
    assert res.exit_code == 2
    assert f"Error: the {which} sweep does not read {option}" in res.output.splitlines()


def test_lemma_verify_accepts_the_largest_seed(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = _run(runner, ["lemma", "verify", "--which", "multi", "--trials", "50",
                        "--seed", str(2**64 - 1), "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["seed"] == 2**64 - 1


_RANGES = ["--kappa-min", "-1", "--a-max", "1.5"]
# each sweep with the options it reads, all away from their defaults
_READ_OPTIONS = {
    "weighted2": ["--scale", "0.02", *_RANGES],
    "multi": ["--scale", "0.02", *_RANGES, "--segments", "4"],
    "alternating": ["--scale", "0.02", *_RANGES],
    "extension": ["--scale", "0.002", "--kappa-min", "-1"],
    "alexandrov": [],
}


@pytest.mark.parametrize("which,name", [
    ("weighted2", "verify_weighted_pair"), ("multi", "verify_weighted_multi"),
    ("alternating", "verify_alternating"), ("extension", "verify_extension"),
    ("alexandrov", "verify_alexandrov"),
])
def test_sweep_config_echoes_what_the_sweep_read(runner, tmp_path, monkeypatch, which, name):
    options = _READ_OPTIONS[which]
    seen = {}
    sweep = getattr(comparison, name)

    def spy(trials, **params):
        seen.update(trials=trials, **params)
        return sweep(trials, **params)

    monkeypatch.setattr(comparison, name, spy)
    out = tmp_path / "rep.json"
    res = _run(runner, ["lemma", "verify", "--which", which, "--trials", "60", "--seed", "3",
                        *options, "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0, res.output
    config = json.loads(out.read_text())["config"]
    assert config.pop("which") == which
    # the alternating sweep runs at a fixed block count, which the config echoes
    if which == "alternating":
        assert config.pop("max_blocks") == comparison.MAX_BLOCKS
    assert config == json.loads(json.dumps(seen))
    if "--scale" in options:
        assert config["scale"] == float(options[1])


# ---------------------------------------------------------------------------
# domains and scans


def test_domain_generate_schema(runner, tmp_path):
    out = tmp_path / "cap.json"
    res = _run(runner, ["domain", "generate", "--kind", "cap", "--r", "1.2566",
                        "--h", "0.1", "-o", str(out)])
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"vertices", "edges", "meta"}
    assert all(set(v) == {"xyz", "in_U"} for v in data["vertices"][:5])
    table = data["edges"]
    assert set(table) == {"indptr", "indices", "w"}
    indptr = np.frombuffer(base64.b64decode(table["indptr"]), dtype="<i4")
    assert len(indptr) == len(data["vertices"]) + 1 and indptr[0] == 0 and indptr[-1] > 0
    assert len(base64.b64decode(table["indices"])) == 4 * indptr[-1]
    assert len(base64.b64decode(table["w"])) == 8 * indptr[-1]
    for key in ("generator", "h", "h_err"):
        assert key in data["meta"]


def test_domain_generate_sphere_points_csv(runner, tmp_path):
    out = tmp_path / "pts.csv"
    res = _run(runner, ["domain", "generate", "--kind", "sphere_points", "--n", "40",
                        "--seed", "2", "-o", str(out)])
    assert res.exit_code == 0
    mat = np.loadtxt(out, delimiter=",")
    assert mat.shape == (40, 40)
    assert abs(mat - mat.T).max() == 0.0


# every option each kind reads, --side and --stencil-radius away from their defaults
_KIND_ARGV = {
    "cap": ["--r", "1.2566", "--h", "0.15"],
    "dense_square": ["--h", "0.015625", "--delta", "0.3", "--segments", "20", "--side", "1.5",
                     "--stencil-radius", "3"],
    "punctured": ["--h", "0.0625", "--side", "1.5", "--stencil-radius", "3",
                  "--remove-point", "0.5,0.25", "--remove-point", "0.75,0.75",
                  "--remove-segment", "0.2,0.6,0.8,0.6"],
    "sphere_points": ["--n", "20"],
}
_OPTION_VALUES = {"--r": "1", "--h": "0.2", "--delta": "0.2", "--segments": "20", "--side": "2",
                  "--stencil-radius": "4", "--remove-point": "0.5,0.5",
                  "--remove-segment": "0.2,0.2,0.8,0.8", "--n": "20"}


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind, argv in _KIND_ARGV.items() for option in _OPTION_VALUES
    if option not in argv])
def test_domain_generate_refuses_an_option_its_kind_does_not_read(runner, tmp_path, kind,
                                                                  option):
    out = tmp_path / "out"
    res = _run(runner, ["domain", "generate", "--kind", kind, *_KIND_ARGV[kind], option,
                        _OPTION_VALUES[option], "-o", str(out)])
    assert res.exit_code == 2
    assert f"Error: the {kind} kind does not read {option}" in res.output.splitlines()
    assert not out.exists()


def test_space_scan_exit_codes(runner, tmp_path):
    pts = tmp_path / "pts.csv"
    _run(runner, ["domain", "generate", "--kind", "sphere_points", "--n", "60",
                  "--seed", "0", "-o", str(pts)])
    good = tmp_path / "scan1.json"
    res = _run(runner, ["space", "scan", "--input", str(pts), "--kappa", "1",
                        "--samples", "4000", "--seed", "7", "-o", str(good),
                        "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(good.read_text())
    assert rep["result"]["min_defect"] >= -1e-6
    assert rep["result"]["censored"] is False
    # a defect fails just above 1, below the perimeter bound
    assert rep["result"]["kappa_max_rule"] == "defect"
    assert 1.0 <= rep["result"]["kappa_max"] < rep["result"]["perimeter_bound"]
    work = rep["result"]["work"]
    assert set(work) == {"probes", "quadruple_evaluations"} and work["probes"] > 2

    bad = tmp_path / "scan2.json"
    res = _run(runner, ["space", "scan", "--input", str(pts), "--kappa", "1.5",
                        "--samples", "4000", "--seed", "7", "-o", str(bad),
                        "--no-timestamp"])
    assert res.exit_code == 1  # assertion failed, report still written
    rep = json.loads(bad.read_text())
    assert rep["result"]["min_defect"] < 0


def test_space_scan_on_cap_file(runner, tmp_path, cap_file):
    out = tmp_path / "capscan.json"
    res = _run(runner, ["space", "scan", "--input", str(cap_file), "--kappa", "1",
                        "--samples", "20000", "--seed", "7", "-o", str(out),
                        "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["min_defect"] >= -1e-6
    assert rep["result"]["exact_metric"] == "sphere"


@pytest.mark.parametrize("source, renamed", [("SPHERE", "sphere.txt"), ("CAP", "cap.dat")])
def test_space_scan_reads_the_format_from_the_content(runner, tmp_path, readme_inputs,
                                                      source, renamed):
    original = readme_inputs[source]
    copy = tmp_path / renamed
    copy.write_bytes(open(original, "rb").read())
    reports = []
    for path in (original, copy):
        out = tmp_path / "scan.json"
        res = _run(runner, ["space", "scan", "--input", str(path), "--kappa", "1",
                            "--samples", "4000", "--seed", "7", "-o", str(out),
                            "--no-timestamp"])
        assert res.exit_code in (0, 1), res.output
        rep = json.loads(out.read_text())
        assert rep["config"].pop("input") == str(path)
        reports.append(rep)
    assert reports[0] == reports[1]


def test_space_local_check(runner, tmp_path):
    grid = tmp_path / "grid.json"
    res = _run(runner, ["domain", "generate", "--kind", "punctured", "--h", "0.02",
                        "--side", "2.0", "--stencil-radius", "4", "-o", str(grid)])
    assert res.exit_code == 0
    space = json.loads(grid.read_text())
    n = len(space["vertices"])
    out = tmp_path / "check.json"
    res = _run(runner, ["space", "local-check", "--input", str(grid),
                        "--center", str(n // 2), "--radius", "1.5", "--kappa", "0",
                        "--samples", "8", "--h-angle", "8", "--seed", "3",
                        "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["passed"] is True


def test_local_check_beside_a_slit_writes_its_report(runner, tmp_path):
    # every side is measured in U: the sample whose triangle pqs broke the
    # triangle inequality while |pq| and |ps| ran through the slit's tips is
    # evaluated
    grid, out = tmp_path / "slit.json", tmp_path / "check.json"
    res = _run(runner, ["domain", "generate", "--kind", "punctured", "--h", "0.0625",
                        "--side", "2", "--stencil-radius", "2", "--remove-point", "1,1",
                        "--remove-segment", "0.5,1.3,1.5,1.3", "-o", str(grid)])
    assert res.exit_code == 0
    res = _run(runner, ["space", "local-check", "--input", str(grid), "--center", "544",
                        "--radius", "1.6", "--kappa", "0", "--samples", "20", "--seed", "3",
                        "-o", str(out), "--no-timestamp"])
    assert res.exit_code in (0, 1), res.output
    result = json.loads(out.read_text())["result"]
    assert result["skips"]["invalid_triangle"] == 0 and result["evaluated"] == 12
    assert sum(result["skips"].values()) == result["skipped"]


# ---------------------------------------------------------------------------
# convexity and completion


@pytest.fixture(scope="module")
def cap_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("dom") / "cap.json"
    CliRunner().invoke(main, ["domain", "generate", "--kind", "cap", "--r", "1.2566",
                              "--h", "0.1", "-o", str(path)], catch_exceptions=False)
    return path


def test_convexity_estimate_and_series(runner, tmp_path, cap_file):
    data = json.loads(cap_file.read_text())
    in_u = [i for i, v in enumerate(data["vertices"]) if v["in_U"]]
    p, q, s = in_u[0], in_u[len(in_u) // 3], in_u[2 * len(in_u) // 3]
    out = tmp_path / "conv.json"
    res = _run(runner, ["convexity", "estimate", "--input", str(cap_file),
                        "--p", str(p), "--q", str(q), "--s", str(s),
                        "--emit-samples", "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["probability"] == 1.0
    assert sorted(rep["result"]) == ["detail", "probability", "samples", "series", "slack",
                                     "step"]
    assert sorted(rep["config"]) == ["input", "kind", "p", "q", "s", "slack", "step"]
    # the prob estimate reads no seed, so its envelope records none
    assert "seed" not in rep
    csv_out = tmp_path / "conv.csv"
    res = _run(runner, ["plot", "emit", "--input", str(out), "--series", "series",
                        "-o", str(csv_out)])
    assert res.exit_code == 0
    header = csv_out.read_text().splitlines()[0]
    assert header == "arc_length,connectable"


_PROB = ["--p", "0", "--q", "1", "--s", "2"]
_AE_P = ["--kind", "ae", "--p", "0"]


@pytest.mark.parametrize("argv, option", [
    (_PROB + ["--samples", "10"], "--samples"), (_PROB + ["--seed", "3"], "--seed"),
    (_AE_P + ["--q", "1"], "--q"), (_AE_P + ["--s", "2"], "--s"),
    (_AE_P + ["--emit-samples"], "--emit-samples"),
], ids=["prob-samples", "prob-seed", "ae-q", "ae-s", "ae-emit-samples"])
def test_convexity_estimate_names_an_option_its_kind_does_not_read(runner, cap_file, argv,
                                                                   option):
    res = _run(runner, ["convexity", "estimate", "--input", str(cap_file), *argv])
    kind = "ae" if "ae" in argv else "prob"
    assert res.exit_code == 2
    assert f"Error: the {kind} estimate does not read {option}" in res.output.splitlines()


def test_convexity_ae_and_search(runner, tmp_path, cap_file):
    data = json.loads(cap_file.read_text())
    in_u = [i for i, v in enumerate(data["vertices"]) if v["in_U"]]
    out = tmp_path / "ae.json"
    res = _run(runner, ["convexity", "estimate", "--input", str(cap_file),
                        "--kind", "ae", "--p", str(in_u[5]), "--samples", "300",
                        "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["probability"] == 1.0
    assert sorted(rep["result"]) == ["detail", "interval", "probability", "samples", "slack"]
    lo, hi = rep["result"]["interval"]
    assert 0.0 < lo < 1.0 == hi
    assert sorted(rep["config"]) == ["input", "kind", "p", "samples", "seed", "slack"]
    assert rep["seed"] == rep["config"]["seed"] == 0
    out = tmp_path / "search.json"
    res = _run(runner, ["convexity", "search", "--input", str(cap_file),
                        "--p", str(in_u[0]), "--q", str(in_u[7]), "--s", str(in_u[31]),
                        "--epsilon", "0.3", "--candidates", "6", "--seed", "0",
                        "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    result = json.loads(out.read_text())["result"]
    assert result["probability"] == 1.0
    assert sorted(result) == ["detail", "probability", "samples", "slack", "step"]


def test_completion_and_area(runner, tmp_path):
    dom = tmp_path / "dense.json"
    res = _run(runner, ["domain", "generate", "--kind", "dense_square", "--h",
                        str(1 / 64), "--delta", "0.2", "--segments", "200",
                        "-o", str(dom)])
    assert res.exit_code == 0
    out = tmp_path / "comp.json"
    res = _run(runner, ["completion", "compare", "--input", str(dom),
                        "--pairs", "120", "--epsilon", "0.05", "--seed", "0",
                        "-o", str(out), "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["matched"] > 0
    area_out = tmp_path / "area.json"
    res = _run(runner, ["area", "estimate", "--delta", "0.2", "--segments", "200",
                        "--samples", "30000", "--seed", "0", "-o", str(area_out),
                        "--no-timestamp"])
    assert res.exit_code == 0
    rep = json.loads(area_out.read_text())
    assert rep["result"]["estimate"] <= 0.2


def _graph(offsets, columns, weights, n=3, **members):
    """Graph-file text over n open vertices with the given upper-triangle CSR arrays."""
    def b64(values, dtype):
        return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()

    table = {"indptr": b64(offsets, "<i4"), "indices": b64(columns, "<i4"),
             "w": b64(weights, "<f8"), **members}
    return json.dumps({"vertices": [{"in_U": True}] * n, "edges": table})


# the path 0 - 1 - 2, as row offsets and columns
_ROWS, _COLS = [0, 1, 2, 2], [1, 2]


def _grid_xy(xy):
    """A small punctured grid's file text with vertex i's "xy" replaced by ``xy(i, point)``."""
    grid = domains.generate(domains.DomainSpec(kind="punctured", resolution=0.1), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "grid.json"
        grid.save(path)
        data = json.loads(path.read_text())
    for i, v in enumerate(data["vertices"]):
        v["xy"] = xy(i, v["xy"])
    return json.dumps(data)


_STRING_FLAG = '{"vertices": [{"in_U": "false"}, {"in_U": true}], "edges": [[0, 1, 1.0]]}'
_OLD_LIST_FORM = '{"vertices": [{"in_U": true}, {"in_U": true}], "edges": [[0, 1, 1.0]]}'
# files of the format before this one, which stored the endpoint pairs
_OLD_IJ_FORM = ('{"vertices": [{"in_U": true}, {"in_U": true}], '
                '"edges": {"count": 1, "ij": "AAAAAAEAAAA=", "w": "AAAAAAAA8D8="}}')
_OLD_IJ_SHORT = _OLD_IJ_FORM.replace('"count": 1', '"count": 2')
_AE = ["convexity", "estimate", "--kind", "ae", "--p", "0"]
_LOCAL = ["space", "local-check", "--center", "0", "--radius", "1", "--kappa", "0"]


@pytest.mark.parametrize("argv, name, content", [
    (["convexity", "estimate", "--kind", "ae", "--p", "999999"], None, None),
    (["convexity", "estimate", "--kind", "ae", "--p", "-1"], None, None),
    (["convexity", "estimate", "--p", "0", "--q", "1", "--s", "999999"], None, None),
    (["convexity", "search", "--p", "0", "--q", "-3", "--s", "1", "--epsilon", "0.3"],
     None, None),
    (["space", "local-check", "--center", "99999999", "--radius", "1", "--kappa", "0"],
     None, None),
    (_AE, "bad.json", ""),
    (["convexity", "search", "--p", "0", "--q", "1", "--s", "2", "--epsilon", "0.3"],
     "bad.json", "{"),
    (["space", "local-check", "--center", "0", "--radius", "1", "--kappa", "0"],
     "bad.json", "[]"),
    (["completion", "compare"], "bad.json", '{"vertices": [{"xy": [0, 0]}]}'),
    (["space", "scan", "--kappa", "1"], "bad.json", _graph([0], [], [], n=0)),
    (["space", "scan", "--kappa", "1"], "bad.csv", "0,x\n1"),
    (_AE, "bad.json", _graph([0, 2, 2, 2], [1, 1], [1.0, 1.0])),
    (_AE, "bad.json", _STRING_FLAG),
    (["space", "scan", "--kappa", "1", "--samples", "-5"], None, None),
    (["space", "scan", "--kappa", "1", "--subset", "-3"], None, None),
    (["space", "scan", "--kappa", "1", "--samples", "0"], None, None),
    (_AE, "bad.json", _graph(_ROWS, _COLS, [1.0, 1.0], indices="AAAA!AAAAAAA")),
    (_AE, "bad.json", _OLD_IJ_SHORT),
    (_AE, "bad.json", _graph([0, 1, 2], _COLS, [1.0, 1.0])),
    (_AE, "bad.json", _graph(_ROWS, _COLS, [1.0, 1.0], indices="AAAAAAA=")),
    (_AE, "bad.json", _graph(_ROWS, _COLS, [1.0])),
    (_AE, "bad.json", _graph([1, 1, 2, 2], _COLS, [1.0, 1.0])),
    (_AE, "bad.json", _graph([0, 2, 1, 2], _COLS, [1.0, 1.0])),
    (_AE, "bad.json", _graph([0, 1, 2, 3], _COLS, [1.0, 1.0])),
    (_AE, "bad.json", _graph(_ROWS, [1, 0], [1.0, 1.0])),
    (_AE, "bad.json", _graph(_ROWS, [1, -1], [1.0, 1.0])),
    (_AE, "bad.json", _graph(_ROWS, [1, 3], [1.0, 1.0])),
    (_AE, "bad.json", _graph(_ROWS, _COLS, [1.0, math.nan])),
    (_AE, "bad.json", _graph(_ROWS, _COLS, [0.0, 1.0])),
    (_AE, "bad.json", '{"vertices": [{"in_U": true}], "edges": 7}'),
    (["space", "scan", "--kappa", "1"], "bad.json", _OLD_LIST_FORM),
    (["space", "scan", "--kappa", "1"], "bad.json", _OLD_IJ_FORM),
    (["space", "scan", "--kappa", "1"], "blank.txt", " \n\n"),
    (["space", "scan", "--kappa", "1", "--min-defect-tol", "nan"], None, None),
    (["space", "scan", "--kappa", "1", "--min-defect-tol", "-1"], None, None),
    (["space", "scan", "--kappa", "1", "--min-defect-tol", "inf"], None, None),
    (_LOCAL, "bad.json", _grid_xy(lambda i, xy: [])),
    (_LOCAL, "bad.json", _grid_xy(lambda i, xy: 1.0)),
    (_LOCAL, "bad.json", _grid_xy(lambda i, xy: [math.nan, 0.0] if i == 7 else xy)),
], ids=["p-past-end", "p-negative", "s-past-end", "q-negative", "center-past-end",
        "empty-json", "truncated-json", "json-list", "vertex-without-flag", "no-vertices",
        "malformed-csv", "duplicate-edge", "string-flag", "scan-negative-samples",
        "scan-negative-subset", "scan-zero-samples", "invalid-base64", "ij-short-of-count",
        "indptr-short",
        "indices-ragged", "w-count-disagrees", "indptr-not-from-0", "indptr-not-monotone",
        "indptr-past-columns", "column-below-row", "negative-id", "id-past-end",
        "nan-weight", "zero-weight", "edges-number", "old-list-form", "old-ij-form",
        "blank-file", "scan-nan-tol", "scan-negative-tol",
        "scan-infinite-tol", "xy-empty", "xy-scalar", "xy-nan"])
def test_bad_vertex_ids_and_input_files_exit_2(runner, tmp_path, cap_file, argv, name,
                                                content):
    path = cap_file
    if name is not None:
        path = tmp_path / name
        path.write_text(content)
    res = _run(runner, argv + ["--input", str(path)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    if content in (_OLD_LIST_FORM, _OLD_IJ_FORM, _OLD_IJ_SHORT):
        assert "domain generate" in res.output


@pytest.mark.parametrize("argv", [["space", "scan", "--kappa", "1"],
                                  ["space", "local-check", "--center", "0", "--radius", "1",
                                   "--kappa", "0"],
                                  ["completion", "compare"]])
def test_binary_graph_file_gives_one_short_error_line(runner, tmp_path, argv):
    path = tmp_path / "junk.json"
    path.write_bytes(b"{" + np.random.default_rng(0).bytes(256))
    res = _run(runner, argv + ["--input", str(path)])
    assert res.exit_code == 2
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and len(errors[0]) < 200, res.output
    assert "not UTF-8 text at byte" in errors[0]


@pytest.mark.parametrize("argv", [["--kind", "cap", "--r", "1.0", "--h", "1e-6"],
                                  ["--kind", "punctured", "--h", "1e-6"],
                                  ["--kind", "dense_square", "--h", "1e-310"]],
                         ids=["cap", "punctured", "dense_square"])
def test_mesh_past_int32_ids_exits_2_before_it_is_built(runner, tmp_path, monkeypatch, argv):
    def reached(*args, **kwargs):
        raise AssertionError("a mesh builder ran")

    for name in ("_subdivide", "_square_grid"):
        monkeypatch.setattr(domains, name, reached)
    out = tmp_path / "mesh.json"
    res = _run(runner, ["domain", "generate", *argv, "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert "does not fit the file's int32 vertex ids" in res.output
    assert not out.exists()


def test_csv_breaking_the_triangle_inequality_names_the_triple(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,1\n0,0,3\n1,3,0\n")
    res = _run(runner, ["space", "scan", "--input", str(path), "--kappa", "1"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: triangle inequality fails: d(1, 2) > d(1, 0) + d(0, 2) + 1e-09"]


def test_csv_scan_imports_no_scipy(tmp_path):
    # a fresh interpreter, so that no other test's import is counted
    path = tmp_path / "pts.csv"
    points = np.random.default_rng(0).normal(size=(12, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    chord = np.linalg.norm(points[:, None] - points[None], axis=-1)
    np.savetxt(path, 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0)), delimiter=",")
    child = ("import sys\n"
             "from alexkit.cli import main\n"
             "main.main(args=sys.argv[1:], standalone_mode=False)\n"
             "print('scipy' in sys.modules)\n")
    src = str(pathlib.Path(alexkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", child, "space", "scan", "--input", str(path),
                          "--kappa", "0", "--samples", "200", "-o", str(tmp_path / "scan.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


# set-ups and commands of the BLAS lever test, each run in its working directory
_LEVER_ARGVS = [
    ["domain", "generate", "--kind", "cap", "--r", "1.2566", "--h", "0.12", "--seed", "3",
     "-o", "cap.json"],
    ["domain", "generate", "--kind", "cap", "--r", "2.8274", "--h", "0.3", "--seed", "4",
     "-o", "wide_cap.json"],
    ["space", "scan", "--input", "wide_cap.json", "--kappa", "1", "--samples", "5000",
     "--subset", "200", "--seed", "5", "--no-timestamp", "-o", "scan.json"],
    ["convexity", "estimate", "--input", "cap.json", "--kind", "prob", "--p", "10", "--q", "100",
     "--s", "200", "--no-timestamp", "-o", "convexity.json"],
    ["domain", "generate", "--kind", "punctured", "--h", "0.0625", "--side", "2",
     "--stencil-radius", "3", "--remove-segment", "0.5,1.3,1.5,1.3", "-o", "slit.json"],
    ["space", "local-check", "--input", "slit.json", "--center", "544", "--radius", "1.6",
     "--kappa", "0", "--samples", "6", "--seed", "2", "--no-timestamp", "-o", "local.json"],
]


def test_files_and_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE acts only on the child that sets it, Haswell with FMA
    # kernels and Nehalem without; when this test came in, the four cap,
    # scan and convexity files differed under Haswell, through the cap
    # generator's BLAS dot products.  The slit square's local check walks
    # geodesics whose chord ties were once decided by np.dot.
    child = ("import json, sys\n"
             "from alexkit.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    try:\n"
             "        main.main(args=argv, prog_name='alexkit', standalone_mode=True)\n"
             "    except SystemExit as exc:\n"
             "        assert exc.code in (0, 1), (argv, exc.code)\n")
    src = str(pathlib.Path(alexkit.__file__).resolve().parent.parent)
    files = {}
    for lever in ("native", "Haswell", "Nehalem"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if lever != "native":
            env["OPENBLAS_CORETYPE"] = lever
        cwd = tmp_path / lever
        cwd.mkdir()
        subprocess.run([sys.executable, "-c", child, json.dumps(_LEVER_ARGVS)], cwd=cwd,
                       env=env, capture_output=True, text=True, check=True)
        files[lever] = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
    assert sorted(files["native"]) == ["cap.json", "convexity.json", "local.json", "scan.json",
                                       "slit.json", "wide_cap.json"]
    for lever in ("Haswell", "Nehalem"):
        for name, data in files["native"].items():
            assert files[lever][name] == data, (lever, name)


@pytest.mark.parametrize("kind", ["cap", "dense_square", "punctured"])
def test_old_list_form_file_names_the_command_that_rebuilds_it(runner, tmp_path, kind):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    res = _run(runner, ["domain", "generate", "--kind", kind, *_KIND_ARGV[kind], "--seed", "4",
                        "-o", str(new)])
    assert res.exit_code == 0
    data = json.loads(new.read_text())
    # the spec keeps the fields its kind does not read; the command leaves them out
    assert set(data["meta"]["spec"]) == {f.name for f in dataclasses.fields(domains.DomainSpec)}
    table = data["edges"]
    indptr = np.frombuffer(base64.b64decode(table["indptr"]), dtype="<i4")
    cols = np.frombuffer(base64.b64decode(table["indices"]), dtype="<i4")
    rows = np.repeat(np.arange(len(indptr) - 1, dtype="<i4"), np.diff(indptr))
    ij = np.column_stack([rows, cols]).astype("<i4")
    w = np.frombuffer(base64.b64decode(table["w"]), dtype="<f8")
    ij_form = {"count": len(w), "ij": base64.b64encode(ij.tobytes()).decode(), "w": table["w"]}
    for edges in ([[int(i), int(j), float(x)] for (i, j), x in zip(ij, w)], ij_form):
        old.write_text(json.dumps({**data, "edges": edges}, indent=1))
        res = _run(runner, ["space", "local-check", "--input", str(old), "--center", "0",
                            "--radius", "1", "--kappa", "0"])
        assert res.exit_code == 2
        argv = shlex.split(" ".join(res.output.split("`")[1].split()))
        assert argv[:5] == ["alexkit", "domain", "generate", "--kind", kind]
        res = _run(runner, argv[1:])
        assert res.exit_code == 0
        assert old.read_bytes() == new.read_bytes()


@pytest.fixture(scope="module")
def dense_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("dense") / "dense.json"
    CliRunner().invoke(main, ["domain", "generate", "--kind", "dense_square", "--h",
                              str(1 / 64), "--delta", "0.2", "--segments", "20",
                              "-o", str(path)], catch_exceptions=False)
    return path


_PQS = ["convexity", "estimate", "--input", "CAP", "--p", "0", "--q", "1", "--s", "2"]
_LOCAL = ["space", "local-check", "--input", "DENSE", "--center", "0", "--kappa", "0",
          "--radius"]
# every command that takes --seed, which must lie in [0, 2**64)
_SEEDED = {
    "lemma-verify": ["lemma", "verify", "--which", "alexandrov", "--trials", "10"],
    "domain-generate": ["domain", "generate", "--kind", "sphere_points", "--n", "10",
                        "-o", "OUT"],
    "space-scan": ["space", "scan", "--input", "CAP", "--kappa", "1", "--samples", "100"],
    "local-check": _LOCAL + ["0.3"],
    "convexity-estimate": _PQS,
    "convexity-search": ["convexity", "search", "--input", "CAP", "--p", "0", "--q", "1",
                         "--s", "2", "--epsilon", "0.3"],
    "completion-compare": ["completion", "compare", "--input", "DENSE"],
    "area-estimate": ["area", "estimate", "--delta", "0.2"],
}
_BAD_SEEDS = ("-1", str(2**64))


@pytest.mark.parametrize("argv", [
    ["domain", "generate", "--kind", "sphere_points", "--n", "-1", "-o", "OUT"],
    ["domain", "generate", "--kind", "cap", "--r", "1.2", "--h", "nan", "-o", "OUT"],
    ["domain", "generate", "--kind", "cap", "--r", "1.2", "--h", "inf", "-o", "OUT"],
    ["domain", "generate", "--kind", "punctured", "--side", "nan", "-o", "OUT"],
    ["domain", "generate", "--kind", "punctured", "--remove-point", "abc", "-o", "OUT"],
    ["domain", "generate", "--kind", "punctured", "--remove-point", "1,2,3", "-o", "OUT"],
    ["domain", "generate", "--kind", "punctured", "--remove-segment", "0.5,0.5",
     "-o", "OUT"],
    ["area", "estimate", "--delta", "0.2", "--samples", "0"],
    ["area", "estimate", "--delta", "0.2", "--samples", "-3"],
    ["completion", "compare", "--input", "DENSE", "--pairs", "-1"],
    ["plot", "emit", "--input", "NOT_JSON", "-o", "OUT"],
    _PQS + ["--step", "nan"],
    _PQS + ["--step", "inf"],
    _PQS + ["--step", "0"],
    _LOCAL + ["nan"],
    _LOCAL + ["0"],
    _LOCAL + ["-1"],
    ["convexity", "search", "--input", "CAP", "--p", "0", "--q", "1", "--s", "2",
     "--epsilon", "0.3", "--candidates", "0"],
    ["completion", "compare", "--input", "DENSE", "--epsilon", "-1"],
    ["completion", "compare", "--input", "DENSE", "--epsilon", "nan"],
    _PQS + ["--slack", "nan"],
    _PQS + ["--slack", "-1"],
    ["convexity", "estimate", "--input", "CAP", "--kind", "ae", "--p", "0",
     "--slack", "inf"],
    ["convexity", "estimate", "--input", "CAP", "--kind", "ae", "--p", "0",
     "--samples", "0"],
    ["convexity", "estimate", "--input", "CAP", "--kind", "ae", "--p", "0",
     "--step", "nan"],
    ["convexity", "search", "--input", "CAP", "--p", "0", "--q", "1", "--s", "2",
     "--epsilon", "inf"],
    _LOCAL + ["0.3", "--samples", "0"],
    _LOCAL + ["0.3", "--samples", "-3"],
    _PQS + ["--step", "1e-300"],
    ["convexity", "search", "--input", "CAP", "--p", "0", "--q", "1", "--s", "2",
     "--epsilon", "0.3", "--step", "1e-300"],
] + [argv + ["--seed", seed] for argv in _SEEDED.values() for seed in _BAD_SEEDS],
    ids=["sphere-negative-n", "cap-nan-h", "cap-infinite-h", "punctured-nan-side",
        "point-not-numbers", "point-three-coords", "segment-two-coords",
        "area-zero-samples", "area-negative-samples", "completion-negative-pairs",
        "plot-not-json", "estimate-nan-step", "estimate-infinite-step", "estimate-zero-step",
        "local-check-nan-radius", "local-check-zero-radius", "local-check-negative-radius",
        "search-zero-candidates", "completion-negative-epsilon", "completion-nan-epsilon",
        "estimate-nan-slack", "estimate-negative-slack", "ae-infinite-slack", "ae-zero-samples",
        "ae-nan-step",
        "search-infinite-epsilon", "local-check-zero-samples", "local-check-negative-samples",
        "estimate-tiny-step", "search-tiny-step"]
    + [f"{name}-seed-{seed}" for name in _SEEDED for seed in _BAD_SEEDS])
def test_bad_parameters_exit_2(runner, tmp_path, dense_file, cap_file, argv):
    not_json = tmp_path / "notes.txt"
    not_json.write_text("not json\n")
    paths = {"OUT": tmp_path / "out", "DENSE": dense_file, "CAP": cap_file,
             "NOT_JSON": not_json}
    res = _run(runner, [str(paths.get(a, a)) for a in argv])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1, res.output
    if "--samples" in argv and argv[1] == "local-check":
        assert "at least one sample" in res.output
    if "1e-300" in argv:
        assert "step 1e-300 would sample the geodesic of length" in res.output
    if "ae" in argv and "--step" in argv:  # refused unread, before the value is checked
        assert "the ae estimate does not read --step" in res.output


@pytest.mark.parametrize("content", [
    [{"result": {"series": {"x": [0.5]}}}],
    {"result": [{"series": {"x": [0.5]}}]},
    {"result": {"series": {}}},
    {"result": {"series": {"x": 0.5}}},
    {"result": {"series": {"x": [0.5], "y": [1, 0]}}},
    {"result": {"detail": {"series": {"x": [0.5]}}}},
    {"series": {"x": [0.5]}},
], ids=["top-level-list", "result-list", "empty-series", "column-not-list", "ragged-columns",
        "series-below-result", "series-beside-result"])
def test_plot_emit_reads_only_the_result_series(runner, tmp_path, content):
    report, out = tmp_path / "rep.json", tmp_path / "out.csv"
    report.write_text(json.dumps(content))
    res = _run(runner, ["plot", "emit", "--input", str(report), "-o", str(out)])
    assert res.exit_code == 2, res.output
    assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1, res.output
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lemma", "verify", "--which", "alexandrov", "--trials", "10"],
    ["area", "estimate", "--delta", "0.2", "--segments", "20", "--samples", "100"],
    ["domain", "generate", "--kind", "sphere_points", "--n", "10"],
    ["domain", "generate", "--kind", "punctured", "--h", "0.1"],
    ["plot", "emit", "--input", "SERIES"],
], ids=["lemma-verify", "area-estimate", "sphere-points", "punctured", "plot-emit"])
def test_unwritable_output_is_a_usage_error(runner, tmp_path, argv):
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"result": {"series": {"x": [0.5, 1.0], "y": [1, 0]}}}))
    missing = tmp_path / "missing" / "out"
    res = _run(runner, [str(series) if a == "SERIES" else a for a in argv] + ["-o", str(missing)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {missing}: No such file or directory"]
    assert not missing.parent.exists()


# ---------------------------------------------------------------------------
# reproducibility


@pytest.fixture(scope="module")
def readme_inputs(tmp_path_factory, cap_file, dense_file):
    """Small versions of the README's input files, with vertex ids in the open set."""
    root = tmp_path_factory.mktemp("readme")
    sphere = root / "sphere.csv"
    punct = root / "punct.json"
    for args in (["--kind", "sphere_points", "--n", "40", "-o", str(sphere)],
                 ["--kind", "punctured", "--h", "0.0625", "--side", "2",
                  "--stencil-radius", "3", "--remove-point", "1.13,1.07", "-o", str(punct)]):
        CliRunner().invoke(main, ["domain", "generate", *args], catch_exceptions=False)
    data = json.loads(cap_file.read_text())
    in_u = [i for i, v in enumerate(data["vertices"]) if v["in_U"]]
    n_punct = len(json.loads(punct.read_text())["vertices"])
    return {"CAP": str(cap_file), "DENSE": str(dense_file), "SPHERE": str(sphere),
            "PUNCT": str(punct), "CENTER": str(n_punct // 2), "P": str(in_u[0]),
            "Q": str(in_u[len(in_u) // 3]), "S": str(in_u[2 * len(in_u) // 3])}


_SWEEP = ["lemma", "verify", "--trials", "200", "--seed", "42", "--which"]


# small versions of the README commands that read an input or write a report
_README_ARGV = [
    ["lemma", "verify", "--trials", "300", "--seed", "42", "--which", "weighted2"],
    _SWEEP + ["multi"],
    _SWEEP + ["alternating"],
    _SWEEP + ["extension"],
    _SWEEP + ["alexandrov"],
    ["space", "scan", "--input", "SPHERE", "--kappa", "1", "--samples", "4000",
     "--seed", "7"],
    ["space", "scan", "--input", "CAP", "--kappa", "1", "--samples", "4000", "--seed", "7"],
    ["space", "local-check", "--input", "PUNCT", "--center", "CENTER", "--radius", "1.5",
     "--kappa", "0", "--samples", "4", "--seed", "1"],
    ["convexity", "estimate", "--input", "CAP", "--p", "P", "--q", "Q", "--s", "S",
     "--emit-samples"],
    ["convexity", "estimate", "--input", "CAP", "--kind", "ae", "--p", "P",
     "--samples", "100"],
    ["convexity", "search", "--input", "CAP", "--p", "P", "--q", "Q", "--s", "S",
     "--epsilon", "0.1", "--candidates", "4"],
    ["completion", "compare", "--input", "DENSE", "--pairs", "40", "--epsilon", "0.05"],
    ["area", "estimate", "--delta", "0.2", "--segments", "50", "--samples", "5000"],
]
_README_IDS = ["weighted2", "multi", "alternating", "extension", "alexandrov", "scan-csv",
               "scan-json", "local-check", "convexity-prob", "convexity-ae",
               "convexity-search", "completion", "area"]


@pytest.mark.parametrize("argv", _README_ARGV, ids=_README_IDS)
def test_reports_byte_identical_across_runs(runner, tmp_path, readme_inputs, argv):
    argv = [readme_inputs.get(a, a) for a in argv] + ["--no-timestamp"]
    reports = []
    for name in ("a.json", "b.json"):
        res = _run(runner, argv + ["-o", str(tmp_path / name)])
        assert res.exit_code in (0, 1), res.output
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]


# the commands whose report carries a verdict
_VERDICT_COMMANDS = {"lemma verify", "space scan", "space local-check", "completion compare",
                     "area estimate"}
_FAILING_SCAN = ["space", "scan", "--input", "SPHERE", "--kappa", "1.5", "--samples", "4000",
                 "--seed", "7"]


@pytest.mark.parametrize("argv", _README_ARGV + [_FAILING_SCAN],
                         ids=_README_IDS + ["scan-failing"])
def test_every_result_is_its_report_serialized(runner, tmp_path, monkeypatch, readme_inputs,
                                               argv):
    reports = []
    result_of = reporting.result_of
    monkeypatch.setattr(reporting, "result_of", lambda rep: reports.append(rep) or result_of(rep))
    out = tmp_path / "rep.json"
    res = _run(runner, [readme_inputs.get(a, a) for a in argv] + ["-o", str(out),
                                                                   "--no-timestamp"])
    env = json.loads(out.read_text())
    result = env["result"]
    [rep] = reports
    assert result == json.loads(reporting.dump_canonical(result_of(rep)))
    assert ("passed" in result) == (env["command"] in _VERDICT_COMMANDS)
    assert res.exit_code == (1 if result.get("passed") is False else 0), res.output
    assert None not in result.values()
    assert not result.keys() & env.get("tolerances", {}).keys()
    assert "h_err" not in env
    if argv is _FAILING_SCAN:
        assert result["passed"] is False


# small versions of the README's domain generate commands, one per kind
_GENERATE_ARGV = [
    ["--kind", "cap", "--r", "1.2566", "--h", "0.15"],
    ["--kind", "dense_square", "--h", "0.015625", "--delta", "0.2", "--segments", "20"],
    ["--kind", "punctured", "--h", "0.0625", "--remove-point", "0.5,0.5",
     "--remove-segment", "0.2,0.3,0.8,0.3"],
    ["--kind", "sphere_points", "--n", "20"],
]


def test_commands_call_no_scalar_kernel(runner, tmp_path, monkeypatch, readme_inputs):
    # the scalar kernels are the library calculators' and the oracles';
    # every command evaluates its formulas with the trig.batch_* kernels
    def scalar_kernel(*args, **kwargs):
        raise AssertionError("a command called a scalar trig kernel")

    for module in (trig, spaces, comparison):
        for name in ("angle_from_sides", "model_side", "f", "f_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scalar_kernel)
    out = tmp_path / "out"
    for argv in ([["domain", "generate", *options] for options in _GENERATE_ARGV]
                 + [[readme_inputs.get(a, a) for a in argv] for argv in _README_ARGV]):
        res = _run(runner, argv + ["-o", str(out)])
        assert res.exit_code in (0, 1), (argv, res.output)
        assert out.stat().st_size > 0, argv
        out.unlink()


def test_timestamp_present_by_default(runner, tmp_path):
    out = tmp_path / "t.json"
    _run(runner, ["lemma", "verify", "--which", "alternating", "--trials", "50",
                  "--seed", "0", "-o", str(out)])
    assert "timestamp" in json.loads(out.read_text())


# ---------------------------------------------------------------------------
# the exit-code contract under fuzzed argv and inputs


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, readme_inputs):
    """Small valid inputs of every kind, and malformed ones, by name."""
    root = tmp_path_factory.mktemp("fuzz")
    sphere = root / "sphere.csv"
    CliRunner().invoke(main, ["domain", "generate", "--kind", "sphere_points", "--n", "12",
                              "-o", str(sphere)], catch_exceptions=False)
    files = {"sphere.csv": str(sphere), "cap.json": readme_inputs["CAP"],
             "grid.json": readme_inputs["PUNCT"], "dense.json": readme_inputs["DENSE"]}
    with open(readme_inputs["CAP"], "rb") as fh:
        cap = fh.read()
    # a report that carries a series, and malformed inputs
    written = {
        "series.json": json.dumps({"result": {"series": {"x": [0.5], "y": [1]}}}).encode(),
        "empty.json": b"",
        "notes.txt": b"not json\n",
        "truncated.json": cap[: len(cap) // 2],
        "list-form.json": _OLD_LIST_FORM.encode(),
        "nan.csv": b"0,nan\nnan,0\n",
        "ragged.csv": b"0,1,2\n1,0,1\n",
        "junk.bin": bytes(range(256)) * 4,
        "junk-brace.json": b"{" + bytes(range(255, -1, -1)),
    }
    for name, data in written.items():
        (root / name).write_bytes(data)
        files[name] = str(root / name)
    return files


_BAD_VALUES = ["0", "-1", "nan", "inf", "abc"]
_FLOATS = st.one_of(st.floats().map(repr),
                    st.sampled_from(["1.8e308", "-1.8e308", "5e-324", "-5e-324"]))
# a mesh size draws an arbitrary float outside [1e-300, 1e300]: the band between
# builds meshes of up to 2**31 vertices, which no run here should allocate
_MESH_SIZES = st.one_of(st.floats(max_value=1e-300, exclude_max=True),
                        st.floats(min_value=1e300, exclude_min=True),
                        st.just(math.nan)).map(repr)
# the options that also draw arbitrary values: every float option, and the
# vertex ids, which may be negative or past the last vertex
_ARBITRARY = {
    **dict.fromkeys(["--scale", "--kappa-min", "--kappa-max", "--a-min", "--a-max", "--r",
                     "--delta", "--kappa", "--min-defect-tol", "--radius", "--step",
                     "--slack", "--epsilon"], _FLOATS),
    "--h": _MESH_SIZES, "--side": _MESH_SIZES,
    **dict.fromkeys(["--p", "--q", "--s", "--center"], st.integers().map(str)),
}
_SEED_VALUES = ["0", "1", "5"]
_IDS = ["0", "300", "900"]
# command -> (always-passed options, optional options); each option with its
# valid values (input files by name).  Counts stay small so that every run is
# quick.
_FUZZ_COMMANDS = {
    ("lemma", "verify"): (
        {"--which": ["weighted2", "multi", "alternating", "extension", "alexandrov"],
         "--trials": ["20", "60"]},
        {"--scale": ["0.01", "0.002"], "--kappa-min": ["-1"], "--kappa-max": ["1"],
         "--a-min": ["0.5"], "--a-max": ["1.5"], "--segments": ["3"]}),
    # each kind with the options it reads, and one it does not read
    ("domain", "generate", "--kind", "cap"): (
        {"--r": ["1.2"], "--h": ["0.2", "0.1"]}, {"--segments": ["20"]}),
    ("domain", "generate", "--kind", "dense_square"): (
        {"--h": ["0.2", "0.1"], "--segments": ["20"]},
        {"--delta": ["0.2"], "--side": ["1", "2"], "--stencil-radius": ["2"], "--n": ["20"]}),
    ("domain", "generate", "--kind", "punctured"): (
        {"--h": ["0.2", "0.1"]},
        {"--side": ["1", "2"], "--stencil-radius": ["2"], "--remove-point": ["0.5,0.5"],
         "--remove-segment": ["0.2,0.2,0.8,0.8"], "--r": ["1.2"]}),
    ("domain", "generate", "--kind", "sphere_points"): ({"--n": ["20"]}, {"--h": ["0.2"]}),
    ("space", "scan"): (
        {"--input": ["sphere.csv", "cap.json", "grid.json"], "--kappa": ["1", "0", "-1"],
         "--samples": ["200"]},
        {"--subset": ["6", "10"], "--exhaustive": [], "--min-defect-tol": ["1e-6"]}),
    ("space", "local-check"): (
        {"--input": ["grid.json"], "--center": ["544", "0"], "--radius": ["1.5"],
         "--kappa": ["0"], "--samples": ["4"]},
        {"--h-angle": ["3", "4"]}),
    # each kind with the options it reads, and one it does not read
    ("convexity", "estimate", "--kind", "prob"): (
        {"--input": ["cap.json"], "--p": _IDS, "--q": _IDS, "--s": _IDS},
        {"--step": ["0.05"], "--slack": ["0.01"], "--emit-samples": [], "--samples": ["50"]}),
    ("convexity", "estimate", "--kind", "ae"): (
        {"--input": ["cap.json"], "--p": _IDS},
        {"--samples": ["50"], "--slack": ["0.01"], "--step": ["0.05"]}),
    ("convexity", "search"): (
        {"--input": ["cap.json"], "--p": _IDS, "--q": _IDS, "--s": _IDS, "--epsilon": ["0.3"],
         "--candidates": ["3"]},
        {"--step": ["0.05"], "--slack": ["0.01"]}),
    ("completion", "compare"): (
        {"--input": ["dense.json"], "--pairs": ["20"]}, {"--epsilon": ["0.05"]}),
    ("area", "estimate"): (
        {"--delta": ["0.2"], "--samples": ["500"]}, {"--segments": ["20"]}),
    ("plot", "emit"): ({"--input": ["series.json"]}, {"--series": ["series", "nope"]}),
}


@st.composite
def _fuzz_argv(draw, inputs):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    always, optional = _FUZZ_COMMANDS[command]
    chosen = [*always, *(o for o in optional if draw(st.booleans()))]
    if command[0] not in ("domain", "plot") and draw(st.booleans()):
        chosen.append("--seed")
    argv = list(command)
    for option in chosen:
        valid = _SEED_VALUES if option == "--seed" else optional.get(option, always.get(option))
        # one value in eight is bad and two are arbitrary, so that most runs get
        # past the checks
        pick = draw(st.integers(0, 7))
        bad = pick == 7
        if option == "--input":
            argv += [option, inputs[draw(st.sampled_from(sorted(inputs) if bad else valid))]]
        elif valid == []:  # a flag
            argv.append(option)
        elif bad:
            argv += [option, draw(st.sampled_from(_BAD_VALUES))]
        elif pick >= 5 and option in _ARBITRARY:
            argv += [option, draw(_ARBITRARY[option])]
        else:
            argv += [option, draw(st.sampled_from(valid))]
    return argv


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_exit_code_contract_holds_for_fuzzed_argv(fuzz_inputs, tmp_path_factory, data):
    argv = data.draw(_fuzz_argv(fuzz_inputs))
    out = tmp_path_factory.getbasetemp() / data.draw(
        st.sampled_from(["fuzz-out", "no-such-dir/out"]))
    res = CliRunner().invoke(main, argv + ["-o", str(out)])
    assert res.exit_code in (0, 1, 2), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 2:
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, (argv, res.output)
