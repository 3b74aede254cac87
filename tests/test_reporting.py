"""Report envelopes, series extraction, space validation."""

import json
import os
import stat
from dataclasses import dataclass, field

import numpy as np
import pytest

from alexkit.errors import GeometryError
from alexkit.reporting import (
    dump_canonical,
    extract_series,
    make_envelope,
    result_of,
    write_csv,
    write_report,
)
from alexkit.spaces import DiscreteLengthSpace


def test_envelope_fields_and_canonical_dump():
    env = make_envelope("space scan", {"kappa": 1.0}, {"min_defect": np.float64(0.25)},
                        seed=3, tolerances={"tol": 1e-6}, timestamp=False)
    assert env["tool"] == "alexkit"
    assert env["seed"] == 3
    assert env["tolerances"] == {"tol": 1e-6}
    assert "timestamp" not in env
    text = dump_canonical(env)
    assert json.loads(text)["result"]["min_defect"] == 0.25
    assert dump_canonical(env) == text


@dataclass
class _Report:
    count: int
    unset: float | None = None
    extra: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not any(self.extra.values())


@dataclass
class _NoVerdict:
    count: int
    series: dict | None = None


def test_result_of_holds_the_set_fields_and_the_verdict():
    rep = _Report(3, extra={"a_failures": 0}, tolerances={"tol": 1.0})
    assert result_of(rep) == {"count": 3, "a_failures": 0, "passed": True}
    assert result_of(_Report(3, unset=0.5, extra={"a_failures": 2}))["passed"] is False
    assert result_of(_NoVerdict(1)) == {"count": 1}
    series = {"x": [0.0]}
    assert result_of(_NoVerdict(1, series))["series"] is series  # shared, not copied


def test_canonical_dump_refuses_nan():
    # array kernels mark skipped entries with NaN; one that leaks into a
    # report must fail instead of writing invalid JSON
    env = make_envelope("lemma verify", {"scale": 1e-2},
                        {"worst_case": {"kappa_bar": np.float64("nan")}}, timestamp=False)
    with pytest.raises(ValueError):
        dump_canonical(env)


def test_write_report_atomic(tmp_path):
    path = tmp_path / "rep.json"
    write_report(str(path), {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    leftovers = [p for p in tmp_path.iterdir() if p.name != "rep.json"]
    assert not leftovers


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_written_files_take_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_report(str(tmp_path / "rep.json"), {"a": 1})
        write_csv(str(tmp_path / "s.csv"), ["x"], [[1.0]])
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)
    assert want == 0o666 & ~umask
    for name in ("rep.json", "s.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == want


def test_write_csv_and_extract_series(tmp_path):
    env = {"result": {"series": {"x": [0.0, 1.0], "flag": [1, 0]}}}
    header, cols = extract_series(env, "series")
    assert header == ["flag", "x"]
    out = tmp_path / "s.csv"
    write_csv(str(out), header, cols)
    lines = out.read_text().splitlines()
    assert lines[0] == "flag,x"
    assert lines[1] == "1,0.0"


def test_extract_series_missing_name():
    with pytest.raises(GeometryError):
        extract_series({"result": {}}, "series")


def test_space_validation_rejects_bad_graphs():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    in_u = np.array([True, True, True])
    with pytest.raises(GeometryError):
        # disconnected completion
        DiscreteLengthSpace(coords, in_u, [[0, 1]], [1.0])
    with pytest.raises(GeometryError):
        # nonpositive weight
        DiscreteLengthSpace(coords, in_u, [[0, 1], [1, 2]], [1.0, 0.0])
    with pytest.raises(GeometryError):
        # weight disagrees with the embedding
        DiscreteLengthSpace(coords, in_u, [[0, 1], [1, 2]], [1.0, 3.0])


def test_comparison_angle_requires_distinct_points(full_square):
    from alexkit.spaces import comparison_angle

    with pytest.raises(GeometryError):
        comparison_angle(full_square, 3, 3, 7, 0.0)
