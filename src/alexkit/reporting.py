"""Report envelopes, atomic writes, and CSV series emission.

Every run embeds the tool version, the full flag configuration, the seed
and the tolerances in play, so a report is reproducible from its own
contents.  JSON is the canonical format; CSV is emitted only for plot
series.  Writes go through a temp file and rename so readers never see a
partial report.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import json
import os
import tempfile

import numpy as np

from . import __version__
from .errors import GeometryError


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and obj in (float("inf"), float("-inf")):
        return {"inf": obj > 0}
    return obj


def result_of(report) -> dict:
    """A report's ``result``: its fields that are set, and its verdict when it has one.

    A ``None`` field is left out, and so is ``tolerances``, which the
    envelope carries; the members of an ``extra`` field sit at the top
    level.  Values are shared, not copied.
    """
    result = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name == "extra":
            result.update(value)
        elif value is not None and f.name != "tolerances":
            result[f.name] = value
    passed = getattr(report, "passed", None)
    if passed is not None:
        result["passed"] = passed
    return result


def make_envelope(
    command: str,
    config: dict,
    result: dict,
    seed: int | None = None,
    tolerances: dict | None = None,
    timestamp: bool = True,
) -> dict:
    env = {
        "tool": "alexkit",
        "version": __version__,
        "command": command,
        "config": _jsonable(config),
        "result": _jsonable(result),
    }
    if seed is not None:
        env["seed"] = int(seed)
    if tolerances:
        env["tolerances"] = _jsonable(tolerances)
    if timestamp:
        env["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return env


def dump_canonical(obj: dict) -> str:
    """Canonical JSON text; a NaN anywhere raises ValueError instead of writing invalid JSON."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".alexkit-", suffix=".tmp")
    except OSError as exc:
        # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        # mkstemp creates the file with mode 0600 whatever the umask; give it
        # the mode that open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, envelope: dict) -> None:
    _atomic_write(path, dump_canonical(envelope))


def write_csv(path: str, header: list[str], columns: list[list]) -> None:
    if len(header) != len(columns):
        raise GeometryError("header and column counts differ")
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise GeometryError("columns must have equal length")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def extract_series(envelope, name: str) -> tuple[list[str], list[list]]:
    """The columnar series ``result.<name>`` of a report, as a header and columns for CSV."""
    if not isinstance(envelope, dict):
        raise GeometryError("a report is a JSON object")
    result = envelope.get("result")
    if not isinstance(result, dict):
        raise GeometryError("the report's result is not a JSON object")
    series = result.get(name)
    if not (isinstance(series, dict) and series
            and all(isinstance(v, list) for v in series.values())):
        raise GeometryError(f"the report's result holds no columnar series named {name!r}")
    header = sorted(series)
    return header, [series[k] for k in header]
