"""On-disk interchange: the dataclass codec, JSON-lines boxes, JSON metrics.

This is the only module that knows how things go to disk.  Every file the
package writes goes through :func:`atomic_write` (temp file + rename), so
partially written outputs never appear under the final name.  Configs, scene
manifests and box records are dataclasses and share one codec,
:func:`to_dict` / :func:`from_dict`.

No other voxdet module is imported at runtime: ``scene`` and ``pipeline``
import this one, so the reverse edge would be a cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import os
import typing
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .metrics import MetricsReport
    from .postprocess import TrackerState
    from .scene.types import Box3D

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "atomic_write",
    "to_dict",
    "from_dict",
    "decode_value",
    "write_boxes_jsonl",
    "read_boxes_jsonl",
    "write_tracks_jsonl",
    "write_metrics_json",
    "read_metrics_json",
    "load_json",
]

METRICS_SCHEMA_VERSION = 1


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (text is UTF-8 encoded) via ``<name>.tmp`` and a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


def to_dict(obj):
    """JSON-ready data for a dataclass tree: tuples become lists, dict keys str."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_dict(v) for k, v in obj.items()}
    return obj


def from_dict(cls, data, path: str = ""):
    """Rebuild dataclass ``cls`` from :func:`to_dict` output.

    Scalars must have their annotated JSON type (an int is also a float); a
    wrong type, or a missing or unknown key, raises ``ValueError`` naming its
    dotted path (``path`` prefixes it).  ``data`` must hold exactly the fields
    ``to_dict`` writes.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{path or cls.__name__}: expected an object, found {data!r}")
    types = _field_types(cls)
    for key in data:
        if key not in types:
            raise ValueError(f"unknown field {_join(path, key)!r}")
    for name in types:
        if name not in data:
            raise ValueError(f"missing field {_join(path, name)!r}")
    kwargs = {
        name: decode_value(tp, data[name], _join(path, name)) for name, tp in types.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"{path}: {exc}") from exc


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotation, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def decode_value(tp, value, path: str):
    """``value`` decoded as annotation ``tp``; a mismatch raises ``ValueError`` naming ``path``."""
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, path)
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: expected a list, found {value!r}")
        if not args:
            return origin(value)
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValueError(f"{path}: expected {len(args)} values, found {len(value)}")
        else:
            args = (args[0],) * len(value)
        return origin(
            decode_value(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value))
        )
    if origin is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{path}: expected an object, found {value!r}")
        if not args:
            return dict(value)
        kt, vt = args
        return {
            _decode_key(kt, k, _join(path, k)): decode_value(vt, v, _join(path, k))
            for k, v in value.items()
        }
    if tp in _SCALARS:
        if not _SCALARS[tp](value):
            raise ValueError(f"{path}: expected {tp.__name__}, found {value!r}")
        return tp(value)
    return value


# JSON scalar checks: a bool is never a number, and an int field takes no fraction
_SCALARS = {
    int: lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    float: lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _decode_key(tp, key, path: str):
    """JSON object keys are strings; an int key must spell an integer as ``str`` writes it."""
    if tp is int and isinstance(key, str):
        try:
            if str(int(key)) == key:
                return int(key)
        except ValueError:
            pass
        raise ValueError(f"{path}: expected int, found {key!r}")
    return decode_value(tp, key, path)


def _jsonl(records) -> str:
    lines = [json.dumps(rec) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def write_boxes_jsonl(path, frames: list[list[Box3D]]) -> None:
    """One detection per line, tagged with its frame index."""
    atomic_write(path, _jsonl(
        {"frame": f, **to_dict(box)} for f, frame in enumerate(frames) for box in frame
    ))


def read_boxes_jsonl(path) -> list[list[Box3D]]:
    """Frames of boxes, indexed by the ``frame`` field (gaps become empty).

    A malformed record raises ``IOError`` naming ``path:line`` and the field.
    """
    from .scene.types import Box3D

    path = Path(path)
    if not path.is_file():
        raise IOError(f"missing detections file {path}")
    frames: dict[int, list[Box3D]] = {}
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IOError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
        try:
            if not isinstance(rec, dict) or "frame" not in rec:
                raise ValueError("missing field 'frame'")
            frame = decode_value(int, rec.pop("frame"), "frame")
            rec.pop("id", None)
            box = from_dict(Box3D, rec)
        except (TypeError, ValueError) as exc:
            raise IOError(f"{path}:{line_no}: {exc}") from exc
        frames.setdefault(frame, []).append(box)
    if not frames:
        return []
    return [frames.get(i, []) for i in range(max(frames) + 1)]


def write_tracks_jsonl(path, states: list[TrackerState]) -> None:
    """Tracks updated in each frame, one box per line with its track id."""
    atomic_write(path, _jsonl(
        {"frame": f, **to_dict(track.box), "id": track.track_id}
        for f, state in enumerate(states)
        for track in state.tracks
        if track.track_id in state.updated_ids
    ))


def write_metrics_json(path, report: MetricsReport) -> None:
    payload = {"schema_version": METRICS_SCHEMA_VERSION}
    payload.update(report.as_dict())
    atomic_write(path, json.dumps(payload, indent=1))


def read_metrics_json(path) -> dict:
    """A ``metrics.json`` payload; a wrong schema, or a missing or mistyped ``map``,
    ``nds`` or ``tp_errors``, raises ``ValueError`` naming the field."""
    data = load_json(path)
    version = data.get("schema_version")
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"metrics schema_version: expected {METRICS_SCHEMA_VERSION}, found {version!r}"
        )
    for key, tp in (("map", float), ("nds", float), ("tp_errors", dict[str, float])):
        if key not in data:
            raise ValueError(f"{path}: missing field {key!r}")
        data[key] = decode_value(tp, data[key], _join(str(path), key))
    return data


def load_json(path) -> dict:
    """The JSON object in file ``path``.

    A missing file raises ``IOError``; invalid JSON, or JSON that is not an
    object, raises ``ValueError`` naming the path.
    """
    path = Path(path)
    if not path.is_file():
        raise IOError(f"missing file {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(data).__name__}")
    return data
