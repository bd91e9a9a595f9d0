"""Deterministic JSON writing with fixed-precision floats.

Every float is rendered with 17 significant digits, which round-trips
IEEE doubles exactly and keeps file bytes reproducible across runs.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ConfigError


def format_float(x: float) -> str:
    v = float(x)
    # '.17g' would emit 'inf'/'nan', which are not valid JSON.
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {x!r} to JSON")
    return format(v, ".17g")


# What json.dumps writes for a str with its default settings.
_quote = json.encoder.encode_basestring_ascii

# Renderers of the leaf types met most, looked up by exact type; numpy
# scalars and subclasses take the isinstance route of _render.
_LEAVES = {
    float: format_float,
    int: str,
    str: _quote,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _render(obj: Any, indent: int, level: int) -> str:
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
            items.append(f"{pad_in}{_quote(k)}: {_render(v, indent, level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        # Short numeric lists stay on one line; nested structures get split.
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            return "[" + ", ".join(_render(v, indent, level + 1) for v in seq) + "]"
        items = [f"{pad_in}{_render(v, indent, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj: Any, indent: int = 2) -> str:
    return _render(obj, indent, 0) + "\n"


def dump_json(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def load_json(path) -> Any:
    """The JSON value in ``path``, the package's only JSON reader.

    Malformed text or bytes that are not UTF-8 raise ConfigError naming the
    file; a missing file raises FileNotFoundError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
