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

# Renderers of the leaf types, looked up by exact type; numpy scalars and
# arrays are rendered as the Python values ``tolist`` gives.
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
    if isinstance(obj, (np.generic, np.ndarray)):
        return _render(obj.tolist(), indent, level)
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
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # Short numeric lists stay on one line; nested structures get split.
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj):
            return "[" + ", ".join(_render(v, indent, level + 1) for v in obj) + "]"
        items = [f"{pad_in}{_render(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
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
