"""Deterministic serialization helpers shared by the library and the CLI."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Sequence

import numpy as np

__all__ = ["canonical_json", "csv_text", "sha256_hex"]


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and stable float repr.

    Identical inputs always produce identical bytes (Python float repr is the
    shortest round-trip form), which backs the byte-determinism contract.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def sha256_hex(text: str) -> str:
    """Hex sha256 of a text payload (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def csv_text(header: Sequence[str], columns: Sequence[Any]) -> str:
    """CSV text: the ``header`` lines, then row k joins value k of every column.

    Each column (array or sequence) is formatted whole as ``str`` of its
    Python scalars (``tolist``). For a Python float ``str`` is the shortest
    round-trip repr, so identical columns give identical bytes, and numpy
    scalars print as plain numbers.
    """
    cells = [map(str, np.asarray(column).tolist()) for column in columns]
    return "\n".join([*header, *map(",".join, zip(*cells))]) + "\n"
