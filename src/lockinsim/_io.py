"""Helpers shared by every layer of the library and the CLI: deterministic
serialization, and :func:`check_range`, the one range check of numeric inputs.

This module imports nothing else of the package, so any module can use it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = ["CSV_BLOCK_ROWS", "canonical_json", "check_range", "csv_blocks", "sha256_hex"]


def check_range(
    low: float | None,
    /,
    *,
    high: float | None = None,
    strict: bool = False,
    integer: bool = False,
    prefix: str = "",
    **values: Any,
) -> None:
    """Raise ValueError unless every keyword value is finite and in range.

    The range is ``>= low`` (``> low`` when ``strict``); with ``high`` it is
    [low, high] ((low, high) when ``strict``); ``low`` None asks for
    finiteness alone. ``integer`` also asks for a Python or numpy integer.
    A None value is skipped and each entry of a list value is checked, as
    for the optional and list fields of a config section. The message names
    the keyword after ``prefix``: ``<name> must be <bound>, got <value>``,
    and ``<name> must be finite, got <value>`` for NaN or +-inf.
    """
    if low is None:
        bound = "finite"
    elif high is None:
        bound = f"{'>' if strict else '>='} {low}"
    else:
        bound = f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
    if integer:
        bound = f"an integer {bound}"
    for name, value in values.items():
        for v in value if isinstance(value, list) else [value]:
            if v is None:
                continue
            if integer and not isinstance(v, (int, np.integer)):
                fault = bound
            elif not integer and not math.isfinite(v):
                fault = "finite"
            elif low is not None and (
                (v <= low if strict else v < low)
                or (high is not None and (v >= high if strict else v > high))
            ):
                fault = bound
            else:
                continue
            raise ValueError(f"{prefix}{name} must be {fault}, got {v}")


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


# Rows per block of :func:`csv_blocks`: a block's row strings and text stay a
# few MB, however long the columns are.
CSV_BLOCK_ROWS = 1 << 15


def csv_blocks(header: Sequence[str], columns: Sequence[Any]) -> Iterator[str]:
    """CSV text in blocks: the ``header`` lines, then row k joins value k of
    every column, ``CSV_BLOCK_ROWS`` rows per block; every line ends in a newline.

    Each column (array or sequence) is formatted as ``str`` of its Python
    scalars (``tolist``). For a Python float ``str`` is the shortest
    round-trip repr, so identical columns give identical bytes, and numpy
    scalars print as plain numbers. Write the blocks in turn (``writelines``);
    joined, they are the whole file.
    """
    yield "".join(f"{line}\n" for line in header)
    columns = [np.asarray(column) for column in columns]
    rows = min((column.shape[0] for column in columns), default=0)
    for start in range(0, rows, CSV_BLOCK_ROWS):
        cells = [map(str, c[start : start + CSV_BLOCK_ROWS].tolist()) for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
