"""Deterministic serialization helpers shared by the library and the CLI."""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = ["CSV_BLOCK_ROWS", "canonical_json", "csv_blocks", "sha256_hex"]


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
