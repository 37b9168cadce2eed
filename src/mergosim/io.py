"""File export: CSV series, JSON and JSONL records.

Every writer goes through an atomic write-temp-then-rename so partial
files never appear under the target name. Numeric formatting uses
shortest round-trip reprs, which keeps outputs byte-stable for a fixed
input and seed.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str],
              columns: Sequence[Sequence]) -> None:
    """One line per row of equal-length ``columns``. Each column is read
    with one ``tolist`` into Python values, so a float cell is its
    shortest round-trip repr and an int or a name its str; a column
    holds one kind of value."""
    rows = zip(*(map(str, np.asarray(c).tolist()) for c in columns))
    lines = [",".join(header)]
    lines.extend(map(",".join, rows))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))
