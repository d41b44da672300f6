"""Deterministic content-hashed artifacts: JSON documents and CSV tables.

A JSON document carries ``content_hash`` = sha256 of its canonical form
(sorted keys, compact separators) without that key.  A CSV table carries a
``# content_hash:`` header comment = sha256 of its data lines (column header
plus rows, newline-joined, no trailing newline).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def content_hash(payload) -> str:
    """sha256 of the canonical JSON form of payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def hashed_json(payload: dict) -> str:
    """Indented sorted-key JSON text of payload plus its content_hash."""
    payload = dict(payload, content_hash=content_hash(payload))
    return json.dumps(payload, sort_keys=True, indent=1)


def cell(v) -> str:
    """CSV cell text: floats by repr, booleans lower-case, None empty, arrays
    as a quoted ';'-joined list."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.ndarray):
        return '"' + ";".join(repr(float(x)) for x in v.ravel()) + '"'
    return str(v)


def hashed_csv(head_lines: list[str], columns, rows: list[dict]) -> str:
    """CSV text: '#' head lines, the content-hash comment, then the data."""
    body = [",".join(columns)]
    body += [",".join(cell(row[c]) for c in columns) for row in rows]
    text = "\n".join(body)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return "\n".join([*head_lines, "# content_hash: sha256:" + digest]) \
        + "\n" + text + "\n"
