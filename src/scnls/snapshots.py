"""Binary snapshot dumps.

A dump file is a sequence of records; each record is one JSON header line
(UTF-8, newline-terminated) followed by raw little-endian float64 samples,
interleaved re/im for complex fields.  The header carries {time, grid
descriptor, count, layout, name} plus any extra metadata (config hash).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import Grid

_LAYOUT_COMPLEX = "interleaved-re-im-float64-le"
_LAYOUT_REAL = "float64-le"


def append_snapshot(fh, name: str, time: float, field: np.ndarray,
                    grid: Grid, extra: dict | None = None) -> None:
    complex_field = np.iscomplexobj(field)
    # "<c16" is the interleaved re/im float64 layout
    buf = np.asarray(field).astype("<c16" if complex_field else "<f8")
    header = {
        "name": name,
        "time": float(time),
        "grid": grid.descriptor(),
        "count": int(buf.size),
        "layout": _LAYOUT_COMPLEX if complex_field else _LAYOUT_REAL,
    }
    if extra:
        header.update(extra)
    fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
    fh.write(buf.tobytes())


def write_snapshots(path, records, extra: dict | None = None) -> None:
    """records: iterable of (name, time, field, grid)."""
    path = Path(path)
    with open(path, "wb") as fh:
        for name, time, fld, grid in records:
            append_snapshot(fh, name, time, fld, grid, extra)


def read_snapshots(path) -> list[tuple[dict, np.ndarray]]:
    """Read back all (header, field) records, each field a writable array."""
    out = []
    with open(path, "rb") as fh:
        while True:
            line = fh.readline()
            if not line:
                break
            header = json.loads(line.decode())
            count = header["count"]
            dtype = "<c16" if header["layout"] == _LAYOUT_COMPLEX else "<f8"
            fld = np.frombuffer(fh.read(np.dtype(dtype).itemsize * count),
                                dtype).reshape(tuple(header["grid"]["n"])).copy()
            out.append((header, fld))
    return out
