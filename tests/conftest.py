import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import scnls
from scnls import Grid
from scnls.presets import InitialData, gaussian


def subprocess_env() -> dict:
    """Environment for a child `python -m scnls`: PYTHONPATH starts with the
    absolute directory holding the imported `scnls` package, so the child runs
    the code under test whatever its working directory (a relative
    `PYTHONPATH=src` would resolve against it)."""
    env = os.environ.copy()
    root = str(Path(scnls.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def hash_of_json(doc: dict) -> str:
    """content_hash of a JSON artifact: sha256 of the canonical document
    without its content_hash entry."""
    rest = {k: v for k, v in doc.items() if k != "content_hash"}
    blob = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def hash_of_csv(text: str) -> tuple[str, str]:
    """(stated, recomputed) content hash of a CSV artifact: the recomputed
    one is the sha256 of the data lines (everything but '#' comments)."""
    lines = text.splitlines()
    stated = [ln.split(": ", 1)[1] for ln in lines
              if ln.startswith("# content_hash: ")]
    assert len(stated) == 1
    data = "\n".join(ln for ln in lines if not ln.startswith("#"))
    return stated[0], "sha256:" + hashlib.sha256(data.encode()).hexdigest()


@pytest.fixture(scope="session")
def grid_1d() -> Grid:
    return Grid(128, 2 * np.pi)


@pytest.fixture(scope="session")
def grid_wide() -> Grid:
    """Production-like cell: wide enough that gaussian tails are < 1e-12."""
    return Grid(512, 16.0)


@pytest.fixture(scope="session")
def gaussian_data(grid_wide) -> InitialData:
    """Complex leading amplitude with Re(conj(a0) a1) not identically zero,
    so the corrector phase is active."""
    g = grid_wide
    a0 = gaussian(g, 1.0, 1.0) * (1 + 0.2j * gaussian(g, 1.0))
    a1 = (0.5 * gaussian(g, 1.2)).astype(complex)
    return InitialData(grid=g, a0=a0, a1=a1,
                       phi0_periodic=np.zeros(g.shape),
                       phi0_wavevector=(0.0,), label="gaussian-complex")


@pytest.fixture(scope="session")
def real_imag_data(grid_wide) -> InitialData:
    """a0 real-valued, a1 purely imaginary: the corrector phase must vanish."""
    g = grid_wide
    a0 = gaussian(g, 1.0, 1.0).astype(complex)
    a1 = 1j * 0.5 * gaussian(g, 1.2)
    return InitialData(grid=g, a0=a0, a1=a1,
                       phi0_periodic=np.zeros(g.shape),
                       phi0_wavevector=(0.0,), label="real-imag")
