"""Initial-data presets: amplitudes a0/a1 and phases phi0.

Presets cover the hypothesis classes exercised by the workbench:

* ``gaussian``     -- smooth, effectively compactly supported in the cell;
* ``compact_bump`` -- C-infinity, exactly compactly supported
                      (peak-normalized exp(-(x/r)^2 / (1-(x/r)^2)) on |x|<r);
* ``plane_wave``   -- a single lattice mode;
* ``constant`` / ``zero``.

Phase presets additionally allow a linear (non-periodic) part k.x, carried
separately from the periodic samples since only its gradient is periodic.
The ``snap_wavevector`` helper rounds k so that k/epsilon lies on the
spectral lattice 2*pi*Z/L, which makes exp(i*k.x/epsilon) grid-periodic.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ConfigError
from .grid import Grid, cis
from .records import Record, frozen_record


@frozen_record
class InitialData(Record):
    """Amplitudes and phase for one run: u(0) = (a0 + eps*a1) e^{i phi0/eps}.

    phi0 = phi0_wavevector . x + phi0_periodic; phi0_wavevector is snapped
    per-epsilon when building wavefunctions.  The fields end in the grid
    shape; leading batch axes describe independent runs (see
    scnls.limit.evolve_limit).
    """

    grid: Grid
    a0: np.ndarray
    a1: np.ndarray
    phi0_periodic: np.ndarray
    phi0_wavevector: tuple[float, ...]
    label: str = "custom"

    def __post_init__(self):
        for name in ("a0", "a1", "phi0_periodic"):
            arr = getattr(self, name)
            if arr.shape[-self.grid.dim:] != self.grid.shape:
                raise ConfigError(f"initial.{name}", "field shape must end in the grid shape")
        if np.iscomplexobj(self.phi0_periodic):
            raise ConfigError("initial.phi0", "phase must be real-valued")
        if len(self.phi0_wavevector) != self.grid.dim:
            raise ConfigError("initial.phi0", "wavevector length must equal dim")


def _radial2(grid: Grid, center) -> np.ndarray:
    # one center value serves every axis, as plane_wave's mode does
    c = np.broadcast_to(np.asarray(0.0 if center is None else center, dtype=float), grid.dim)
    return sum((x - ci) ** 2 for x, ci in zip(grid.coords, c))


def gaussian(grid: Grid, width: float = 1.0, amplitude: complex = 1.0, center=None) -> np.ndarray:
    """amplitude * exp(-(|x-c|/width)^2)."""
    return amplitude * np.exp(-_radial2(grid, center) / width**2)


def compact_bump(grid: Grid, radius: float = 3.0, amplitude: complex = 1.0, center=None) -> np.ndarray:
    """Peak-normalized smooth bump supported in |x-c| < radius, 0 outside."""
    s2 = _radial2(grid, center) / radius**2
    out = np.zeros(grid.shape, dtype=complex if np.iscomplexobj(np.asarray(amplitude)) else float)
    inside = s2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-s2[inside] / (1.0 - s2[inside]))
    return amplitude * out


def plane_wave(grid: Grid, mode=1, amplitude: complex = 1.0) -> np.ndarray:
    """amplitude * exp(i * sum_j 2*pi*mode_j*x_j/L_j) for integer lattice modes."""
    modes = np.atleast_1d(np.asarray(mode, dtype=int))
    if modes.size != grid.dim:
        modes = np.full(grid.dim, int(np.asarray(mode).flat[0]))
    phase = np.zeros(grid.shape)
    for j in range(grid.dim):
        phase = phase + (2.0 * np.pi * modes[j] / grid.lengths[j]) * grid.coords[j]
    return amplitude * cis(phase)


def constant(grid: Grid, value: complex = 1.0) -> np.ndarray:
    return np.full(grid.shape, value, dtype=complex if np.iscomplexobj(np.asarray(value)) else float)


def zero(grid: Grid) -> np.ndarray:
    return np.zeros(grid.shape, dtype=complex)


def neg_cos_phase(grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """Periodic phase -amplitude * sum_j cos(2*pi*x_j/L_j)."""
    out = np.zeros(grid.shape)
    for j in range(grid.dim):
        out = out - amplitude * np.cos(2.0 * np.pi * grid.coords[j] / grid.lengths[j])
    return out


def snap_wavevector(k, grid: Grid, epsilon: float) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Round each component so k_j/epsilon is on the lattice 2*pi*Z/L_j.

    Returns (snapped k, integer modes m with k_j = m_j*2*pi*epsilon/L_j).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    modes = tuple(
        int(round(k[j] * grid.lengths[j] / (2.0 * np.pi * epsilon)))
        for j in range(grid.dim)
    )
    snapped = tuple(m * 2.0 * np.pi * epsilon / grid.lengths[j] for j, m in enumerate(modes))
    return snapped, modes


def _neg_cos(grid: Grid, amplitude: float = 1.0):
    return neg_cos_phase(grid, amplitude=float(amplitude)), (0.0,) * grid.dim


def _bump_phase(grid: Grid, radius: float = 3.0, amplitude: float = 1.0):
    return (np.real(compact_bump(grid, radius=float(radius), amplitude=float(amplitude))),
            (0.0,) * grid.dim)


def _linear_phase(grid: Grid, wavenumber=1.0):
    k = np.atleast_1d(np.asarray(wavenumber, dtype=float))
    if k.size == 1 and grid.dim > 1:
        k = np.full(grid.dim, float(k[0]))
    return np.zeros(grid.shape), tuple(float(v) for v in k)


_AMPLITUDE_PRESETS = {
    "gaussian": gaussian,
    "compact_bump": compact_bump,
    "plane_wave": plane_wave,
    "constant": constant,
    "zero": zero,
}

# each returns (periodic part, wavevector)
_PHASE_PRESETS = {
    "zero": lambda grid: _linear_phase(grid, 0.0),
    "neg_cos": _neg_cos,
    "compact_bump": _bump_phase,
    "linear": _linear_phase,
}


# what a preset function raises on parameter values it cannot use
_BAD_VALUE = (TypeError, ValueError, IndexError, ArithmeticError)


def _numbers(value):
    """Every number in a parameter value, through nested lists."""
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        yield value


def _check_params(grid: Grid, params: dict, key: str, preset: str) -> None:
    """Reject non-finite numbers anywhere in params, and per-axis lists whose
    length is neither 1 nor grid.dim (presets never read entries past dim)."""
    for name, value in params.items():
        if isinstance(value, (list, tuple)) and len(value) not in (1, grid.dim):
            raise ConfigError(key, f"parameter {name!r} of preset {preset!r} takes "
                                   f"1 or dim={grid.dim} values, got {len(value)}")
        if not all(cmath.isfinite(v) for v in _numbers(value)):
            raise ConfigError(key, f"parameter {name!r} of preset {preset!r} "
                                   "is not finite")


def _finite(fld: np.ndarray, key: str, preset: str) -> np.ndarray:
    if not np.all(np.isfinite(fld)):
        raise ConfigError(key, f"parameters of preset {preset!r} give non-finite values")
    return fld


def _build(grid: Grid, presets: dict, kind: str, preset: str, params: dict,
           key: str, fold=dict):
    """presets[preset](grid, **fold(params)); ConfigError(key) for a preset
    or parameters it cannot use (non-finite results are the caller's)."""
    if not isinstance(preset, str) or preset not in presets:
        raise ConfigError(key, f"unknown {kind} preset {preset!r}; "
                               f"choose from {sorted(presets)}")
    try:
        _check_params(grid, params, key, preset)
        with np.errstate(all="ignore"):
            return presets[preset](grid, **fold(params))
    except _BAD_VALUE as exc:
        raise ConfigError(key, f"bad parameters for preset {preset!r}: {exc}") from exc


def _fold_amplitude(params: dict) -> dict:
    # amplitude_re/amplitude_im give one complex amplitude
    params = dict(params)
    amp_re = params.pop("amplitude_re", None)
    amp_im = params.pop("amplitude_im", None)
    if amp_re is not None or amp_im is not None:
        params["amplitude"] = complex(amp_re or 0.0, amp_im or 0.0)
    return params


def make_amplitude(grid: Grid, preset: str, params: dict, key: str) -> np.ndarray:
    """Build a complex amplitude field from a config preset description."""
    fld = _build(grid, _AMPLITUDE_PRESETS, "amplitude", preset, params, key,
                 _fold_amplitude)
    return _finite(np.asarray(fld, dtype=complex), key, preset)


def make_phase(grid: Grid, preset: str, params: dict, key: str):
    """Build (periodic part, wavevector) for a phi0 preset description."""
    per, kvec = _build(grid, _PHASE_PRESETS, "phase", preset, params, key)
    _finite(np.asarray(kvec), key, preset)
    return _finite(per, key, preset), kvec
