"""Periodic tensor-product grids with FFT-based calculus and discrete norms.

Conventions used throughout the package:

* the fundamental cell per axis is [-L/2, L/2) with N uniformly spaced points,
  N a power of two (>= 16);
* wavenumbers are xi_k = 2*pi*k/L for k in {-N/2, ..., N/2-1} in numpy FFT
  ordering; the lone Nyquist mode is zeroed in odd-order derivatives;
* norms are quadrature norms: ||f||_{L^2}^2 = sum |f_j|^2 * dV, and the H^s
  norm uses Parseval weights so that H^0 coincides with L^2.

Fields are numpy arrays of shape ``(*batch, *grid.shape)``: transforms,
calculus and integrals act on the trailing ``dim`` axes, any leading axes are
a batch of independent members, and the results are bitwise those of one call
per member.  Vector fields stack the components first, shape
``(dim, *batch, *grid.shape)``, so ``v[j]`` is component j of every member.
The norms reduce like the integrals, to one value per leading index (a
Python float for a single field), each the bits of its own call.  Grid
objects are immutable after construction and all operations are pure, so
they are safe to share across concurrent runs.

Spectra are full (``fft``, complex fields) or rfftn half spectra (``rfft``,
real fields, last axis N/2 + 1); the spectral multipliers (gradient, jet,
Laplacian, projection) take either, told apart by the last axis.  Grid
makes every transform of the package: the one-axis calls of numpy.fft.fftn
(ifftn, rfftn, irfftn), with their bits but not their n-d plumbing, in
chunks of whole fields of at most CHUNK_POINTS points, each with the bits of
its own call.  A chunked transform returns an array of its own, not a view:
numpy elides a temporary of 256 KiB or more only into an operand that owns
its data, which fixes fft(u) * m as u_hat * m, and m * u_hat rounds
differently in the last bit.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridMismatchError

# Largest batch, in grid points, that one transform's calls take.  A call
# over a batch that outgrows a core's cache costs more than one per chunk:
# on a 128x128 grid (numpy 2.4, one core of a 2-vCPU Xeon guest), 9 fields
# took 4.8 ms in one ifftn against 3.0 ms in one call each, while a 2-field
# call beat two calls (0.44 ms against 0.53).
# On small grids the per-call overhead dominates instead: a 1-D batch of up
# to 64 fields of 512 points is one call.
CHUNK_POINTS = 2**15
# memory budget for the stored observations of one run (limit nodes,
# wavefunction snapshots), checked before the run
MAX_STORED_BYTES = 2**31
# the bytes one observation of a CLI run stores per grid point, against
# MAX_STORED_BYTES: a wavefunction snapshot (16) and one joint limit +
# corrector node (8*dim + 64).  The step-doubling guard's run keeps only its
# two end states, which do not grow with observation_count.  The 168 keep
# the earlier margins (a second wavefunction and a second limit node), so
# no configuration that was refused is now accepted.
SNAPSHOT_BYTES_PER_POINT = 168
# most steps one run of either solver may take: a larger count is a step too
# small to finish, refused before the first step
MAX_STEPS = 10**7
BOUNDARY_BAND_CELLS = 3  # the band of boundary_tail_fraction
SUPPORT_TAIL_THRESHOLD = 1e-10  # the largest tail of support inside the cell


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def observation_steps(final_time: float, n_obs: int, dt: float,
                      key: str) -> tuple[int, float]:
    """Steps per observation interval and the step: each of the n_obs - 1
    uniform intervals of [0, final_time] is cut into ceil(interval/dt)
    equal steps, dt rounded down to divide it.  The split step cuts its
    observation intervals so; the limit takes n_obs = 2, steps over the
    whole horizon and interpolates its nodes.  n_obs < 2 raises; so does,
    with the caller's key, a dt that is not positive and finite or a run of
    more than MAX_STEPS steps in all."""
    if n_obs < 2:
        raise ConfigError("time.observation_count", f"n_obs must be >= 2, got {n_obs}")
    if not 0.0 < dt < math.inf:
        raise ConfigError(key, f"time step must be positive and finite, got {dt}")
    delta = final_time / (n_obs - 1)
    # clamped before math.ceil, which an infinite delta/dt overflows
    m = max(1, math.ceil(min(MAX_STEPS + 1, delta / dt) - 1e-9))
    if m * (n_obs - 1) > MAX_STEPS:
        raise ConfigError(key, f"time step {dt:.3g} needs more than {MAX_STEPS} "
                               f"steps to reach T={final_time:g}")
    return m, delta / m


def check_stored_bytes(n_obs: int, points: int, per_point: int) -> None:
    """Refuse (ConfigError grid.N) n_obs observations of points grid points,
    per_point bytes each, over MAX_STORED_BYTES."""
    stored = n_obs * points * per_point
    if stored > MAX_STORED_BYTES:
        raise ConfigError("grid.N", f"{n_obs} stored observations need {stored} "
                          f"bytes, over the budget of {MAX_STORED_BYTES}")


def per_value(fn, *values) -> np.ndarray | float:
    """fn of each value of same-shaped arrays in Python float arithmetic (a
    float for 0-d values): Python's ** is libm's pow, which rounds unlike
    numpy's array power, so a batch keeps the bits of one call per field."""
    if np.ndim(values[0]) == 0:
        return fn(*map(float, values))
    out = list(map(fn, *(np.ravel(v).tolist() for v in values)))
    return np.array(out).reshape(np.shape(values[0]))


class Grid:
    """Uniform periodic grid on a 1-D or 2-D torus."""

    def __init__(self, n, length, dim: int | None = None):
        if dim is None:
            dim = len(n) if isinstance(n, (tuple, list)) else 1
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        shape = tuple(n) if isinstance(n, (tuple, list)) else (int(n),) * dim
        lengths = (
            tuple(float(l) for l in length)
            if isinstance(length, (tuple, list))
            else (float(length),) * dim
        )
        if len(shape) != dim or len(lengths) != dim:
            raise ValueError("n/length do not match dim")
        for ni in shape:
            if not _is_power_of_two(ni) or ni < 16:
                raise ValueError(f"points per axis must be a power of two >= 16, got {ni}")
        for li in lengths:
            if not li > 0:
                raise ValueError(f"axis length must be positive, got {li}")
        self.dim = dim
        self.shape = shape
        self.lengths = lengths
        self.dx = tuple(l / ni for l, ni in zip(lengths, shape))
        self.cell_volume = math.prod(self.dx)
        self.size = math.prod(shape)
        self._axes = tuple(range(-dim, 0))  # the grid axes of a field

    # -- geometry ---------------------------------------------------------

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """1-D coordinate arrays per axis, cell [-L/2, L/2)."""
        return tuple(
            -l / 2.0 + d * np.arange(n)
            for n, l, d in zip(self.shape, self.lengths, self.dx)
        )

    @cached_property
    def coords(self) -> np.ndarray:
        """Coordinate meshes, shape (dim, *shape)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Wavenumber meshes xi = 2*pi*k/L, shape (dim, *shape), FFT order."""
        ks = [
            2.0 * np.pi * np.fft.fftfreq(n, d=d)
            for n, d in zip(self.shape, self.dx)
        ]
        return np.stack(np.meshgrid(*ks, indexing="ij"))

    @cached_property
    def k_squared(self) -> np.ndarray:
        return np.sum(self.wavenumbers**2, axis=0)

    @cached_property
    def _neg_k_squared(self) -> np.ndarray:
        return -self.k_squared

    @cached_property
    def _deriv_multipliers(self) -> np.ndarray:
        # i*xi per axis with the asymmetric Nyquist mode removed, (dim, *shape)
        xi = self.wavenumbers.copy()
        for axis, n in enumerate(self.shape):
            nyq = [axis] + [slice(None)] * self.dim
            nyq[1 + axis] = n // 2
            xi[tuple(nyq)] = 0.0
        return 1j * xi

    @cached_property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of an rfftn half spectrum: the last axis keeps k >= 0."""
        return (*self.shape[:-1], self.shape[-1] // 2 + 1)

    def _matching(self, m: np.ndarray, fh: np.ndarray) -> np.ndarray:
        # the full-spectrum multiplier m, or its half for a half spectrum fh
        # (the last axes differ: N against N/2 + 1).  In FFT order the first
        # N/2 + 1 entries of the last axis are the modes 0, ..., N/2 - 1 and
        # the Nyquist mode, so the slice serves every multiplier and mask
        # here: each is even in the Nyquist mode or zero there.
        if fh.shape[-1] == self.shape[-1]:
            return m
        return m[..., : self.half_shape[-1]]

    @cached_property
    def _jet_multipliers(self) -> np.ndarray:
        # 1 and i*xi per axis, (1 + dim, *shape)
        return np.concatenate([np.ones((1, *self.shape)), self._deriv_multipliers])

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keeps |k| <= N/3 per axis."""
        return self.mode_mask(tuple(n // 3 for n in self.shape))

    def mode_mask(self, cutoff: int | tuple[int, ...]) -> np.ndarray:
        """Boolean mask keeping integer modes |k| <= cutoff on every axis
        (one cutoff for all axes, or a tuple with one per axis)."""
        cutoffs = cutoff if isinstance(cutoff, tuple) else (cutoff,) * self.dim
        mask = np.ones(self.shape, dtype=bool)
        for axis, (n, c) in enumerate(zip(self.shape, cutoffs)):
            k_int = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
            shape = [1] * self.dim
            shape[axis] = n
            mask = mask & (np.abs(k_int) <= c).reshape(shape)
        return mask

    # -- transforms and calculus ------------------------------------------

    def _transform(self, f: np.ndarray, fns, axes) -> np.ndarray:
        # the one-axis transforms fns along axes in turn, the calls of one of
        # numpy's n-d transforms in their order, per chunk of whole fields of
        # at most CHUNK_POINTS grid points, written into one output
        f = np.asarray(f)
        per = max(1, CHUNK_POINTS // self.size)
        flat = f.reshape(-1, *f.shape[-self.dim:])
        if len(flat) > per:
            first = self._transform(flat[:per], fns, axes)
            out = np.empty((*f.shape[:-self.dim], *first.shape[1:]), first.dtype)
            rows = out.reshape(len(flat), *first.shape[1:])  # a view of out
            rows[:per] = first
            for i in range(per, len(flat), per):
                rows[i:i + per] = self._transform(flat[i:i + per], fns, axes)
            return out
        for fn, axis in zip(fns, axes):
            f = fn(f, self.shape[axis], axis)
        return f

    def fft(self, f: np.ndarray) -> np.ndarray:
        return self._transform(f, (np.fft.fft,) * self.dim, self._axes[::-1])

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        return self._transform(fh, (np.fft.ifft,) * self.dim, self._axes[::-1])

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field, shape (*batch, *half_shape)."""
        return self._transform(f, (np.fft.rfft, np.fft.fft)[:self.dim], self._axes[::-1])

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        """Real field of a half spectrum."""
        return self._transform(fh, (np.fft.ifft, np.fft.irfft)[-self.dim:], self._axes)

    def spectral_gradient(self, fh: np.ndarray) -> np.ndarray:
        """i*xi_j * fh for a full or half spectrum fh, shape (dim, *fh.shape);
        the lone Nyquist mode is zeroed."""
        return self._stacked(self._deriv_multipliers, fh) * fh

    def spectral_jet(self, fh: np.ndarray) -> np.ndarray:
        """fh and its gradient, [fh, i*xi_1 fh, ..., i*xi_dim fh], shape
        (1 + dim, *fh.shape)."""
        return self._stacked(self._jet_multipliers, fh) * fh

    def _stacked(self, m: np.ndarray, fh: np.ndarray) -> np.ndarray:
        # a stack of multipliers (k, *shape), shaped to broadcast over fh
        m = self._matching(m, fh)
        return m.reshape((len(m), *(1,) * (fh.ndim - self.dim), *m.shape[1:]))

    def spectral_laplacian(self, fh: np.ndarray) -> np.ndarray:
        """-|xi|^2 * fh for a full or half spectrum fh."""
        return self._matching(self._neg_k_squared, fh) * fh

    def project(self, fh: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """fh restricted to the modes of a grid-shaped mask."""
        return self._matching(mask, fh) * fh

    def _check(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape[-self.dim:] != self.shape:
            raise GridMismatchError(
                f"field shape {f.shape} does not end in grid shape {self.shape}"
            )
        return f

    def spectral_derivative(self, f: np.ndarray, axis: int = 0) -> np.ndarray:
        """d/dx_axis by multiplication with i*xi in spectral space."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        return self.ifft(self._deriv_multipliers[axis] * self.fft(self._check(f)))

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """All first derivatives, shape (dim, *f.shape)."""
        return self.ifft(self.spectral_gradient(self.fft(self._check(f))))

    def divergence(self, vec: np.ndarray) -> np.ndarray:
        """sum_j d_j vec[j] for a vector field of shape (dim, *batch, *shape)."""
        vec = self._check(vec)
        if vec.ndim <= self.dim or vec.shape[0] != self.dim:
            raise GridMismatchError(
                f"vector field shape {vec.shape} does not start with dim {self.dim}"
            )
        mults = self._stacked(self._deriv_multipliers, vec[0])
        return np.sum(self.ifft(mults * self.fft(vec)), axis=0)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Second-derivative multiplier -|xi|^2 (Nyquist included: even order)."""
        return self.ifft(self.spectral_laplacian(self.fft(self._check(f))))

    def dealias(self, f: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Project onto ``mask``, by default the 2/3 band (use on
        quadratic/cubic products)."""
        if mask is None:
            mask = self.dealias_mask
        return self.ifft(self.project(self.fft(self._check(f)), mask))

    # -- norms -------------------------------------------------------------

    def integral(self, f: np.ndarray) -> np.ndarray | complex | float:
        """Quadrature over the cell: one value per leading index of f."""
        return np.sum(f, axis=self._axes) * self.cell_volume

    def l2_norm(self, f: np.ndarray) -> np.ndarray | float:
        total = np.sum(np.abs(self._check(f)) ** 2, axis=self._axes)
        return per_value(math.sqrt, total * self.cell_volume)

    def sobolev_norm(self, f: np.ndarray, s: float,
                     space: str = "physical") -> np.ndarray | float:
        """H^s norm via (1+|xi|^2)^s Parseval weights; s=0 equals l2_norm."""
        if s < 0:
            raise ValueError(f"Sobolev order must be >= 0, got {s}")
        if space == "physical":
            fh = self.fft(self._check(f))
        elif space == "spectral":
            fh = self._check(f)
        else:
            raise ValueError(f"unknown space {space!r}")
        weight = (1.0 + self.k_squared) ** s
        # Parseval: sum_x |f|^2 dV = sum_k |fh|^2 dV / size
        total = np.sum(weight * np.abs(fh) ** 2, axis=self._axes)
        return per_value(math.sqrt, total * self.cell_volume / self.size)

    def lebesgue_norm(self, f: np.ndarray, p: float) -> np.ndarray | float:
        """Quadrature L^p norm; p = inf is the grid maximum of |f|."""
        f = self._check(f)
        if p == math.inf:
            return per_value(float, np.max(np.abs(f), axis=self._axes))
        if p < 1:
            raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
        total = np.sum(np.abs(f) ** p, axis=self._axes) * self.cell_volume
        return per_value(lambda x: x ** (1.0 / p), total)

    def boundary_tail_fraction(self, f: np.ndarray) -> float:
        """Mass fraction of |f|^2 within BOUNDARY_BAND_CELLS of the edge.

        Used as a support guard for x-weighted functionals, which are only
        meaningful when the data effectively vanishes near the cell edge.
        """
        f = self._check(f)
        w = np.abs(f) ** 2
        total = float(np.sum(w))
        if total == 0.0:
            return 0.0
        band = np.ones(self.shape, dtype=bool)  # all but the interior box
        band[(slice(BOUNDARY_BAND_CELLS, -BOUNDARY_BAND_CELLS),) * self.dim] = False
        return float(np.sum(w[band])) / total

    def descriptor(self) -> dict:
        """JSON-ready grid descriptor used in snapshot headers and reports."""
        return {"dim": self.dim, "n": list(self.shape), "length": list(self.lengths)}
