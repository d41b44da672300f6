"""Run configuration: a sectioned JSON document, strictly validated.

Sections and keys (all optional unless noted):

    grid:     dim (1|2), N (power of two >= 16, per axis), L (> 0, per axis)
    physics:  sigma (int, 1..6), epsilon (in (0,1]) or epsilon_list
              (strictly decreasing, in (0,1])
    time:     T (> 0), dt0 (> 0; Strang step dt0*eps, a fourth-order
              composition's step c*sqrt(dt0*eps) capped for stability and
              at least c*sqrt(dt0)*eps, nls.scheme_step, the composition
              chosen per run by nls.pick_scheme; errors as measured in the
              nls docstring), observation_count (int >= 3)
    initial:  a0_preset/a0_params, a1_preset/a1_params,
              phi0_preset/phi0_params (presets module)
    output:   directory, formats (subset of csv, json, snapshots)
    blowup:   max_time (20.0), amplitudes ([0.5, 1.0]), radius (3.0): the
              breakdown command, on the grid's own cell
    focusing: wavenumbers ([4, 8, 16, 32]), delta (1e-7), window (0.35),
              rho0 (1.0): the frequency-growth command, stepped at its
              adaptive CFL bound (limit.ADAPTIVE_CFL per dimension, as is
              blowup), which exits 2 on a wavenumber above the 2/3 band
              (N // 3 on axis 0) and, with key focusing.window, on a window
              shorter than the background's first such step (7.1e-3 at the
              defaults), over grid.MAX_STEPS steps, or longer than the run
              lasts before ill-posed growth raising the wave speed tenfold
              stops it
    seed:     echoed into artifacts; the pipeline itself is deterministic

Demo values are positive numbers (amplitudes and wavenumbers non-empty
lists of them, wavenumbers integers).  Unknown sections or keys are
rejected, naming the offending key, and so is a run whose grid or stored
snapshots exceed the memory budget below.  The parsed config serializes
back to a canonical document (parse -> serialize -> parse is the
identity), and every artifact embeds the effective config.
"""

from __future__ import annotations

import json
import math
from dataclasses import field

from . import artifacts
from .errors import ConfigError
from .grid import (MAX_STORED_BYTES, SNAPSHOT_BYTES_PER_POINT, Grid,
                   observation_steps)
from .nls import pick_scheme, scheme_step
from .presets import InitialData, make_amplitude, make_phase
from .records import Record, frozen_record

DEFAULT_EPSILON_LADDER = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)

_FORMATS = {"csv", "json", "snapshots"}

# memory budget, checked before anything is allocated: the grid size, and
# observation_count x grid points x grid.SNAPSHOT_BYTES_PER_POINT against
# grid.MAX_STORED_BYTES.  evolve_limit checks its own nodes before it runs:
# n_obs per batch member, so a batched run (focusing-demo, one member per
# wavenumber) can exceed the budget where one run does not.
MAX_GRID_POINTS = 2**20


@frozen_record
class RunConfig(Record):
    """One parsed config document: grid, physics, time, initial data, output."""

    dim: int = 1
    n: tuple[int, ...] = (512,)
    length: tuple[float, ...] = (16.0,)
    sigma: int = 2
    epsilon: float = 0.125
    epsilon_list: tuple[float, ...] = DEFAULT_EPSILON_LADDER
    final_time: float = 0.25
    dt0: float = 0.01
    observation_count: int = 20
    a0_preset: str = "gaussian"
    a0_params: dict = field(default_factory=dict)
    a1_preset: str = "zero"
    a1_params: dict = field(default_factory=dict)
    phi0_preset: str = "zero"
    phi0_params: dict = field(default_factory=dict)
    directory: str = "scnls-out"
    formats: tuple[str, ...] = ("csv", "json")
    blowup: dict = field(default_factory=dict)
    focusing: dict = field(default_factory=dict)
    seed: int | None = None

    # -- builders ----------------------------------------------------------

    def make_grid(self) -> Grid:
        return Grid(self.n, self.length)

    def make_initial_data(self, grid: Grid | None = None) -> InitialData:
        grid = grid or self.make_grid()
        a0 = make_amplitude(grid, self.a0_preset, self.a0_params, "initial.a0_preset")
        a1 = make_amplitude(grid, self.a1_preset, self.a1_params, "initial.a1_preset")
        per, kvec = make_phase(grid, self.phi0_preset, self.phi0_params,
                               "initial.phi0_preset")
        label = f"{self.a0_preset}/{self.a1_preset}/{self.phi0_preset}"
        return InitialData(grid=grid, a0=a0, a1=a1, phi0_periodic=per,
                           phi0_wavevector=kvec, label=label)

    # -- serialization -----------------------------------------------------

    def effective(self) -> dict:
        """Canonical nested document with every default filled in."""
        return {
            "grid": {"dim": self.dim, "N": list(self.n), "L": list(self.length)},
            "physics": {"sigma": self.sigma, "epsilon": self.epsilon,
                        "epsilon_list": list(self.epsilon_list)},
            "time": {"T": self.final_time, "dt0": self.dt0,
                     "observation_count": self.observation_count},
            "initial": {"a0_preset": self.a0_preset, "a0_params": self.a0_params,
                        "a1_preset": self.a1_preset, "a1_params": self.a1_params,
                        "phi0_preset": self.phi0_preset,
                        "phi0_params": self.phi0_params},
            "output": {"directory": self.directory, "formats": list(self.formats)},
            "blowup": self.blowup,
            "focusing": self.focusing,
            "seed": self.seed,
        }

    def serialize(self) -> str:
        return json.dumps(self.effective(), sort_keys=True, indent=1)

    def content_hash(self) -> str:
        return artifacts.content_hash(self.effective())


# ---------------------------------------------------------------------------
# validation helpers


def _need(cond: bool, key: str, msg: str):
    if not cond:
        raise ConfigError(key, msg)


def _as_int(value, key: str) -> int:
    _need(isinstance(value, int) and not isinstance(value, bool), key,
          f"expected an integer, got {value!r}")
    return value


def _as_num(value, key: str) -> float:
    _need(isinstance(value, (int, float)) and not isinstance(value, bool), key,
          f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    _need(math.isfinite(out), key, f"expected a finite number, got {value!r}")
    return out


def _positive(value, key: str, kind=_as_num):
    out = kind(value, key)
    _need(out > 0, key, f"must be positive, got {value!r}")
    return out


def _positive_list(value, key: str, kind=_as_num) -> list:
    _need(isinstance(value, list) and value, key, "must be a non-empty list")
    return [_positive(v, key, kind) for v in value]


# demo sections: key -> (validator of its value, default)
_DEMO = {
    "blowup": {"max_time": (_positive, 20.0),
               "amplitudes": (_positive_list, (0.5, 1.0)),
               "radius": (_positive, 3.0)},
    "focusing": {"wavenumbers": (lambda v, key: _positive_list(v, key, _as_int),
                                 (4, 8, 16, 32)),
                 "delta": (_positive, 1e-7), "window": (_positive, 0.35),
                 "rho0": (_positive, 1.0)},
}
_KEYS = {
    "grid": {"dim", "N", "L"},
    "physics": {"sigma", "epsilon", "epsilon_list"},
    "time": {"T", "dt0", "observation_count"},
    "initial": {"a0_preset", "a0_params", "a1_preset", "a1_params",
                "phi0_preset", "phi0_params"},
    "output": {"directory", "formats"},
    **{section: set(keys) for section, keys in _DEMO.items()},
}
_SECTIONS = {*_KEYS, "seed"}


def demo_options(values: dict, section: str) -> dict:
    """The options of a demo section: each value in ``values`` checked and
    converted, each missing one its default."""
    return {key: check(values[key], f"{section}.{key}") if key in values
            else default for key, (check, default) in _DEMO[section].items()}


def _axis_tuple(value, dim: int, key: str, kind):
    if isinstance(value, list):
        _need(len(value) == dim, key, f"expected {dim} per-axis values")
        return tuple(kind(v, key) for v in value)
    return (kind(value, key),) * dim


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
    _need(isinstance(doc, dict), "<document>", "top level must be an object")
    default = RunConfig()
    unknown = set(doc) - _SECTIONS
    _need(not unknown, sorted(unknown)[0] if unknown else "",
          "unknown top-level section")
    for section, keys in _KEYS.items():
        if section in doc:
            _need(isinstance(doc[section], dict), section, "must be an object")
            bad = set(doc[section]) - keys
            if bad:
                raise ConfigError(f"{section}.{sorted(bad)[0]}", "unknown key")

    g = doc.get("grid", {})
    dim = _as_int(g.get("dim", default.dim), "grid.dim")
    _need(dim in (1, 2), "grid.dim", f"must be 1 or 2, got {dim}")
    n = _axis_tuple(g.get("N", default.n[0]), dim, "grid.N", _as_int)
    for ni in n:
        _need(ni >= 16 and (ni & (ni - 1)) == 0, "grid.N",
              f"must be a power of two >= 16, got {ni}")
    points = math.prod(n)
    _need(points <= MAX_GRID_POINTS, "grid.N",
          f"{points} grid points exceed the budget of {MAX_GRID_POINTS}")
    length = _axis_tuple(g.get("L", default.length[0]), dim, "grid.L", _as_num)
    for li in length:
        _need(li > 0, "grid.L", f"must be positive, got {li}")

    p = doc.get("physics", {})
    sigma = _as_int(p.get("sigma", default.sigma), "physics.sigma")
    _need(1 <= sigma <= 6, "physics.sigma",
          f"must be an integer in 1..6 (positive nonlinearity exponent), got {sigma}")
    epsilon = _as_num(p.get("epsilon", default.epsilon), "physics.epsilon")
    _need(0.0 < epsilon <= 1.0, "physics.epsilon",
          f"must be in (0, 1], got {epsilon}")
    if "epsilon_list" in p:
        raw = p["epsilon_list"]
        _need(isinstance(raw, list) and raw, "physics.epsilon_list",
              "must be a non-empty list")
        eps_list = tuple(_as_num(v, "physics.epsilon_list") for v in raw)
        for e in eps_list:
            _need(0.0 < e <= 1.0, "physics.epsilon_list",
                  f"values must be in (0, 1], got {e}")
        _need(all(eps_list[i + 1] < eps_list[i] for i in range(len(eps_list) - 1)),
              "physics.epsilon_list", "must be strictly decreasing")
    else:
        eps_list = default.epsilon_list

    tm = doc.get("time", {})
    final_time = _as_num(tm.get("T", default.final_time), "time.T")
    _need(final_time > 0, "time.T", "must be positive")
    dt0 = _as_num(tm.get("dt0", default.dt0), "time.dt0")
    _need(dt0 > 0, "time.dt0", "must be positive")
    n_obs = _as_int(tm.get("observation_count", default.observation_count),
                    "time.observation_count")
    _need(n_obs >= 3, "time.observation_count", "must be >= 3")
    stored = n_obs * points * SNAPSHOT_BYTES_PER_POINT
    _need(stored <= MAX_STORED_BYTES, "time.observation_count",
          f"{n_obs} snapshots of {points} points need {stored} bytes, "
          f"over the budget of {MAX_STORED_BYTES}")
    # fail fast on a wavefunction run too long to finish, at the commands'
    # composition, step law and observation count
    dx = min(li / ni for li, ni in zip(length, n))
    for key, values in (("physics.epsilon", (epsilon,)),
                        ("physics.epsilon_list", eps_list)):
        for e in values:
            scheme = pick_scheme(dt0, e, dx, final_time, n_obs)
            observation_steps(final_time, n_obs,
                              scheme_step(scheme, dt0, e, dx), key)

    ini = doc.get("initial", {})
    initial = {key: ini.get(key, getattr(default, key))
               for key in _KEYS["initial"]}
    for pk in ("a0_params", "a1_params", "phi0_params"):
        _need(isinstance(initial[pk], dict), f"initial.{pk}", "must be an object")
        initial[pk] = dict(initial[pk])

    out = doc.get("output", {})
    directory = out.get("directory", default.directory)
    _need(isinstance(directory, str) and directory, "output.directory",
          "must be a non-empty string")
    formats = out.get("formats", list(default.formats))
    _need(isinstance(formats, list)
          and all(isinstance(f, str) for f in formats), "output.formats",
          "must be a list of strings")
    formats = tuple(formats)
    bad = set(formats) - _FORMATS
    _need(not bad, "output.formats", f"unknown formats: {sorted(bad)}")

    for section in _DEMO:
        demo_options(doc.get(section, {}), section)
    seed = doc.get("seed")
    if seed is not None:
        seed = _as_int(seed, "seed")

    cfg = RunConfig(
        dim=dim, n=n, length=length, sigma=sigma, epsilon=epsilon,
        epsilon_list=eps_list, final_time=final_time, dt0=dt0,
        observation_count=n_obs, **initial, directory=directory,
        formats=formats, blowup=dict(doc.get("blowup", {})),
        focusing=dict(doc.get("focusing", {})), seed=seed,
    )
    # fail fast on bad presets/params
    cfg.make_initial_data(Grid((16,) * dim, length))
    return cfg

