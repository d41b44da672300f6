"""The package's records (scnls.records): frozen, built by the one shared
__init__, compared, hashed and printed as the generated dataclass methods
did, and documented with their fields."""

import dataclasses
import importlib
import inspect
import pkgutil
import pydoc

import numpy as np
import pytest

import scnls
from scnls import ConfigError, Grid, NLSConfig, RunConfig, SweepPlan
from scnls.nls import NLSInvariants
from scnls.records import Record

# every dataclass of every module; __main__ would run the CLI
_MODULES = [importlib.import_module(f"scnls.{m.name}")
            for m in pkgutil.iter_modules(scnls.__path__) if m.name != "__main__"]
RECORDS = sorted({obj for mod in _MODULES for obj in vars(mod).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)},
                 key=lambda cls: cls.__name__)


def test_the_package_has_15_records():
    assert len(RECORDS) == 15
    assert all(issubclass(cls, Record) for cls in RECORDS)


def _instance(cls):
    """One instance of cls: real settings where __post_init__ checks them,
    else None in every field."""
    grid = Grid(32, 8.0)
    data = RunConfig(n=(32,), length=(8.0,)).make_initial_data()
    known = {RunConfig: lambda: RunConfig(),
             scnls.InitialData: lambda: data,
             NLSConfig: lambda: NLSConfig(grid, 0.5, 2, 1.0),
             SweepPlan: lambda: SweepPlan(data, 2, (0.5, 0.25, 0.125), 1.0)}
    if cls in known:
        return known[cls]()
    return cls(*[None] * len(dataclasses.fields(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    obj = _instance(cls)
    for name in [f.name for f in dataclasses.fields(cls)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
        assert hasattr(obj, f.name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_define_no_generated_methods(cls):
    # a @dataclass(frozen=True) that slips back in defines all of these
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
                 "__delattr__"):
        assert name not in vars(cls), name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_signature_and_help_list_the_fields(cls):
    params = list(inspect.signature(cls).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        assert p.annotation == f.type
        if f.default is not dataclasses.MISSING:
            assert p.default == f.default
        elif f.default_factory is not dataclasses.MISSING:
            assert repr(p.default) == "<factory>"
        else:
            assert p.default is inspect.Parameter.empty
    # a docstring of its own, not one made from the signature
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
    text = pydoc.render_doc(cls, renderer=pydoc.plaintext)
    assert f"{cls.__name__}{inspect.signature(cls)}" in text
    assert cls.__doc__.splitlines()[0] in text


def test_init_refuses_bad_arguments():
    cls = scnls.FitResult
    with pytest.raises(TypeError, match="missing a required argument: 'n'"):
        cls(1.0, 2.0, 0.5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
        cls(1.0, 2.0, 0.5, 3, m=1)
    with pytest.raises(TypeError, match="multiple values for argument 'slope'"):
        cls(1.0, 2.0, 0.5, 3, slope=1.0)
    with pytest.raises(TypeError, match="too many positional arguments"):
        cls(1.0, 2.0, 0.5, 3, 4)
    fit = cls(1.0, 2.0, n=3, r2=0.5)
    assert (fit.slope, fit.intercept, fit.r2, fit.n) == (1.0, 2.0, 0.5, 3)
    assert list(vars(fit)) == ["slope", "intercept", "r2", "n"]


def test_default_factory_gives_a_fresh_dict():
    a, b = RunConfig(), RunConfig()
    for name in ("a0_params", "a1_params", "phi0_params", "blowup", "focusing"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    data = RunConfig(n=(32,), length=(8.0,)).make_initial_data()
    plans = [SweepPlan(data, 2, (0.5, 0.25, 0.125), 1.0) for _ in range(2)]
    assert plans[0].config_echo == {} and plans[0].config_echo is not plans[1].config_echo


def test_replace_runs_post_init_again():
    cfg = NLSConfig(Grid(32, 8.0), 0.5, 2, 1.0)
    assert dataclasses.replace(cfg, epsilon=0.25).epsilon == 0.25
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, epsilon=2.0)
    assert err.value.key == "physics.epsilon"


def _generated_twin(cls):
    """cls's fields in a @dataclass(frozen=True) class of the same name."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, f) for f in dataclasses.fields(cls)], frozen=True)


@pytest.mark.parametrize("values", [(1.0, -2.5, 0.99, 5), (float("nan"), 0.0, 1.0, 3)])
def test_eq_hash_and_repr_as_generated(values):
    cls = scnls.FitResult
    twin = _generated_twin(cls)
    a, b, ref = cls(*values), cls(*values), twin(*values)
    assert repr(a) == repr(ref)
    assert hash(a) == hash(ref) == hash(b)
    assert (a == b) == (ref == twin(*values))
    assert a != cls(0.0, 0.0, 0.0, 0) and a != ref and a != values


def test_eq_of_array_fields_as_generated():
    # the tuples of values compare their arrays by identity first
    g = Grid(32, 8.0)
    x = np.ones(g.shape)
    a = NLSInvariants(0.0, 1.0, 2.0, x, 3.0, x, 0.0)
    ref = _generated_twin(NLSInvariants)(0.0, 1.0, 2.0, x, 3.0, x, 0.0)
    assert a == NLSInvariants(0.0, 1.0, 2.0, x, 3.0, x, 0.0)
    assert repr(a) == repr(ref)
    for obj in (a, ref):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
