"""Property test: every JSON document over the known sections and keys
parses to a RunConfig or raises ConfigError, never anything else."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scnls.config import _KEYS, RunConfig, parse_config  # noqa: E402
from scnls.errors import ConfigError  # noqa: E402

LEAVES = (st.none() | st.booleans() | st.integers()
          | st.integers(min_value=-3, max_value=600)
          | st.floats() | st.floats(min_value=1e-3, max_value=8.0)
          | st.text(max_size=6))
VALUES = LEAVES | st.lists(LEAVES, max_size=3)
# preset and parameter names reach the preset builders, not just the parser
PRESETS = st.sampled_from(["gaussian", "compact_bump", "plane_wave",
                           "constant", "zero", "neg_cos", "linear"])
PARAMS = st.dictionaries(
    st.sampled_from(["width", "amplitude", "amplitude_re", "amplitude_im",
                     "center", "radius", "mode", "value", "wavenumber"]),
    VALUES, max_size=3)


def value_for(key):
    if key.endswith("_preset"):
        return PRESETS | VALUES
    if key.endswith("_params"):
        return PARAMS | VALUES
    return VALUES


def section(keys):
    return st.fixed_dictionaries(
        {}, optional={k: value_for(k) for k in sorted(keys)}) | VALUES


# arbitrary documents: most fail early on one of many bad values
ANY_DOCUMENT = st.fixed_dictionaries(
    {}, optional={**{name: section(keys) for name, keys in _KEYS.items()},
                  "seed": VALUES})
SLOTS = [(name, key) for name, keys in sorted(_KEYS.items())
         for key in sorted(keys)]


@st.composite
def few_values_set(draw):
    """Defaults everywhere except one to three keys, so that every key's
    own validation is reached."""
    doc = {}
    for name, key in draw(st.lists(st.sampled_from(SLOTS), min_size=1,
                                   max_size=3, unique=True)):
        doc.setdefault(name, {})[key] = draw(value_for(key))
    return doc


DOCUMENTS = few_values_set() | ANY_DOCUMENT


@settings(max_examples=300, deadline=None, database=None)
@given(DOCUMENTS)
def test_any_document_parses_or_raises_config_error(doc):
    text = json.dumps(doc)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    # a valid config serializes back to the same effective document
    assert parse_config(cfg.serialize()).serialize() == cfg.serialize()
