"""The report writer against ``json.dumps(obj, indent=2)`` on random JSON
trees, the values it refuses, and the mask listing against its bit-loop
definition."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiband.atomic import SupportSet
from semiband.serialize import dumps, mask_to_json

# quotes, backslashes, control characters, the JSON-significant line
# separators and non-ASCII text, alone and inside random strings
AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "∑", "\U0001f600", "\ud800"]
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=6)
INTS = st.one_of(st.integers(), st.sampled_from([-(2**70), 2**64, 10**300, -1, 0, 1023, 1024]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)
FLAT = st.one_of(st.lists(INTS), st.lists(TEXT), st.lists(st.booleans()), st.lists(SCALARS))
TREES = st.recursive(
    st.one_of(SCALARS, FLAT),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=150)
@given(TREES)
def test_writer_is_json_dumps_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [1.5, {"x": [1, 2.0]}, (1, 2), {"x": (1,)}, {1: "a"}, {None: 1}, [b"bytes"], {"x": {1, 2}}],
)
def test_writer_refuses_what_no_report_holds(obj):
    with pytest.raises(TypeError):
        dumps(obj)


def _bit_loop(m: int) -> list[int]:
    return [i + 1 for i in range(m.bit_length()) if m >> i & 1]


def test_mask_listing_is_the_bit_loop():
    for m in range(1 << 17):
        assert mask_to_json(m) == _bit_loop(m)
    for m in (1 << 32, (1 << 33) - 1, 1 << 40 | 5, 3 << 60, (1 << 100) - 1, 1 << 255 | 1 << 31):
        assert mask_to_json(m) == _bit_loop(m)
        assert SupportSet.from_mask(m).atoms == frozenset(_bit_loop(m))
    with pytest.raises(ValueError):
        mask_to_json(-1)
