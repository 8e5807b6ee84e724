"""The report writer against ``json.dumps(obj, indent=2)`` on random JSON
trees, the values it refuses, and the mask listing against its bit-loop
definition."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiband
from semiband import atomic
from semiband.atomic import AtomicSpace, SupportSet, mask_atoms
from semiband.operators import Operator
from semiband.serialize import MaskListing, build_analysis_report, dumps

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
        assert mask_atoms(m) == _bit_loop(m)
    for m in (1 << 32, (1 << 33) - 1, 1 << 40 | 5, 3 << 60, (1 << 100) - 1, 1 << 255 | 1 << 31):
        assert mask_atoms(m) == _bit_loop(m)
        assert SupportSet.from_mask(m).atoms == frozenset(_bit_loop(m))
    with pytest.raises(ValueError):
        mask_atoms(-1)


# masks past the four rows of the byte table, alone and together
WIDE = [1 << 31, 1 << 32, 1 << 40, 1 << 100, 1 << 255, 1 << 255 | 1 << 100 | 1 << 40 | 1 << 32 | 1 << 31 | 1]
MASKS = st.one_of(st.integers(0, (1 << 12) - 1), st.builds(lambda i: 1 << i, st.integers(0, 255)), st.sampled_from(WIDE))
# the containers around the listing, innermost first: depth 0 to 3
SHAPES = st.lists(st.sampled_from(["dict", "list"]), max_size=3)


def _wrap(x, shape):
    for kind in shape:
        x = {"before": 1, "supports": x, "after": [2]} if kind == "dict" else [[], x, "after"]
    return x


def _as_atom_lists(masks, shape):
    return json.dumps(_wrap([_bit_loop(m) for m in masks], shape), indent=2) + "\n"


@settings(max_examples=150)
@given(st.lists(MASKS, max_size=8), SHAPES)
def test_mask_listing_is_written_as_its_atom_lists(masks, shape):
    assert dumps(_wrap(MaskListing(masks), shape)) == _as_atom_lists(masks, shape)


@pytest.mark.parametrize("shape", [[], ["list"], ["dict", "list"], ["list", "dict", "dict"]])
def test_every_small_mask_and_the_wide_ones_are_written_as_atom_lists(shape):
    masks = [*range(1 << 12), *WIDE]
    assert dumps(_wrap(MaskListing(masks), shape)) == _as_atom_lists(masks, shape)
    assert dumps(_wrap(MaskListing([]), shape)) == _as_atom_lists([], shape)


def test_sigma_is_written_without_listing_each_support(monkeypatch):
    # Σ of a full-rank operator on 10 atoms is all 1,024 supports
    calls = []
    real = atomic.mask_atoms

    def counted(m):
        calls.append(m)
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("semiband") and getattr(module, "mask_atoms", None) is real:
            monkeypatch.setattr(module, "mask_atoms", counted)
    n = 10
    T = Operator.from_rows(AtomicSpace.lp(n, 2), [[1 if j <= i else 0 for j in range(n)] for i in range(n)])
    supports = json.loads(dumps(build_analysis_report(T)))["sigma"]["supports"]
    assert supports == [_bit_loop(m) for m in range(1 << n)]
    assert 0 < len(calls) < 1 << n


def test_importing_the_cli_builds_no_chunk_table():
    src = Path(semiband.__file__).resolve().parent.parent
    code = "import semiband.cli, semiband.serialize as s; print(s._byte_chunks.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
