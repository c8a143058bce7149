"""The CLI's JSON writer gives exactly the bytes of `json.dumps(obj, indent=2)`.

`cli._json_text` lays containers out by joins and formats floats, ints and
strings as the C encoder does; the pure-Python encoder that `indent` selects
is the reference here, on random nested values and on every subcommand's
payload and manifest.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import cli
from greenlab.cli import _json_text, main

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]
EDGE_TEXTS = ['", []{}:', '"quoted"', "back\\slash", "\x00\x01\x1f\n\t\r\x7f", "é ß 漢字 😀  ", "%s %d %%", "nan n"]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
numbers = floats | floats.map(np.float64)
ints = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
texts = st.text() | st.sampled_from(EDGE_TEXTS)
# lists of float rows of one width, as a report grid, and ragged or mixed ones
rows = st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(numbers, min_size=w, max_size=w), min_size=1))
leaves = st.none() | st.booleans() | ints | numbers | texts | rows
values = st.recursive(
    leaves,
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(texts, children),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writer_is_the_indented_encoder(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(numbers, min_size=1), st.integers(1, 5))
def test_float_lists_and_rows(cells, width):
    grid = [cells[i : i + width] for i in range(0, len(cells) - width + 1, width)]
    for obj in (cells, grid, {"grid": grid, "cells": cells}, [grid, grid[:1], []]):
        assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[]],
        [{}],
        {"a": []},
        (),
        [[1.0, 2.0], [3.0]],
        [[1.0, 2], [3.0, 4.0]],
        [[1.0, True], [3.0, 4.0]],
        [(1.0, 2.0), [3.0, 4.0]],
        [[1.0, [2.0]], [3.0, 4.0]],
        [np.float64(0.1), 0.2, np.float64(math.nan)],
        {1: "int", 2.5: "float", True: "true", False: "false", None: "null", "s": 1},
        "top-level é",
        -0.0,
        10**100,
    ],
    ids=repr,
)
def test_edge_values(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_default_is_applied_as_the_encoder_applies_it():
    obj = {"path": Path("/x/y"), "items": [Path("z"), 1.5, {"deep": np.int64(3)}]}
    assert _json_text(obj, default=str) == json.dumps(obj, indent=2, default=str)


@pytest.mark.parametrize("obj", [{"a": object()}, [np.int64(1)], {(1, 2): 1}])
def test_unencodable_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _json_text(obj)


class TestSubcommandOutput:
    """stdout, the --out payload and <out>.manifest.json of each subcommand are
    `json.dumps(obj, indent=2)` of the object the writer was given."""

    ARGV = {
        "profile": ["--family", "rp", "--n", "3", "--format", "json"],
        "ball": ["--family", "s", "--n", "3", "--format", "json", "--grid-size", "3", "--radius", "3.14159"],
        "bound": ["--family", "cp", "--n", "2", "--points", "77"],
        "compare": ["--family", "hp", "--n-min", "1", "--n-max", "3", "--format", "json"],
        "energy": ["--config", "{config}"],
        "optimize": ["--family", "s", "--n", "2", "--points", "6", "--iters", "1"],
    }

    @pytest.fixture
    def written(self, monkeypatch):
        """Every (obj, default, text) the writer returns while a test runs."""
        found = []
        writer = cli._json_text

        def spy(obj, default=None):
            text = writer(obj, default)
            found.append((obj, default, text))
            return text

        monkeypatch.setattr(cli, "_json_text", spy)
        return found

    @pytest.mark.parametrize("sub", sorted(ARGV))
    def test_payload_and_manifest(self, sub, written, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("# manifold=s n=2\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n")
        argv = [sub, *(a.format(config=config) for a in self.ARGV[sub])]
        json_payload = sub != "optimize"  # optimize writes a configuration file

        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert len(written) == 1 + json_payload
        if json_payload:
            obj, default, text = written[0]
            assert default is None
            assert out == text + "\n" == json.dumps(obj, indent=2) + "\n"
        manifest, default, text = written[-1]
        assert default is str
        assert err.endswith(text + "\n")
        assert text == json.dumps(manifest, indent=2, default=str)

        written.clear()
        path = tmp_path / "payload.out"
        assert main([*argv, "--out", str(path)]) == 0
        assert len(written) == 1 + json_payload
        if json_payload:
            obj, _, _ = written[0]
            assert path.read_text() == json.dumps(obj, indent=2) + "\n"
        manifest, _, _ = written[-1]
        text = Path(str(path) + ".manifest.json").read_text()
        assert text == json.dumps(manifest, indent=2, default=str) + "\n"
        assert json.loads(text)["parameters"]["out"] == str(path)
