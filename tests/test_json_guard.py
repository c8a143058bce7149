"""Every JSON text greenlab writes goes through the CLI's one writer.

`json.dumps` with `indent` runs the pure-Python encoder; `cli._json_text`
gives the same bytes from joins and the C encoder's string escape
(`tests/test_json_writer.py`). A `json.dump` or `json.dumps` call with
`indent` anywhere in the package would be a second JSON code path.
"""

import ast
from pathlib import Path

import pytest

import greenlab

SRC = Path(greenlab.__file__).resolve().parent


def indented_dumps(module: ast.Module) -> list[int]:
    """Lines of the `json.dump`/`json.dumps` calls, or of `dump`/`dumps`
    imported from json, that pass `indent`."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in ("dump", "dumps")
    }
    found = []
    for node in ast.walk(module):
        if not isinstance(node, ast.Call) or not any(k.arg == "indent" for k in node.keywords):
            continue
        fn = node.func
        by_attribute = (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("dump", "dumps")
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "json"
        )
        if by_attribute or (isinstance(fn, ast.Name) and fn.id in imported):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    assert indented_dumps(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "source",
    [
        "import json\njson.dumps(x, indent=2)\n",
        "import json\njson.dump(x, fh, indent=2, default=str)\n",
        "from json import dumps\ndumps(x, indent=2)\n",
        "from json import dump as write\nwrite(x, fh, indent=4)\n",
    ],
)
def test_the_guard_sees_an_indented_call(source):
    assert indented_dumps(ast.parse(source)) == [2]


def test_the_writer_is_the_one_caller():
    # the two JSON sites of the CLI call the writer, which calls no encoder
    cli = ast.parse((SRC / "cli.py").read_text())
    callers = {
        node.name
        for node in ast.walk(cli)
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_json_text"
    }
    assert callers == {"_emit", "_json_payload"}
