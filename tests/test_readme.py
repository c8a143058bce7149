"""README's library example runs as written."""

from pathlib import Path

from greenlab.manifold import diameter

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    """The bodies of README's ```python blocks, in order."""
    blocks, body = [], None
    for line in README.read_text().splitlines():
        if body is None:
            if line.strip() == "```python":
                body = []
        elif line.strip() == "```":
            blocks.append("\n".join(body) + "\n")
            body = None
        else:
            body.append(line)
    return blocks


def test_the_python_example_runs():
    (block,) = python_blocks()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["best"].coords_array().shape == (50, 6)
    assert 0.0 < namespace["d01"] <= diameter(namespace["spec"])
