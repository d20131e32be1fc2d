"""The library example in README.md, and in its copy in PAPER.md, runs as
written, and both name exactly the config keys the schema has."""

import re
from pathlib import Path

import pytest

from csl import experiments

ROOT = Path(__file__).resolve().parent.parent


def _section(text, heading):
    start = text.index(f"## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _run_library_example(path, n_blocks):
    section = _section(path.read_text(), "Library in one screen")
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == n_blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(path), "exec"), namespace)
    cluster = namespace["cluster"]
    # two refit rounds and the interval's surrogate, each one gradient round
    assert cluster.ledger.vectors_sent == 3 * 2 * (cluster.k - 1)


def test_library_in_one_screen_runs_in_order():
    _run_library_example(ROOT / "README.md", n_blocks=2)


def test_paper_copy_of_the_library_example_runs():
    _run_library_example(ROOT / "PAPER.md", n_blocks=1)


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_config_keys_list_names_the_schema(name):
    text = (ROOT / name).read_text()
    start = text.index("Config keys")
    paragraph = text[start:text.index("\n\n", start)]
    named = {word for word in re.findall(r"`([^`]+)`", paragraph)
             if re.fullmatch(r"[a-z_]+", word)}
    assert named == set(experiments._FIELDS)
