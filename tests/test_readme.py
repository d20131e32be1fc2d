"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(text, heading):
    start = text.index(f"## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_in_one_screen_runs_in_order():
    section = _section(README.read_text(), "Library in one screen")
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    cluster = namespace["cluster"]
    # two refit rounds and the interval's surrogate, each one gradient round
    assert cluster.ledger.vectors_sent == 3 * 2 * (cluster.k - 1)
