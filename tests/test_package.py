"""The package's public names: each one in `eulerdisc.__all__` resolves
through the lazy export table, and README's Library import block runs."""

import re
from pathlib import Path

import pytest

import eulerdisc

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", eulerdisc.__all__)
def test_public_name_resolves(name):
    assert getattr(eulerdisc, name) is not None


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert block.startswith("from eulerdisc import (")
    exec(compile(block, str(README), "exec"), {})
