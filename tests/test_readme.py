"""The README's claims that code can check: its library example runs, and
its variant sentence names every entry of the variant registry."""
from __future__ import annotations

import re
from pathlib import Path

from okplanar.drawing import VARIANTS

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        scope: dict = {}
        exec(compile(block, "README.md", "exec"), scope)
    assert scope["res"] is not None and scope["full"].graph.m >= scope["g"].m
    assert scope["cert"] == {"kind": "edge-count", "vertices": [0, 1, 2, 3, 4, 5],
                             "edges": 15, "bound": 14}


def test_every_variant_name_is_documented():
    for name in VARIANTS:
        assert f"`{name}`" in README, name
