"""The README's claims that code can check: its library example runs, its
variant sentence names every entry of the variant registry, and the names
it and the docs give as module.name exist."""
from __future__ import annotations

import importlib
import re
from pathlib import Path

import okplanar
from okplanar.drawing import VARIANTS

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


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


def test_every_module_name_reference_resolves():
    # `io.format_drawing`, `okplanar.mso2.emit_formula(k, variant)`: a
    # module of the package, a name in it, maybe one attribute of that name
    modules = sorted(p.stem for p in Path(okplanar.__file__).parent.glob("*.py")
                     if p.stem != "__init__")
    ref = re.compile(r"`(?:okplanar\.)?(%s)\.(\w+(?:\.\w+)?)(?:\([^`]*\))?`" % "|".join(modules))
    current = README.split("## Removed interfaces")[0]
    texts = [current, *(p.read_text() for p in sorted((ROOT / "docs").glob("*.md")))]
    refs = [m.groups() for text in texts for m in ref.finditer(text)]
    assert refs
    for module, path in refs:
        obj = importlib.import_module(f"okplanar.{module}")
        for name in path.split("."):
            assert hasattr(obj, name), f"{module}.{path}"
            obj = getattr(obj, name)
