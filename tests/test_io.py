"""The report writer against json.dumps(doc, indent=2, sort_keys=True)."""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from okplanar.io import format_report

GOLDEN = Path(__file__).parent / "golden"

# characters the C escaper treats differently: quotes, backslashes, control
# characters, non-ASCII (one outside the BMP, written as a surrogate pair)
# and the line separators JSON allows raw but ASCII output escapes
ALPHABET = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2029",
            "\U0001f600", "a", "Z", "0", " ", "{", "]", ","]


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_doc(rng: random.Random, depth: int = 0):
    kinds = ["str", "int", "big", "bool", "none"]
    if depth < 4:
        kinds += ["list", "tuple", "ints", "dict", "dict"]
    kind = rng.choice(kinds)
    if kind == "str":
        return random_text(rng)
    if kind == "int":
        return rng.randint(-1000, 1000)
    if kind == "big":
        return rng.choice([-1, 1]) * rng.getrandbits(200)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "ints":  # plain ints, or ints with bools mixed in
        return [rng.choice([rng.randint(-9, 9), True, False]) if rng.random() < 0.2
                else rng.randint(-99, 99) for _ in range(rng.randrange(5))]
    items = [random_doc(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {random_text(rng): item for item in items}


def test_every_json_golden_is_written_as_json_dumps_writes_it():
    goldens = [p for p in sorted(GOLDEN.glob("*.out")) if p.read_text().startswith("{")]
    assert len(goldens) >= 60
    for path in goldens:
        text = path.read_text()
        doc = json.loads(text)
        assert format_report(doc) + "\n" == text == reference(doc) + "\n", path.name


@pytest.mark.parametrize("seed", range(5))
def test_random_documents_match_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(400):
        doc = {random_text(rng): random_doc(rng) for _ in range(rng.randrange(5))}
        assert format_report(doc) == reference(doc)
        inner = random_doc(rng)
        assert format_report(inner) == reference(inner)


def test_edge_values_match_json_dumps():
    for doc in ([True, 1, False, 0], [1, True], (), [], {}, [[]], [{}], ({"": ()},),
                -(2 ** 70), " \"\\\x01", {"b": 1, "a": [2, 3], "": None}):
        assert format_report(doc) == reference(doc), doc


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, {2, 3}, [1, {4}], 0.5,
                                 {"x": b"bytes"}])
def test_what_is_not_a_report_value_raises_type_error(doc):
    with pytest.raises(TypeError):
        format_report(doc)
