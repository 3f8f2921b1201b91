"""The public API: every name ``consensuslab`` exports and the signature of each callable.

``data/public_api.json`` pins both, so a change to the API is a diff of that
file: a name added, dropped or renamed, or a parameter, default or
annotation changed.
"""

import enum
import inspect
import json
from pathlib import Path

import pytest

import consensuslab

API = Path(__file__).parent / "data" / "public_api.json"
PINNED = json.loads(API.read_text())


def _shape(obj) -> str:
    """A callable's signature; an enum's values; the type of anything else."""
    if isinstance(obj, enum.EnumMeta):
        return f"enum {[member.value for member in obj]}"
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # an exception class keeps its built-in base's signature
        return "class" if inspect.isclass(obj) else type(obj).__name__


def _exported() -> dict:
    return {name: _shape(obj) for name, obj in sorted(vars(consensuslab).items())
            if not name.startswith("_") and not inspect.ismodule(obj)}


def test_the_exported_names_are_pinned():
    exported = _exported()
    assert sorted(exported) == sorted(PINNED), f"a declared API change replaces {API.name} by\n{json.dumps(exported, indent=2)}"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_each_exported_signature_is_pinned(name):
    assert _shape(getattr(consensuslab, name, None)) == PINNED[name]
