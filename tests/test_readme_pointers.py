"""Every backticked `cli.X`, `core.X`, `basis.X`, `search.X` or `families.X`
in the README names an attribute of that ``equibasis`` module, so a pointer
to the owner of a figure or rule cannot go stale.  File names such as
`basis.json` are not pointers and are skipped."""

import re
from pathlib import Path

import pytest

from equibasis import basis, cli, core, families, search

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {"basis": basis, "cli": cli, "core": core, "families": families, "search": search}
POINTER = re.compile(r"`(basis|cli|core|families|search)\.([\w.]+)`")


def pointers() -> list[tuple[str, str]]:
    found = POINTER.findall(README.read_text(encoding="utf-8"))
    return sorted({(m, path) for m, path in found if not path.endswith((".json", ".csv"))})


def test_the_pointers_are_found():
    assert ("cli", "MAX_DIMENSION") in pointers()


@pytest.mark.parametrize("module, path", pointers())
def test_pointer_resolves(module, path):
    target = MODULES[module]
    for name in path.split("."):
        target = getattr(target, name)
