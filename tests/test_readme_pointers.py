"""Every backticked `cli.X`, `core.X`, `basis.X`, `search.X` or `families.X`
in the README names an attribute of that ``equibasis`` module, so a pointer
to the owner of a figure or rule cannot go stale.  File names such as
`basis.json` or `cli.manifest.json` are not pointers and are skipped: a
path whose last dotted part is ``json`` or ``csv``."""

import re
from pathlib import Path

import pytest

from equibasis import basis, cli, core, families, search

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {"basis": basis, "cli": cli, "core": core, "families": families, "search": search}
POINTER = re.compile(r"`(basis|cli|core|families|search)\.([\w.]+)`")


def pointers(text: str | None = None) -> list[tuple[str, str]]:
    """The (module, attribute path) pairs in text, README by default."""
    found = POINTER.findall(README.read_text(encoding="utf-8") if text is None else text)
    return sorted({(m, path) for m, path in found if path.split(".")[-1] not in ("json", "csv")})


def test_the_pointers_are_found():
    assert ("cli", "MAX_DIMENSION") in pointers()


def test_file_names_are_not_pointers():
    text = "`basis.json`, `cli.csv`, `search.out.json`, `cli.save`, `core.json_like`"
    assert pointers(text) == [("cli", "save"), ("core", "json_like")]


@pytest.mark.parametrize("module, path", pointers())
def test_pointer_resolves(module, path):
    target = MODULES[module]
    for name in path.split("."):
        target = getattr(target, name)
