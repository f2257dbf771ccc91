"""``equibasis.__all__`` is derived from the package's imports: every public
name they bind, except the submodules, plus ``__version__``.

A star import must bind exactly that list, and each entry must be the very
object its submodule defines, so a helper, a logger or a module that leaks
into the package namespace shows here.
"""

import types

import equibasis
from equibasis import basis, core, families, search

SUBMODULES = (basis, core, families, search)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from equibasis import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(equibasis.__all__)


def test_all_has_no_duplicate_and_no_module():
    assert len(set(equibasis.__all__)) == len(equibasis.__all__)
    for name in equibasis.__all__:
        assert not isinstance(getattr(equibasis, name), types.ModuleType), name


def test_every_entry_is_the_object_a_submodule_defines():
    assert "__version__" in equibasis.__all__
    for name in equibasis.__all__:
        if name == "__version__":
            continue
        value = getattr(equibasis, name)
        owners = [m.__name__ for m in SUBMODULES if getattr(m, name, None) is value]
        assert owners, name
