import importlib
import pkgutil

import pytest

import cyberdyn

MODULES = ["cyberdyn"] + [
    f"cyberdyn.{info.name}" for info in pkgutil.iter_modules(cyberdyn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # Nothing in the package runs `import *`, so a name deleted from a
    # module but left in its __all__ would otherwise go unnoticed.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate entries in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
