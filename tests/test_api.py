"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import specagg

MODULES = ["specagg"] + [
    f"specagg.{info.name}" for info in pkgutil.iter_modules(specagg.__path__)
]

# submodule exports that the package does not re-export
NOT_REEXPORTED = {"SlotDraws", "SWEEP_AXES", "main"}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert len(set(module.__all__)) == len(module.__all__), f"{name} repeats a name"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_what_its_submodules_export():
    submodule_exports = set().union(
        *(importlib.import_module(name).__all__ for name in MODULES[1:])
    )
    assert NOT_REEXPORTED <= submodule_exports
    assert set(specagg.__all__) == submodule_exports - NOT_REEXPORTED | {"__version__"}
