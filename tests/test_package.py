"""The package's public names are its modules' public names, stated once."""

import types

import qrmframes
from qrmframes import analytic, errors, hilbert, model, oracle, runner


def test_package_exports_exactly_the_modules_public_names():
    declared = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}
    for module in (hilbert, model, analytic, oracle, runner):
        declared |= set(module.__all__)
    exported = {
        name for name, obj in vars(qrmframes).items()
        if not isinstance(obj, types.ModuleType) and (not name.startswith("_") or name == "__version__")
    }
    assert exported == declared | {"__version__"}
