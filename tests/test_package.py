import ast
from pathlib import Path

import omrouter
from omrouter import analysis, config, errors, model, response, steady

MODULES = (analysis, config, errors, model, response, steady)
SRC = Path(omrouter.__file__).parent


def test_package_exports_each_module_all():
    # each public name is listed once, in its module's __all__
    names = omrouter.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for m in MODULES for n in m.__all__} | {
        "__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(omrouter, name) is getattr(module, name)
    assert "ENV_PREFIX" in names


def imported_modules(filename):
    """The modules that ``omrouter/<filename>`` imports, relative ones
    with their leading dots."""
    tree = ast.parse((SRC / filename).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return found


def test_forms_sit_below_steady():
    # the physics polynomials import only numpy and the model, so steady
    # can form them, and steady imports nothing above it
    assert imported_modules("_forms.py") == {"__future__", "numpy", ".model"}
    assert not imported_modules("steady.py") & {
        ".analysis", ".response", ".config", ".cli"}
