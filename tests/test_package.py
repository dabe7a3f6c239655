import omrouter
from omrouter import analysis, config, errors, model, response, steady

MODULES = (analysis, config, errors, model, response, steady)


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
