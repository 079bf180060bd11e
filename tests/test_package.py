"""The package namespace: each public name is declared once, in its
module's ``__all__``, and the package re-exports them all."""

import twolmm
from twolmm import baselines, core, datagen, endmembers, fileio, solvers, trace, twostep

MODULES = (baselines, core, datagen, endmembers, fileio, solvers, trace, twostep)


def test_all_is_the_version_and_every_module_all():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert twolmm.__all__ == expected
    assert len(set(twolmm.__all__)) == len(twolmm.__all__) == 59


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(twolmm, name) is getattr(module, name)
    assert isinstance(twolmm.__version__, str)


def test_public_namespace_is_the_exports_and_the_modules():
    public = {name for name in dir(twolmm) if not name.startswith("_")}
    modules = {module.__name__.rpartition(".")[2] for module in MODULES}
    # ``twolmm.cli`` joins the namespace once something imports it.
    assert public - {"cli"} == (set(twolmm.__all__) - {"__version__"}) | modules


def test_least_squares_kernel_is_a_module_attribute_not_an_export():
    assert "solve_least_squares" not in solvers.__all__
    assert not hasattr(twolmm, "solve_least_squares")
    assert twostep.solve_least_squares is solvers.solve_least_squares
