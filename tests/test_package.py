"""The package namespace: each public name is declared once, in its
module's ``__all__``, and the package re-exports them all; README's
examples use it as written."""

import importlib.util
import re
import warnings
from pathlib import Path

import twolmm
from twolmm import baselines, core, datagen, endmembers, fileio, solvers, trace, twostep

MODULES = (baselines, core, datagen, endmembers, fileio, solvers, trace, twostep)


def test_all_is_the_version_and_every_module_all():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert twolmm.__all__ == expected
    assert len(set(twolmm.__all__)) == len(twolmm.__all__) == 57


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


def test_every_name_perfbench_looks_up_resolves():
    # perfbench wraps library functions by name and only reports a name it
    # cannot find, so a rename would silently drop its spans. The tracer
    # imports only the standard library, so it loads here by path.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.WRAPS) == 34
    missing = [f"{m}.{a}" for m, a, *_ in tracer.WRAPS if tracer._resolve(m, a) is None]
    assert missing == []
    # The worker's own lookups: the captured solvers and the cost probe.
    for module, attr in [
        ("twolmm.cli", "solve_als"),
        ("twolmm.cli", "solve_lbfgs"),
        ("twolmm.twostep", "cost"),
        ("twolmm.twostep", "TwoLmmState"),
    ]:
        assert tracer._resolve(module, attr) is not None, f"{module}.{attr}"


def test_readme_python_examples_run_as_written():
    # The blocks run in order in one namespace, as a reader would paste them.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
