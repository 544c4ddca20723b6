import ast
from pathlib import Path

import rationd

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rationd"
# Each module may import only the modules before it.
LAYERS = ("model", "flow", "offline", "online", "analysis", "data", "cli")


def syntax(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def relative_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, by ``from .x import ...`` or
    ``from . import x``."""
    found = set()
    for node in ast.walk(syntax(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def names_read(module: str) -> set[str]:
    """Every name ``module`` reads or looks up as an attribute, imports aside."""
    found = set()
    for node in ast.walk(syntax(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def names_used(module: str) -> set[str]:
    """Every name ``module`` reads, imports or looks up as an attribute."""
    return names_read(module) | {node.name for node in ast.walk(syntax(module)) if isinstance(node, ast.alias)}


def test_public_surface_resolves():
    for name in rationd.__all__:
        assert getattr(rationd, name) is not None


def test_version_is_set():
    assert rationd.__version__


def test_modules_import_only_earlier_layers():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)
    for position, module in enumerate(LAYERS):
        assert relative_imports(module) <= set(LAYERS[:position]), module


def test_online_and_offline_are_independent():
    assert "offline" not in relative_imports("online")
    assert "online" not in relative_imports("offline")


def test_only_model_scales_utilities():
    # Exact utilities come from one place, model.utility_scale; every other
    # module reads its integers instead of scaling Fractions itself.
    for module in LAYERS:
        if module != "model":
            assert not {"lcm", "utility_of"} & names_used(module), module


def test_only_model_validates_instances():
    # An Instance validates itself when it is built, so no other module
    # checks one again; importing validate_instance (for a tracer to wrap)
    # is allowed.
    for module in LAYERS:
        if module != "model":
            assert "validate_instance" not in names_read(module), module


def test_only_analysis_picks_the_worst_case_bound():
    # analysis.ratio_check picks the bound for the instance's model and
    # takes opt/alg; the commands print from its result.
    for module in LAYERS:
        if module != "analysis":
            assert not {"model1_bound", "model2_bound"} & names_read(module), module
