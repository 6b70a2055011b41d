"""The package's import graph: the integrator stays independent of the
solver and of the classification that drives it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpnls"


def package_imports(module: str) -> set[str]:
    """The dpnls modules that ``module`` imports, relatively or by name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("dpnls"):
                continue
            name = (node.module or "").removeprefix("dpnls").lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:    # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dpnls."))
    return found


def test_evolution_needs_no_solver():
    # neither groundstate nor stability: the integrator reads a reference
    # ground state as its FunctionalReport only
    assert package_imports("evolution") == {"params", "functionals"}
