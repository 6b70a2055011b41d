"""The package's source read as syntax: the integrator stays independent of
the solver and of the classification that drives it, no module reaches
into another's private names, and every error class of the taxonomy is
raised somewhere."""

import ast
from pathlib import Path

from dpnls.params import ERRORS

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


def private_imports() -> set[tuple[str, str, str]]:
    """(importer, module, name) of every underscore name that a dpnls
    module imports from another dpnls module."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("dpnls"):
                continue
            module = (node.module or "").removeprefix("dpnls").lstrip(".")
            found.update((path.stem, module, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_no_private_names_cross_modules():
    # a module's private names stay its own; the one line-spectrum reader
    # is shared by the functionals, the integrator and the embedding
    assert {imp for imp in private_imports()
            if imp[1:] != ("functionals", "_line_spectrum")} == set()


def raised_names() -> set[str]:
    """Names of the classes that some ``raise`` in the package raises, as
    ``raise X(...)`` or ``raise X``."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    found.add(exc.id)
    return found


def test_every_error_class_is_raised():
    # a class in ERRORS that nothing raises is a dead branch of every
    # sweep's error handling
    assert {cls.__name__ for cls in ERRORS} <= raised_names()
