"""The package's source read as syntax: the integrator stays independent of
the solver and of the classification that drives it, no module reaches
into another's private names, the runtime imports nothing but numpy, scipy
and the standard library, the library raises the error taxonomy alone,
every class of it somewhere, and every constant the README names exists."""

import ast
import re
import sys
from pathlib import Path

from dpnls.params import ERRORS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpnls"
README = PACKAGE.parents[1] / "README.md"


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


def test_runtime_imports_are_numpy_scipy_and_stdlib():
    # numpy and scipy are the declared runtime dependencies; anything else
    # installed beside them (mpmath, sympy, ...) is not
    allowed = {"numpy", "scipy", "dpnls", *sys.stdlib_module_names}
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - allowed == set()


def raised_names(skip: tuple[str, ...] = ()) -> dict[str, set[str]]:
    """What some ``raise`` in the package, outside the modules in ``skip``,
    raises, as ``raise X(...)`` or ``raise X``: the source text of X, each
    with the modules that raise it."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found.setdefault(ast.unparse(exc), set()).add(path.stem)
    return found


def test_every_error_class_is_raised():
    # a class in ERRORS that nothing raises is a dead branch of every
    # sweep's error handling
    assert {cls.__name__ for cls in ERRORS} <= raised_names().keys()


def test_library_raises_only_taxonomy_errors():
    # a sweep records a taxonomy error as its row and goes on, so a library
    # failure outside ERRORS would end the sweep as a program fault; the
    # command line's ValueErrors are config errors that main exits 2 on
    taxonomy = {cls.__name__ for cls in ERRORS}
    stray = {name: modules for name, modules in raised_names(("cli",)).items()
             if name not in taxonomy}
    assert stray == {}


def readers(name: str) -> set[tuple[str, str | None]]:
    """(module, innermost enclosing function or class, None at module level)
    of every place in the package that reads ``name``, bare or as an
    attribute."""
    found = set()

    def visit(node, owner, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = node.name
        if ((isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, module)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), None, path.stem)
    return found


def test_mass_band_is_read_by_the_blowup_set_alone():
    # B_omega is stated once: every membership test, with or without an
    # audit slack, goes through in_blowup_set
    assert readers("MASS_BAND") == {("evolution", "in_blowup_set")}


def module_constants(path: Path) -> set[str]:
    """The names a module assigns at its top level."""
    return {target.id for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def test_readme_constants_exist():
    # every UPPER_CASE name in backticks, bare or as module.NAME, is assigned
    # in that module or, when bare, in some module: a deletion that leaves
    # the README behind fails here
    defined = {path.stem: module_constants(path)
               for path in PACKAGE.glob("*.py")}
    anywhere = set().union(*defined.values())
    named = re.findall(r"`(?:dpnls\.)?(?:(\w+)\.)?([A-Z][A-Z0-9_]+)`",
                       README.read_text())
    assert named
    missing = {f"{module}.{name}" if module else name
               for module, name in named
               if name not in (defined.get(module, set()) if module
                               else anywhere)}
    assert missing == set()
