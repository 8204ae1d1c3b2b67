"""Every module and every function in the library has a caller outside
tests.

A module in ``src/`` passes when another file in ``src/``, ``perfbench/``
or ``scripts/`` imports it; the package ``__init__`` and the ``cli`` entry
point are exempt.  A def in ``src/`` passes when its name appears in
``src/`` outside its own body, or in ``perfbench/`` or ``scripts/``.  A
method passes only on an attribute access (``.name``) or a quoted name, so
that a same-named free function elsewhere does not count as its caller.
Paths that only tests call belong in ``tests/oracles.py``.

The library's line count stays below the budget that ROADMAP item 7 sets
for the round, and a module with a budget of its own stays within it.
No module of the library imports mpmath, and a global height runs without
loading it.  Every name a module imports is used in it, unless its import
says ``# noqa``, and the real place imports no finite-place code.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PACKAGE = "tropical_heights"
# public wire-format and API names, kept for callers outside the repository
PUBLIC = {"point_from_dict", "curve_to_dict", "theta_to_dict", "ComponentGroup.reduce"}
# the package itself and the console-script entry point of pyproject.toml
ENTRY_MODULES = {"__init__", "cli"}
# lines of src/ at which the round's size budget (ROADMAP item 7) is spent
SRC_LINE_BUDGET = 3750
# per-module ceilings: tropical.py may not grow past its size when the
# generated theta became its own quadratic form with lazy terms, nor
# degeneration.py past its size when the component group's enumeration
# moved to itertools.product, fixed.py past its size when a point's
# uniformizer came down Landen's chain instead of R_F and exp, heights.py
# and cli.py past theirs when additive places came to be read off the
# curve's bad places and the CLI kept one table printer, nor arch.py and
# tate.py past theirs when the real place came to sum its own q-series
# and a parameter came to be checked against q's prime
MODULE_LINE_BUDGETS = {"arch.py": 296, "cli.py": 275, "degeneration.py": 261, "fixed.py": 61,
                       "heights.py": 360, "tate.py": 543, "tropical.py": 477}
# the package modules that the real place imports: no finite-place code
ARCH_IMPORTS = {"curves", "errors", "fixed"}
# the modules of src/ that may import mpmath: none, it is a test dependency
MPMATH_MODULES = set()


def _sources(directory: str) -> dict:
    return {path: path.read_text() for path in sorted((ROOT / directory).rglob("*.py"))}


def _definitions(tree: ast.AST):
    """(qualified name, is_method, node) for every def, nested ones included."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(parent, ast.ClassDef):
                    yield f"{parent.name}.{child.name}", True, child
                else:
                    yield child.name, False, child


def _uncalled() -> list:
    library = _sources("src")
    outside = "\n".join(
        text for directory in ("perfbench", "scripts") for text in _sources(directory).values()
    )
    missing = []
    for path, text in library.items():
        lines = text.splitlines()
        others = "\n".join(t for p, t in library.items() if p != path)
        for qualified, method, node in _definitions(ast.parse(text)):
            name = node.name
            if name.startswith("__") and name.endswith("__") or qualified in PUBLIC:
                continue
            # the file without the definition's own lines, decorators included
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = "\n".join(lines[:first] + lines[node.end_lineno:])
            if method:
                pattern = rf"\.{name}\b|['\"]{name}['\"]"
            else:
                pattern = rf"\b{name}\b"
            if not any(re.search(pattern, t) for t in (rest, others, outside)):
                missing.append(f"{path.relative_to(ROOT)}: {qualified}")
    return missing


def test_every_library_def_has_a_caller_outside_tests():
    assert _uncalled() == []


def _package_imports(text: str) -> set:
    """Bare names of the package modules that a file imports."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"{PACKAGE}.{node.module or ''}" if node.level else node.module or ""
            targets = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == PACKAGE and len(parts) > 1 and parts[1]:
                found.add(parts[1])
    return found


def _unimported() -> list:
    imports = {
        path: _package_imports(text)
        for directory in ("src", "perfbench", "scripts")
        for path, text in _sources(directory).items()
    }
    missing = []
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        if path.stem in ENTRY_MODULES:
            continue
        if not any(path.stem in names for p, names in imports.items() if p != path):
            missing.append(str(path.relative_to(ROOT)))
    return missing


def test_every_library_module_is_imported_outside_tests():
    assert _unimported() == []


def test_arch_imports_no_finite_place_code():
    assert _package_imports((ROOT / "src" / PACKAGE / "arch.py").read_text()) == ARCH_IMPORTS


def _unused_imports(text: str) -> list:
    """Names that a module imports and never reads, past ``__future__``
    imports and imports whose lines say ``# noqa``."""
    tree, lines = ast.parse(text), text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_every_library_import_is_used():
    """The package ``__init__`` imports to re-export, so it is exempt."""
    unused = {path.name: _unused_imports(text) for path, text in _sources("src").items()
              if path.stem != "__init__"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_library_stays_below_its_line_budget():
    lines = sum(len(text.splitlines()) for text in _sources("src").values())
    assert lines < SRC_LINE_BUDGET


def test_modules_stay_within_their_line_budgets():
    lines = {path.name: len(text.splitlines()) for path, text in _sources("src").items()}
    assert {name: lines[name] for name, budget in MODULE_LINE_BUDGETS.items()
            if lines[name] > budget} == {}


def _imported_roots(text: str) -> set:
    """Top-level names of the packages that a file imports absolutely."""
    roots = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_library_module_imports_mpmath():
    importers = {path.name for path, text in _sources("src").items()
                 if "mpmath" in _imported_roots(text)}
    assert importers == MPMATH_MODULES


def test_a_global_height_runs_without_mpmath():
    """The package imported and a global height worked out on one
    acceptance point in a fresh interpreter, which loads no mpmath."""
    code = ("import sys\n"
            "import tropical_heights\n"
            "curve, point = tropical_heights.find_semistable_examples(1)[0]\n"
            "tropical_heights.global_height(curve, point)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was loaded'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
