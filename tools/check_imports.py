#!/usr/bin/env python
"""Import hygiene check (stdlib-only ruff "I"/F811/F401 stand-in).

``make lint`` prefers ruff (``select = ["I", ...]`` in pyproject.toml
catches the full rule set), but the reference container ships without
it — this checker enforces the four invariants the repo actually cares
about in any environment:

* **no duplicate imports**: a module must not be imported twice at the
  top level of a file (the class of bug where ``from ..core.exceptions
  import ...`` appeared twice in ``scwf_director.py``);
* **sorted import runs**: within one contiguous block of top-level
  imports, module names must be non-decreasing (case-insensitive, with
  relative imports compared by their dot-prefix then name, mirroring
  isort's default ordering closely enough to keep blocks tidy);
* **a standard-library engine**: every ``import`` and ``from ...
  import`` under ``src/repro`` — at module level or inside a function —
  names a module in ``sys.stdlib_module_names`` or ``repro`` itself, so
  ``pip install`` of the engine pulls in nothing and no engine process
  pays for a third-party import;
* **no unused engine imports** (ruff F401): every name a module-level
  import under ``src/repro`` binds is read somewhere in its module —
  as a name, an attribute base or inside a string annotation.  Package
  ``__init__.py`` files (re-exports), names listed in ``__all__`` and
  ``from __future__`` imports are exempt.

Exit status 0 when clean; 1 with one ``file:line`` diagnostic per
violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOTS = ("src", "tests", "benchmarks", "examples", "tools")
ENGINE = Path("src", "repro")


def _third_party(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, module)`` for every import of a non-stdlib, non-repro module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            top = module.partition(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    return found


def _module_level(body: list[ast.stmt]) -> list[ast.stmt]:
    """*body*'s statements, module-level ``if`` blocks (``TYPE_CHECKING``)
    opened."""
    statements = []
    for node in body:
        statements.append(node)
        if isinstance(node, ast.If):
            statements.extend(_module_level(node.body + node.orelse))
    return statements


def _annotations(tree: ast.Module) -> list[ast.expr]:
    """Every annotation expression in *tree*."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    found.append(arg.annotation)
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _names_read(tree: ast.Module) -> set[str]:
    """Names *tree* loads, string annotations (``"Workflow"``) included."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read |= _names_read(parsed)
    return read


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return names


def _unused(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` for every module-level import binding never read."""
    bound: dict[str, int] = {}
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = _names_read(tree) | _exported(tree)
    return sorted(
        (line, name) for name, line in bound.items() if name not in read
    )


def _module_key(node: ast.stmt) -> tuple:
    """Sort key approximating isort's defaults.

    Straight ``import X`` statements come before ``from Y import``
    statements within a run (isort's default, ``force_sort_within_
    sections`` off), each sub-block alphabetical by lowercased module
    path.  For relative imports the leading dots are part of the key,
    which makes deeper relatives sort first (``...core.actors`` <
    ``..abstract_scheduler``) — exactly the repo's established style.
    """
    if isinstance(node, ast.Import):
        return (0, node.names[0].name.lower())
    assert isinstance(node, ast.ImportFrom)
    return (1, ("." * node.level + (node.module or "")).lower())


def _dedupe_key(node: ast.stmt) -> list[tuple]:
    """One key per imported module for duplicate detection.

    ``from pkg import sub as _alias`` lines are exempt when *every*
    name is aliased: importing two submodules of one package on two
    lines is deliberate, not a duplicated import.
    """
    if isinstance(node, ast.Import):
        return [("import", alias.name) for alias in node.names]
    assert isinstance(node, ast.ImportFrom)
    if all(alias.asname is not None for alias in node.names):
        return []
    return [("from", node.level, node.module or "")]


def check_file(path: Path, engine: bool = False) -> list[str]:
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as exc:  # compileall's job, but report anyway
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]
    problems: list[str] = []
    if engine:
        problems.extend(
            f"{path}:{line}: {module} is not in the standard library "
            "(the engine imports stdlib and repro only)"
            for line, module in _third_party(tree)
        )
        if path.name != "__init__.py":
            problems.extend(
                f"{path}:{line}: {name} is imported and never read "
                "(ruff F401)"
                for line, name in _unused(tree)
            )
    seen: dict[tuple, int] = {}
    previous: ast.stmt | None = None
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            previous = None
            continue
        for key in _dedupe_key(node):
            if key in seen:
                problems.append(
                    f"{path}:{node.lineno}: duplicate import of "
                    f"{key[-1] or '.'!s} (first at line {seen[key]})"
                )
            else:
                seen[key] = node.lineno
        if (
            previous is not None
            and node.lineno == getattr(previous, "end_lineno", -2) + 1
            and _module_key(node) < _module_key(previous)
        ):
            problems.append(
                f"{path}:{node.lineno}: import of "
                f"{_module_key(node)[1] or '.'} is not sorted after "
                f"{_module_key(previous)[1] or '.'}"
            )
        previous = node
    return problems


def main(argv: list[str]) -> int:
    base = Path(argv[1]) if len(argv) > 1 else Path(".")
    problems: list[str] = []
    for root in ROOTS:
        directory = base / root
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            engine = (base / ENGINE) in path.parents
            problems.extend(check_file(path, engine))
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_imports: {len(problems)} problem(s)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
