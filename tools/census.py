#!/usr/bin/env python
"""Feature census: the public names of ``src/repro`` nothing else reads.

``make census`` lists every public top-level class, function and
constant under ``src/repro`` that has no reader outside

* ``tests/`` (a test of a name is not a use of it),
* the module that defines it, and
* package ``__init__`` re-exports (imports, ``__all__`` entries and
  ``Alias = Name`` lines re-export a name; they do not use it),

with its file, line and size in lines.  A reader is any other Python
file of the repository (``src``, ``benchmarks``, ``examples``, ``tools``,
``setup.py``) that names it — as an identifier, an attribute, an
imported name or a string (``getattr``, patch-by-name and dotted
``importlib`` paths count: each part of ``"pkg.mod.Name"`` is read) —
or ``pyproject.toml``.  The list comes in two parts: names nothing reads
at all (the census rule's deletion candidates: each stays only if a
reader is coming), and names only their own module reads (code that is
used, under a public name no other module needs).  Name matching is
by spelling, so a name that shares its spelling with a read attribute
elsewhere counts as read: the report can miss, never invent, an unread
name.  The command only reports; the first part is gated empty by the
tier-1 suite (``tests/test_census.py``), so a name that loses its last
reader goes in the change that removes the reader.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "repro"
#: Where readers live, relative to the root (``tests`` is not one).
READER_ROOTS = ("src", "benchmarks", "examples", "tools")
READER_FILES = ("setup.py",)
TEXT_READERS = ("pyproject.toml",)


class Definition(NamedTuple):
    path: Path
    line: int
    kind: str
    name: str
    lines: int


def definitions(path: Path, tree: ast.Module) -> Iterator[Definition]:
    """The public top-level names *tree* (a module's AST) defines."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            names = [node.name]
            kind = "class" if isinstance(node, ast.ClassDef) else "def"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            kind = "const"
        else:
            continue
        first = min(
            [node.lineno]
            + [d.lineno for d in getattr(node, "decorator_list", [])]
        )
        for name in names:
            if not name.startswith("_"):
                yield Definition(
                    path, node.lineno, kind, name, node.end_lineno - first + 1
                )


def _reexports(tree: ast.Module) -> set[int]:
    """``id``s of the nodes of a package ``__init__`` that only re-export:
    ``__all__`` and ``Alias = Name`` assignments (imports are never
    counted as reads of their own)."""
    skipped: set[int] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if names == ["__all__"] or isinstance(node.value, ast.Name):
            skipped.update(id(child) for child in ast.walk(node))
    return skipped


def names_read(
    tree: ast.AST, skipped: frozenset = frozenset(), imports: bool = True
) -> set[str]:
    """Every identifier *tree* reads outside the *skipped* nodes: names,
    attributes, imported names (with *imports*) and identifier-shaped
    strings, every part of a dotted path such as ``"pkg.mod.Name"``
    included."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def python_files(root: Path) -> Iterator[Path]:
    for top in READER_ROOTS:
        yield from sorted((root / top).rglob("*.py"))
    for name in READER_FILES:
        if (root / name).exists():
            yield root / name


def census(root: Path = ROOT) -> tuple[list[Definition], list[Definition]]:
    """``(unread, read only by their own module)``, in file and line
    order."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in python_files(root)
    }
    readers: dict[Path, set[str]] = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            readers[path] = names_read(tree, _reexports(tree), imports=False)
        else:
            readers[path] = names_read(tree)
    text = " ".join(
        (root / name).read_text()
        for name in TEXT_READERS
        if (root / name).exists()
    )
    package = root / PACKAGE
    unread: list[Definition] = []
    own_only: list[Definition] = []
    for path, tree in trees.items():
        if path.name == "__init__.py" or package not in path.parents:
            continue
        nodes = {
            node.lineno: node
            for node in tree.body
            if hasattr(node, "lineno")
        }
        for definition in definitions(path, tree):
            name = definition.name
            if any(
                name in names
                for other, names in readers.items()
                if other != path
            ) or re.search(rf"\b{re.escape(name)}\b", text):
                continue
            own = frozenset(
                id(child) for child in ast.walk(nodes[definition.line])
            )
            if name in names_read(tree, own):
                own_only.append(definition)
            else:
                unread.append(definition)
    return unread, own_only


def main() -> int:
    for title, found in zip(
        ("read by nothing but tests and re-exports",
         "read only by their own module"),
        census(ROOT),
    ):
        total = sum(d.lines for d in found)
        print(f"{len(found)} public names {title} ({total} lines):")
        for d in found:
            where = f"{d.path.relative_to(ROOT)}:{d.line}"
            print(f"  {where:50s} {d.kind:5s} {d.name:30s} {d.lines:4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
