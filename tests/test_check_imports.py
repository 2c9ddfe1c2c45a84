"""``tools/check_imports.py``: the engine imports stdlib and repro only,
and reads every name it imports."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_imports",
    Path(__file__).parents[1] / "tools" / "check_imports.py",
)
check_imports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_imports)


def test_a_third_party_import_in_the_engine_fails(tmp_path, capsys):
    engine = tmp_path / "src" / "repro"
    engine.mkdir(parents=True)
    (engine / "mod.py").write_text(
        "import json\n"
        "from . import other\n"
        "from repro.core import Workflow\n\n\n"
        "def build():\n"
        "    import networkx.algorithms\n"
        "    from numpy import array\n"
        "    return json, other, Workflow, networkx, array\n"
    )
    # Outside the engine (tests, tools) third-party imports are fine.
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("import networkx\n")
    assert check_imports.main(["check_imports", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(
        "mod.py:7: networkx.algorithms is not in the standard library "
        "(the engine imports stdlib and repro only)"
    )
    assert lines[1].endswith(
        "mod.py:8: numpy is not in the standard library "
        "(the engine imports stdlib and repro only)"
    )
    assert lines[2:] == ["check_imports: 2 problem(s)"]


def test_an_unused_engine_import_fails(tmp_path, capsys):
    engine = tmp_path / "src" / "repro"
    engine.mkdir(parents=True)
    # A package __init__ re-exports: its imports are exempt.
    (engine / "__init__.py").write_text("from .mod import build\n")
    (engine / "mod.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "\n"
        "from .other import Exported, Unread, Used\n"
        "\n"
        "if TYPE_CHECKING:\n"
        "    from .other import Quoted, Stale\n"
        "\n"
        "__all__ = [\"Exported\"]\n"
        "\n"
        "\n"
        "def build(x: \"Quoted\") -> Optional[int]:\n"
        "    return Used(os.path.join(x))\n"
    )
    # Outside the engine an unused import is ruff's business only.
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "tool.py").write_text("import json\n")
    assert check_imports.main(["check_imports", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("/")[-1] for line in lines] == [
        "mod.py:6: Unread is imported and never read (ruff F401)",
        "mod.py:9: Stale is imported and never read (ruff F401)",
        "check_imports: 2 problem(s)",
    ]


def test_the_repository_is_clean():
    root = str(Path(__file__).parents[1])
    assert check_imports.main(["check_imports", root]) == 0
