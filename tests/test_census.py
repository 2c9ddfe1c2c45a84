"""``tools/census.py``: which public names a planted tree leaves unread."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "census", Path(__file__).parents[1] / "tools" / "census.py"
)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)


def _plant(root: Path, files: dict) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_only_tests_and_reexports_do_not_count_as_readers(tmp_path):
    _plant(
        tmp_path,
        {
            "src/repro/__init__.py": (
                "from .mod import Dead, Used, Local, by_name\n"
                "Alias = Dead\n"
                '__all__ = ["Dead", "Used", "Local", "Alias"]\n'
            ),
            "src/repro/mod.py": (
                "class Dead:\n    pass\n\n\n"
                "class Used:\n    pass\n\n\n"
                "def Local():\n    return Local\n\n\n"
                "def by_name():\n    pass\n\n\n"
                "def helper():\n    return Local()\n\n\n"
                "_private = 1\n"
            ),
            "src/repro/user.py": (
                "from .mod import Used\n\n"
                "def run(module):\n"
                '    return Used(), getattr(module, "by_name")\n'
            ),
            "tests/test_mod.py": "from repro.mod import Dead, helper\n",
        },
    )
    unread, own_only = census.census(tmp_path)
    assert [(d.name, d.kind, d.lines) for d in unread] == [
        ("Dead", "class", 2),
        ("helper", "def", 2),
        ("run", "def", 2),
    ]
    assert [d.name for d in own_only] == ["Local"]
