"""Every private top-level name and ALL_CAPS constant of the package is read.

A stdlib `ast` check over `src/dspqsl`: a name bound at the top level of a
module that is private (`_name`, not a dunder) or a constant (`NAME`,
`_NAME`) must be read somewhere in the package, either bare inside its own
module or as an attribute or import (`module.NAME`, `from .module import
NAME`) in any module. Strings in `__all__` do not count as reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {p.stem: p.read_text() for p in sorted((ROOT / "src/dspqsl").glob("*.py"))}


def _checked(name: str) -> bool:
    private = name.startswith("_") and not name.endswith("__")
    return private or re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) is not None


def _top_level_names(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                (node.lineno, t.id)
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Name)
            )
    return [(line, name) for line, name in found if _checked(name)]


def dead_names(sources: dict[str, str]) -> list[str]:
    """`module:line name` for each checked top-level name that nothing reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    shared = set()  # read as an attribute or imported by name anywhere
    local = {}  # read bare, per module
    for module, tree in trees.items():
        local[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                local[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    return [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for line, name in _top_level_names(tree)
        if name not in local[module] and name not in shared
    ]


def test_no_dead_module_level_names():
    assert dead_names(SOURCES) == []


def test_flags_unread_private_names_and_constants():
    sources = {
        "a": (
            '__all__ = ["LIMIT", "run"]\n'
            "LIMIT = 1\n"
            "_UNUSED_TOL = 2\n"
            "_cache: dict = {}\n"
            "_READ, Public = 3, 4\n"
            "def _helper():\n"
            "    return _READ\n"
            "def run():\n"
            "    return _cache\n"
        ),
        "b": "from .a import LIMIT\nfrom . import a\nprint(a._dead_elsewhere, LIMIT)\n",
    }
    assert dead_names(sources) == ["a:3 _UNUSED_TOL", "a:6 _helper"]
    assert dead_names({"a": "TARGET_ALIGNMENT_TOL = 1e-10\n"}) == ["a:1 TARGET_ALIGNMENT_TOL"]
