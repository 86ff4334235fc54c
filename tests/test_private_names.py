"""No file of the package or the scripts reads another module's private name.

A stdlib `ast` check over `src/dspqsl` and `scripts/`: it flags
`<module>._name` (bare or dotted, e.g. `dspqsl.optimizer._name`) and
`from <module> import _name`, with `<module>` a `dspqsl` module. Dunder
names such as `__all__` are public.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src/dspqsl").glob("*.py")} - {"__init__"}
FILES = sorted(p for folder in ("src/dspqsl", "scripts") for p in (ROOT / folder).glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list[str]:
    """Each `module._name` read and `_name` import of a `dspqsl` module in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            module = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if module in MODULES:
                found.append((node.lineno, f"{module}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in MODULES:
            found.extend(
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names
                if _private(alias.name)
            )
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_names_of_other_modules(path):
    assert private_reads(path.read_text()) == []


def test_flags_private_reads_and_imports():
    source = (
        "from .optimizer import _score, front_candidates\n"
        "from dspqsl import optimizer\n"
        "import dspqsl.lindblad\n"
        "optimizer._score(optimizer.__all__, self._cache, np._core)\n"
        "dspqsl.lindblad._NON_FINITE\n"
    )
    assert private_reads(source) == [
        "line 1: optimizer._score",
        "line 4: optimizer._score",
        "line 5: lindblad._NON_FINITE",
    ]
