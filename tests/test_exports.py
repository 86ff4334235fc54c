"""Every name a module exports in `__all__` exists, and so does every
`dspqsl` name that the benchmark harness in `perfbench/` reads."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("cli", "dsp_core", "lindblad", "optimizer", "qmat", "rydberg")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(f"dspqsl.{module}").__all__
    ],
)
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"dspqsl.{module}"), name)


def benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) of each `<module>.name` and `getattr(<module>, "name",
    ...)` in `perfbench/`, plus the entry points its tracer wraps."""
    reads = set()
    for path in [*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                module = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if module in MODULES:
                    reads.add((module, node.attr))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr":
                # A default hides a missing name from the benchmark itself.
                owner, name = node.args[:2]
                if ast.unparse(owner) in MODULES and isinstance(name, ast.Constant):
                    reads.add((owner.id, name.value))
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRY_POINTS":
                reads.update(ast.literal_eval(node.value))
    return reads


def test_names_the_benchmark_reads_resolve():
    # A change that deletes or renames one of these breaks the benchmark run.
    reads = benchmark_reads()
    assert ("cli", "main") in reads and ("qmat", "hermitian_eigensystem") in reads
    missing = sorted(
        f"{module}.{name}"
        for module, name in reads
        if not hasattr(importlib.import_module(f"dspqsl.{module}"), name)
    )
    assert missing == []
