"""Every definition in ``src/repro`` has a caller outside the tests.

A function, method or class earns its place when the program, the
benchmark harness, a script or an example names it.  A function, class
or property counts as named when its name appears somewhere else as a
``Name``, an ``Attribute``, a call keyword, or an identifier inside a
string constant that is not a docstring (perfbench's tracer patches
methods by name).  A method counts only when it is reached through an
attribute (``obj.name``) or named by such a string.  Where some class
also keeps data under the method's name (a class-level field, a
``__slots__`` entry or a ``self.name = ...`` assignment), reading
``obj.name`` may be that data, so the attribute counts only when it is
called; a ``__slots__`` entry names data, never a method.  Inside
``src/`` import lines and ``__all__`` do not count: re-exporting a name
is not using it.  Dunders and ``visit_*`` methods (called by
``ast.NodeVisitor`` by name) are exempt.

The scan matches by name, not by type, so a method that shares its name
with one that is called (two ``submit`` methods, say) passes unseen;
that is a miss, never a false alarm.

A definition only a test reaches is either dead code, to be deleted with
the tests that check only it, or a test's hook: an oracle's entry point
or an observer of state the program keeps private.  Hooks are listed in
``TEST_HOOKS`` with the test that needs each.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"
PACKAGE_ROOT = SRC_ROOT / "repro"

#: Where a reference counts besides ``src/`` itself: everything but the tests.
CALLER_DIRS = ("benchmarks", "scripts", "examples", "perfbench")

#: Definitions only a test reaches, each with the test file that needs it.
TEST_HOOKS: Dict[str, str] = {
    # The memory twins drive the address space page by page.
    "repro.mem.address_space.AddressSpace.page_state": "tests/property/test_prop_memory.py",
    "repro.mem.address_space.AddressSpace.write_page": "tests/property/test_prop_memory.py",
    "repro.mem.address_space.AddressSpace.touch_read_range": "tests/property/test_prop_memory.py",
    "repro.mem.address_space.AddressSpace.content_runs_per_vma": "tests/unit/test_mechanisms.py",
    # The per-page reference space is built from these.
    "repro.mem.address_space.MemoryMeter.charge": "tests/property/reference_space.py",
    "repro.mem.vma.Vma.contains": "tests/property/reference_space.py",
    "repro.mem.vma.Vma.overlaps": "tests/property/reference_space.py",
    # The scan-routing oracle reads the warmth the index keeps.
    "repro.faas.invoker.InvokerSnapshot.warmth": "tests/property/reference_routing.py",
    # The event-loop twins compare queue state operation by operation.
    "repro.sim.events.EventLoop.pending_live": "tests/property/test_prop_events.py",
    "repro.sim.events.EventLoop.executed_events": "tests/property/test_prop_events.py",
    # Observers of private state and oracles.
    "repro.proc.pipes.Pipe.empty": "tests/unit/test_process_layer.py",
    "repro.kernel.kernel.SimKernel.process": "tests/unit/test_process_layer.py",
    "repro.proc.registers.RegisterSet.with_updates": "tests/property/test_prop_registers.py",
    "repro.faas.controlplane.tuner.QuotaTuner.rate_for": "tests/unit/test_controlplane.py",
    "repro.faas.invoker.Invoker.max_containers": "tests/unit/test_admission.py",
    # FAILED stays a terminal status until an invoker can be lost.
    "repro.faas.request.Invocation.mark_failed": "tests/unit/test_faas_layer.py",
    "repro.faas.metrics.MetricsCollector.num_failed": "tests/unit/test_faas_layer.py",
    # The serial-versus-spawned determinism check; the flat-memory bound.
    "repro.analysis.perf.run_replicated": "tests/integration/test_perf_trace.py",
    "repro.analysis.perf.build_client": "tests/integration/test_flat_memory.py",
}

#: A string that is a (dotted) name, such as ``"adopt"`` or ``"Invoker.adopt"``.
_NAME_STRING = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC_ROOT).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _source_files() -> List[Path]:
    return sorted(PACKAGE_ROOT.rglob("*.py"))


def _caller_files() -> Iterator[Path]:
    for directory in CALLER_DIRS:
        yield from sorted((REPO_ROOT / directory).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class Definition(NamedTuple):
    name: str
    #: A plain method: a def in a class body that is not a property.
    method: bool


def _is_property(node: ast.AST) -> bool:
    return any(
        getattr(decorator, "id", None) == "property"
        or getattr(decorator, "attr", None) in ("setter", "deleter")
        for decorator in getattr(node, "decorator_list", ())
    )


def _definitions(tree: ast.Module, module: str) -> Iterator[Tuple[str, Definition]]:
    """``(qualified name, definition)`` of every def and class in a module."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, Definition]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                method = (
                    isinstance(node, ast.ClassDef)
                    and not isinstance(child, ast.ClassDef)
                    and not _is_property(child)
                )
                yield qualified, Definition(child.name, method)
                yield from walk(child, qualified)
            else:
                yield from walk(child, prefix)

    return walk(tree, module)


def _is_exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("visit_")


def _docstrings(tree: ast.Module) -> Set[int]:
    """``id`` of every docstring constant in a module."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _slot_names(tree: ast.Module) -> Set[int]:
    """``id`` of every node in a ``__slots__`` declaration: data names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__slots__" for target in node.targets
        ):
            found.update(id(inner) for inner in ast.walk(node.value))
    return found


def _skipped_in_src(tree: ast.Module) -> Set[int]:
    """``id`` of every node under an import or an ``__all__`` assignment."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip = True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            skip = any(getattr(target, "id", None) == "__all__" for target in targets)
        else:
            skip = False
        if skip:
            skipped.update(id(inner) for inner in ast.walk(node))
    return skipped


class References:
    """How the scanned code uses names."""

    def __init__(self) -> None:
        #: ``Name`` nodes and call keywords.
        self.bare: Set[str] = set()
        #: Identifiers in whole-name strings.
        self.strings: Set[str] = set()
        #: Every ``obj.name``, and those that are called.
        self.attributes: Set[str] = set()
        self.called: Set[str] = set()
        #: Names some class keeps data under.
        self.fields: Set[str] = set()

    def add(self, tree: ast.Module, skipped: Set[int]) -> None:
        docstrings = _docstrings(tree)
        slots = _slot_names(tree)
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name):
                self.bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.attributes.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                self.bare.add(node.arg)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                if id(node) in slots:
                    self.fields.add(node.value)
                elif _NAME_STRING.fullmatch(node.value):
                    self.strings.update(node.value.split("."))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                self.called.add(node.func.attr)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    targets = (
                        statement.targets if isinstance(statement, ast.Assign)
                        else [statement.target] if isinstance(statement, ast.AnnAssign)
                        else []
                    )
                    self.fields.update(
                        target.id for target in targets if isinstance(target, ast.Name)
                    )
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                self.fields.update(
                    target.attr for target in targets
                    if isinstance(target, ast.Attribute)
                    and getattr(target.value, "id", None) == "self"
                )

    def uses(self, definition: Definition) -> bool:
        name = definition.name
        if name in self.strings:
            return True
        if definition.method:
            return name in self.called or (
                name in self.attributes and name not in self.fields
            )
        return name in self.bare or name in self.attributes


def _scan() -> Tuple[Dict[str, Definition], References]:
    """Every definition in ``src/repro`` and how the code outside tests uses names."""
    definitions: Dict[str, Definition] = {}
    references = References()
    for path in _source_files():
        tree = _parse(path)
        definitions.update(_definitions(tree, _module_name(path)))
        references.add(tree, _skipped_in_src(tree))
    for path in _caller_files():
        references.add(_parse(path), set())
    return definitions, references


def _unreferenced(definitions: Dict[str, Definition], references: References) -> Set[str]:
    """Qualified names of the definitions nothing outside the tests uses."""
    return {
        qualified for qualified, definition in definitions.items()
        if not _is_exempt(definition.name) and not references.uses(definition)
    }


def test_every_definition_has_a_caller_outside_the_tests():
    unused = _unreferenced(*_scan()) - set(TEST_HOOKS)
    assert not unused, (
        "definitions in src/ that nothing outside the tests names; delete "
        f"them, or list each in TEST_HOOKS with its test: {sorted(unused)}"
    )


def test_every_hook_is_defined_unreferenced_and_used_by_its_test():
    definitions, references = _scan()
    unused = _unreferenced(definitions, references)
    for qualified, test_path in TEST_HOOKS.items():
        assert qualified in definitions, f"{qualified} is gone: drop it here"
        assert qualified in unused, f"{qualified} has a caller now: drop it here"
        name = qualified.rsplit(".", 1)[1]
        assert re.search(rf"\b{name}\b", (REPO_ROOT / test_path).read_text()), (
            f"{test_path} no longer uses {name}"
        )
