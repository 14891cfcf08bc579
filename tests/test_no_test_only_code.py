"""Guard: no definition in ``src/`` that only the tests reach.

Every function, method and class defined under ``src/`` must be
referenced by the program itself: from elsewhere in ``src/``, or from
``benchmarks/``, ``examples/`` or ``perfbench/``.  A definition whose
only callers are tests is a second implementation nothing runs.  The
one exception is an independent oracle: a definition a test uses to
check code that is in use.  :data:`ALLOWED` lists those, each with the
test that uses it as an oracle.

The scan is by name, over the AST.  A reference is any identifier
(``Name``, ``Attribute``, keyword argument, imported name or module
path) or any string constant spelling a dotted identifier (``getattr``
targets, patch tables).  A package ``__init__.py``'s own ``import``
statements and ``__all__`` assignment are not references: a re-export
only passes a name on, so it counts once a program module imports it
from the package.  Two definitions that share a name are reached
together, so the scan finds candidates, not every case.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")

#: Test-only definitions kept as independent oracles for in-use code:
#: qualified name -> (the test that uses it as an oracle, why).
ALLOWED: Dict[str, tuple] = {
    "repro.faults.protocol.unpack_doubles": (
        "tests/test_sessions.py::TestSharedCodecs::test_pack_doubles_round_trip_bit_exact",
        "inverse of the in-use pack_doubles, compared bit for bit",
    ),
    "repro.telemetry.tracing.Tracer.has_overlap": (
        "tests/test_trace.py::TestSystemIntegration::test_tracks_never_self_overlap",
        "checks the spans a real traced system records",
    ),
    "repro.core.barrier.MemoryBarrier.query": (
        "tests/test_consistency_litmus.py::TestRace2RunVsHostRead"
        "::test_barrier_orders_read_after_put",
        "reads the barrier table the controller's mark_puts fill on q_run",
    ),
    "repro.core.qcc.QuantumControllerCache.pulse_record": (
        "tests/test_consistency_litmus.py::TestRace1UpdateVsGen"
        "::test_gen_after_update_uses_fresh_parameter",
        "reads the pulse q_gen generated; the segment is private",
    ),
    "repro.core.serdes.PulseOutputPath.stream_schedule": (
        "tests/test_serdes.py::TestStreaming::test_back_to_back_stream_never_underruns",
        "drain timeline that checks the in-use is_rate_balanced sizing",
    ),
    "repro.runtime.cache.evaluation_key": (
        "tests/test_workers.py::TestScheduleParity"
        "::test_evaluation_keys_match_scalar_helper",
        "scalar form of the in-use evaluation_keys, compared digest for digest",
    ),
    "repro.quantum.exact.expectation": (
        "tests/test_executor_exact.py::TestCrossValidation"
        "::test_matrix_expectation_matches_pauli_algebra",
        "sparse-matrix expectation that checks the in-use "
        "PauliSum.expectation_statevector",
    ),
    "repro.compiler.transpile.is_native": (
        "tests/test_properties_compiler.py::test_transpile_preserves_state_up_to_phase",
        "checks that the in-use transpile emits only native gates",
    ),
}


def _python_files(directory: str) -> List[Path]:
    return sorted(
        path
        for path in (ROOT / directory).rglob("*.py")
        if "__pycache__" not in path.parts
    )


def _is_reexport(node: ast.AST) -> bool:
    """An ``import`` statement or the ``__all__`` assignment."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
    )
    return any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in targets
    )


def _walk(tree: ast.AST, skip_reexports: bool):
    """``ast.walk``, pruning re-export statements when asked."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if skip_reexports and _is_reexport(node):
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def _references(paths: List[Path]) -> Counter:
    counts: Counter = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in _walk(tree, skip_reexports=path.name == "__init__.py"):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.keyword) and node.arg:
                counts[node.arg] += 1
            elif isinstance(node, ast.alias):
                counts.update(node.name.split("."))
                if node.asname:
                    counts[node.asname] += 1
            elif isinstance(node, ast.ImportFrom) and node.module:
                counts.update(node.module.split("."))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED.match(node.value)
            ):
                counts.update(node.value.split("."))
    return counts


def _definitions() -> Dict[str, str]:
    """Module- and class-level definitions: qualified name -> site."""
    found: Dict[str, str] = {}
    for path in _python_files("src"):
        relative = path.relative_to(ROOT / "src").with_suffix("")
        module = ".".join(part for part in relative.parts if part != "__init__")

        def visit(body, prefix: str) -> None:
            for node in body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    site = f"{path.relative_to(ROOT)}:{node.lineno}"
                    found[f"{module}.{prefix}{name}"] = site
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{name}.")

        visit(ast.parse(path.read_text(), str(path)).body, "")
    return found


def find_unreached_definitions() -> Dict[str, str]:
    """Definitions no program code names: qualified name -> their
    ``path:line`` and whether the tests reach them."""
    program = _references(
        [path for directory in PROGRAM_DIRS for path in _python_files(directory)]
    )
    tests = _references(_python_files("tests"))
    unreached = {}
    for qualified, site in _definitions().items():
        name = qualified.rsplit(".", 1)[1]
        if program[name] == 0:
            reach = "tests only" if tests[name] else "nothing"
            unreached[qualified] = f"{site} (reached by {reach})"
    return unreached


def test_no_definition_is_reached_only_by_tests():
    unreached = find_unreached_definitions()
    unexpected = {name: site for name, site in unreached.items() if name not in ALLOWED}
    assert not unexpected, (
        "definitions in src/ that no program code reaches (delete them, or "
        "add an ALLOWED entry naming the test that uses one as an oracle): "
        f"{unexpected}"
    )
    stale = sorted(name for name in ALLOWED if name not in unreached)
    assert not stale, (
        f"ALLOWED entries that are no longer test-only definitions (drop them): {stale}"
    )


def test_every_allowed_entry_names_its_oracle_test():
    for qualified, (test_id, reason) in ALLOWED.items():
        assert reason, qualified
        path, *names = test_id.split("::")
        tree = ast.parse((ROOT / path).read_text())
        body = tree.body
        for name in names:
            matches = [
                node for node in body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name
            ]
            assert matches, f"{qualified}: {test_id} does not exist"
            body = matches[0].body
        test_node = matches[0]
        attribute = qualified.rsplit(".", 1)[1]
        used = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(test_node)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert attribute in used, f"{test_id} does not use {qualified}"


def test_package_reexports_resolve_and_are_listed():
    """The scan ignores re-exports, so check them here: every
    ``__all__`` entry exists on the imported package, and every name a
    package ``__init__`` imports from ``repro`` is in its ``__all__``."""
    for path in _python_files("src"):
        if path.name != "__init__.py":
            continue
        module = ".".join(path.parent.relative_to(ROOT / "src").parts)
        package = importlib.import_module(module)
        exported = getattr(package, "__all__", [])
        unresolved = [name for name in exported if not hasattr(package, name)]
        assert not unresolved, f"{module}.__all__ names missing objects: {unresolved}"
        imported = {
            alias.asname or alias.name
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
            for alias in node.names
        }
        unlisted = sorted(imported - set(exported))
        assert not unlisted, f"{module} imports but does not export: {unlisted}"
