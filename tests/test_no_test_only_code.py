"""Guard: no definition in ``src/`` that only the tests reach.

Every function, method and class defined under ``src/``, and every
module-level constant, must be referenced by the program itself: from
elsewhere in ``src/``, or from ``benchmarks/``, ``examples/`` or
``perfbench/``.  A definition whose only callers are tests is a second
implementation nothing runs.  The one exception is an independent
oracle: a definition a test uses to check code that is in use.
:data:`ALLOWED` lists those, each with the test that uses it as an
oracle.

The scan is by name, over the AST.  A definition is a module- or
class-level ``def``/``class``, or a non-dunder name a module-level
assignment binds (class attributes are out of scope).  A reference is
any identifier read (a ``Name`` in load context, an ``Attribute``, a
keyword argument, an imported name or module path) or any string
constant spelling a dotted identifier (``getattr`` targets, patch
tables).  Three things are not references: an assignment (a ``Name``
stored to), a name used inside the body of a function or class of the
same name (recursion, or a delegation such as
``def cancel(self): return self.service.cancel()``), and a package
``__init__.py``'s own ``import`` statements and ``__all__`` assignment:
a re-export only passes a name on, so it counts once a program module
imports it from the package.  Two definitions that share a name are
reached together, so the scan finds candidates, not every case.
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


def _python_files(root: Path, directory: str) -> List[Path]:
    return sorted(
        path
        for path in (root / directory).rglob("*.py")
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(tree: ast.AST, skip_reexports: bool):
    """``ast.walk`` yielding ``(node, names of the definitions whose
    body encloses it)``, pruning re-export statements when asked."""
    pending = [(tree, frozenset())]
    while pending:
        node, enclosing = pending.pop()
        if skip_reexports and _is_reexport(node):
            continue
        yield node, enclosing
        body, inner = set(), enclosing
        if isinstance(node, _SCOPES):
            body, inner = {id(child) for child in node.body}, enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            pending.append((child, inner if id(child) in body else enclosing))


def _names(node: ast.AST) -> List[str]:
    """The identifiers one node reads."""
    if isinstance(node, ast.Name):
        return [node.id] if isinstance(node.ctx, ast.Load) else []
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.keyword):
        return [node.arg] if node.arg else []
    if isinstance(node, ast.alias):
        return node.name.split(".") + ([node.asname] if node.asname else [])
    if isinstance(node, ast.ImportFrom):
        return node.module.split(".") if node.module else []
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _DOTTED.match(node.value)
    ):
        return node.value.split(".")
    return []


def _references(paths: List[Path]) -> Counter:
    counts: Counter = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node, enclosing in _walk(tree, skip_reexports=path.name == "__init__.py"):
            counts.update(name for name in _names(node) if name not in enclosing)
    return counts


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _constants(node: ast.stmt) -> List[str]:
    """The non-dunder names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
        and isinstance(name.ctx, ast.Store)
        and not _is_dunder(name.id)
    ]


def _definitions(root: Path) -> Dict[str, str]:
    """Module- and class-level definitions and module-level constants:
    qualified name -> site."""
    found: Dict[str, str] = {}
    for path in _python_files(root, "src"):
        relative = path.relative_to(root / "src").with_suffix("")
        module = ".".join(part for part in relative.parts if part != "__init__")

        def visit(body, prefix: str) -> None:
            for node in body:
                site = f"{path.relative_to(root)}:{node.lineno}"
                if not prefix:
                    for name in _constants(node):
                        found[f"{module}.{name}"] = site
                if not isinstance(node, _SCOPES):
                    continue
                name = node.name
                if not _is_dunder(name):
                    found[f"{module}.{prefix}{name}"] = site
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{name}.")

        visit(ast.parse(path.read_text(), str(path)).body, "")
    return found


def find_unreached_definitions(root: Path = ROOT) -> Dict[str, str]:
    """Definitions no program code under ``root`` names: qualified name
    -> their ``path:line`` and whether the tests reach them."""
    program = _references(
        [path for directory in PROGRAM_DIRS for path in _python_files(root, directory)]
    )
    tests = _references(_python_files(root, "tests"))
    unreached = {}
    for qualified, site in _definitions(root).items():
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


def test_scan_ignores_same_name_uses_and_assignments(tmp_path):
    """On a synthetic package: a delegation to a same-named method, a
    recursion and a constant the program only assigns are reported; a
    constant a function loads and a class the program names are not."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.core import LIMIT, Service\n__all__ = ['LIMIT', 'Service']\n"
    )
    (package / "core.py").write_text(
        "LIMIT = 3\n"
        "USED = 4\n"
        "\n"
        "\n"
        "class Service:\n"
        "    def run(self):\n"
        "        global LIMIT\n"
        "        LIMIT = USED\n"
        "\n"
        "    def cancel(self, job_id):\n"
        "        return self.inner.cancel(job_id)\n"
        "\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1) if n else 0\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.core import Service\nService().run()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(
        "from pkg import LIMIT, Service\nService().cancel(LIMIT)\n"
    )
    unreached = find_unreached_definitions(tmp_path)
    assert sorted(unreached) == [
        "pkg.core.LIMIT", "pkg.core.Service.cancel", "pkg.core.Service.walk",
    ]
    assert unreached["pkg.core.LIMIT"] == "src/pkg/core.py:1 (reached by tests only)"
    assert unreached["pkg.core.Service.cancel"].endswith("(reached by tests only)")
    assert unreached["pkg.core.Service.walk"].endswith("(reached by nothing)")


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
    for path in _python_files(ROOT, "src"):
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
