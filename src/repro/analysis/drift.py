"""Batch/scalar drift: scalar wrappers must stay thin delegates.

PR 2/PR 6 vectorized the hot path with a hard contract: the scalar
entry points (``lower``, ``measure``, ``run``, ``propose``) are
*definitionally* equivalent to their ``*_batch`` twins — the tests pin
bit-identical outputs.  That contract rots silently if someone "fixes a
bug" in one path only.  The structural half is checkable: a declared
scalar wrapper must exist, its twin must exist next to it, and the
wrapper body must be a thin delegate — no loops re-implementing the
batch walk, a bounded statement count, and at least one call to the
twin.

``drift-missing-wrapper``
    the declared scalar function or its batch twin is not where the
    manifest says (the manifest rotted, or the refactor dropped a path).
    A module-level twin may also live in another scanned module that
    the scalar's module imports it from (``from pkg.batch import twin``,
    also inside a function body).
``drift-fat-wrapper``
    the scalar body exceeds ``max_statements`` statements or contains a
    ``for``/``while`` loop — the shape of a re-implementation, not a
    delegation.  (Comprehensions stay legal: packing arguments into the
    batch call is delegation.)
``drift-no-delegate``
    the scalar body never calls its batch twin.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import ERROR, Finding
from repro.analysis.manifest import Manifest, ScalarWrapper


def _find_function(tree: ast.Module, cls: str | None, name: str):
    """A top-level function, or a method of a top-level class."""
    if cls is None:
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == name
            ):
                return node
        return None
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == name
                ):
                    return item
    return None


def _imported_function(
    module: ModuleInfo, name: str, by_rel: dict[str, ModuleInfo]
):
    """The top-level ``name`` of a scanned module ``module`` imports it from."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if not any(a.name == name and a.asname in (None, name) for a in node.names):
            continue
        suffix = node.module.replace(".", "/") + ".py"
        for rel in sorted(by_rel):
            if rel.endswith(suffix):
                return _find_function(by_rel[rel].tree, None, name)
    return None


def _body_statements(fn) -> list[ast.stmt]:
    """The function body minus a leading docstring."""
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body


def _calls_name(fn, twin: str) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == twin:
            return True
        if isinstance(func, ast.Attribute) and func.attr == twin:
            return True
    return False


def _check_wrapper(
    module: ModuleInfo,
    spec: ScalarWrapper,
    by_rel: dict[str, ModuleInfo],
    findings: list[Finding],
) -> None:
    where = f"{spec.cls}.{spec.scalar}" if spec.cls else spec.scalar
    scalar = _find_function(module.tree, spec.cls, spec.scalar)
    twin = _find_function(module.tree, spec.cls, spec.twin)
    if twin is None and spec.cls is None:
        twin = _imported_function(module, spec.twin, by_rel)
    if scalar is None or twin is None:
        missing = spec.scalar if scalar is None else spec.twin
        findings.append(
            Finding(
                rule="drift-missing-wrapper",
                path=module.rel,
                line=1,
                message=(
                    f"declared scalar/batch pair {where} <-> {spec.twin}: "
                    f"{missing!r} not found in this module — fix the code "
                    "or the analysis manifest"
                ),
                symbol=where,
                severity=ERROR,
            )
        )
        return

    body = _body_statements(scalar)
    loops = [
        node
        for node in ast.walk(scalar)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    ]
    if loops:
        findings.append(
            Finding(
                rule="drift-fat-wrapper",
                path=module.rel,
                line=loops[0].lineno,
                message=(
                    f"scalar wrapper {where} contains a loop — that is a "
                    f"re-implementation; delegate to {spec.twin} so the "
                    "bit-identical contract has one body"
                ),
                symbol=where,
                severity=ERROR,
            )
        )
    elif len(body) > spec.max_statements:
        findings.append(
            Finding(
                rule="drift-fat-wrapper",
                path=module.rel,
                line=scalar.lineno,
                message=(
                    f"scalar wrapper {where} has {len(body)} statements "
                    f"(max {spec.max_statements}); scalar entry points "
                    f"must stay thin delegates to {spec.twin}"
                ),
                symbol=where,
                severity=ERROR,
            )
        )
    if not _calls_name(scalar, spec.twin):
        findings.append(
            Finding(
                rule="drift-no-delegate",
                path=module.rel,
                line=scalar.lineno,
                message=(
                    f"scalar wrapper {where} never calls its batch twin "
                    f"{spec.twin}; the scalar/batch equivalence contract "
                    "requires delegation"
                ),
                symbol=where,
                severity=ERROR,
            )
        )


def check(modules: list[ModuleInfo], manifest: Manifest) -> list[Finding]:
    findings: list[Finding] = []
    by_rel = {module.rel: module for module in modules}
    for spec in manifest.wrappers:
        module = next(
            (
                by_rel[rel]
                for rel in sorted(by_rel)
                if rel.endswith(spec.module)
            ),
            None,
        )
        if module is None:
            continue  # spec's module outside this scan's roots
        _check_wrapper(module, spec, by_rel, findings)
    return findings
