"""RPR006 — cache-row aliasing out of public engine methods.

The engines' row caches are version-stamped and repaired *in place*; a cached
row object that escapes through a public method becomes a write path into the
cache that no version stamp guards (a caller mutating its "result" corrupts
every later read).  Public methods of ``*Engine`` classes therefore must not
return an object reachable from a ``self.*cache*`` attribute unless the
return materialises a copy (``dict()``/``list()``/``.copy()``/scalar
conversion/...) or the method is explicitly annotated shared-read-only with
``# repro: readonly`` on the ``def`` or ``return`` line — the documented
escape for the hot-path ``env_rows``, whose callers are all in-package and
read-only by contract.

Detection is a conservative intra-method taint pass: any ``self.<attr>``
whose name contains ``cache`` seeds taint; taint flows through assignment,
subscripting, and ``.get()``/``.setdefault()`` on tainted objects; it is
cleansed by copying constructors and scalar reductions.  Branch structure is
ignored (a name once tainted stays tainted), trading false positives —
annotatable — for never missing an aliased escape.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from ..model import Finding, LintFile, Project
from .base import LintRule, dotted_name

#: Calls that materialise a fresh object (or a scalar) from their argument.
_SANITIZERS = {
    "dict", "list", "tuple", "set", "frozenset", "sorted", "float", "int",
    "str", "bool", "len", "sum", "min", "max", "copy", "deepcopy",
}
_SANITIZER_METHODS = {"copy", "tolist", "item"}


def _is_cache_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and "cache" in node.attr.lower()
    )


class _Taint(ast.NodeVisitor):
    """Order-insensitive taint over one method body (two passes to a fixpoint)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def tainted(self, node: ast.AST) -> bool:
        if _is_cache_attr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Subscript):
            return self.tainted(node.value)
        if isinstance(node, ast.Attribute):
            return self.tainted(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            name = dotted_name(func).split(".")[-1]
            if isinstance(func, ast.Attribute):
                if func.attr in _SANITIZER_METHODS:
                    return False
                # tainted_obj.get(...) / .setdefault(...) alias the payload
                if func.attr in ("get", "setdefault", "pop") and self.tainted(func.value):
                    return True
                return False
            if name in _SANITIZERS:
                return False
            return False
        if isinstance(node, ast.IfExp):
            return self.tainted(node.body) or self.tainted(node.orelse)
        if isinstance(node, (ast.BoolOp,)):
            return any(self.tainted(value) for value in node.values)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.tainted(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and self.tainted(node.value):
            if isinstance(node.target, ast.Name):
                self.names.add(node.target.id)
        self.generic_visit(node)


class CacheAliasingRule(LintRule):
    rule_id = "RPR006"
    summary = (
        "public engine method returns a cached row object without .copy() "
        "or a documented-readonly annotation"
    )
    scopes = ("src/repro/engine/",)

    def check(self, file: LintFile, project: Project) -> Iterable[Finding]:
        for klass in ast.walk(file.tree):
            if not isinstance(klass, ast.ClassDef) or not klass.name.endswith("Engine"):
                continue
            for method in klass.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name.startswith("_"):
                    continue
                taint = _Taint()
                # Two passes reach a fixpoint for the chained-assignment
                # shapes that occur in practice (entry -> rows -> row).
                for _ in range(2):
                    taint.visit(method)
                for node in ast.walk(method):
                    if not isinstance(node, ast.Return) or node.value is None:
                        continue
                    if not taint.tainted(node.value):
                        continue
                    if file.is_readonly_annotated(node.lineno, method.lineno):
                        continue
                    yield self.finding(
                        file,
                        node,
                        f"{klass.name}.{method.name}() returns an object "
                        "aliasing a row cache — return a copy, or mark the "
                        "shared-read-only contract with '# repro: readonly' "
                        "on the def/return line and document it",
                    )
