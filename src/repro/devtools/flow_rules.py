"""Flow-aware rules built on the project model, CFG, and taint engine.

========  ==============================================================
FLOW001   raw external-resource responses must be validated before any
          cache-write sink (``put``/``_memory_put``)
FLOW002   exceptions caught in resource/db paths must be re-raised,
          logged, or converted to a degrade event — no silent swallow
RACE001   module-level mutable state must not be mutated on a parallel
          worker path without lock evidence
DET002    (reimplemented) unordered set/dict-view iteration feeding
          ordered output, tracked through assignments via reaching
          definitions instead of per-line syntax
========  ==============================================================

FLOW001 and RACE001 need the whole program (method resolution, call
graph) and register as **project rules** (``requires_project = True``);
FLOW002 and DET002 are per-module and stay cacheable per file.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import replace
from typing import ClassVar

from .cfg import CFG
from .context import ModuleContext
from .dataflow import (
    Definition,
    ReachingDefinitions,
    assigned_names,
    pruned_walk,
    shallow_expressions,
)
from .findings import Finding, Fix, Severity
from .project import ProjectModel
from .rules import _ORDER_SAFE_CONSUMERS, Rule, _mutable_kind
from .taint import TaintEngine, TaintSpec

# ---------------------------------------------------------------------------
# FLOW001 — unvalidated resource responses reaching cache writes
# ---------------------------------------------------------------------------

#: The taint rule FLOW001 runs: raw fetch results (``*._query`` is the
#: per-resource fetch hook) must pass ``validate_context_terms`` before
#: any cache-write sink.  ``tuple()``/``sorted()``/comprehensions carry
#: taint through; the validator is the only sanitizer.
FLOW001_SPEC = TaintSpec(
    sources=("attr:_query",),
    sanitizers=(
        "attr:validate_context_terms",
        "*.validate_context_terms",
        "validate_context_terms",
    ),
    sinks=("attr:put", "attr:_memory_put"),
)


class UnvalidatedResourceFlowRule(Rule):
    """FLOW001: a raw response from a resource fetch (``_query`` and
    anything that returns one, e.g. ``_run_batch_query``) written
    into a cache poisons every later reader of that entry — across
    workers *and* across runs for the persistent tier.  Responses must
    pass :func:`repro.resources.base.validate_context_terms` (or a
    function of that name) on every path to a ``put``/``_memory_put``."""

    rule_id = "FLOW001"
    severity = Severity.ERROR
    summary = "resource responses must be validated before cache writes"
    hint = (
        "wrap the response: validate_context_terms(...) normalizes to an "
        "immutable tuple of clean strings before the value is cached"
    )
    scopes = ("repro.resources", "repro.db")
    requires_project: ClassVar[bool] = True
    family_description = "data-flow (taint) invariants"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        engine = TaintEngine(project, FLOW001_SPEC)
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not self.applies_to(info.module):
                continue
            ctx = project.context_for(info)
            for hit in engine.analyze_function(info):
                sink = ast.unparse(hit.node.func)
                yield self.finding(
                    ctx,
                    hit.node,
                    f"unvalidated resource response from {hit.source_label} "
                    f"reaches cache write {sink}()",
                )


# ---------------------------------------------------------------------------
# FLOW002 — no silent exception swallow in resource/db degrade paths
# ---------------------------------------------------------------------------

#: Attribute calls that count as structured logging.
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical"}
)


class SilentSwallowRule(Rule):
    """FLOW002: the resilience design degrades, it never loses
    information — a caught exception must be re-raised, logged through
    the observability layer, recorded for later handling, or converted
    into an explicit degrade event.  An ``except: pass`` in a resource
    or cache path turns an outage into silently-wrong results."""

    rule_id = "FLOW002"
    severity = Severity.ERROR
    summary = "caught exceptions must be re-raised, logged, or degraded"
    hint = (
        "re-raise, call log.warning/error(...), self._degrade(exc), or "
        "store the exception for the caller; never swallow silently"
    )
    scopes = ("repro.resources", "repro.db")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._handler_is_accounted(node):
                continue
            caught = ast.unparse(node.type) if node.type is not None else "everything"
            yield self.finding(
                ctx,
                node,
                f"handler for {caught} swallows the exception silently "
                "(no re-raise, log, or degrade on any path)",
            )

    @classmethod
    def _handler_is_accounted(cls, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in cls._walk_handler(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr in _LOG_METHODS:
                        return True
                    if "degrade" in func.attr.lower():
                        return True
                elif isinstance(func, ast.Name) and "degrade" in func.id.lower():
                    return True
            if bound is not None and isinstance(node, ast.Assign):
                # ``last_error = exc``: captured for later handling.
                if any(
                    isinstance(ref, ast.Name) and ref.id == bound
                    for ref in ast.walk(node.value)
                ):
                    return True
        return False

    @staticmethod
    def _walk_handler(handler: ast.ExceptHandler) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# RACE001 — shared mutable state on worker paths
# ---------------------------------------------------------------------------

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Dotted suffixes of functions that fan work out to a pool.
_POOL_ENTRYPOINTS = (".map_chunks", ".parallel_map")


class WorkerSharedStateRule(Rule):
    """RACE001: worker payloads run concurrently (threads) or in other
    processes; a module-level list/dict/set they mutate is a data race
    on the thread backend and silently-divergent state on the process
    backend — both break the deterministic-merge contract.  Guard the
    mutation with a lock (``with ..lock..:``) or make the state
    immutable/worker-local."""

    rule_id = "RACE001"
    severity = Severity.ERROR
    summary = "no unguarded module-level mutation on worker paths"
    hint = (
        "hold a lock around the mutation, pass state through the chunk "
        "payload instead, or make the module value immutable"
    )
    excludes = ("repro.devtools",)
    requires_project: ClassVar[bool] = True
    family_description = "shared-state safety"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        globals_by_name = self._module_level_mutables(project)
        if not globals_by_name:
            return
        provenance = self._reachable_from_payloads(project)
        for qualname in sorted(provenance):
            info = project.functions.get(qualname)
            if info is None or not self.applies_to(info.module):
                continue
            ctx = project.context_for(info)
            yield from self._check_function(
                project, ctx, info, globals_by_name, provenance[qualname]
            )

    # -- shared-state registry ---------------------------------------------------

    @staticmethod
    def _module_level_mutables(project: ProjectModel) -> "dict[str, str]":
        """``module.name`` -> kind for every module-level mutable binding."""
        registry: dict[str, str] = {}
        for module, ctx in project.modules.items():
            for stmt in ctx.tree.body:
                targets: list[ast.expr] = []
                value: "ast.expr | None" = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None:
                    continue
                kind = _mutable_kind(value)
                if kind is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        registry[f"{module}.{target.id}"] = kind
        return registry

    # -- payload roots and reachability ------------------------------------------

    def _payload_roots(self, project: ProjectModel) -> "list[str]":
        roots: set[str] = set()
        # 1. __call__ of classes defined in a parallel module.
        for cls_info in project.classes.values():
            last = cls_info.module.rsplit(".", 1)[-1]
            if last == "parallel" and "__call__" in cls_info.methods:
                roots.add(cls_info.methods["__call__"].qualname)
        # 2. First argument of pool fan-out calls.
        for info in project.functions.values():
            ctx = project.context_for(info)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if not self._is_pool_entrypoint(project, ctx, node):
                    continue
                payload = node.args[0]
                target: "str | None" = None
                if isinstance(payload, ast.Call):
                    resolved = project.resolve_call(info, payload)
                    if resolved is not None and resolved.name == "__init__":
                        class_qualname = resolved.qualname.rsplit(".", 1)[0]
                        method = project.lookup_method(class_qualname, "__call__")
                        if method is not None:
                            target = method.qualname
                    elif resolved is not None:
                        target = resolved.qualname
                else:
                    qualified = project.resolve_symbol(ctx, payload)
                    if qualified in project.functions:
                        target = qualified
                    elif qualified in project.classes:
                        method = project.lookup_method(qualified, "__call__")
                        if method is not None:
                            target = method.qualname
                if target is not None:
                    roots.add(target)
        return sorted(roots)

    @staticmethod
    def _is_pool_entrypoint(
        project: ProjectModel, ctx: ModuleContext, node: ast.Call
    ) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            return True
        qualified = project.resolve_symbol(ctx, func)
        if qualified is None:
            return False
        return any(
            qualified.endswith(suffix) or qualified == suffix[1:]
            for suffix in _POOL_ENTRYPOINTS
        )

    def _reachable_from_payloads(self, project: ProjectModel) -> "dict[str, str]":
        """function qualname -> the payload root it is reachable from."""
        provenance: dict[str, str] = {}
        for root in self._payload_roots(project):
            for reached in sorted(project.reachable([root])):
                provenance.setdefault(reached, root)
        return provenance

    # -- mutation scan -----------------------------------------------------------

    def _check_function(
        self,
        project: ProjectModel,
        ctx: ModuleContext,
        info,
        registry: "dict[str, str]",
        root: str,
    ) -> Iterator[Finding]:
        local_names = assigned_names(info.node.body)
        declared_global: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        parents: dict[int, ast.AST] = {}
        for parent in ast.walk(info.node):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent

        def resolve_shared(base: ast.expr) -> "str | None":
            """``module.name`` key when ``base`` refers to a registered
            module-level mutable (bare global or imported attribute)."""
            if isinstance(base, ast.Name):
                name = base.id
                if name in local_names and name not in declared_global:
                    return None
                key = f"{info.module}.{name}" if info.module else name
                return key if key in registry else None
            qualified = project.resolve_symbol(ctx, base)
            if qualified is not None and qualified in registry:
                return qualified
            return None

        def under_lock(node: ast.AST) -> bool:
            current = parents.get(id(node))
            while current is not None:
                if isinstance(current, (ast.With, ast.AsyncWith)):
                    for item in current.items:
                        if "lock" in ast.unparse(item.context_expr).lower():
                            return True
                current = parents.get(id(current))
            return False

        for node in ast.walk(info.node):
            shared: "str | None" = None
            what = ""
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                shared = resolve_shared(node.func.value)
                what = f".{node.func.attr}(...)"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        shared = shared or resolve_shared(target.value)
                        what = "[...] = ..."
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        key = (
                            f"{info.module}.{target.id}"
                            if info.module
                            else target.id
                        )
                        if key in registry:
                            shared = shared or key
                            what = "rebinding"
            if shared is None or under_lock(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"{registry[shared]} {shared!r} mutated ({what}) on a "
                f"worker path reachable from {root} without a lock",
            )


# ---------------------------------------------------------------------------
# DET002 — unordered iteration feeding ordered output (data-flow form)
# ---------------------------------------------------------------------------

#: Set-combining methods whose result is itself unordered.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Loop-body operations whose result depends on iteration order.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"append", "extend", "insert", "write", "writelines", "appendleft"}
)

#: Ordered-container conversions that freeze iteration order.
_ORDERING_CONVERSIONS = frozenset({"list", "tuple"})


class UnorderedIterationRule(Rule):
    """DET002: iterating a ``set`` (hash order, varies with
    PYTHONHASHSEED) or a bare dict view and feeding the result into
    ordered output breaks byte-stability.  This data-flow version
    tracks unordered-ness through assignments with reaching
    definitions, so ``s = sorted(s)`` launders the taint on every path
    that rebinds it, aliases (``t = s``) stay tainted, and a ``for``
    over a set whose body never produces ordered output is clean."""

    rule_id = "DET002"
    severity = Severity.WARNING
    summary = "no unordered set/dict-view iteration feeding ordered output"
    hint = (
        "wrap the iterable in sorted(...), or add '# order: <reason>' "
        "on (or above) the line when insertion order is provably stable"
    )
    scopes = ("repro.core",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_scope(ctx, CFG.from_statements(ctx.tree.body), None)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, CFG.from_function(node), node)

    # -- per-scope analysis ------------------------------------------------------

    def _check_scope(
        self,
        ctx: ModuleContext,
        cfg: CFG,
        func: "ast.FunctionDef | ast.AsyncFunctionDef | None",
    ) -> Iterator[Finding]:
        rd = ReachingDefinitions(cfg)
        unordered = self._unordered_definitions(rd)

        for block_id, stmt in rd.iter_statements():
            env = None  # computed lazily per statement

            def is_unordered(expr: ast.AST) -> bool:
                nonlocal env
                if env is None:
                    env = rd.reaching_at(block_id, stmt)
                return self._expr_unordered(expr, env, unordered)

            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                if (
                    is_unordered(stmt.iter)
                    and self._body_is_order_sensitive(stmt.body)
                    and not ctx.has_ordering_comment(stmt.lineno)
                ):
                    yield self._flag(ctx, stmt, stmt.iter)
            for node in self._walk_shallow(stmt):
                if isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    if self._consumer_is_safe(ctx, node):
                        continue
                    for generator in node.generators:
                        if is_unordered(generator.iter) and not ctx.has_ordering_comment(
                            node.lineno
                        ):
                            yield self._flag(ctx, node, generator.iter)
                            break
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDERING_CONVERSIONS
                    and len(node.args) == 1
                    and not node.keywords
                ):
                    if (
                        is_unordered(node.args[0])
                        and not self._consumer_is_safe(ctx, node)
                        and not ctx.has_ordering_comment(node.lineno)
                    ):
                        yield self._flag(ctx, node, node.args[0])
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                ):
                    if is_unordered(node.args[0]) and not ctx.has_ordering_comment(
                        node.lineno
                    ):
                        yield self._flag(ctx, node, node.args[0])

    def _flag(self, ctx: ModuleContext, site: ast.AST, iterable: ast.AST) -> Finding:
        try:
            rendered = ast.unparse(iterable)
        except Exception:  # pragma: no cover
            rendered = "<iterable>"
        finding = self.finding(
            ctx,
            site,
            "iteration order of an unordered collection leaks into "
            f"ordered output ({rendered})",
        )
        fix = self._sorted_fix(iterable, rendered)
        if fix is not None:
            finding = replace(finding, fix=fix)
        return finding

    @staticmethod
    def _sorted_fix(iterable: ast.AST, rendered: str) -> "Fix | None":
        end_line = getattr(iterable, "end_lineno", None)
        end_col = getattr(iterable, "end_col_offset", None)
        if end_line is None or end_col is None:
            return None  # pragma: no cover - all real exprs carry spans
        return Fix(
            start_line=iterable.lineno,
            start_col=iterable.col_offset,
            end_line=end_line,
            end_col=end_col,
            replacement=f"sorted({rendered})",
        )

    # -- unordered-ness classification -------------------------------------------

    def _unordered_definitions(self, rd: ReachingDefinitions) -> "set[Definition]":
        """Fixed point over definitions whose bound value is an
        unordered collection at the point of binding."""
        entries: list[tuple[Definition, dict[str, list[Definition]]]] = []
        for block_id, stmt in rd.iter_statements():
            indices = rd.indices_for(block_id, stmt)
            if not indices:
                continue
            env = rd.reaching_at(block_id, stmt)
            for index in indices:
                entries.append((rd.definition(index), env))
        unordered: set[Definition] = set()
        changed = True
        while changed:
            changed = False
            for definition, env in entries:
                if definition in unordered:
                    continue
                if self._definition_unordered(definition, env, unordered):
                    unordered.add(definition)
                    changed = True
        return unordered

    def _definition_unordered(
        self,
        definition: Definition,
        env: "dict[str, list[Definition]]",
        unordered: "set[Definition]",
    ) -> bool:
        node = definition.node
        if isinstance(node, ast.AnnAssign):
            annotation = ast.unparse(node.annotation).split("[", 1)[0]
            if annotation in ("set", "frozenset", "Set", "FrozenSet"):
                return True
        if definition.value is None:
            return False
        if isinstance(node, ast.AugAssign):
            # ``s |= {...}`` / ``s += xs`` keeps the old character.
            if any(
                prior in unordered for prior in env.get(definition.name, [])
            ):
                return True
        return self._expr_unordered(definition.value, env, unordered)

    def _expr_unordered(
        self,
        node: ast.AST,
        env: "dict[str, list[Definition]]",
        unordered: "set[Definition]",
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(
                definition in unordered for definition in env.get(node.id, [])
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._expr_unordered(node.left, env, unordered) or (
                self._expr_unordered(node.right, env, unordered)
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if (
                    func.attr in ("keys", "values")
                    and not node.args
                    and not node.keywords
                ):
                    return True
                if func.attr in _SET_METHODS and self._expr_unordered(
                    func.value, env, unordered
                ):
                    return True
        return False

    # -- consumers and loop bodies -----------------------------------------------

    def _consumer_is_safe(self, ctx: ModuleContext, node: ast.AST) -> bool:
        parent = ctx.parent(node)
        if parent is None:
            # Synthetic CFG wrapper (e.g. an if-test Expr) — find the
            # real parent through the original tree is impossible here;
            # treat as unsafe, the ordering comment remains available.
            return False
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_SAFE_CONSUMERS
        )

    @classmethod
    def _body_is_order_sensitive(cls, body: "list[ast.stmt]") -> bool:
        for stmt in body:
            for node in pruned_walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_CALLS
                ):
                    return True
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if any(
                        isinstance(target, ast.Subscript) for target in targets
                    ):
                        return True
                    if isinstance(node, ast.AugAssign):
                        return True
        return False

    @staticmethod
    def _walk_shallow(stmt: ast.stmt) -> Iterator[ast.AST]:
        """Expressions of one statement without descending into nested
        function bodies or compound-statement bodies (those appear as
        their own CFG statements)."""
        for root in shallow_expressions(stmt):
            yield from pruned_walk(root)
