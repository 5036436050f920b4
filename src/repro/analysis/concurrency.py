"""Concurrency/effect static analysis of the repo's own source.

The pattern linter (:mod:`repro.analysis.lint`) checks compiled
*artifacts*; this module checks the *code that serves them*.  The
serving stack is a long-lived concurrent process — one asyncio event
loop over a compile process pool — and a blocking call sneaking onto
the loop, a dropped task reference or (in code that adds threads) a
dropped ``with self._lock`` or a lock acquired in the wrong order
ships silently unless something looks for it.  This is that
something: a stdlib-``ast`` pass (no third-party dependencies, same
design as ``scripts/lint_rules.py``) with stable ``CC`` finding codes,
suppressible per line with ``# noqa: CCxxx``.

Rule families:

**Lock discipline** (per class, attributes; per function, locals)
  * ``CC101`` — write to a lock-guarded attribute/local outside the
    guarding lock.  An attribute is *guarded* once any method mutates
    it inside ``with self.<lock>``; every other mutation must then hold
    one of the guarding locks.  ``__init__``/``__post_init__``/
    ``__del__`` are exempt (the object is not shared yet / anymore),
    as are methods named ``*_locked`` (the caller-holds-the-lock
    convention).  For function-scope locals only *mutations* count
    (``x += 1``, ``d[k] = v``, ``xs.append(...)``): rebinding a name
    creates a new object and is how locals are initialized.
  * ``CC102`` — read of a lock-guarded *attribute* outside the
    guarding lock (a torn/dirty read).  Function-scope locals are not
    read-checked: reading aggregation locals after ``Thread.join()``
    is the closed-loop harness idiom and is indistinguishable
    statically.

**Async effects** (inside ``async def``)
  * ``CC201`` — blocking call on the event loop: ``time.sleep``, the
    ``subprocess`` family, ``os.system``-style process waits, sync
    socket construction, builtin ``open`` and ``pathlib`` file IO.
    Calls routed through ``loop.run_in_executor(...)`` or
    ``asyncio.to_thread(...)`` are exempt.
  * ``CC202`` — synchronous ``.result()`` on a future inside a
    coroutine: blocks the loop; ``await`` the work or wrap it.
  * ``CC203`` — fire-and-forget task: ``asyncio.create_task`` /
    ``ensure_future`` (or ``loop.create_task``) as a bare expression
    statement.  A dropped task's exception is swallowed and the task
    itself may be garbage-collected mid-flight; keep a reference.

**Lock order** (cross-module)
  * ``CC301`` — cycle in the lock-acquisition-order graph.  Edges come
    from lexically nested ``with`` blocks *and* from call edges: a
    method called while lock *A* is held that (transitively) acquires
    lock *B* contributes ``A -> B``.  Intra-class calls
    (``self.method(...)``) and calls through typed attributes
    (``self._memory = MemoryLRU(...)`` then ``self._memory.put(...)``)
    are resolved.  The same graph is exported via
    :meth:`ConcurrencyAnalyzer.lock_order_edges`.

**Resource lifetimes**
  * ``CC401`` — executor/pool/socket/server constructed without a
    guaranteed release: not under ``with``, and no ``shutdown``/
    ``close``/``terminate`` reachable on the binding (for ``self.X``
    bindings the whole class is searched, including locals aliased
    from the attribute; for locals, the enclosing function).
  * ``CC402`` — raw JSON artifact write (``json.dump(...)`` or
    ``path.write_text(json.dumps(...))``) in a function that never
    calls ``os.replace``: bypasses the store's atomic tmp +
    ``os.replace`` publish and can be read torn.  Route artifact
    writes through :func:`repro.serve.store.atomic_write_json`.

Lock identities are ``ClassName.attr`` for ``self.attr`` locks and
``function.varname`` (``Class.method.varname`` inside methods) for
locals.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

__all__ = [
    "CC_CODES",
    "ConcurrencyAnalyzer",
    "ConcurrencyFinding",
    "analyze_paths",
    "analyze_source",
]

#: stable code -> one-line description (the lint-code table in docs)
CC_CODES: Dict[str, str] = {
    "CC101": "write to a lock-guarded attribute/local outside its lock",
    "CC102": "read of a lock-guarded attribute outside its lock",
    "CC201": "blocking call inside async def",
    "CC202": "synchronous Future.result() inside async def",
    "CC203": "fire-and-forget create_task/ensure_future (result dropped)",
    "CC301": "lock-acquisition-order cycle (potential deadlock)",
    "CC401": "executor/socket/server constructed without shutdown/close",
    "CC402": "raw JSON artifact write bypassing atomic tmp+os.replace",
}

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*))?",
    re.IGNORECASE,
)

#: method names exempt from lock-discipline flagging
_EXEMPT_METHODS = ("__init__", "__post_init__", "__del__")

#: callables that construct a lock (last element of the call chain)
_LOCK_CTORS = ("Lock", "RLock")

#: container/obj methods that mutate their receiver in place
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "reverse", "rotate", "setdefault", "sort", "update",
})

#: fully-qualified call prefixes that block the event loop
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
})
_BLOCKING_MODULES = ("subprocess", "requests")

#: method names that are file IO regardless of receiver type
_BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: resource constructor -> method names that release it
_RESOURCE_CTORS: Dict[str, Tuple[str, ...]] = {
    "concurrent.futures.ThreadPoolExecutor": ("shutdown",),
    "concurrent.futures.ProcessPoolExecutor": ("shutdown",),
    "concurrent.futures.thread.ThreadPoolExecutor": ("shutdown",),
    "concurrent.futures.process.ProcessPoolExecutor": ("shutdown",),
    "multiprocessing.Pool": ("close", "terminate"),
    "multiprocessing.pool.Pool": ("close", "terminate"),
    "socket.socket": ("close", "detach"),
    "socket.create_connection": ("close", "detach"),
    "asyncio.start_server": ("close",),
}

#: wrappers that move a callable off the event loop
_EXECUTOR_WRAPPERS = frozenset({"run_in_executor", "to_thread"})

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


@dataclass(frozen=True)
class ConcurrencyFinding:
    """One static concurrency finding (CC-coded, line-addressed)."""

    path: pathlib.Path
    line: int
    code: str
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} [{self.check}] {self.message}"


def _attr_chain(node: ast.AST) -> List[str]:
    """``self._memory.put`` -> ``["self", "_memory", "put"]`` (or [])."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _unwrap_await(node: ast.AST) -> ast.AST:
    return node.value if isinstance(node, ast.Await) else node


def _noqa_codes(source_line: str) -> Optional[Set[str]]:
    """Codes suppressed on this line; empty set = suppress everything."""
    match = _NOQA_RE.search(source_line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return set()
    return {c.strip().upper() for c in codes.split(",")}


# ----------------------------------------------------------------------
# per-module facts
# ----------------------------------------------------------------------
@dataclass
class _Access:
    """One read/write of ``self.<attr>`` inside a class method."""

    attr: str
    is_write: bool
    held: Tuple[str, ...]
    method: str
    line: int


@dataclass
class _ClassScan:
    """Lock-relevant facts for one class."""

    name: str
    path: pathlib.Path
    lock_attrs: Set[str] = field(default_factory=set)
    #: self.<attr> -> constructor class name (``self._memory = MemoryLRU(...)``)
    attr_types: Dict[str, str] = field(default_factory=dict)
    accesses: List[_Access] = field(default_factory=list)
    #: method -> lock ids acquired directly (any ``with`` in its body)
    direct_locks: Dict[str, Set[str]] = field(default_factory=dict)
    #: (held, callee_class, callee_method, line) call records under lock
    lock_calls: List[Tuple[Tuple[str, ...], str, str, int]] = field(
        default_factory=list
    )
    #: self.<attr> -> release method names observed anywhere in the class
    attr_releases: Dict[str, Set[str]] = field(default_factory=dict)
    method_names: Set[str] = field(default_factory=set)


@dataclass
class _ModuleScan:
    """Everything one source file contributes to the analysis."""

    path: pathlib.Path
    lines: List[str]
    imports: "_ImportMap"
    findings: List[ConcurrencyFinding] = field(default_factory=list)
    classes: List[_ClassScan] = field(default_factory=list)
    #: (outer, inner) -> site of a lexically nested acquisition
    nested_edges: Dict[Tuple[str, str], Tuple[pathlib.Path, int]] = field(
        default_factory=dict
    )


class _ImportMap:
    """Resolve local names to dotted module paths (``np`` -> ``numpy``)."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call(self, chain: List[str]) -> Optional[str]:
        """Dotted path of a call chain, or ``None`` if not import-rooted."""
        if not chain:
            return None
        head, rest = chain[0], chain[1:]
        if head in self.modules:
            return ".".join([self.modules[head], *rest])
        if head in self.names:
            return ".".join([self.names[head], *rest])
        return None


def _is_lock_ctor(node: ast.AST) -> bool:
    node = _unwrap_await(node)
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    return bool(chain) and chain[-1] in _LOCK_CTORS


def _target_write_roots(
    target: ast.AST,
) -> Iterator[Tuple[str, str]]:
    """Yield ``(kind, root)`` for every store target in *target*.

    ``kind`` is ``"attr"`` for ``self.<root>...`` chains, ``"name"``
    for plain-name roots (mutations like ``d[k] = v`` report the name
    ``d``; a bare rebind ``x = v`` reports kind ``"rebind"``).
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_write_roots(element)
    elif isinstance(target, ast.Starred):
        yield from _target_write_roots(target.value)
    elif isinstance(target, ast.Name):
        yield "rebind", target.id
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        node: ast.AST = target
        saw_subscript = False
        while isinstance(node, ast.Subscript):
            saw_subscript = True
            node = node.value
        chain = _attr_chain(node)
        if len(chain) >= 2 and chain[0] == "self":
            yield "attr", chain[1]
        elif len(chain) == 1:
            # plain-name root: x[k] = v mutates, x.f = v mutates
            if saw_subscript or isinstance(target, ast.Attribute):
                yield "name", chain[0]


class _FunctionLockWalker(ast.NodeVisitor):
    """Walk one function/method body tracking the held-lock stack.

    Collects, in a single pass: self-attribute accesses (class
    context), function-local mutations, direct lock acquisitions,
    nested-with order edges, and under-lock call records.
    """

    def __init__(
        self,
        module: _ModuleScan,
        cls: Optional[_ClassScan],
        method: str,
        local_locks: Dict[str, str],
    ) -> None:
        self.module = module
        self.cls = cls
        self.method = method
        self.local_locks = local_locks
        self.held: List[str] = []
        #: name -> (is_mutation_under_lock sites / unguarded sites)
        self.local_mutations: List[Tuple[str, Tuple[str, ...], int]] = []

    # -- helpers -------------------------------------------------------
    def _lock_id(self, expr: ast.AST) -> Optional[str]:
        chain = _attr_chain(expr)
        if (
            self.cls is not None
            and len(chain) == 2
            and chain[0] == "self"
            and chain[1] in self.cls.lock_attrs
        ):
            return f"{self.cls.name}.{chain[1]}"
        if len(chain) == 1 and chain[0] in self.local_locks:
            return self.local_locks[chain[0]]
        return None

    def _record_attr(self, attr: str, is_write: bool, line: int) -> None:
        if self.cls is None or attr in self.cls.lock_attrs:
            return
        self.cls.accesses.append(
            _Access(attr, is_write, tuple(self.held), self.method, line)
        )

    def _record_write_target(self, target: ast.AST, line: int) -> None:
        for kind, root in _target_write_roots(target):
            if kind == "attr":
                self._record_attr(root, True, line)
            elif kind == "name":
                self.local_mutations.append((root, tuple(self.held), line))
        # subscript slices and attribute bases carry reads of their own
        for child in ast.walk(target):
            if isinstance(child, ast.Subscript):
                self.visit(child.slice)

    # -- statements ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write_target(target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write_target(node.target, node.lineno)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for kind, root in _target_write_roots(node.target):
            if kind == "attr":
                self._record_attr(root, True, node.lineno)
                self._record_attr(root, False, node.lineno)
            elif kind in ("name", "rebind"):
                # x += 1 reads-modifies-writes the existing binding:
                # treat as a mutation even for a plain name
                self.local_mutations.append(
                    (root, tuple(self.held), node.lineno)
                )
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write_target(target, node.lineno)

    def _with_items(self, node: "ast.With | ast.AsyncWith") -> None:
        acquired: List[str] = []
        for item in node.items:
            lock = self._lock_id(item.context_expr)
            if lock is None:
                self.visit(item.context_expr)
                continue
            for outer in self.held:
                self.module.nested_edges.setdefault(
                    (outer, lock), (self.module.path, item.context_expr.lineno)
                )
            if self.cls is not None:
                self.cls.direct_locks.setdefault(self.method, set()).add(lock)
            self.held.append(lock)
            acquired.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        for lock in reversed(acquired):
            self.held.remove(lock)

    def visit_With(self, node: ast.With) -> None:
        self._with_items(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with_items(node)

    # -- expressions ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        handled_func = False
        if self.cls is not None and len(chain) == 3 and chain[0] == "self" \
                and chain[2] in _MUTATORS:
            # self.<attr>.append(...) mutates self.<attr>
            self._record_attr(chain[1], True, node.lineno)
            handled_func = True
        elif len(chain) == 2 and chain[1] in _MUTATORS \
                and chain[0] not in self.local_locks:
            self.local_mutations.append(
                (chain[0], tuple(self.held), node.lineno)
            )
            handled_func = True
        if self.held and self.cls is not None and len(chain) >= 2 \
                and chain[0] == "self":
            if len(chain) == 2:
                self.cls.lock_calls.append(
                    (tuple(self.held), self.cls.name, chain[1], node.lineno)
                )
            elif len(chain) == 3 and chain[1] in self.cls.attr_types:
                self.cls.lock_calls.append(
                    (
                        tuple(self.held),
                        self.cls.attr_types[chain[1]],
                        chain[2],
                        node.lineno,
                    )
                )
        if not handled_func:
            self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _attr_chain(node)
        if len(chain) >= 2 and chain[0] == "self":
            self._record_attr(chain[1], False, node.lineno)
            return
        self.generic_visit(node)

    # nested defs share the enclosing discipline context (closures over
    # the same locals/attributes), but keep the outer method name so
    # exemptions stay keyed on the real method
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


class _AsyncEffectsVisitor(ast.NodeVisitor):
    """CC201/CC202 checks inside one ``async def`` body."""

    def __init__(self, module: _ModuleScan) -> None:
        self.module = module

    def _flag(self, node: ast.AST, code: str, check: str, msg: str) -> None:
        self.module.findings.append(
            ConcurrencyFinding(
                self.module.path, getattr(node, "lineno", 0), code, check, msg
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain and chain[-1] in _EXECUTOR_WRAPPERS:
            # args are shipped off-loop; only descend into the receiver
            self.visit(node.func)
            return
        resolved = self.module.imports.resolve_call(chain)
        if resolved is not None:
            if resolved in _BLOCKING_CALLS or resolved.split(".")[0] in \
                    _BLOCKING_MODULES:
                self._flag(
                    node, "CC201", "blocking-call-in-async",
                    f"{resolved} blocks the event loop; use "
                    "loop.run_in_executor(...) or asyncio.to_thread(...)",
                )
        elif chain == ["open"]:
            self._flag(
                node, "CC201", "blocking-call-in-async",
                "open() blocks the event loop; use run_in_executor or "
                "asyncio.to_thread",
            )
        elif len(chain) >= 2 and chain[-1] in _BLOCKING_METHODS:
            self._flag(
                node, "CC201", "blocking-call-in-async",
                f"{'.'.join(chain)} is synchronous file IO on the event "
                "loop; use run_in_executor or asyncio.to_thread",
            )
        elif len(chain) >= 2 and chain[-1] == "result" and not node.args \
                and not node.keywords:
            self._flag(
                node, "CC202", "sync-future-wait-in-async",
                f"{'.'.join(chain)}() blocks the coroutine on a future; "
                "await it (or wrap with asyncio.wrap_future)",
            )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # sync helper: runs wherever it is called, not on the loop

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass  # visited as its own root


def find_cycle(edges: Iterable[Tuple[str, str]]) -> Optional[List[str]]:
    """A cycle in the directed graph *edges*, or ``None``.

    Returns the cycle as a node list ``[a, b, ..., a]`` (first node
    repeated at the end).  Deterministic: neighbors are explored in
    sorted order, so the same graph always reports the same cycle.
    """
    adjacency: Dict[str, List[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
    for neighbors in adjacency.values():
        neighbors.sort()

    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    parent: Dict[str, str] = {}

    def visit(root: str) -> Optional[List[str]]:
        stack: List[Tuple[str, Iterable[str]]] = [
            (root, iter(adjacency.get(root, ())))
        ]
        color[root] = GRAY
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                state = color.get(nxt, WHITE)
                if state == GRAY:  # back edge: walk parents to recover
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
        return None

    for start in sorted(adjacency):
        if color.get(start, WHITE) == WHITE:
            cycle = visit(start)
            if cycle is not None:
                return cycle
    return None


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------
class ConcurrencyAnalyzer:
    """Multi-file concurrency analysis with a cross-module lock graph.

    Feed it sources (:meth:`add_source` / :meth:`add_paths`), then call
    :meth:`analyze` for findings.  :meth:`lock_order_edges` exposes the
    static acquisition graph.
    """

    def __init__(self) -> None:
        self._modules: List[_ModuleScan] = []

    # -- input ---------------------------------------------------------
    def add_source(
        self, source: str, path: pathlib.Path = pathlib.Path("<string>")
    ) -> None:
        path = pathlib.Path(path)
        lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            module = _ModuleScan(
                path, lines, _ImportMap(ast.Module(body=[], type_ignores=[]))
            )
            module.findings.append(
                ConcurrencyFinding(
                    path, exc.lineno or 0, "CC000", "syntax-error",
                    f"could not parse: {exc.msg}",
                )
            )
            self._modules.append(module)
            return
        module = _ModuleScan(path, lines, _ImportMap(tree))
        self._scan_classes(module, tree)
        self._scan_functions(module, tree)
        self._scan_async(module, tree)
        self._scan_spawns(module, tree)
        self._modules.append(module)

    def add_paths(self, paths: Sequence[pathlib.Path]) -> None:
        for file_path in _iter_python_files(paths):
            self.add_source(
                file_path.read_text(encoding="utf-8"), file_path
            )

    # -- per-module scans ----------------------------------------------
    def _scan_classes(self, module: _ModuleScan, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = _ClassScan(node.name, module.path)
            methods = [
                child for child in node.body
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            ]
            cls.method_names = {m.name for m in methods}
            # pass 1: lock attributes + attribute construction types
            for method in methods:
                for stmt in ast.walk(method):
                    value: Optional[ast.AST]
                    if isinstance(stmt, ast.Assign):
                        targets, value = stmt.targets, stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        targets, value = [stmt.target], stmt.value
                    else:
                        continue
                    if value is None:
                        continue
                    for target in targets:
                        chain = _attr_chain(target)
                        if len(chain) != 2 or chain[0] != "self":
                            continue
                        if _is_lock_ctor(value):
                            cls.lock_attrs.add(chain[1])
                        else:
                            ctor = _unwrap_await(value)
                            if isinstance(ctor, ast.Call):
                                ctor_chain = _attr_chain(ctor.func)
                                if ctor_chain:
                                    cls.attr_types[chain[1]] = ctor_chain[-1]
            # pass 2: accesses / acquisitions / release calls
            for method in methods:
                local_locks = _local_lock_vars(
                    method, prefix=f"{cls.name}.{method.name}"
                )
                walker = _FunctionLockWalker(
                    module, cls, method.name, local_locks
                )
                for stmt in method.body:
                    walker.visit(stmt)
                _collect_releases(cls, method)
            module.classes.append(cls)
            self._check_class_discipline(module, cls)

    def _check_class_discipline(
        self, module: _ModuleScan, cls: _ClassScan
    ) -> None:
        if not cls.lock_attrs:
            return
        guarded: Dict[str, Set[str]] = {}
        for access in cls.accesses:
            if access.is_write and access.held:
                guarded.setdefault(access.attr, set()).update(access.held)
        for access in cls.accesses:
            guards = guarded.get(access.attr)
            if not guards:
                continue
            if access.method in _EXEMPT_METHODS or \
                    access.method.endswith("_locked"):
                continue
            if set(access.held) & guards:
                continue
            kind = "write" if access.is_write else "read"
            code = "CC101" if access.is_write else "CC102"
            module.findings.append(
                ConcurrencyFinding(
                    module.path, access.line, code, f"unguarded-{kind}",
                    f"{cls.name}.{access.attr} is guarded by "
                    f"{', '.join(sorted(guards))} elsewhere but {kind} "
                    f"here in {access.method}() without it",
                )
            )

    def _scan_functions(self, module: _ModuleScan, tree: ast.Module) -> None:
        class_funcs = {
            id(child)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        all_funcs = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        top_funcs = [f for f in all_funcs if id(f) not in class_funcs]
        nested = {
            id(inner)
            for outer in all_funcs
            for inner in ast.walk(outer)
            if inner is not outer
            and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for func in all_funcs:
            if id(func) in nested:
                continue  # handled inside their enclosing function's walk
            self._check_resources(module, func)
            self._check_atomic_writes(module, func)
        for func in top_funcs:
            if id(func) in nested:
                continue
            local_locks = _local_lock_vars(func, prefix=func.name)
            if not local_locks:
                continue
            walker = _FunctionLockWalker(module, None, func.name, local_locks)
            for stmt in func.body:
                walker.visit(stmt)
            guarded: Dict[str, Set[str]] = {}
            for name, held, _ in walker.local_mutations:
                if held:
                    guarded.setdefault(name, set()).update(held)
            for name, held, line in walker.local_mutations:
                guards = guarded.get(name)
                if not guards or set(held) & guards:
                    continue
                module.findings.append(
                    ConcurrencyFinding(
                        module.path, line, "CC101", "unguarded-write",
                        f"local {name!r} is mutated under "
                        f"{', '.join(sorted(guards))} elsewhere in "
                        f"{func.name}() but mutated here without it",
                    )
                )

    def _scan_async(self, module: _ModuleScan, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                visitor = _AsyncEffectsVisitor(module)
                for stmt in node.body:
                    visitor.visit(stmt)

    def _scan_spawns(self, module: _ModuleScan, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            chain = _attr_chain(node.value.func)
            if chain and chain[-1] in _TASK_SPAWNERS:
                module.findings.append(
                    ConcurrencyFinding(
                        module.path, node.lineno, "CC203",
                        "fire-and-forget-task",
                        f"{'.'.join(chain)}(...) result is dropped: the "
                        "task can be garbage-collected mid-flight and its "
                        "exception is silently lost; keep a reference",
                    )
                )

    def _check_resources(
        self, module: _ModuleScan, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        with_managed: Set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed = _unwrap_await(item.context_expr)
                    if isinstance(managed, ast.Call):
                        with_managed.add(id(managed))

        local_released: Dict[str, Set[str]] = {}
        returned: Set[str] = set()
        self_assigned_from: Dict[str, str] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if len(chain) >= 2:
                    local_released.setdefault(chain[0], set()).add(chain[-1])
            elif isinstance(node, ast.Return) and node.value is not None:
                for name in _attr_chain(node.value)[:1]:
                    returned.add(name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target_chain = _attr_chain(node.targets[0])
                value_chain = _attr_chain(node.value)
                if len(target_chain) == 2 and target_chain[0] == "self" \
                        and len(value_chain) == 1:
                    self_assigned_from[value_chain[0]] = target_chain[1]

        for node in ast.walk(func):
            stmts: List[Tuple[ast.Call, Optional[List[str]]]] = []
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                value = _unwrap_await(node.value)
                if isinstance(value, ast.Call):
                    stmts.append((value, _attr_chain(node.targets[0])))
            elif isinstance(node, ast.Expr):
                value = _unwrap_await(node.value)
                if isinstance(value, ast.Call):
                    stmts.append((value, None))
            for call, target_chain in stmts:
                if id(call) in with_managed:
                    continue
                resolved = module.imports.resolve_call(_attr_chain(call.func))
                releases = _RESOURCE_CTORS.get(resolved or "")
                if releases is None:
                    continue
                short = (resolved or "").rsplit(".", 1)[-1]
                release_names = "/".join(releases)
                if target_chain is None:
                    self._resource_finding(
                        module, call, short, release_names,
                        "constructed and immediately dropped",
                    )
                elif len(target_chain) == 2 and target_chain[0] == "self":
                    attr = target_chain[1]
                    released = self._class_releases(module, func, attr)
                    if not released & set(releases):
                        self._resource_finding(
                            module, call, short, release_names,
                            f"bound to self.{attr} but no method ever "
                            f"calls {release_names} on it",
                        )
                elif len(target_chain) == 1:
                    name = target_chain[0]
                    released = local_released.get(name, set())
                    attr_alias = self_assigned_from.get(name)
                    if attr_alias is not None:
                        released |= self._class_releases(
                            module, func, attr_alias
                        )
                    if name not in returned and not released & set(releases):
                        self._resource_finding(
                            module, call, short, release_names,
                            f"bound to {name!r} but never released in "
                            "this function (and not returned)",
                        )

    def _resource_finding(
        self, module: _ModuleScan, node: ast.Call, ctor: str,
        releases: str, detail: str,
    ) -> None:
        module.findings.append(
            ConcurrencyFinding(
                module.path, node.lineno, "CC401", "resource-leak",
                f"{ctor}(...) {detail}; use a with-block or guarantee "
                f"{releases} on every path",
            )
        )

    def _class_releases(
        self, module: _ModuleScan,
        func: "ast.FunctionDef | ast.AsyncFunctionDef", attr: str,
    ) -> Set[str]:
        for cls in module.classes:
            if func.name in cls.method_names:
                return cls.attr_releases.get(attr, set())
        return set()

    def _check_atomic_writes(
        self, module: _ModuleScan, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        imports = module.imports
        candidates: List[Tuple[ast.Call, str]] = []
        has_replace = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            resolved = imports.resolve_call(chain)
            if resolved == "os.replace":
                has_replace = True
            elif resolved == "json.dump":
                candidates.append((node, "json.dump to an open file handle"))
            elif chain and chain[-1] == "write_text" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Call) and \
                        imports.resolve_call(_attr_chain(arg.func)) == \
                        "json.dumps":
                    candidates.append(
                        (node, "write_text(json.dumps(...))")
                    )
        if has_replace:
            return  # this function IS an atomic-publish implementation
        for call, what in candidates:
            module.findings.append(
                ConcurrencyFinding(
                    module.path, call.lineno, "CC402", "non-atomic-write",
                    f"{what} publishes a JSON artifact non-atomically "
                    "(readers can see a torn file); use "
                    "repro.serve.store.atomic_write_json",
                )
            )

    # -- cross-module lock-order graph ---------------------------------
    def lock_order_edges(
        self,
    ) -> Dict[Tuple[str, str], Tuple[pathlib.Path, int]]:
        """Static ``outer -> inner`` acquisition edges with one site each.

        Union of lexically nested ``with`` blocks and call-derived
        edges (lock held at a call site x locks the callee eventually
        acquires, via a transitive-closure fixpoint over resolvable
        intra-class / typed-attribute calls).
        """
        edges: Dict[Tuple[str, str], Tuple[pathlib.Path, int]] = {}
        for module in self._modules:
            edges.update(module.nested_edges)

        classes: Dict[str, List[_ClassScan]] = {}
        for module in self._modules:
            for cls in module.classes:
                classes.setdefault(cls.name, []).append(cls)

        # Fixpoint over "locks this method eventually acquires": seed
        # with each method's direct acquisitions, then fold in every
        # resolvable callee's eventual set until stable.  Call records
        # are keyed by the method they appear in so the caller inherits
        # transitively-acquired locks too.
        eventual: Dict[Tuple[str, str], Set[str]] = {}
        for scans in classes.values():
            for cls in scans:
                for method, locks in cls.direct_locks.items():
                    eventual.setdefault((cls.name, method), set()).update(
                        locks
                    )
        call_records: List[
            Tuple[_ClassScan, Tuple[str, ...], str, str, int]
        ] = []
        for scans in classes.values():
            for cls in scans:
                for held, callee_cls, callee, line in cls.lock_calls:
                    call_records.append((cls, held, callee_cls, callee, line))

        call_edges: Dict[Tuple[str, str], Tuple[pathlib.Path, int]] = {}
        changed = True
        while changed:
            changed = False
            for cls, held, callee_cls, callee, line in call_records:
                callee_locks: Set[str] = set()
                for target in classes.get(callee_cls, []):
                    callee_locks |= eventual.get(
                        (target.name, callee), set()
                    )
                if not callee_locks:
                    continue
                for outer in held:
                    for inner in callee_locks:
                        if outer == inner:
                            continue  # re-entry is a self-deadlock,
                            # not an ordering cycle
                        edge = (outer, inner)
                        if edge not in call_edges:
                            call_edges[edge] = (cls.path, line)
                            changed = True
        edges.update(call_edges)
        return edges

    # -- output --------------------------------------------------------
    def analyze(self) -> List[ConcurrencyFinding]:
        """All surviving findings, path/line-ordered, ``noqa`` applied."""
        findings: List[ConcurrencyFinding] = []
        for module in self._modules:
            findings.extend(module.findings)
        findings.extend(self._cycle_findings())
        lines_for: Dict[pathlib.Path, List[str]] = {
            module.path: module.lines for module in self._modules
        }
        survivors = []
        for finding in findings:
            lines = lines_for.get(finding.path, [])
            line = (
                lines[finding.line - 1]
                if 0 < finding.line <= len(lines) else ""
            )
            suppressed = _noqa_codes(line)
            if suppressed is not None and (
                not suppressed or finding.code in suppressed
            ):
                continue
            survivors.append(finding)
        survivors.sort(key=lambda f: (str(f.path), f.line, f.code))
        return survivors

    def _cycle_findings(self) -> List[ConcurrencyFinding]:
        edges = self.lock_order_edges()
        findings: List[ConcurrencyFinding] = []
        remaining = dict(edges)
        seen_cycles: Set[Tuple[str, ...]] = set()
        while True:
            cycle = find_cycle(remaining)
            if cycle is None:
                break
            canon = _canonical_cycle(cycle)
            cycle_edges = list(zip(cycle, cycle[1:]))
            site = min(
                (remaining[e] for e in cycle_edges if e in remaining),
                key=lambda s: (str(s[0]), s[1]),
                default=(pathlib.Path("<unknown>"), 0),
            )
            if canon not in seen_cycles:
                seen_cycles.add(canon)
                findings.append(
                    ConcurrencyFinding(
                        site[0], site[1], "CC301", "lock-order-cycle",
                        "potential deadlock: locks are acquired in a "
                        f"cyclic order {' -> '.join(cycle)}",
                    )
                )
            for edge in cycle_edges:  # break the cycle, look for more
                remaining.pop(edge, None)
        return findings


def _canonical_cycle(cycle: List[str]) -> Tuple[str, ...]:
    nodes = cycle[:-1]
    pivot = nodes.index(min(nodes))
    return tuple(nodes[pivot:] + nodes[:pivot])


def _local_lock_vars(
    func: "ast.FunctionDef | ast.AsyncFunctionDef", prefix: str
) -> Dict[str, str]:
    """Function-local ``x = threading.Lock()`` vars -> lock identity."""
    locks: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_lock_ctor(node.value):
            locks[node.targets[0].id] = f"{prefix}.{node.targets[0].id}"
    return locks


def _collect_releases(
    cls: _ClassScan, method: "ast.FunctionDef | ast.AsyncFunctionDef"
) -> None:
    """Record release-ish calls on ``self.<attr>`` (or local aliases)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            chain = _attr_chain(node.value)
            if len(chain) == 2 and chain[0] == "self":
                aliases[node.targets[0].id] = chain[1]
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if len(chain) == 3 and chain[0] == "self":
            cls.attr_releases.setdefault(chain[1], set()).add(chain[2])
        elif len(chain) == 2 and chain[0] in aliases:
            cls.attr_releases.setdefault(
                aliases[chain[0]], set()
            ).add(chain[1])


def _iter_python_files(
    paths: Sequence[pathlib.Path],
) -> Iterator[pathlib.Path]:
    for path in paths:
        path = pathlib.Path(path)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


# ----------------------------------------------------------------------
# convenience entry points
# ----------------------------------------------------------------------
def analyze_source(
    source: str, path: pathlib.Path = pathlib.Path("<string>")
) -> List[ConcurrencyFinding]:
    """Findings for a single in-memory module (fixture/test helper)."""
    analyzer = ConcurrencyAnalyzer()
    analyzer.add_source(source, path)
    return analyzer.analyze()


def analyze_paths(
    paths: Sequence[pathlib.Path],
) -> List[ConcurrencyFinding]:
    """Findings for files/directories (cross-module lock graph included)."""
    analyzer = ConcurrencyAnalyzer()
    analyzer.add_paths(paths)
    return analyzer.analyze()


def render_findings(findings: Sequence[ConcurrencyFinding]) -> str:
    """One line per finding plus a per-code summary (CLI output body)."""
    lines = [finding.render() for finding in findings]
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    if counts:
        breakdown = ", ".join(
            f"{code}: {count}" for code, count in sorted(counts.items())
        )
        lines.append(f"{len(findings)} finding(s) ({breakdown})")
    return "\n".join(lines)
