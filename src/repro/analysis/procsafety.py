"""Layer 3 — concurrency & resource-lifecycle analyzer (``procsafety``).

PRs 5–6 made the reproduction genuinely concurrent: fork-based
:class:`~repro.engine.ShardedExecutor` worker servers, a shared-memory /
mmap graph store with a publish/attach/unlink lifecycle, and a threaded
serve queue.  The plan checker statically proves the *simulated* kernels
race-free; this layer applies the same discipline to the host-side
runtime.  Four rule families (all ERROR severity, all waivable with
``# lint: allow(<rule>) <reason>``):

Fork safety
    * ``procsafety/thread-before-fork`` — a ``threading.Thread`` created
      in a function that later spawns fork-context worker processes: the
      forked children inherit the thread's locks in whatever state the
      fork caught them (CPython forks only the calling thread).
    * ``procsafety/module-lock-with-fork`` — a module-level
      ``Lock``/``RLock``/``Condition`` in a module that creates a
      fork-context: the lock's state is duplicated into every child.
    * ``procsafety/tracer-not-restored`` — ``set_tracer(x)`` called with
      no paired restore: global tracer state mutated across a fork (or a
      helper) without reset leaks spans onto the wrong timeline.

Shared-store lifecycle
    * ``procsafety/leaked-resource-on-error`` — ``f = open(...)`` inside
      a ``try`` body followed by more fallible statements, with no
      handler closing ``f``: the descriptor leaks on every error path.
    * ``procsafety/write-readonly-view`` — a ``np.frombuffer`` view
      written through after ``setflags(write=False)``: raises
      ``ValueError`` at runtime on the attached-segment path.
    * ``procsafety/publish-without-cleanup`` — a module creating
      ``SharedMemory(create=True)`` segments with no ``unlink`` call
      anywhere: segments outlive the run (``/dev/shm`` fills up).
    * ``procsafety/handle-without-gate`` — a ``store.publish(...)`` call
      in a function that never consults ``ships_work``: publishing for
      an inline executor is pure overhead (the handle never crosses a
      process boundary).

Lock discipline
    * ``procsafety/lock-order-cycle`` — two locks of one class acquired
      in both orders on different paths: the classic ABBA deadlock.
    * ``procsafety/nested-lock-call`` — calling a sibling method that
      acquires lock B while holding lock A: invisible nesting, the way
      lock-order cycles are born.
    * ``procsafety/blocking-under-lock`` — file I/O, ``unlink``/
      ``remove``, ``sleep`` or pool fan-out while holding a lock: every
      other thread stalls for the duration.

Config drift
    * ``procsafety/env-drift`` — a literal ``REPRO_*`` environment name
      (via ``os.environ``/``os.getenv`` or the ``repro.config`` helpers)
      that is not declared in :data:`repro.config.registry.ENV_VARS`.

The analysis is intraprocedural AST matching plus one level of
same-class method resolution — deliberately simple, deterministic and
fast; the adversarial fixtures under ``analysis/fixtures/procsafety/``
are the negative controls CI runs against every rule.
"""

from __future__ import annotations

import ast

from ..config.registry import declared
from .diagnostics import ERROR, Diagnostic
from .lint import iter_python_files
from .waivers import PROCSAFETY_RULES, WaiverSet, collect_waivers

#: threading constructors whose instances the lock rules track.
_LOCK_CTORS = {"Lock", "RLock", "Condition"}

#: Call attribute names treated as blocking while a lock is held.
#: Attribute calls blocking on *any* receiver (segment/Path/shm unlink).
_BLOCKING_ANY_ATTRS = {"unlink"}

#: Attribute calls blocking only as os/shutil/time module functions —
#: requiring the module receiver keeps ``list.remove``/``str.replace``
#: (same attribute names, pure CPU) out of the rule.
_BLOCKING_MODULE_ATTRS = {
    "remove", "makedirs", "rmtree", "replace", "rename", "sleep",
}
_BLOCKING_MODULES = {"os", "shutil", "time"}

#: Bare-name calls treated as blocking while a lock is held.
_BLOCKING_NAMES = {"open"}

#: repro.config reader helpers whose first argument is an env-var name.
_ENV_HELPERS = {"env_str", "env_int", "env_flag"}


def _attr_chain(node: ast.AST) -> list[str]:
    """``os.environ.get`` -> ["os", "environ", "get"] (empty if dynamic)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _walk_shallow(node: ast.AST):
    """Every descendant of ``node`` without entering nested scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        yield child
        yield from _walk_shallow(child)


def _is_lock_ctor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    chain = _attr_chain(value.func)
    return bool(chain) and chain[-1] in _LOCK_CTORS and (
        len(chain) == 1 or chain[0] == "threading"
    )


def _is_fork_spawn(call: ast.Call) -> bool:
    """``get_context("fork")`` or a ``ctx.Process(...)`` construction."""
    chain = _attr_chain(call.func)
    if not chain:
        return False
    if chain[-1] == "get_context" and call.args:
        return _const_str(call.args[0]) == "fork"
    return chain[-1] == "Process" and len(chain) >= 2


class _Analyzer:
    """One module's procsafety pass."""

    def __init__(self, tree: ast.Module, path: str, waivers: WaiverSet):
        self.tree = tree
        self.path = path
        self.waivers = waivers
        self.diags: list[Diagnostic] = []

    def _report(self, line: int, rule: str, message: str, hint: str) -> None:
        short = rule.split("/", 1)[1]
        if self.waivers.suppresses(line, short):
            return
        self.diags.append(
            Diagnostic(
                rule, ERROR, self.path, message,
                location=f"line {line}", hint=hint,
            )
        )

    # -- driver ---------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        self._module_rules()
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function_rules(node)
            elif isinstance(node, ast.ClassDef):
                self._lock_rules(node)
            elif isinstance(node, ast.Try):
                self._leak_rule(node)
        self._env_rule()
        self.diags.sort(key=lambda d: int(d.location.split()[-1]))
        return self.diags

    # -- module-scope rules ---------------------------------------------
    def _module_rules(self) -> None:
        forks = [
            n for n in ast.walk(self.tree)
            if isinstance(n, ast.Call)
            and _attr_chain(n.func)[-1:] == ["get_context"]
            and n.args and _const_str(n.args[0]) == "fork"
        ]
        if forks:
            for stmt in self.tree.body:
                if isinstance(stmt, ast.Assign) and _is_lock_ctor(stmt.value):
                    self._report(
                        stmt.lineno,
                        "procsafety/module-lock-with-fork",
                        "module-level lock in a module that forks worker "
                        "processes: children inherit its state as of the "
                        "fork",
                        "move the lock into the object that owns the fork, "
                        "or re-create it in the child after fork",
                    )

        shm_creates = [
            n for n in ast.walk(self.tree)
            if isinstance(n, ast.Call)
            and _attr_chain(n.func)[-1:] == ["SharedMemory"]
            and any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in n.keywords
            )
        ]
        if shm_creates:
            has_unlink = any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "unlink"
                for n in ast.walk(self.tree)
            )
            if not has_unlink:
                for call in shm_creates:
                    self._report(
                        call.lineno,
                        "procsafety/publish-without-cleanup",
                        "SharedMemory(create=True) with no unlink anywhere "
                        "in the module: segments outlive the process",
                        "unlink every published segment on shutdown (and "
                        "register an atexit net)",
                    )

    # -- function-scope rules -------------------------------------------
    def _function_rules(self, fn: ast.AST) -> None:
        thread_lines: list[int] = []
        set_tracer_calls: list[ast.Call] = []
        frombuffer_names: set[str] = set()
        readonly_since: dict[str, int] = {}
        publish_calls: list[ast.Call] = []
        has_gate = False

        for node in _walk_shallow(fn):
            if isinstance(node, ast.Attribute) and node.attr == "ships_work":
                has_gate = True
            if isinstance(node, ast.Constant) and node.value == "ships_work":
                has_gate = True
            if isinstance(node, ast.Assign):
                if (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and _attr_chain(node.value.func)[-1:] == ["frombuffer"]
                ):
                    frombuffer_names.add(node.targets[0].id)
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in readonly_since
                        and node.lineno > readonly_since[target.value.id]
                    ):
                        self._report(
                            node.lineno,
                            "procsafety/write-readonly-view",
                            f"write into {target.value.id!r} after "
                            "setflags(write=False): raises ValueError at "
                            "runtime",
                            "fill the view first, then mark it read-only",
                        )
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain[-2:] == ["threading", "Thread"] or chain == ["Thread"]:
                thread_lines.append(node.lineno)
            elif thread_lines and _is_fork_spawn(node):
                if min(thread_lines) < node.lineno:
                    self._report(
                        node.lineno,
                        "procsafety/thread-before-fork",
                        f"fork-context worker spawn after a thread was "
                        f"created at line {min(thread_lines)}: the child "
                        "inherits any lock that thread holds at fork time",
                        "fork the workers first, then start threads "
                        "(pre-start executors before spawning threads)",
                    )
            if chain[-1:] == ["set_tracer"]:
                set_tracer_calls.append(node)
            if (
                chain[-1:] == ["setflags"]
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in frombuffer_names
            ):
                frozen = any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                ) or (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is False
                )
                if frozen:
                    readonly_since[node.func.value.id] = node.lineno
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "publish"
                and not (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                )
            ):
                publish_calls.append(node)

        non_none_sets = [
            c for c in set_tracer_calls
            if c.args and not (
                isinstance(c.args[0], ast.Constant) and c.args[0].value is None
            )
        ]
        if len(set_tracer_calls) == 1 and non_none_sets:
            self._report(
                non_none_sets[0].lineno,
                "procsafety/tracer-not-restored",
                "set_tracer(...) installs global tracer state with no "
                "paired restore in this function",
                "save get_tracer() first and restore it in a finally block",
            )

        if not has_gate:
            for call in publish_calls:
                self._report(
                    call.lineno,
                    "procsafety/handle-without-gate",
                    "store publish without consulting the executor's "
                    "ships_work gate: handles shipped to an inline "
                    "executor are pure overhead",
                    "gate publishing on getattr(executor, 'ships_work', "
                    "False)",
                )

    # -- resource-leak rule ---------------------------------------------
    def _leak_rule(self, node: ast.Try) -> None:
        for i, stmt in enumerate(node.body):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "open"
            ):
                continue
            if i == len(node.body) - 1:
                continue  # nothing fallible follows inside the try
            name = stmt.targets[0].id
            closed = any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "close"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == name
                for handler in node.handlers
                for n in ast.walk(handler)
            )
            if not closed:
                self._report(
                    stmt.lineno,
                    "procsafety/leaked-resource-on-error",
                    f"{name!r} opened inside a try whose later statements "
                    "can raise, and no handler closes it: the descriptor "
                    "leaks on every error path",
                    f"close {name!r} in the handler before re-raising "
                    "(or split the open into its own try)",
                )

    # -- lock rules (class scope) ---------------------------------------
    def _lock_rules(self, cls: ast.ClassDef) -> None:
        methods = {
            m.name: m
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        lock_attrs: set[str] = set()
        for m in methods.values():
            for node in ast.walk(m):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and _is_lock_ctor(node.value)
                ):
                    lock_attrs.add(node.targets[0].attr)
        if not lock_attrs:
            return

        def acquired_locks(withitem: ast.withitem) -> list[str]:
            expr = withitem.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in lock_attrs
            ):
                return [expr.attr]
            return []

        method_locks: dict[str, set[str]] = {}
        for name, m in methods.items():
            held: set[str] = set()
            for node in ast.walk(m):
                if isinstance(node, ast.With):
                    for item in node.items:
                        held.update(acquired_locks(item))
            method_locks[name] = held

        #: (outer, inner) -> first line it was seen at.
        pairs: dict[tuple[str, str], int] = {}

        def scan(node: ast.AST, held: list[str]) -> None:
            if isinstance(
                node,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Lambda,
                ),
            ):
                return
            if isinstance(node, ast.With):
                acquired = [
                    a for item in node.items for a in acquired_locks(item)
                ]
                for outer in held:
                    for inner in acquired:
                        pairs.setdefault((outer, inner), node.lineno)
                for stmt in node.body:
                    scan(stmt, held + acquired)
                return
            if held and isinstance(node, ast.Call):
                self._call_under_lock(node, held, methods, method_locks,
                                      pairs)
            for child in ast.iter_child_nodes(node):
                scan(child, held)

        for m in methods.values():
            for stmt in m.body:
                scan(stmt, [])

        flagged: set[frozenset] = set()
        for (a, b), line in sorted(pairs.items(), key=lambda kv: kv[1]):
            if a != b and (b, a) in pairs:
                key = frozenset((a, b))
                if key in flagged:
                    continue
                flagged.add(key)
                other = pairs[(b, a)]
                self._report(
                    max(line, other),
                    "procsafety/lock-order-cycle",
                    f"locks {a!r} and {b!r} are acquired in both orders "
                    f"(lines {min(line, other)} and {max(line, other)}): "
                    "ABBA deadlock",
                    "pick one acquisition order and hold to it everywhere",
                )

    def _call_under_lock(
        self,
        call: ast.Call,
        held: list[str],
        methods: dict,
        method_locks: dict[str, set[str]],
        pairs: dict[tuple[str, str], int],
    ) -> None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_NAMES:
            self._report(
                call.lineno,
                "procsafety/blocking-under-lock",
                f"{func.id}(...) called while holding lock "
                f"{held[-1]!r}: every other thread stalls for the "
                "duration",
                "move the blocking call outside the locked region",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        # Calls on the held lock object itself (notify/wait/...) are the
        # point of holding it.
        if (
            isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and func.value.attr in held
        ):
            return
        chain = _attr_chain(func)
        if func.attr in _BLOCKING_ANY_ATTRS or (
            func.attr in _BLOCKING_MODULE_ATTRS
            and chain[:1]
            and chain[0] in _BLOCKING_MODULES
        ):
            self._report(
                call.lineno,
                "procsafety/blocking-under-lock",
                f".{func.attr}(...) called while holding lock "
                f"{held[-1]!r}: blocking I/O stalls every other thread",
                "move the blocking call outside the locked region",
            )
            return
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in method_locks
        ):
            inner = method_locks[func.attr] - set(held)
            if inner:
                for outer in held:
                    for b in sorted(inner):
                        pairs.setdefault((outer, b), call.lineno)
                self._report(
                    call.lineno,
                    "procsafety/nested-lock-call",
                    f"self.{func.attr}(...) acquires lock "
                    f"{sorted(inner)[0]!r} while {held[-1]!r} is held: "
                    "invisible lock nesting",
                    f"collect work under {held[-1]!r} and call "
                    f"self.{func.attr} after releasing it",
                )

    # -- env-drift rule --------------------------------------------------
    def _env_rule(self) -> None:
        for node in ast.walk(self.tree):
            name: str | None = None
            if isinstance(node, ast.Subscript):
                if _attr_chain(node.value) == ["os", "environ"]:
                    name = _const_str(node.slice)
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain == ["os", "environ", "get"]
                    or chain == ["os", "getenv"]
                    or chain[-1:] and chain[-1] in _ENV_HELPERS
                ) and node.args:
                    name = _const_str(node.args[0])
            if name is None or not name.startswith("REPRO_"):
                continue
            if not declared(name):
                self._report(
                    node.lineno,
                    "procsafety/env-drift",
                    f"environment variable {name!r} is not declared in "
                    "repro.config.registry.ENV_VARS",
                    "declare it once in the registry (name, type, default, "
                    "subsystem) — the README table is generated from there",
                )


def procsafety_source(
    source: str, path: str = "<string>", *, audit_unknown: bool = True
) -> list[Diagnostic]:
    """Analyze one module's source text; returns its diagnostics.

    ``audit_unknown`` gates the malformed-waiver audit — ``False`` when
    the lint layer already reported bad waivers for the same files.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                "procsafety/syntax", ERROR, path,
                f"cannot parse: {exc.msg}",
                location=f"line {exc.lineno}",
            )
        ]
    waivers = collect_waivers(source, path)
    diags = _Analyzer(tree, path, waivers).run()
    diags.extend(
        waivers.audit(PROCSAFETY_RULES, audit_unknown=audit_unknown)
    )
    diags.sort(key=lambda d: int(d.location.split()[-1]))
    return diags


def procsafety_paths(
    paths: list[str], *, audit_unknown: bool = True
) -> tuple[list[Diagnostic], int]:
    """Analyze every .py file under ``paths``; returns (diags, files)."""
    diags: list[Diagnostic] = []
    files = iter_python_files(paths)
    for f in files:
        with open(f, encoding="utf-8") as fh:
            diags.extend(
                procsafety_source(
                    fh.read(), path=f, audit_unknown=audit_unknown
                )
            )
    return diags, len(files)
