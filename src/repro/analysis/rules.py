"""The repro-lint rule set.

Each rule guards one named engine contract (see ``CONTRACTS.md``).  Rules
are plain objects with an ``applies(ctx)`` scope predicate and a
``check(ctx)`` generator yielding :class:`Violation` records; the engine
in :mod:`repro.analysis.engine` handles file discovery, pragma
suppression, and reporting, so rules stay purely syntactic.

Rule ids are stable and individually suppressible::

    total = float(np.sum(sq))  # repro-lint: disable=RL003 float64 accumulator

A pragma without a trailing reason does not suppress anything — the
engine reports it as ``RL000 bare-pragma`` instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import FileContext

__all__ = ["Violation", "Rule", "RULES", "RULES_BY_ID"]


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location (lineno is 1-based)."""

    rule_id: str
    rule_name: str
    lineno: int
    col: int
    message: str

    def format(self, path: str) -> str:
        return (
            f"{path}:{self.lineno}:{self.col}: "
            f"{self.rule_id} {self.rule_name}: {self.message}"
        )


def dotted_name(node: ast.AST) -> str | None:
    """Render an ``ast.Attribute``/``ast.Name`` chain as ``a.b.c``.

    Returns None for anything that is not a pure name chain (calls,
    subscripts, literals) — rules only match static attribute paths.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def walk_no_nested_defs(stmts: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statement bodies without descending into nested def/class.

    Used by scope-sensitive rules (RL005, RL008) where a nested def has
    its own contract and must not satisfy — or trip — the enclosing one's.
    """
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


class Rule:
    """Base class: subclasses set ``rule_id``/``rule_name`` and ``check``."""

    rule_id: str = "RL000"
    rule_name: str = "unnamed"
    #: one-line contract statement, shown by ``lint --list-rules``
    summary: str = ""

    def applies(self, ctx: "FileContext") -> bool:
        return True

    def check(self, ctx: "FileContext") -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def violation(self, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.rule_id,
            rule_name=self.rule_name,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ---------------------------------------------------------------------------
# RL001 — no global RNG streams in library code
# ---------------------------------------------------------------------------


class NoGlobalRng(Rule):
    """Library code must draw from explicit, seeded ``Generator`` objects.

    The determinism contract routes every random draw through
    ``SeedSequence(seed, spawn_key=...)``-derived generators so results
    are independent of call order, thread interleaving, and process
    placement.  ``np.random.<fn>`` module-level calls and the stdlib
    ``random`` module share hidden global state and break all three.
    """

    rule_id = "RL001"
    rule_name = "no-global-rng"
    summary = (
        "no np.random.<fn> / random.* global-state draws; "
        "default_rng() needs an explicit seed"
    )

    # Constructors that take (or are) explicit entropy are fine.
    _NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence", "BitGenerator"})

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            yield from self._check_call(ctx, node, chain)

    def _check_call(
        self, ctx: "FileContext", node: ast.Call, chain: str
    ) -> Iterator[Violation]:
        parts = chain.split(".")
        root = parts[0]
        # np.random.<fn>(...) / numpy.random.<fn>(...)
        if len(parts) >= 3 and parts[1] == "random" and root in ("np", "numpy"):
            fn = parts[-1]
            if fn not in self._NP_RANDOM_OK:
                yield self.violation(
                    node,
                    f"{chain}() draws from the process-global NumPy RNG; "
                    "pass an explicit np.random.Generator instead",
                )
                return
            if fn == "default_rng" and not node.args and not node.keywords:
                yield self.violation(
                    node,
                    "default_rng() without a seed pulls OS entropy; pass a "
                    "seed or a spawned SeedSequence",
                )
            return
        # bare default_rng() via `from numpy.random import default_rng`
        if (
            chain == "default_rng"
            and ctx.from_imports.get("default_rng") in ("numpy.random", "np.random")
            and not node.args
            and not node.keywords
        ):
            yield self.violation(
                node,
                "default_rng() without a seed pulls OS entropy; pass a "
                "seed or a spawned SeedSequence",
            )
            return
        # stdlib random: `random.shuffle(...)` or `from random import shuffle`
        if root == "random" and len(parts) > 1 and "random" in ctx.imports:
            yield self.violation(
                node,
                f"{chain}() uses the stdlib global RNG; draw from an "
                "explicit np.random.Generator",
            )
            return
        if len(parts) == 1 and ctx.from_imports.get(root) == "random":
            yield self.violation(
                node,
                f"{root}() (from the stdlib random module) uses the global "
                "RNG; draw from an explicit np.random.Generator",
            )


# ---------------------------------------------------------------------------
# RL002 — no wall-clock reads in simulation paths
# ---------------------------------------------------------------------------


class NoWallclock(Rule):
    """Simulation code runs on virtual time from ``DeviceTrace`` models.

    A ``time.time()``/``datetime.now()`` read in `repro/fl/` or
    `repro/core/` couples round pacing and straggler decisions to host
    load, which destroys run-to-run bit-identity and makes the
    checkpoint/resume roadmap item (resume must equal uninterrupted)
    impossible.  Benchmarq harnesses may measure wall time; the engine
    may not.
    """

    rule_id = "RL002"
    rule_name = "no-wallclock"
    summary = "no time.time/monotonic/datetime.now in repro/fl + repro/core"

    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "date.today",
            "datetime.date.today",
        }
    )
    _FROM_TIME = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
        }
    )

    def applies(self, ctx: "FileContext") -> bool:
        return "repro/fl/" in ctx.rel or "repro/core/" in ctx.rel

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            root = chain.split(".")[0]
            known = root in ctx.imports or root in ctx.from_imports
            if chain in self._BANNED and known:
                yield self.violation(
                    node,
                    f"{chain}() reads the wall clock inside the simulator; "
                    "use virtual time from the device/pacing models",
                )
            elif (
                "." not in chain
                and ctx.from_imports.get(chain) == "time"
                and chain in self._FROM_TIME
            ):
                yield self.violation(
                    node,
                    f"{chain}() (from time) reads the wall clock inside the "
                    "simulator; use virtual time from the device/pacing models",
                )


# ---------------------------------------------------------------------------
# RL003 — dtype hygiene in nn kernels
# ---------------------------------------------------------------------------


class DtypeHygiene(Rule):
    """`repro/nn/` kernels take their working dtype from ``repro.nn.compute``.

    Hard-coding ``np.float64``/``np.float32``/``dtype=float`` in a kernel
    silently pins it to one precision and breaks the configurable
    substrate from PR 5.  Reductions that intentionally accumulate at
    float64 should call :func:`repro.nn.compute.accum_dtype` (the
    documented accumulator allowlist) instead of naming the dtype.
    """

    rule_id = "RL003"
    rule_name = "dtype-hygiene"
    summary = (
        "no hard-coded np.float64/np.float32/dtype=float in repro/nn "
        "kernels; use compute_dtype()/accum_dtype()"
    )

    _BANNED = frozenset(
        {"np.float64", "np.float32", "numpy.float64", "numpy.float32"}
    )

    def applies(self, ctx: "FileContext") -> bool:
        return "repro/nn/" in ctx.rel and not ctx.rel.endswith("nn/compute.py")

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                chain = dotted_name(node)
                if chain in self._BANNED:
                    yield self.violation(
                        node,
                        f"hard-coded {chain}; route through "
                        "repro.nn.compute (compute_dtype()/accum_dtype())",
                    )
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                if isinstance(node.value, ast.Name) and node.value.id == "float":
                    yield self.violation(
                        node.value,
                        "dtype=float pins the platform double; route through "
                        "repro.nn.compute (compute_dtype()/accum_dtype())",
                    )


# ---------------------------------------------------------------------------
# RL005 — no fresh allocations inside hot-path functions
# ---------------------------------------------------------------------------


class HotpathAlloc(Rule):
    """Functions marked ``# repro: hotpath`` must not allocate per call.

    PR 5 moved the per-round compute onto pooled ``Workspace`` buffers;
    a stray ``np.empty``/``np.zeros``/``np.concatenate`` in a marked
    function reintroduces per-call allocation churn exactly where the
    profiler said it hurts.  Mark the function only when it is
    allocation-free (or acquires scratch via ``Workspace.get``).
    """

    rule_id = "RL005"
    rule_name = "hotpath-alloc"
    summary = (
        "no np.empty/np.zeros/np.concatenate inside functions marked "
        "'# repro: hotpath'; use pooled Workspace buffers"
    )

    _BANNED_FNS = frozenset(
        {"empty", "zeros", "concatenate", "empty_like", "zeros_like"}
    )

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        if not ctx.hotpath_defs:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.lineno not in ctx.hotpath_defs:
                continue
            for sub in walk_no_nested_defs(node.body):
                if not isinstance(sub, ast.Call):
                    continue
                chain = dotted_name(sub.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) == 2
                    and parts[0] in ("np", "numpy")
                    and parts[1] in self._BANNED_FNS
                ):
                    yield self.violation(
                        sub,
                        f"{chain}() allocates inside hot-path function "
                        f"{node.name}(); acquire a pooled Workspace buffer "
                        "instead",
                    )


# ---------------------------------------------------------------------------
# RL006 — shared-memory segment lifecycle
# ---------------------------------------------------------------------------


class ShmLifecycle(Rule):
    """Every created shm segment needs a guaranteed unlink in scope.

    ``SharedMemory(create=True)`` allocates a kernel object that outlives
    the process on abnormal exit.  The creating class (or module, for
    free functions) must also call ``.unlink()`` with the call protected
    by a ``try/finally`` **or** register a ``weakref.finalize`` backstop,
    the pattern established in ``repro.fl.shm``.
    """

    rule_id = "RL006"
    rule_name = "shm-lifecycle"
    summary = (
        "SharedMemory(create=True) must pair with unlink in a "
        "finally/finalizer in the same class or module"
    )

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        creates = [
            node
            for node in ast.walk(ctx.tree)
            if self._is_create_call(node)
        ]
        if not creates:
            return
        parents = self._parent_map(ctx.tree)
        for node in creates:
            scope = self._enclosing_scope(node, parents, ctx.tree)
            # Finalizer callbacks are often module-level functions (a bound
            # method would keep the owner alive and never fire), so fall
            # back to module scope before flagging.
            ok = self._scope_has_guarded_unlink(scope, parents) or (
                scope is not ctx.tree
                and self._scope_has_guarded_unlink(ctx.tree, parents)
            )
            if not ok:
                yield self.violation(
                    node,
                    "SharedMemory(create=True) without a guaranteed "
                    "unlink (try/finally or weakref.finalize) in the same "
                    "scope; leaked segments survive the process",
                )

    @staticmethod
    def _is_create_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = dotted_name(node.func)
        if chain is None or chain.split(".")[-1] != "SharedMemory":
            return False
        return any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )

    @staticmethod
    def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents

    @staticmethod
    def _enclosing_scope(
        node: ast.AST, parents: dict[ast.AST, ast.AST], tree: ast.AST
    ) -> ast.AST:
        cur = node
        while cur in parents:
            cur = parents[cur]
            if isinstance(cur, ast.ClassDef):
                return cur
        return tree

    @staticmethod
    def _scope_has_guarded_unlink(
        scope: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        has_guarded_unlink = False
        has_finalizer = False
        has_unlink = False
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            leaf = chain.split(".")[-1]
            if leaf == "unlink":
                has_unlink = True
                cur: ast.AST = node
                while cur in parents:
                    cur = parents[cur]
                    if isinstance(cur, ast.Try):
                        has_guarded_unlink = True
                        break
                    if isinstance(cur, (ast.FunctionDef, ast.ClassDef)):
                        break
            elif leaf in ("finalize", "make_finalizer"):
                has_finalizer = True
        return has_guarded_unlink or (has_unlink and has_finalizer)


# ---------------------------------------------------------------------------
# RL008 — mutable run state must register as Stateful
# ---------------------------------------------------------------------------


class StatefulCoverage(Rule):
    """Engine classes holding mutable run state must be checkpointable.

    The durable-runs contract (CONTRACTS.md I9) says a checkpoint captures
    *everything* the trajectory depends on.  That only holds if every class
    in the engine that accumulates state across calls participates in the
    ``Stateful`` protocol — a class that mutates ``self`` outside its
    constructor but defines no ``state_dict``/``load_state_dict`` is state
    a checkpoint silently drops, and the resulting resume diverges in ways
    no test points at the culprit for.

    The rule is syntactic on purpose: a top-level class in ``repro/fl/``,
    ``repro/core/`` or ``repro/baselines/`` whose methods (other than
    ``__init__`` / ``__post_init__``) assign to ``self``-rooted targets or
    call mutating container methods on them must declare its payload
    (``state_fields = {...}``) — or, on the hand-written allowlist, define
    **both** protocol methods — *in its own class body* (the Stateful
    docstring's convention: inheriting a parent's payload silently misses
    the subclass's extra fields, which is exactly the bug class this rule
    exists to catch).  Derived-state classes satisfy it with an explicit
    empty declaration (``state_fields = {}``, see ``repro.fl.executor``),
    which documents the drop instead of defaulting into it.
    """

    rule_id = "RL008"
    rule_name = "stateful-coverage"
    summary = (
        "repro/fl + repro/core + repro/baselines classes mutating self outside "
        "__init__ must declare state_fields (or define state_dict() and "
        "load_state_dict()) in their own body"
    )

    _MUTATORS = frozenset(
        {
            "append",
            "appendleft",
            "add",
            "extend",
            "update",
            "insert",
            "setdefault",
            "pop",
            "popitem",
            "remove",
            "discard",
            "clear",
        }
    )
    _CONSTRUCTORS = frozenset({"__init__", "__post_init__"})
    _PROTOCOL = frozenset({"state_dict", "load_state_dict"})
    _SCOPE = ("repro/fl/", "repro/core/", "repro/baselines/")

    def applies(self, ctx: "FileContext") -> bool:
        return any(scope in ctx.rel for scope in self._SCOPE)

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node)

    def _check_class(self, cls: ast.ClassDef) -> Iterator[Violation]:
        defined = {
            item.name
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        declared = any(
            isinstance(target, ast.Name) and target.id == "state_fields"
            for item in cls.body
            if isinstance(item, (ast.Assign, ast.AnnAssign))
            for target in (item.targets if isinstance(item, ast.Assign) else [item.target])
        )
        if declared or self._PROTOCOL <= defined:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in self._CONSTRUCTORS or self._is_static(item):
                continue
            self_name = self._self_name(item)
            if self_name is None:
                continue
            site = self._first_mutation(item, self_name)
            if site is not None:
                missing = sorted(self._PROTOCOL - defined)
                yield self.violation(
                    site,
                    f"{cls.name}.{item.name}() mutates run state on self but "
                    f"{cls.name} declares no state_fields and does not define "
                    f"{' / '.join(missing)} in its own class body; register it "
                    "as Stateful (state_fields = {} if the state is derived) "
                    "so checkpoints stay complete",
                )
                return  # one violation per class is enough to act on

    @staticmethod
    def _is_static(fn: ast.AST) -> bool:
        return any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list
        )

    @staticmethod
    def _self_name(fn: ast.AST) -> str | None:
        args = fn.args.posonlyargs + fn.args.args
        return args[0].arg if args else None

    @classmethod
    def _is_self_rooted(cls, node: ast.AST, self_name: str) -> bool:
        """True when an attribute/subscript chain bottoms out at ``self.x``."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            inner = node.value
            if isinstance(node, ast.Attribute) and isinstance(inner, ast.Name):
                return inner.id == self_name
            node = inner
        return False

    def _first_mutation(self, fn: ast.AST, self_name: str) -> ast.AST | None:
        for node in walk_no_nested_defs(fn.body):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for tgt in targets:
                if self._is_self_rooted(tgt, self_name):
                    return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._MUTATORS
                and self._is_self_rooted(node.func, self_name)
            ):
                return node
        return None


# ---------------------------------------------------------------------------
# RL009 — no silently swallowed exceptions in the engine
# ---------------------------------------------------------------------------


class SilentExcept(Rule):
    """Fault handling in ``repro/fl/`` must record what it caught.

    The fault-tolerance contract (CONTRACTS.md I10) meters every failure:
    injected or real, each crash/retry/quarantine lands in the recovery
    ledger.  A bare ``except:`` / ``except Exception:`` whose body is just
    ``pass`` destroys that accounting — the error vanishes without a log
    line, a counter bump, or a re-raise, which is exactly how the shm
    cleanup path silently leaked segments before this PR.  Handlers must
    either scope the exception type narrowly or do something observable
    (log, meter, re-raise) in the body.
    """

    rule_id = "RL009"
    rule_name = "silent-except"
    summary = (
        "no bare/broad except with a pass-only body in repro/fl/; "
        "log, meter, or re-raise instead"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def applies(self, ctx: "FileContext") -> bool:
        return "repro/fl/" in ctx.rel

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._body_is_silent(node.body):
                caught = "bare except" if node.type is None else (
                    f"except {dotted_name(node.type) or 'Exception'}"
                )
                yield self.violation(
                    node,
                    f"{caught} with a pass-only body swallows the error "
                    "without metering it; log it, record a fault, narrow "
                    "the exception type, or re-raise",
                )

    def _is_broad(self, type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True  # bare except:
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        chain = dotted_name(type_node)
        return chain is not None and chain.split(".")[-1] in self._BROAD

    @staticmethod
    def _body_is_silent(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and (
                    stmt.value.value is Ellipsis
                    or isinstance(stmt.value.value, str)  # docstring-only
                )
            ):
                continue
            return False
        return True


RULES: tuple[Rule, ...] = (
    NoGlobalRng(),
    NoWallclock(),
    DtypeHygiene(),
    HotpathAlloc(),
    ShmLifecycle(),
    StatefulCoverage(),
    SilentExcept(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in RULES}
