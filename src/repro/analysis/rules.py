"""The codebase-specific rule set (``RPR001``…).

Every rule encodes an invariant this repo has already shipped a bug
against — the rationale strings name the incident.  Rules are deliberately
narrow: each one matches the *shape* of a past failure, stays silent on the
idiomatic replacement, and leaves everything else alone.  A finding that is
intentional gets an inline ``# repro: allow[RPRnnn] reason`` pragma, so the
reviewer sees the argument next to the code it excuses.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Sequence

from .linting import ProjectRule, Rule, SourceFile

__all__ = ["ALL_RULES", "default_rules", "rule_table"]

#: Module prefixes that constitute the deterministic diagnosis pipeline:
#: golden traces, replayable schedules and the differential suites all pin
#: these layers bit for bit, so wall clocks and unseeded randomness there
#: would make identical inputs produce non-identical evidence.
DIAGNOSIS_SCOPE = (
    "repro.core",
    "repro.backend",
    "repro.parallel",
    "repro.distributed",
)

#: The layers whose error paths must never lose evidence silently.
EDGE_SCOPE = ("repro.service", "repro.fabric")


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain; ``""`` when not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _call_name(call: ast.Call) -> str:
    return _dotted(call.func)


def _walk_shallow(body: Iterable[ast.AST]):
    """Walk statements without descending into nested function/class defs
    (their bodies run in a different execution context)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------- determinism
class WallClockRule(Rule):
    rule_id = "RPR001"
    name = "wall-clock-in-diagnosis"
    rationale = (
        "Golden traces and replay (PR 2) require diagnosis outputs to be a "
        "pure function of (topology, syndrome, seed); a wall clock in the "
        "pipeline breaks byte-stable traces."
    )
    scope = DIAGNOSIS_SCOPE

    _CLOCKS = {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and _call_name(node) in self._CLOCKS:
                yield node, (
                    f"wall-clock call {_call_name(node)}() in the diagnosis "
                    f"pipeline; outputs must be a pure function of "
                    f"(topology, syndrome, seed) — take timestamps at the "
                    f"service/benchmark layer instead"
                )


class UnseededRandomRule(Rule):
    rule_id = "RPR002"
    name = "unseeded-random-in-diagnosis"
    rationale = (
        "Sweeps derive per-trial seeds via SeedSequence.spawn (PR 3); "
        "module-level random/np.random state would differ per process and "
        "break the pooled-equals-serial differential pins."
    )
    scope = DIAGNOSIS_SCOPE

    _ALLOWED_RANDOM = {"Random", "SystemRandom"}
    _ALLOWED_NP = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if dotted.startswith("random."):
                tail = dotted.split(".", 1)[1]
                if tail.split(".")[0] not in self._ALLOWED_RANDOM:
                    yield node, (
                        f"{dotted}() draws from the process-global PRNG; "
                        f"construct a seeded random.Random / np.random "
                        f"Generator so replays and worker fan-out stay "
                        f"deterministic"
                    )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                tail = dotted.rsplit("random.", 1)[1]
                if tail.split(".")[0] not in self._ALLOWED_NP:
                    yield node, (
                        f"{dotted}() uses numpy's legacy global state; use "
                        f"np.random.default_rng(seed) / SeedSequence spawning "
                        f"(see repro.parallel.seeding)"
                    )


# -------------------------------------------------------------------- asyncio
class UnawaitedCoroutineRule(Rule):
    rule_id = "RPR003"
    name = "unawaited-coroutine"
    rationale = (
        "A coroutine called without await never runs — the call builds an "
        "object and drops it, which asyncio only reports as a late warning "
        "on garbage collection, if at all."
    )

    def check(self, source: SourceFile):
        async_names = {
            node.name
            for node in ast.walk(source.tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }
        if not async_names:
            return
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            called = None
            if isinstance(func, ast.Name) and func.id in async_names:
                called = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in async_names
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                called = func.attr
            if called is not None:
                yield node, (
                    f"{called}() is an async def in this module but the call "
                    f"is neither awaited nor scheduled; the coroutine object "
                    f"is created and silently dropped"
                )


class DanglingTaskRule(Rule):
    rule_id = "RPR004"
    name = "fire-and-forget-task"
    rationale = (
        "asyncio only keeps weak references to tasks: a create_task result "
        "that nobody retains can be garbage-collected mid-flight, and its "
        "exceptions vanish — retain the task and discard it via a done "
        "callback (the _connections/_dispatchers idiom)."
    )

    _SPAWNERS = ("create_task", "ensure_future")

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            dotted = _call_name(node.value)
            short = dotted.rsplit(".", 1)[-1]
            if short in self._SPAWNERS:
                yield node, (
                    f"{dotted}() result is discarded: the event loop holds "
                    f"only a weak reference, so the task can be collected "
                    f"mid-flight and its exception lost; retain it "
                    f"(set/dict + add_done_callback(discard)) or await it"
                )


class WaitWithoutCancelRule(Rule):
    rule_id = "RPR005"
    name = "asyncio-wait-pending-leak"
    rationale = (
        "The PR 8 zombie worker: asyncio.wait(FIRST_COMPLETED) returned and "
        "the still-pending serving task kept executing leases after the "
        "worker was 'stopped' — pending tasks must be cancelled (and "
        "awaited) on every exit path."
    )

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Await):
                continue
            call = node.value
            if not isinstance(call, ast.Call) or _call_name(call) != "asyncio.wait":
                continue
            if self._all_completed_no_timeout(call):
                continue
            function = source.enclosing_function(node)
            parent = source.parents.get(id(node))
            if isinstance(parent, ast.Expr):
                yield node, (
                    "asyncio.wait() result is discarded, so the pending set "
                    "is unreachable and its tasks keep running (the PR 8 "
                    "zombie-worker bug); bind (done, pending) and cancel "
                    "the pending tasks"
                )
                continue
            pending_name = self._pending_target(parent)
            if pending_name is None:
                # Bound to something other than a 2-tuple; accept if the
                # enclosing function cancels *anything*, else flag.
                if function is None or not self._has_any_cancel(function):
                    yield node, (
                        "asyncio.wait() may leave tasks pending but nothing "
                        "in this function cancels them; cancel the pending "
                        "set on every exit path"
                    )
                continue
            if function is None or not self._cancels_iterable(
                function, pending_name
            ):
                yield node, (
                    f"asyncio.wait() pending set {pending_name!r} is never "
                    f"cancelled in this function — tasks left in it keep "
                    f"running after the wait returns (the PR 8 zombie-worker "
                    f"bug); add `for task in {pending_name}: task.cancel()`"
                )

    @staticmethod
    def _all_completed_no_timeout(call: ast.Call) -> bool:
        """ALL_COMPLETED without a timeout cannot leave anything pending."""
        has_timeout = False
        return_when_all = True
        for keyword in call.keywords:
            if keyword.arg == "timeout":
                if not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is None
                ):
                    has_timeout = True
            if keyword.arg == "return_when":
                return_when_all = _dotted(keyword.value).endswith("ALL_COMPLETED")
        return return_when_all and not has_timeout

    @staticmethod
    def _pending_target(parent: ast.AST) -> str | None:
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if (
                isinstance(target, (ast.Tuple, ast.List))
                and len(target.elts) == 2
                and isinstance(target.elts[1], ast.Name)
            ):
                return target.elts[1].id
        return None

    @staticmethod
    def _has_any_cancel(function: ast.AST) -> bool:
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cancel"
            for node in ast.walk(function)
        )

    @staticmethod
    def _cancels_iterable(function: ast.AST, name: str) -> bool:
        """``for t in <name>: t.cancel()`` (or a comprehension equivalent)
        anywhere in the function."""
        for node in ast.walk(function):
            if isinstance(node, ast.For):
                iterated = node.iter
                if isinstance(iterated, ast.Call):  # list(pending) etc.
                    iterated = iterated.args[0] if iterated.args else iterated
                if isinstance(iterated, ast.Name) and iterated.id == name:
                    if WaitWithoutCancelRule._has_any_cancel(node):
                        return True
            if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                for generator in node.generators:
                    if (
                        isinstance(generator.iter, ast.Name)
                        and generator.iter.id == name
                        and WaitWithoutCancelRule._has_any_cancel(node)
                    ):
                        return True
        return False


class BlockingCallInAsyncRule(Rule):
    rule_id = "RPR006"
    name = "blocking-call-in-async"
    rationale = (
        "A blocking call inside async def stalls the whole event loop: "
        "heartbeats stop, batches stop coalescing, and a slow batch looks "
        "like a dead worker — run blocking work via run_in_executor (the "
        "fabric worker idiom)."
    )

    _BLOCKING = {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "sqlite3.connect",
        "socket.create_connection",
        "urllib.request.urlopen",
        "os.system",
        "os.wait",
    }

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for inner in _walk_shallow(node.body):
                if isinstance(inner, ast.Call):
                    dotted = _call_name(inner)
                    if dotted in self._BLOCKING:
                        yield inner, (
                            f"blocking call {dotted}() inside async def "
                            f"{node.name}() stalls the event loop (and every "
                            f"heartbeat on it); use asyncio.sleep / "
                            f"run_in_executor instead"
                        )


# ----------------------------------------------------------------- shm & I/O
class ShmOwnershipRule(Rule):
    rule_id = "RPR007"
    name = "unowned-shared-memory"
    rationale = (
        "The PR 5 cache-replacement leak: a SharedMemory segment without an "
        "owner-tracked unlink survives its publisher and accumulates in "
        "/dev/shm; every create must be wrapped in OwnedSegment immediately, "
        "in repro.parallel.shm only."
    )

    _OWNER_MODULE = "repro.parallel.shm"

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if not dotted.endswith("SharedMemory"):
                continue
            if not any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            ):
                continue  # attach (create=False) is every process's right
            if source.module != self._OWNER_MODULE:
                yield node, (
                    f"SharedMemory(create=True) outside {self._OWNER_MODULE}: "
                    f"segments must be published through publish_topology/"
                    f"publish_buffer so exactly one owner unlinks them on "
                    f"every exit path"
                )
                continue
            if not self._wrapped_immediately(source, node):
                yield node, (
                    "a created SharedMemory segment must be wrapped in "
                    "OwnedSegment by the *next* statement — any code between "
                    "create and wrap that raises leaks the segment (the PR 5 "
                    "eviction-leak class)"
                )

    @staticmethod
    def _wrapped_immediately(source: SourceFile, call: ast.Call) -> bool:
        parent = source.parents.get(id(call))
        if not isinstance(parent, ast.Assign):
            return False
        target = parent.targets[0]
        if not isinstance(target, ast.Name):
            return False
        holder = source.parents.get(id(parent))
        body = getattr(holder, "body", None)
        if not isinstance(body, list) or parent not in body:
            for attr in ("body", "orelse", "finalbody"):
                candidate = getattr(holder, attr, None)
                if isinstance(candidate, list) and parent in candidate:
                    body = candidate
                    break
            else:
                return False
        index = body.index(parent)
        if index + 1 >= len(body):
            return False
        following = body[index + 1]
        for node in ast.walk(following):
            if (
                isinstance(node, ast.Call)
                and _call_name(node).endswith("OwnedSegment")
                and any(
                    isinstance(arg, ast.Name) and arg.id == target.id
                    for arg in node.args
                )
            ):
                return True
        return False


class NonAtomicJsonWriteRule(Rule):
    rule_id = "RPR008"
    name = "non-atomic-json-write"
    rationale = (
        "CI smokes parse the stats/ready files; a crash mid-json.dump left "
        "truncated JSON until PR 5 made the writes atomic (temp file + "
        "fsync + os.replace) — runtime artifacts go through "
        "_write_json_atomic."
    )
    scope = ("repro",)

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.With):
                continue
            open_vars = set()
            for item in node.items:
                call = item.context_expr
                if not (isinstance(call, ast.Call) and _call_name(call) == "open"):
                    continue
                mode = self._mode(call)
                if mode is not None and "w" in mode and "b" not in mode:
                    if isinstance(item.optional_vars, ast.Name):
                        open_vars.add(item.optional_vars.id)
                    else:
                        open_vars.add("")
            if not open_vars:
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and _call_name(inner) in ("json.dump",)
                ):
                    yield node, (
                        "json.dump into a bare open(path, 'w'): a crash "
                        "mid-write leaves truncated JSON for whatever parses "
                        "this artifact; use the _write_json_atomic idiom "
                        "(same-dir temp file + fsync + os.replace)"
                    )
                    break

    @staticmethod
    def _mode(call: ast.Call) -> str | None:
        if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
            value = call.args[1].value
            return value if isinstance(value, str) else None
        for keyword in call.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        return None


class LockAcrossAwaitRule(Rule):
    rule_id = "RPR009"
    name = "lock-held-across-await"
    rationale = (
        "An async-with-held lock spanning an await of foreign work "
        "serialises everything behind the slowest holder (and deadlocks if "
        "the awaited work needs the lock); keep critical sections "
        "await-free, or pragma the deliberate single-flight pattern with "
        "its argument."
    )
    scope = ("repro",)

    _LOCK_FACTORIES = {
        "asyncio.Lock",
        "asyncio.Semaphore",
        "asyncio.BoundedSemaphore",
        "asyncio.Condition",
        "threading.Lock",
        "threading.RLock",
    }

    def check(self, source: SourceFile):
        lockish = self._lockish_names(source)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.AsyncWith):
                continue
            for item in node.items:
                expr = item.context_expr
                if not self._is_lockish(expr, lockish):
                    continue
                awaits = [
                    inner for inner in _walk_shallow(node.body)
                    if isinstance(inner, ast.Await)
                ]
                if awaits:
                    first = min(awaits, key=lambda a: (a.lineno, a.col_offset))
                    yield node, (
                        f"lock {ast.unparse(expr)!r} is held across the "
                        f"await at line {first.lineno}; everything needing "
                        f"this lock now waits on that foreign work — hoist "
                        f"the await out of the critical section"
                    )
                break

    def _lockish_names(self, source: SourceFile) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            creates_lock = any(
                isinstance(inner, ast.Call)
                and _call_name(inner) in self._LOCK_FACTORIES
                for inner in ast.walk(value)
            )
            if not creates_lock:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
        return names

    @staticmethod
    def _is_lockish(expr: ast.AST, lockish: set[str]) -> bool:
        dotted = _dotted(expr)
        leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
        if leaf in lockish:
            return True
        lowered = leaf.lower()
        return "lock" in lowered or "transaction" in lowered


class SilentExceptRule(Rule):
    rule_id = "RPR010"
    name = "silent-except"
    rationale = (
        "Serving/fabric error paths that swallow exceptions without a trace "
        "hid real losses until counters were added (PR 5/8); a pass-only "
        "handler must say why discarding is safe, or record the event."
    )
    scope = EDGE_SCOPE

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not all(
                isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body
            ):
                continue
            last_line = max(
                stmt.end_lineno or stmt.lineno for stmt in node.body
            )
            if source.has_comment_between(node.lineno, last_line):
                continue  # the swallow is explained in place
            caught = ast.unparse(node.type) if node.type is not None else "BaseException"
            yield node, (
                f"except {caught}: pass swallows the exception with no "
                f"explanation and no evidence; add a comment saying why "
                f"discarding is safe, or count/log the event before "
                f"discarding it"
            )


class BareSleepInTestsRule(Rule):
    rule_id = "RPR011"
    name = "bare-sleep-synchronization"
    rationale = (
        "Bare sleeps synchronise by luck: too short flakes on a loaded CI "
        "box, too long wastes every run (the PR 8 hygiene sweep); poll the "
        "actual condition inside a deadline-bounded while loop."
    )
    scope = ("tests",)

    def check(self, source: SourceFile):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node)
            if dotted not in ("time.sleep", "asyncio.sleep"):
                continue
            if (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and not node.args[0].value
            ):
                continue  # sleep(0): an event-loop yield, not a wait
            loop = self._enclosing_while(source, node)
            if loop is None:
                yield node, (
                    f"bare {dotted}() used as synchronization: it passes or "
                    f"flakes by timing luck; poll the condition in a "
                    f"deadline-bounded while loop instead"
                )
            elif not self._deadline_bounded(loop):
                yield node, (
                    f"{dotted}() polls inside a while loop with no deadline; "
                    f"a regression turns this test into a hang — bound the "
                    f"loop with `deadline = ... ; assert now < deadline`"
                )

    @staticmethod
    def _enclosing_while(source: SourceFile, node: ast.AST) -> ast.While | None:
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, ast.While):
                return ancestor
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
        return None

    @staticmethod
    def _deadline_bounded(loop: ast.While) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Name) and "deadline" in node.id.lower():
                return True
            if isinstance(node, ast.Call):
                dotted = _call_name(node)
                if dotted.endswith((".monotonic", ".time")) or dotted == "monotonic":
                    return True
        return False


class CodecSymmetryRule(ProjectRule):
    rule_id = "RPR012"
    name = "wire-codec-asymmetry"
    rationale = (
        "The fabric moves work over encode_*/decode_* pairs; an encoder "
        "without its decoder (or a codec no test exercises) is a wire "
        "format change that only fails on a live socket."
    )

    _WIRE_MODULES = ("repro.fabric.protocol", "repro.service.requests")

    def project_check(self, files: Sequence[SourceFile]):
        test_text = "\n".join(
            source.text for source in files
            if source.module.startswith("tests") and source.tree is not None
        )
        have_tests = bool(test_text)
        for source in files:
            if source.module not in self._WIRE_MODULES or source.tree is None:
                continue
            defs: dict[str, ast.AST] = {}
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name.startswith(("encode_", "decode_")):
                        defs[node.name] = node
            for name, node in sorted(defs.items()):
                prefix, _, suffix = name.partition("_")
                twin = ("decode_" if prefix == "encode" else "encode_") + suffix
                if twin not in defs:
                    yield source, node, (
                        f"{name}() has no matching {twin}() in "
                        f"{source.module}; every wire codec must round-trip"
                    )
                if have_tests and not re.search(rf"\b{name}\b", test_text):
                    yield source, node, (
                        f"{name}() is not exercised by any analyzed test; "
                        f"wire codecs without round-trip tests break only "
                        f"on a live socket"
                    )


ALL_RULES = (
    WallClockRule,
    UnseededRandomRule,
    UnawaitedCoroutineRule,
    DanglingTaskRule,
    WaitWithoutCancelRule,
    BlockingCallInAsyncRule,
    ShmOwnershipRule,
    NonAtomicJsonWriteRule,
    LockAcrossAwaitRule,
    SilentExceptRule,
    BareSleepInTestsRule,
    CodecSymmetryRule,
)


def default_rules() -> list[Rule]:
    """One fresh instance of every registered rule, id order."""
    rules = [cls() for cls in ALL_RULES]
    rules.sort(key=lambda rule: rule.rule_id)
    return rules


def rule_table() -> list[dict]:
    """``[{id, name, scope, rationale}]`` for --list-rules and the README."""
    return [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "scope": list(rule.scope) if rule.scope else ["*"],
            "rationale": rule.rationale,
        }
        for rule in default_rules()
    ]
