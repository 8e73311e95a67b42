"""Per-layer tracing by wrapping the names each layer is reached through.

A wrapper is installed on every module attribute that callers look up at
call time, including names a module imported from another one (for
example ``islt.search.expand`` next to ``islt.calculus.expand``), since
rebinding one does not rebind the other. Each layer key counts every call
and times only its outermost call, so a layer that calls itself through
another wrapped name is not timed twice. Wrappers record nothing while
``active`` is false, which the harness keeps false outside timed calls.
A target that no longer exists is listed in ``missing``.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter
from typing import Callable, Optional


class Stat:
    __slots__ = ("calls", "time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.time = 0.0
        self.depth = 0


# layer key -> the (module, attribute) names it is reached through
TARGETS: dict[str, tuple[str, ...]] = {
    "sort_key": ("islt.sequent.sort_key", "islt.calculus.sort_key"),
    "parse": (
        "islt.formula.parse_formula",
        "islt.calculus.parse_formula",
        "islt.hilbert.parse_formula",
        "islt.cli.parse_formula",
        "islt.sequent.parse_sequent",
        "islt.cli.parse_sequent",
    ),
    "print": (
        "islt.formula.print_formula",
        "islt.sequent.print_formula",
        "islt.calculus.print_formula",
        "islt.hilbert.print_formula",
        "islt.sequent.print_sequent",
    ),
    "multiset": tuple(
        f"islt.sequent.Multiset.{m}" for m in ("of", "from_iterable", "add", "remove", "remove_all", "union")
    ),
    "expand": ("islt.calculus.expand", "islt.search.expand"),
    "premises_of": ("islt.calculus.premises_of",),
    "check": ("islt.calculus.check", "islt.cut.check"),
    "codec": ("islt.calculus.dumps", "islt.calculus.loads"),
    "prove": ("islt.search.prove", "islt.cli.prove"),
    "theta": ("islt.measure.theta", "islt.cut.theta", "islt.search.theta", "islt.cli.theta"),
    "transform": tuple(
        f"islt.{mod}.{name}"
        for mod in ("structural", "cut")
        for name in (
            "weaken",
            "unbox_left",
            "invert",
            "box_imp_lir",
            "imp_imp_lir",
            "imp_imp_lil",
            "contract",
        )
    ),
    "id_general": ("islt.structural.id_general", "islt.cut.id_general"),
    "cut_admissible": ("islt.cut.cut_admissible",),
    "eliminate": ("islt.cut.eliminate", "islt.cli.eliminate"),
    "enumerate": ("islt.semantics.enumerate_models",),
    "valid": ("islt.semantics.valid",),
    "countermodel": ("islt.semantics.find_countermodel",),
    "hilbert_check": ("islt.hilbert.check_hilbert",),
    "bridge": ("islt.hilbert.bridge_check",),
}


def _resolve(target: str):
    """(owner object, attribute) for a dotted name, or None if absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def _nodes(d) -> int:
    total, todo = 0, [d]
    while todo:
        n = todo.pop()
        total += 1
        todo.extend(n.children)
    return total


class Tracer:
    """Wrappers for the layer keys in ``only`` (default: every key). A bare
    tracer records only prove durations, so that it adds next to nothing
    to the calls it times."""

    def __init__(self, only: Optional[set[str]] = None, bare: bool = False) -> None:
        self.keys = [key for key in TARGETS if only is None or key in only]
        self.posts = _BARE_POST if bare else _POST
        self.active = False
        self.stats = {key: Stat() for key in TARGETS}
        # prove durations in ms, by result type
        self.prove_ms: dict[str, list[float]] = {}
        # counters read at layer boundaries, beyond calls and time
        self.extra: dict[str, float] = {
            k: 0
            for k in (
                "expand_premises",
                "expand_multiset",
                "check_nodes",
                "cert_bytes",
                "dumps_calls",
                "prove_expands",
                "prove_expand_time",
                "proved_nodes",
                "proved_expands",
                "budget_aborts",
                "cut_log",
                "cut_outputs",
                "cut_output_nodes",
                "models",
                "countermodels_found",
            )
        }
        self.installed: dict[str, list[str]] = {key: [] for key in TARGETS}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for key in self.keys:
            for target in TARGETS[key]:
                where = _resolve(target)
                if where is None:
                    self.missing.append(target)
                    continue
                owner, attr = where
                raw = inspect.getattr_static(owner, attr)
                fn = getattr(owner, attr)
                if key == "enumerate":
                    wrapped: Callable = self._wrap_generator(key, fn)
                else:
                    wrapped = self._wrap(key, fn, self.posts.get(key))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
                self.installed[key].append(target)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, key: str, fn: Callable, post: Optional[Callable]) -> Callable:
        stat = self.stats[key]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            if stat.depth:
                return fn(*args, **kwargs)
            before = tracer._snapshot()
            stat.depth = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.time += elapsed
                stat.depth = 0
            if post is not None:
                post(tracer, before, elapsed, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key: str, fn: Callable) -> Callable:
        stat = self.stats[key]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                stat.calls += 1
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    if tracer.active:
                        stat.time += perf_counter() - start
                    return
                if tracer.active:
                    stat.time += perf_counter() - start
                    tracer.extra["models"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _snapshot(self) -> tuple[int, int, int, float]:
        s = self.stats
        return s["expand"].calls, s["premises_of"].calls, s["multiset"].calls, s["expand"].time


def _post_expand(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    tr.extra["expand_premises"] += tr.stats["premises_of"].calls - before[1]
    tr.extra["expand_multiset"] += tr.stats["multiset"].calls - before[2]


def _post_check(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    tr.extra["check_nodes"] += _nodes(args[0] if args else kwargs["d"])


def _post_codec(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    if isinstance(result, str):
        tr.extra["cert_bytes"] += len(result.encode())
        tr.extra["dumps_calls"] += 1


def _post_prove_ms(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    tr.prove_ms.setdefault(type(result).__name__, []).append(elapsed * 1e3)


def _post_prove(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    _post_prove_ms(tr, before, elapsed, result, args, kwargs)
    expands = tr.stats["expand"].calls - before[0]
    tr.extra["prove_expands"] += expands
    tr.extra["prove_expand_time"] += tr.stats["expand"].time - before[3]
    kind = type(result).__name__
    if kind == "Proved":
        tr.extra["proved_nodes"] += _nodes(result.proof)
        tr.extra["proved_expands"] += expands
    elif kind == "BudgetExceeded":
        tr.extra["budget_aborts"] += 1


def _post_cut(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    log = kwargs.get("log")
    if log is not None:
        tr.extra["cut_log"] += len(log)
    tr.extra["cut_outputs"] += 1
    tr.extra["cut_output_nodes"] += _nodes(result)


def _post_countermodel(tr: Tracer, before, elapsed, result, args, kwargs) -> None:
    if result is not None:
        tr.extra["countermodels_found"] += 1


_POST = {
    "expand": _post_expand,
    "check": _post_check,
    "codec": _post_codec,
    "prove": _post_prove,
    "cut_admissible": _post_cut,
    "eliminate": _post_cut,
    "countermodel": _post_countermodel,
}
_BARE_POST = {"prove": _post_prove_ms}
