"""Outside-in tracing of the engine's public functions.

The engine is not modified.  ``Tracer.install`` replaces each traced
function with a timing wrapper in *every* ``jetham`` module that holds it
under some name: ``dtensor``, ``spray``, ``nlconn``, ``frames`` and ``cli``
import ``transition`` and friends by name, so patching the defining module
alone would miss their calls.  The component evaluators are methods and are
patched on their classes.

Spans stay in memory as parallel lists (name, start, end, parent) until the
caller reduces them with ``Tracer.summary``; nothing is written out while a
verdict runs.  A span's self time is its duration minus the time covered by
its child spans.

``NodeCounter`` counts expression-node ``eval`` calls.  It wraps every node
class's ``eval``, which doubles the cost of evaluation, so it runs in a pass
of its own and never inside timed spans.

``tree_stats`` sizes an expression forest without ``hash()`` or ``str()`` on
``Expr`` (both recurse without caching in the engine and fail on large
trees): an iterative walk memoized by ``id`` counts tree nodes (shared
subtrees counted at every use) and interns structural keys to count
distinct nodes.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

# module -> public functions timed by the tracer
FUNCTIONS = {
    "problem": ("problem_from_dict",),
    "expr": ("parse",),
    "charts": ("transition", "induced_point", "scalar_to_new_chart"),
    "metrics": (
        "christoffel_space",
        "inverse_space",
        "transform_space_metric",
        "transform_time_metric",
    ),
    "dtensor": ("verify_dtensor", "push_forward", "vertical_metrical"),
    "spray": (
        "verify_temporal_law",
        "verify_spatial_law",
        "canonical_temporal",
        "canonical_spatial",
    ),
    "nlconn": ("canonical_connection", "connection_from_spray", "verify_connection_law"),
    "frames": ("verify_adapted_tensoriality", "pairing", "adapted_frame", "adapted_coframe"),
    "report": ("report_to_json",),
    "cli": ("cmd_verify",),
}

# functions that also report self time
VERIFIERS = (
    "dtensor.verify_dtensor",
    "spray.verify_temporal_law",
    "spray.verify_spatial_law",
    "nlconn.verify_connection_law",
    "frames.verify_adapted_tensoriality",
    "cli.cmd_verify",
)

# component evaluators, all reported together as ``expr.evaluate``
EVALUATORS = (
    ("dtensor", "DTensor", "evaluate"),
    ("spray", "TemporalSemispray", "evaluate"),
    ("spray", "SpatialSemispray", "evaluate"),
    ("nlconn", "NonlinearConnection", "evaluate_temporal"),
    ("nlconn", "NonlinearConnection", "evaluate_spatial"),
    ("frames", "AdaptedFrame", "evaluate"),
    ("frames", "AdaptedCoframe", "evaluate"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in FUNCTIONS.items() for f in fns) + (
    "expr.evaluate",
)


def _engine_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "jetham" or name.startswith("jetham."))
    ]


class Tracer:
    """Timing wrappers around the engine's public functions.

    ``on_build`` is called with (qualified name, args, result) after every
    ``nlconn.canonical_connection`` and ``charts.scalar_to_new_chart`` call,
    so the caller can keep the built objects for sizing after the run.
    """

    def __init__(self, on_build=None):
        self.on_build = on_build
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.errors: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._stack
        )
        errors = self.errors
        notify = self.on_build if name in (
            "nlconn.canonical_connection", "charts.scalar_to_new_chart"
        ) else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if notify is not None:
                notify(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function that exists; names not found in this
        version of the engine are listed in ``missing``."""
        self.missing = []
        modules = _engine_modules()
        by_name = {m.__name__: m for m in modules}
        for mod, fns in FUNCTIONS.items():
            home = by_name.get(f"jetham.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod}.{fn_name}")
                    continue
                self._originals[id(original)] = f"{mod}.{fn_name}"
                wrapper = self._wrap(f"{mod}.{fn_name}", mod, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)
        for mod, cls_name, meth in EVALUATORS:
            cls = getattr(by_name.get(f"jetham.{mod}"), cls_name, None)
            original = getattr(cls, "__dict__", {}).get(meth)
            if original is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            self._originals[id(original)] = f"{mod}.{cls_name}.{meth}"
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap("expr.evaluate", "expr", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._originals.clear()

    def unbound(self) -> list[str]:
        """Names under which an engine module still holds an unwrapped
        traced function (a missed rebinding); empty when installed right."""
        found = []
        for m in _engine_modules():
            for attr, value in vars(m).items():
                if id(value) in self._originals:
                    found.append(f"{m.__name__}.{attr}")
                if isinstance(value, type):
                    for meth, v in vars(value).items():
                        if id(v) in self._originals:
                            found.append(f"{m.__name__}.{value.__name__}.{meth}")
        return found

    # -- reduction -------------------------------------------------------------

    def clear(self):
        """Drop the recorded spans (error counts are kept)."""
        for spans in (self.names, self.start, self.end, self.parent):
            spans.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            duration = self.end[i] - self.start[i]
            covered = 0.0
            reach = self.start[i]
            for c in children.get(i, ()):  # children in start order
                lo, hi = max(self.start[c], reach), self.end[c]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - covered
        return out


class NodeCounter:
    """Counts ``eval`` calls on expression nodes while installed."""

    def __init__(self):
        self.count = 0
        self._patches: list[tuple[type, object]] = []

    def install(self):
        expr = sys.modules["jetham.expr"]
        base = expr.Expr
        for cls in vars(expr).values():
            if isinstance(cls, type) and issubclass(cls, base) and "eval" in vars(cls):
                original = vars(cls)["eval"]
                self._patches.append((cls, original))
                setattr(cls, "eval", self._counted(original))

    def _counted(self, original):
        def eval(node, q):
            self.count += 1
            return original(node, q)

        return eval

    def uninstall(self):
        for cls, original in reversed(self._patches):
            setattr(cls, "eval", original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Expression sizing
# ---------------------------------------------------------------------------

_PARTS: dict[type, tuple[str, ...]] = {}


def _part_names(node) -> tuple[str, ...]:
    cls = type(node)
    names = _PARTS.get(cls)
    if names is None:
        if dataclasses.is_dataclass(cls):
            names = tuple(f.name for f in dataclasses.fields(cls))
        else:
            names = tuple(getattr(cls, "__slots__", ())) or tuple(vars(node))
        _PARTS[cls] = names
    return names


def tree_stats(roots, expr_type) -> tuple[int, int]:
    """(tree nodes, distinct nodes) of a forest of expressions.

    Tree nodes count every node as often as it is reached from the roots,
    as a tree without sharing would store it.  Distinct nodes count the
    structurally different subexpressions across the whole forest.
    """
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    intern: dict[tuple, int] = {}
    tree_total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in size:
                continue
            parts = [getattr(node, n) for n in _part_names(node)]
            kids = [p for p in parts if isinstance(p, expr_type)]
            if not expanded:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
                continue
            size[key] = 1 + sum(size[id(k)] for k in kids)
            struct = (type(node).__name__,) + tuple(
                ("e", canon[id(p)]) if isinstance(p, expr_type) else ("v", p)
                for p in parts
            )
            canon[key] = intern.setdefault(struct, len(intern))
        tree_total += size[id(root)]
    return tree_total, len(intern)
