"""Span tracer that wraps genbound's public functions from outside the program.

``Tracer.install`` replaces every public function of each genbound module with
a wrapper that records a span (name, start, end, parent span, request id).
A function that another module imported by name is replaced in that module
too, so ``deviation.expected_rademacher`` or ``linear.draw_words`` is traced
like the original binding.  Two methods get the same treatment:
``DiscreteDistribution.draw_index_trials`` and the class builders returned by
``DiscreteInstance.builder``.  Product enumerations are generators, so each
step of one is its own span.

Spans are kept in flat in-memory arrays and written out once at the end.  A
span's self time is its duration minus the part of it that its child spans
cover; spans opened on a worker thread take the innermost open span of the
main thread as their parent.  Nothing is changed on disk: ``uninstall``
restores every binding.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core", "instances", "complexity", "deviation", "concentration", "entropy", "linear", "cli")
REPLAY_REQUESTS = 10  # Monte Carlo calls of this many traced requests are replayed

_RNG = ("core.draw_words", "core.draw_index_trials")
_COLUMNS = ("id", "name", "parent", "request", "start", "end")
_MC = ("complexity.empirical_rademacher_mc", "complexity.expected_rademacher_mc")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._spans = array("d")  # flat rows of _COLUMNS; ids stay exact below 2**53
        self.request = -1
        self.counts: Counter = Counter()
        self.replay: list[tuple] = []  # (name, function, arguments by name)
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def _record(self, sid, nid, parent, start, end) -> None:
        with self._lock:
            self._spans.extend((sid, nid, parent, self.request, start, end))

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with a span per call; ``hook(fn, arguments)`` may rename the span."""
        nid = self._name_id(name)
        if hook is not None:
            parameters = inspect.signature(fn).parameters
            positional = list(parameters)
            defaults = {k: p.default for k, p in parameters.items() if p.default is not p.empty}

        def traced(*args, **kwargs):
            span_nid = nid
            if hook is not None:
                renamed = hook(fn, {**defaults, **dict(zip(positional, args)), **kwargs})
                if renamed is not None:
                    span_nid = self._name_id(renamed)
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._next_id)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._record(sid, span_nid, parent, start, end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every step is a span."""
        nid = self._name_id(name)

        def steps(gen):
            while True:
                parent = self._parent(self._stack())
                sid = next(self._next_id)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._record(sid, nid, parent, start, perf_counter())
                    return
                self._record(sid, nid, parent, start, perf_counter())
                yield item

        def traced(*args, **kwargs):
            self.counts[name + ".passes"] += 1
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- hooks: counts at the layer boundaries ------------------------------

    def _hook(self, name: str):
        def replay(fn, arguments):
            if self.request < REPLAY_REQUESTS:
                args = {k: inspect.unwrap(v) if callable(v) else v for k, v in arguments.items()}
                self.replay.append((name, fn, args))

        # a parameter a later version renames reads as 0 rather than failing
        def sign_rows(fn, a):
            self.counts["core.sign_rows"] += a.get("stop", 0) - a.get("start", 0)

        def rng_words(fn, a):
            self.counts["core.rng_words"] += max(a.get("count", 0), 0) * a.get("words_per_draw", 0)

        def mc(fn, a):
            self.counts["complexity.mc_draws"] += a.get("draws", 0)
            replay(fn, a)

        def tail(fn, a):
            self.counts["concentration.trials"] += a.get("trials", 0)
            replay(fn, a)

        def dudley(fn, a):
            method = getattr(a.get("cover_method"), "value", a.get("cover_method"))
            return f"entropy.verify_dudley[{method}]"

        hooks = {
            "core.sign_block": sign_rows,
            "core.draw_words": rng_words,
            "complexity.empirical_rademacher_mc": mc,
            "complexity.expected_rademacher_mc": mc,
            "concentration.simulate_tail": tail,
            "entropy.verify_dudley": dudley,
        }
        return hooks.get(name)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public genbound function, in every module that binds it."""
        import genbound
        from genbound.core import DiscreteDistribution
        from genbound.instances import DiscreteInstance

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"genbound.{layer}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(value):
                    wrappers[id(value)] = (value, self.wrap_generator(name, value))
                else:
                    wrappers[id(value)] = (value, self.wrap(name, value, self._hook(name)))
        modules = [genbound] + [sys.modules[f"genbound.{layer}"] for layer in LAYERS if f"genbound.{layer}" in sys.modules]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(mod, attr, entry[1])

        draw = getattr(DiscreteDistribution, "draw_index_trials", None)
        if draw is not None:
            self._set(DiscreteDistribution, "draw_index_trials", self.wrap("core.draw_index_trials", draw))
        builder = getattr(DiscreteInstance, "builder", None)
        if builder is not None:

            def traced_builder(instance, *args, **kwargs):
                return self.wrap("instances.build", builder(instance, *args, **kwargs))

            self._set(DiscreteInstance, "builder", traced_builder)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.array(self._spans, dtype=np.float64).reshape(-1, len(_COLUMNS))
        return {
            key: table[:, j] if key in ("start", "end") else table[:, j].astype(np.int64)
            for j, key in enumerate(_COLUMNS)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _rows(ids: np.ndarray) -> np.ndarray:
    """Map from span id to its row in the span arrays."""
    row = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int64)
    row[ids] = np.arange(ids.size)
    return row


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    ids, parent = spans["id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    row = _rows(ids)
    covered = np.zeros(ids.size)
    children = np.flatnonzero(parent >= 0)
    children = children[np.lexsort((start[children], parent[children]))]
    current, lo, hi = -1, 0.0, 0.0
    for p, s, e in zip(parent[children].tolist(), start[children].tolist(), end[children].tolist()):
        if p != current:
            if current >= 0:
                covered[row[current]] += hi - lo
            current, lo, hi = p, s, e
        elif s > hi:
            covered[row[current]] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if current >= 0:
        covered[row[current]] += hi - lo
    return (end - start) - covered


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request layer figures from the recorded spans and counts."""
    spans = tracer.arrays()
    names = tracer.names
    width = len(names)
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    calls = np.bincount(spans["name"], minlength=width)
    total = np.bincount(spans["name"], weights=dur, minlength=width)
    self_s = np.bincount(spans["name"], weights=own, minlength=width)
    index = {name: i for i, name in enumerate(names)}

    def ms(values, *wanted) -> float:
        return 1000.0 * sum(float(values[index[w]]) for w in wanted if w in index) / requests

    def layer_self(layer) -> float:
        rows = [i for i, name in enumerate(names) if name.split(".")[0] == layer]
        return 1000.0 * float(self_s[rows].sum()) / requests

    def count(*wanted) -> float:
        return sum(float(calls[index[w]]) for w in wanted if w in index) / requests

    # RNG time counts spans not nested in another RNG span
    rng = np.array([name in _RNG for name in names], dtype=bool)[spans["name"]]
    has_parent = spans["parent"] >= 0
    parent_rng = np.zeros(rng.size, dtype=bool)
    parent_rng[has_parent] = rng[_rows(spans["id"])[spans["parent"][has_parent]]]
    rng_ms = 1000.0 * float(dur[rng & ~parent_rng].sum()) / requests

    tail_s = total[index["concentration.simulate_tail"]] if "concentration.simulate_tail" in index else 0.0
    trials = tracer.counts["concentration.trials"]
    return {
        "core.sign_rows": tracer.counts["core.sign_rows"] / requests,
        "core.sign_ms": ms(total, "core.sign_block"),
        "core.product_passes": tracer.counts["core.enumerate_product.passes"] / requests,
        "core.product_ms": ms(total, "core.enumerate_product"),
        "core.dsum_calls": count("core.deterministic_sum"),
        "core.dsum_ms": ms(total, "core.deterministic_sum"),
        "core.rng_words": tracer.counts["core.rng_words"] / requests,
        "core.rng_ms": rng_ms,
        "instances.builder_calls": count("instances.build"),
        "complexity.self_ms": layer_self("complexity"),
        "complexity.mc_draws": tracer.counts["complexity.mc_draws"] / requests,
        "complexity.mc_ms": ms(total, *_MC),
        "deviation.self_ms": layer_self("deviation"),
        "deviation.expectation_ms": ms(total, "deviation.verify_expectation_bound"),
        "deviation.audit_ms": ms(total, "deviation.audit_bounded_difference"),
        "deviation.symmetrize_ms": ms(total, "deviation.check_symmetrization_identity"),
        "deviation.ud_calls": count("deviation.uniform_deviation"),
        "concentration.self_ms": layer_self("concentration"),
        "concentration.trials": trials / requests,
        "concentration.trials_per_s": trials / tail_s if tail_s > 0 else 0.0,
        "entropy.exact_cover_ms": ms(self_s, "entropy.verify_dudley[exact]"),
        "entropy.greedy_cover_ms": ms(self_s, "entropy.verify_dudley[greedy]"),
        "linear.self_ms": layer_self("linear"),
        "cli.self_ms": layer_self("cli"),
    }
