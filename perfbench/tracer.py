"""Per-layer tracing of confsym from outside its source.

:class:`LayerTracer` replaces the public functions and methods of each layer
module, and each registered check function, with timing wrappers in the
current process, and puts every original back on :meth:`uninstall`.  A
function imported by name into other modules (``from .geometry import
special_conformal_map``) is replaced in every confsym namespace that binds
it, so calls across layers are seen whichever module makes them.

Per layer it records calls, self time and exceptions raised.  A span's self
time is its duration minus the time covered by its direct child spans.  An
exception counts once for each layer it leaves: it is counted on a span that
exits by raising when that span has no parent or its parent belongs to
another layer.

It also counts, per check, the samples the check skips: exceptions that a
child span raises into a check's span when the check then returns a report.
A check that raises is an error in its report and is not counted here.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "cli", "modelspec", "suites", "sampling", "geometry", "fields",
    "clifford", "transforms", "noether", "dual3", "mechanics",
)


class LayerStats:
    __slots__ = ("calls", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


def _traced_members(module):
    """(owner, attribute, function, descriptor type) for the public functions
    defined in ``module`` and the public methods and ``__init__`` of its
    classes."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, None
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    yield obj, attr, raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    yield obj, attr, raw, None


class LayerTracer:
    """Installs and removes the span wrappers; holds the counters."""

    def __init__(self):
        self.layers = {name: importlib.import_module(f"confsym.{name}") for name in LAYERS}
        self.stats = {name: LayerStats() for name in LAYERS}
        self.check_s = {}
        self.skipped = {}
        self._stack = []
        self._saved = []  # (owner, attribute, original value) in install order

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer, check=None):
        """Wrap ``fn`` as a span of ``layer``; ``check`` names the check
        whose function ``fn`` is."""
        stats = self.stats[layer]
        stack = self._stack
        skipped = self.skipped
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, layer, check, 0]  # child seconds, layer, check, exceptions from children
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                parent = stack[-2] if len(stack) > 1 else None
                if parent is None or parent[1] != layer:
                    stats.raised += 1
                if parent is not None and parent[2] is not None:
                    parent[3] += 1
                raise
            else:
                if check is not None and frame[3]:
                    skipped[check] = skipped.get(check, 0) + frame[3]
                return result
            finally:
                duration = perf() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return span

    def _check_timer(self, fn, name, inner):
        check_s = self.check_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                check_s[name] = check_s.get(name, 0.0) + perf() - start

        return timed

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- public API -------------------------------------------------------

    def install(self, layers: bool = True) -> None:
        """Wrap every check function; with ``layers`` also wrap the layer
        modules.  Check functions become spans of the ``suites`` layer."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        suites = self.layers["suites"]
        if layers:
            wrapped = {}
            for layer, module in self.layers.items():
                for owner, attr, fn, kind in _traced_members(module):
                    span = wrapped.setdefault(id(fn), (fn, self._span(fn, layer)))[1]
                    if owner is not module:
                        self._replace(owner, attr, kind(span) if kind else span)
            namespaces = [m for n, m in sys.modules.items()
                          if m is not None and (n == "confsym" or n.startswith("confsym."))]
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    entry = wrapped.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._replace(module, attr, entry[1])
        for name, cd in list(suites.CHECKS.items()):
            inner = self._span(cd.fn, "suites", check=name) if layers else cd.fn
            self._replace_check(suites, name, dataclasses.replace(cd, fn=self._check_timer(cd.fn, name, inner)))

    def _replace_check(self, suites, name, value):
        self._saved.append((suites.CHECKS, name, suites.CHECKS[name]))
        suites.CHECKS[name] = value

    def uninstall(self) -> bool:
        """Restore every original; True when each one is back in place."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        return all(
            (owner[attr] if isinstance(owner, dict) else vars(owner)[attr]) is original
            for owner, attr, original in saved
        ) and not self._stack

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls, stats.self_s, stats.raised = 0, 0.0, 0
        self.check_s.clear()
        self.skipped.clear()

    def snapshot(self) -> dict:
        return {
            "layers": {n: (s.calls, s.self_s, s.raised) for n, s in self.stats.items()},
            "checks": dict(self.check_s),
            "skipped": dict(self.skipped),
        }
