"""Per-layer self time, traced from outside the program.

:func:`install` wraps the public entry points of every ``repro`` module
so that each call (or each resumption of a generator or coroutine)
becomes a span of the layer that owns the code, as defined by
``LAYERS`` in ``tools/check_layers.py``:

* public functions and methods (plus ``__init__`` and ``__call__``) are
  wrapped where they are defined; module-level functions are rebound in
  every ``repro`` module that imported them by name;
* generator and coroutine functions return a proxy whose ``send`` /
  ``throw`` / ``close`` run inside the span, so time spent suspended is
  not counted;
* ``Environment.process`` wraps each process generator (public or
  private) in the same proxy, and an asyncio task factory does the same
  for tasks, so every DES process and asyncio task resumes inside the
  span of the layer that wrote it.

Self time is a span's duration minus its child spans.  Time an asyncio
loop spends waiting in its selector is idle; the rest of the time
outside any span (event-loop and benchmark overhead) is reported as
``unattributed``.  Nothing here changes what
the program computes: the wrappers call the original code with the
original arguments, so traced and untraced runs give identical results.
"""

from __future__ import annotations

import asyncio
import collections.abc
import enum
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import selectors
import time
import types
from pathlib import Path
from typing import Dict, List

#: The layers the benchmark reports one ``<layer>.self_s`` for; every
#: other ``LAYERS`` key is summed into ``other.self_s``.
REPORTED_LAYERS = (
    "des", "vehicle", "sensors", "kinematics", "core", "geometry",
    "network", "protocol", "sim", "serve",
)

_WRAPPED_DUNDERS = ("__init__", "__call__")


def load_layers(root: Path) -> Dict[str, int]:
    """``LAYERS`` from ``tools/check_layers.py`` under ``root``."""
    path = Path(root) / "tools" / "check_layers.py"
    spec = importlib.util.spec_from_file_location("_perfbench_check_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.LAYERS)


def layer_of(module_name: str, layers: Dict[str, int]) -> str:
    """The ``LAYERS`` key owning a ``repro`` module (same rule as the lint)."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        raise ValueError(f"{module_name} is not a repro module")
    if len(parts) == 1 or parts[1] == "__main__":
        return "<top>"
    if parts[1] in layers:
        return parts[1]
    raise ValueError(f"{module_name}: package {parts[1]!r} has no LAYERS entry")


def import_all_repro() -> List[types.ModuleType]:
    """Import every ``repro`` module, so that modules the program
    imports lazily are wrapped too."""
    import repro

    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith("__main__")
    ]


class LayerTracer:
    """Span stack and per-layer accumulators."""

    def __init__(self):
        #: layer -> self seconds.
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        #: entry key (``module.qualname``) -> calls or resumptions.
        self.calls: Dict[str, int] = collections.defaultdict(int)
        #: entry key -> layer, for every wrapped entry point.
        self.entries: Dict[str, str] = {}
        #: Seconds an asyncio loop spent waiting in its selector.
        self.idle_s = 0.0
        self._stack: List[list] = []

    # -- span primitives -----------------------------------------------------
    def span(self, layer: str, key: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        self.calls[key] += 1
        clock = time.perf_counter
        stack = self._stack
        frame = [clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            duration = clock() - frame[0]
            self.self_s[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def snapshot(self) -> dict:
        """Plain copy of the accumulators (for windowed deltas)."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "idle_s": self.idle_s}

    # -- wrappers ------------------------------------------------------------
    def wrap_function(self, fn, layer: str, key: str):
        self.entries[key] = layer
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return GenProxy(self, fn(*args, **kwargs), layer, key)
            return gen_wrapper
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            def coro_wrapper(*args, **kwargs):
                return CoroProxy(self, fn(*args, **kwargs), layer, key)
            return coro_wrapper
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(layer, key, fn, *args, **kwargs)
        return wrapper

    def proxy_generator(self, gen, layers: Dict[str, int]):
        """Wrap a raw generator from a ``repro`` module in a span proxy."""
        if isinstance(gen, GenProxy) or not isinstance(gen, types.GeneratorType):
            return gen
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        if not module.startswith("repro"):
            return gen
        key = f"{module}.{gen.__qualname__}"
        self.entries.setdefault(key, layer_of(module, layers))
        return GenProxy(self, gen, self.entries[key], key)

    def proxy_coroutine(self, coro, layers: Dict[str, int]):
        """Wrap a raw coroutine from a ``repro`` module in a span proxy."""
        if isinstance(coro, CoroProxy) or not isinstance(coro, types.CoroutineType):
            return coro
        frame = coro.cr_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        if not module.startswith("repro"):
            return coro
        key = f"{module}.{coro.__qualname__}"
        self.entries.setdefault(key, layer_of(module, layers))
        return CoroProxy(self, coro, self.entries[key], key)


class GenProxy:
    """A generator whose every resumption is a span."""

    __slots__ = ("_tracer", "_gen", "_layer", "_key")

    def __init__(self, tracer: LayerTracer, gen, layer: str, key: str):
        self._tracer = tracer
        self._gen = gen
        self._layer = layer
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.span(self._layer, self._key, self._gen.send, None)

    def send(self, value):
        return self._tracer.span(self._layer, self._key, self._gen.send, value)

    def throw(self, *args):
        return self._tracer.span(self._layer, self._key, self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class CoroProxy(collections.abc.Coroutine):
    """A coroutine whose every resumption is a span (asyncio accepts it
    as a coroutine for tasks and ``await``)."""

    __slots__ = ("_tracer", "_coro", "_layer", "_key")

    def __init__(self, tracer: LayerTracer, coro, layer: str, key: str):
        self._tracer = tracer
        self._coro = coro
        self._layer = layer
        self._key = key

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._tracer.span(self._layer, self._key, self._coro.send, value)

    def throw(self, *args):
        return self._tracer.span(self._layer, self._key, self._coro.throw, *args)

    def close(self):
        return self._coro.close()


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _WRAPPED_DUNDERS


def _wrap_class(tracer: LayerTracer, cls, layer: str) -> None:
    for name, value in list(vars(cls).items()):
        if not _public(name):
            continue
        key = f"{cls.__module__}.{cls.__qualname__}.{name}"
        if isinstance(value, types.FunctionType):
            setattr(cls, name, tracer.wrap_function(value, layer, key))
        elif isinstance(value, (staticmethod, classmethod)) and isinstance(
            value.__func__, types.FunctionType
        ):
            setattr(cls, name, type(value)(
                tracer.wrap_function(value.__func__, layer, key)))


def install(root: Path) -> LayerTracer:
    """Wrap every ``repro`` entry point; returns the tracer.

    Call once per process, before the program builds any object (bound
    methods captured earlier keep calling the unwrapped code).
    """
    layers = load_layers(root)
    tracer = LayerTracer()
    modules = import_all_repro()

    #: id(original) -> (original, wrapper).
    wrapped_functions: Dict[int, tuple] = {}
    for module in modules:
        for name, value in vars(module).items():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and not issubclass(value, (enum.Enum, BaseException))
            ):
                _wrap_class(tracer, value, layer_of(module.__name__, layers))
            elif (
                isinstance(value, types.FunctionType)
                and not name.startswith("_")
                and value.__module__.startswith("repro")
                and id(value) not in wrapped_functions
            ):
                key = f"{value.__module__}.{value.__qualname__}"
                wrapped_functions[id(value)] = (value, tracer.wrap_function(
                    value, layer_of(value.__module__, layers), key))
    # Rebind each wrapped function in every module that holds it by name.
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = wrapped_functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])

    from repro.des.core import Environment

    process = Environment.process  # already the des-span wrapper

    def traced_process(env, generator):
        return process(env, tracer.proxy_generator(generator, layers))

    Environment.process = functools.wraps(process)(traced_process)

    class _TracedTaskPolicy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self):
            loop = super().new_event_loop()
            loop.set_task_factory(
                lambda loop, coro, **kwargs: asyncio.Task(
                    tracer.proxy_coroutine(coro, layers), loop=loop, **kwargs
                )
            )
            return loop

    asyncio.set_event_loop_policy(_TracedTaskPolicy())

    select = selectors.DefaultSelector.select

    def timed_select(selector, timeout=None):
        started = time.perf_counter()
        try:
            return select(selector, timeout)
        finally:
            tracer.idle_s += time.perf_counter() - started

    selectors.DefaultSelector.select = timed_select
    return tracer


def self_times(tracer_delta: dict) -> Dict[str, float]:
    """``<layer>.self_s`` for the reported layers and ``other.self_s``
    for the rest of ``LAYERS``, from a windowed accumulator delta."""
    self_s = tracer_delta["self_s"]
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in REPORTED_LAYERS}
    out["other.self_s"] = sum(
        seconds for layer, seconds in self_s.items()
        if layer not in REPORTED_LAYERS
    )
    return out


def unattributed(tracer_delta: dict, wall_s: float) -> float:
    """Seconds of ``wall_s`` that no span covered and no event loop
    spent waiting for I/O."""
    covered = sum(tracer_delta["self_s"].values()) + tracer_delta["idle_s"]
    return max(wall_s - covered, 0.0)


def delta(before: dict, after: dict) -> dict:
    """``after - before`` of two :meth:`LayerTracer.snapshot` s."""
    out = {
        field: {
            key: value - before[field].get(key, 0)
            for key, value in after[field].items()
        }
        for field in ("self_s", "calls")
    }
    out["idle_s"] = after["idle_s"] - before["idle_s"]
    return out
