"""In-memory span tracer that wraps the program's public callables from outside.

A :class:`Tracer` records one span per call of every wrapped function or
method: span name, start, end, parent span and request id, in flat arrays
that stay in memory until :meth:`Tracer.save` writes them once at exit.
:meth:`Tracer.install` wraps the callables named by a spec table (see
``layers.py``) and rebinds each module-level function in every loaded
``repro`` module that imported it by name, so calls through any import path
are seen.  Nothing in the program is edited; :meth:`Tracer.uninstall` puts
every original back.

Self time of a span is its duration minus the time its child spans cover
(:func:`self_times`); calls are strictly nested on one thread, so children
never overlap and the cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The program's top-level package: the modules whose import sites are rebound.
PROGRAM = "repro"

#: pre(tracer, args, kwargs) runs before the span opens; post(tracer, args,
#: kwargs, result) after it closes (only when the call returned).
Hook = Optional[Callable]


class Tracer:
    """Span store plus the named counters the wrapper hooks accumulate."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.current_request = -1
        self.counters: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key``."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def name_id(self, name: str) -> int:
        """Index of ``name`` in the span-name table (added on first use)."""
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn: Callable, name: str, pre: Hook = None, post: Hook = None) -> Callable:
        """A wrapper of ``fn`` that records one span per call (per resume for
        generator functions, so a lazy stream's work lands where it runs)."""
        sid = self.name_id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def open_span() -> int:
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.current_request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield value

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, specs: Sequence[Tuple[str, Sequence[str], Hook, Hook]]) -> int:
        """Wrap every callable of ``specs`` = ``(span name, targets, pre, post)``.

        Methods are replaced on their defining class (static and class methods
        keep their descriptor); module-level functions are replaced in every
        loaded ``repro`` module that holds the same function object under any
        name, their own module included.  Returns the number of attributes
        replaced.
        """
        functions: Dict[int, Callable] = {}
        replaced = 0
        for name, targets, pre, post in specs:
            for target in targets:
                for owner, attr, value in _resolve(target):
                    if inspect.isclass(owner):
                        if isinstance(value, (staticmethod, classmethod)):
                            wrapped = type(value)(self.wrap(value.__func__, name, pre, post))
                        else:
                            wrapped = self.wrap(value, name, pre, post)
                        self._undo.append((owner, attr, value))
                        setattr(owner, attr, wrapped)
                        replaced += 1
                    elif id(value) not in functions:
                        functions[id(value)] = self.wrap(value, name, pre, post)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != PROGRAM:
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in functions:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, functions[id(value)])
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "request": np.frombuffer(self.request, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        """Write all spans and the name table to one compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of its children."""
    duration = end - start
    child = parent >= 0
    cover = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - cover


def per_name(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """For every span name: call count, summed self time, summed duration, and
    the count of outermost calls (those not nested in a span of the same name)."""
    spans = tracer.arrays()
    out: Dict[str, Dict[str, float]] = {}
    if not len(tracer):
        return out
    names, parent = spans["name"], spans["parent"]
    own = self_times(spans["start"], spans["end"], parent)
    duration = spans["end"] - spans["start"]
    parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
    k = len(tracer.names)
    calls = np.bincount(names, minlength=k)
    self_s = np.bincount(names, weights=own, minlength=k)
    total_s = np.bincount(names, weights=duration, minlength=k)
    outer = np.bincount(names[parent_name != names], minlength=k)
    for sid, name in enumerate(tracer.names):
        out[name] = {"calls": int(calls[sid]), "self_s": float(self_s[sid]),
                     "total_s": float(total_s[sid]), "outer_calls": int(outer[sid])}
    return out


def root_time(tracer: Tracer) -> float:
    """Summed duration of the top-level spans (those with no parent)."""
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    return float((spans["end"][roots] - spans["start"][roots]).sum())


def _resolve(target: str) -> List[Tuple[object, str, object]]:
    """``"module:attr"``, ``"module:Class.method"`` or ``"module:*"`` (every
    public function defined in the module) as (owner, attribute, value)."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if path == "*":
        return [(module, attr, value) for attr, value in vars(module).items()
                if not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module_name]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    value = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    return [(owner, attr, value)]
