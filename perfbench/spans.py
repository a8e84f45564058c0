"""In-memory span recorder that wraps a layer's public functions.

A span is ``(name, start_ns, end_ns, span_id, parent_id, seq)``.  The
parent comes from a thread-local stack of open spans, and ``seq`` is the
sequence number of the query the load generator is issuing on that
thread (``-1`` when none), so every client-side span of one query shares
it.  Spans are kept in per-thread ``array`` buffers (no lock on the hot
path) and reduced once, at the end, by :func:`reduce_spans`.

Functions are patched *where their caller looks them up*: a module-level
``send_frame`` imported into ``repro.live.client`` must be patched in
that module's namespace, not only in ``repro.live.protocol``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array

_FIELDS = 6  # name_id, start, end, span_id, parent_id, seq


class Tracer:
    """Records spans around wrapped callables; restores them on close."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------ context

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.seq = -1
            local.buf = array("q")
            with self._buffers_lock:
                self._buffers.append(local.buf)
        return local

    def set_seq(self, seq: int) -> None:
        """Tag the spans this thread opens next with query ``seq``."""
        self._state().seq = seq

    def context(self) -> tuple[int, int]:
        """``(open span id, seq)`` of this thread, for handing to workers."""
        local = self._state()
        return (local.stack[-1] if local.stack else 0), local.seq

    def bind(self, fn, ctx: tuple[int, int]):
        """``fn`` run on another thread as a child of ``ctx``."""
        def bound(*args, **kwargs):
            local = self._state()
            saved_stack, saved_seq = local.stack, local.seq
            local.stack = [ctx[0]] if ctx[0] else []
            local.seq = ctx[1]
            try:
                return fn(*args, **kwargs)
            finally:
                local.stack, local.seq = saved_stack, saved_seq
        return bound

    def clear(self) -> None:
        """Forget every span and count so far (call while idle)."""
        with self._buffers_lock:
            for buf in self._buffers:
                del buf[:]
        with self._counts_lock:
            self.counts.clear()

    def count(self, name: str, n: int = 1) -> None:
        with self._counts_lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------ wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def traced(self, fn, name: str, on_result=None):
        """``fn`` wrapped in a span; ``on_result(tracer, args, result)``
        may add counts from what the call returned."""
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        ids = self._ids
        state = self._state
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = state()
            stack = local.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.buf.extend((name_id, start, end, span_id, parent,
                                  local.seq))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None,
              adapt=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its
        traced form until :meth:`restore`.  ``adapt(original)`` may
        return the function to trace in place of ``original``."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner}.{attr}: wrap the underlying function")
        inner = adapt(original) if adapt is not None else original
        self.replace(owner, attr, self.traced(inner, name, on_result))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ output

    def spans(self) -> list[tuple[str, int, int, int, int, int]]:
        """Every closed span, as ``(name, start, end, id, parent, seq)``."""
        out = []
        with self._buffers_lock:
            buffers = list(self._buffers)
        for buf in buffers:
            raw = buf.tolist()
            for i in range(0, len(raw), _FIELDS):
                name_id, start, end, span_id, parent, seq = raw[i:i + _FIELDS]
                out.append((self._names[name_id], start, end, span_id,
                            parent, seq))
        return out


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def reduce_spans(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, ``total_ns`` and ``self_ns``.

    Self time is a span's duration minus the part of its interval that
    its children cover.  Children may nest or overlap each other (fan-out
    branches on worker threads); overlapping time is subtracted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, _, parent, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for name, start, end, span_id, _, _ in spans:
        row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        duration = end - start
        kids = children.get(span_id)
        row["count"] += 1
        row["total_ns"] += duration
        row["self_ns"] += duration - (_covered(kids, start, end) if kids
                                      else 0)
    return out


def merge_reduced(parts) -> dict[str, dict[str, float]]:
    """Sum reductions made in several processes."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, {"count": 0, "total_ns": 0,
                                        "self_ns": 0})
            for key in acc:
                acc[key] += row[key]
    return out
