"""Host-time attribution by layer, measured from outside the simulator.

A :class:`Tracer` wraps the public functions at each layer boundary of
``repro`` (class attributes patched for the duration of one traced run)
and keeps one span per call on a stack.  When a span closes, its
duration goes to its parent's child time and ``duration - child time``
goes to its own layer: that is the layer's *self time*.  Event-queue
callbacks are not wrapped; their duration comes from the existing
``EventQueue.profiler`` hook and is charged to the module of the
SimObject that owns the event (found from the event-name prefix via
``sim.objects``).  Timing-port sends are charged to the module of the
port that receives them.

Wrappers are installed by :meth:`Tracer.install` and removed by
:meth:`Tracer.uninstall`, which checks that every patched attribute is
back to its original object.
"""

from __future__ import annotations

import time
from typing import Callable

#: every layer the tracer attributes time to, in report order.  "other"
#: holds callbacks and port receives whose owner module maps to no named
#: layer (the IO master that carries host-software MMIO, for example).
LAYERS = (
    "soc.event",
    "soc.cpu",
    "soc.cache",
    "coherence",
    "coherence.check",
    "soc.mem",
    "soc.interconnect",
    "bridge.structs",
    "bridge.rtl_object",
    "bridge.shared_library",
    "rtl",
    "models.nvdla.core",
    "other",
)

#: owner module prefix -> layer; the first matching prefix wins
_MODULE_LAYERS = (
    ("repro.coherence.check", "coherence.check"),
    ("repro.coherence", "coherence"),
    ("repro.soc.cpu", "soc.cpu"),
    ("repro.soc.cache", "soc.cache"),
    ("repro.soc.mem", "soc.mem"),
    ("repro.soc.interconnect", "soc.interconnect"),
)


def owner_layer(obj) -> str:
    """Layer of a SimObject (or any owner) from its class's module."""
    from repro.bridge.rtl_object import RTLObject

    if isinstance(obj, RTLObject):
        return "bridge.rtl_object"
    module = type(obj).__module__
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _subclasses(cls) -> list:
    """*cls* and all its subclasses, each once."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


_MISSING = object()


class Tracer:
    """Span stack, per-(layer, owner class) accumulators and the patches.

    Accumulator keys are ``(layer, owner_class_name)``; spans at a fixed
    boundary use ``""`` as the class.  ``acc[key] = [self_seconds, calls]``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # one frame per open span: [child_seconds, mark]; ``mark`` is
        # only used by EventQueue.run frames (see host_event)
        self._stack: list[list[float]] = []
        self.acc: dict[tuple[str, str], list] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._names: dict[str, object] = {}
        self._event_keys: dict[str, tuple[str, str]] = {}
        self._port_keys: dict[object, tuple[str, str]] = {}
        self._prev_profiler = None
        self.scheduled = 0

    # -- spans ---------------------------------------------------------------

    def span(self, key: tuple[str, str], fn: Callable) -> Callable:
        """*fn* wrapped in a span charged to the fixed *key*."""
        stack, acc, clock = self._stack, self.acc, self.clock

        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                a = acc.get(key)
                if a is None:
                    a = acc[key] = [0.0, 0]
                a[0] += dur - frame[0]
                a[1] += 1
                if stack:
                    stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def port_span(self, fn: Callable) -> Callable:
        """A port send wrapped in a span charged to the receiving owner."""
        stack, acc, clock = self._stack, self.acc, self.clock
        keys, resolve = self._port_keys, self._port_key

        def traced(port, pkt):
            key = keys.get(port)
            if key is None:
                key = resolve(port)
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(port, pkt)
            finally:
                dur = clock() - t0
                stack.pop()
                a = acc.get(key)
                if a is None:
                    a = acc[key] = [0.0, 0]
                a[0] += dur - frame[0]
                a[1] += 1
                if stack:
                    stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def host_event(self, name: str, tick: int, t0: float, dur: float) -> None:
        """``EventQueue.profiler`` hook: one callback of *dur* seconds.

        Spans opened inside the callback added their durations to the
        enclosing ``EventQueue.run`` frame.  The part added since the
        previous callback (``child - mark``) belongs to this callback,
        whose self time is *dur* minus that part; the run frame then
        counts the whole callback as one child of *dur*.
        """
        key = self._event_keys.get(name)
        if key is None:
            key = self._event_key(name)
        own = dur
        stack = self._stack
        if stack:
            frame = stack[-1]
            own -= frame[0] - frame[1]
            frame[0] = frame[1] = frame[1] + dur
        a = self.acc.get(key)
        if a is None:
            a = self.acc[key] = [0.0, 0]
        a[0] += own
        a[1] += 1

    # -- owner resolution ------------------------------------------------------

    def bind(self, sim) -> None:
        """Learn the object names of *sim* for event/port attribution."""
        for obj in sim.objects:
            self._names.setdefault(obj.name, obj)
            self._names.setdefault(obj.path(), obj)

    def _owner_by_name(self, name: str):
        while "." in name:
            name = name.rsplit(".", 1)[0]
            obj = self._names.get(name)
            if obj is not None:
                return obj
        return None

    def _key_of(self, obj) -> tuple[str, str]:
        if obj is None:
            return ("other", "")
        return (owner_layer(obj), type(obj).__name__)

    def _event_key(self, name: str) -> tuple[str, str]:
        key = self._event_keys[name] = self._key_of(self._owner_by_name(name))
        return key

    def _port_key(self, port) -> tuple[str, str]:
        from repro.soc.ports import RequestPort

        peer = port.peer
        handler = (peer._recv_timing_resp if isinstance(peer, RequestPort)
                   else peer._recv_timing_req)
        owner = getattr(handler, "__self__", None)
        if owner is None or not hasattr(owner, "sim"):
            owner = peer.owner or self._owner_by_name(peer.name)
        key = self._port_keys[port] = self._key_of(owner)
        return key

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, key: tuple[str, str]) -> None:
        self._patch(owner, attr, self.span(key, getattr(owner, attr)))

    def install(self) -> None:
        """Patch every layer boundary and adopt this tracer as the
        default event profiler.  Call before the system is built: an
        EventQueue picks up the profiler when it is constructed."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import repro.coherence.check as coherence_check
        from repro.bridge.shared_library import RTLSharedLibrary, SharedLibrary
        from repro.bridge.structs import StructSpec
        from repro.models.nvdla.core import NVDLACore
        import repro.models.nvdla  # noqa: F401  (registers wrapper classes)
        import repro.models.pmu  # noqa: F401
        from repro.rtl.simulator import RTLSimulator
        from repro.soc.event import EventQueue
        from repro.soc.ports import RequestPort, ResponsePort
        from repro.trace.flags import get_default_profiler, set_default_profiler

        self._wrap(EventQueue, "run", ("soc.event", ""))
        schedule = EventQueue.schedule

        def counted_schedule(*args, **kwargs):
            self.scheduled += 1
            return schedule(*args, **kwargs)

        self._patch(EventQueue, "schedule",
                    self.span(("soc.event", ""), counted_schedule))
        self._patch(RequestPort, "send_timing_req",
                    self.port_span(RequestPort.send_timing_req))
        self._patch(ResponsePort, "send_timing_resp",
                    self.port_span(ResponsePort.send_timing_resp))
        for attr in ("pack", "unpack", "zeros"):
            self._wrap(StructSpec, attr, ("bridge.structs", ""))
        for cls in _subclasses(SharedLibrary):
            attrs = ["tick", "tick_batch"]
            if issubclass(cls, RTLSharedLibrary):
                attrs += ["drive", "collect"]
            for attr in attrs:
                if attr in cls.__dict__:
                    self._wrap(cls, attr, ("bridge.shared_library", ""))
        for attr in ("settle", "tick", "run_cycles"):
            self._wrap(RTLSimulator, attr, ("rtl", ""))
        self._wrap(NVDLACore, "step", ("models.nvdla.core", ""))
        self._wrap(coherence_check, "check_coherence_invariants",
                   ("coherence.check", ""))
        self._prev_profiler = get_default_profiler()
        set_default_profiler(self)

    def uninstall(self) -> None:
        """Restore every patched attribute, then check that each one is
        the original object again; raise if any is not."""
        from repro.trace.flags import set_default_profiler

        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        set_default_profiler(self._prev_profiler)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
                if o.__dict__.get(a, _MISSING) is not orig]
        if left:
            raise RuntimeError(f"wrappers still installed: {left}")

    def reset(self) -> None:
        """Zero the accumulators (at the first simulated event, so
        set-up work done under the wrappers is not counted).
        ``scheduled`` keeps counting from install, like the queue's
        ``executed`` counter does from construction."""
        self.acc.clear()

    # -- results -----------------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """``{layer: [self_seconds, calls]}`` over every layer."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for (layer, _cls), (self_s, calls) in self.acc.items():
            totals[layer][0] += self_s
            totals[layer][1] += calls
        return totals

    @property
    def open_spans(self) -> int:
        """Spans still open (0 after a run that returned normally)."""
        return len(self._stack)

    def class_calls(self, cls_name: str) -> int:
        return sum(calls for (_layer, cls), (_s, calls) in self.acc.items()
                   if cls == cls_name)


def layer_metrics(totals: dict[str, list], wall_s: float) -> dict[str, float]:
    """Per-layer ``self_s``/``share``/``calls`` plus ``unattributed``.

    ``unattributed`` is the traced wall time no span covers, so the
    layer self times plus ``unattributed.self_s`` equal *wall_s* and the
    shares sum to 1.
    """
    out: dict[str, float] = {}
    covered = 0.0
    for layer in LAYERS:
        self_s, calls = totals[layer]
        covered += self_s
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall_s
        out[f"{layer}.calls"] = calls
    out["unattributed.self_s"] = wall_s - covered
    out["unattributed.share"] = (wall_s - covered) / wall_s
    return out
