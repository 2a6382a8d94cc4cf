"""Outside-in span tracing of the ``repro`` layers.

:class:`Tracer` wraps the public entry points of each layer -- class
attributes and a few module functions -- for the duration of a ``with``
block, and restores the originals on exit.  The wrappers are installed
before a scenario is built, so callbacks the program binds at build time
(``mac.receive_fn = protocol.on_packet``, channel observers, monitor
hooks) bind the wrapped versions.  No file under ``src/`` changes.

Every wrapped call records one span (name, start, end, parent, trial id)
in flat in-memory arrays; nothing is written until :meth:`Tracer.dump`.
Events the simulator dispatches are attributed to the layer that
scheduled them by wrapping the scheduler's ``schedule`` entry points:
each callback is replaced by a closure that opens a span named after the
callback's owning module.  A layer's self time is its spans' durations
minus the part covered by their child spans, so ``sim`` self time is the
event-loop remainder: dispatch and queue work, nothing a handler did.

Calls the channel makes per receiver to tiny MAC helpers
(``sense_carrier``, ``set_nav``) are not wrapped; their time stays in
``net.channel``.  Wrapper bookkeeping between a parent's and a child's
clock reads lands in the parent's self time, so traced self times run
high; the traced run reports its overhead next to them.
"""

import functools
import json
import os
import time
from array import array

import numpy as np

from repro import obs as repro_obs
from repro.exec import cache as exec_cache
from repro.exec import engine as exec_engine
from repro.exec import manifest as exec_manifest
from repro.exec import worker as exec_worker
from repro.experiments import scenario as experiments_scenario
from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.metrics.collector import MetricsCollector
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.static import StaticPlacement
from repro.net.channel import WirelessChannel
from repro.net.mac import CsmaMac
from repro.net.queue import DropTailQueue, FifoJitterQueue
from repro.net.spatial import GridIndex, ScanIndex
from repro.obs.recorder import TraceRecorder
from repro.sim.events import SchedulerBase
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer

#: Module prefix -> layer name, longest prefix first.
MODULE_LAYERS = (
    ("repro.net.spatial", "net.spatial"),
    ("repro.net.channel", "net.channel"),
    ("repro.net.mac", "net.mac"),
    ("repro.net.queue", "net.queue"),
    ("repro.sim", "sim"),
    ("repro.mobility", "mobility"),
    ("repro.core", "routing"),
    ("repro.protocols", "routing"),
    ("repro.routing", "routing"),
    ("repro.metrics", "metrics"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro.traffic", "traffic"),
    ("repro.exec", "exec"),
    ("repro.experiments", "experiments"),
)

def module_layer(module):
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def callback_layer(callback):
    """The layer owning a scheduled callback (timers: their target)."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Timer):
        callback = owner._callback
        owner = getattr(callback, "__self__", None)
    if owner is not None:
        return module_layer(type(owner).__module__)
    return module_layer(getattr(callback, "__module__", None) or "")


def _len(result, args):
    return len(result)


def _refused(result, args):
    return 0 if result else 1


def _file_size(result, args):
    return os.path.getsize(args[0])


class Tracer:
    """Span store plus the set of layer entry points it wraps."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.trial = -1
        self.counts = {}
        self._patched = []
        self._layer_cache = {}

    # -- spans ------------------------------------------------------------

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, count=None, tally=None, new_trial=False):
        """``fn`` recording a ``name`` span per call.

        ``count`` names a counter bumped per call; ``tally(result, args)``
        adds to the ``<count>.items`` counter (receptions, drops...).
        ``new_trial`` makes each call start the next trial id.
        """
        nid = self.name_id(name)
        name_of, parent, trial_of = self.name_of, self.parent, self.trial_of
        start, end, stack, counts = self.start, self.end, self.stack, self.counts
        clock = time.perf_counter
        tracer = self
        if count is not None:
            counts.setdefault(count, 0)
            if tally is not None:
                counts.setdefault(count + ".items", 0)

        def traced(*args, **kwargs):
            if new_trial:
                tracer.trial += 1
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            trial_of.append(tracer.trial)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                counts[count] += 1
                if tally is not None:
                    counts[count + ".items"] += tally(result, args)
            return result

        return traced

    def span(self, name):
        """Context manager opening one span (the benchmark's own roots)."""
        return _Span(self, self.name_id(name))

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, name, **opts):
        """Replace ``owner.attr`` by its traced version until uninstall.

        For a class, the attribute is patched on the class that defines
        it, once, so subclasses sharing an inherited method share one
        wrapper instead of nesting two.
        """
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in k.__dict__)
            if any(o is owner and a == attr for o, a, _ in self._patched):
                return
        original = owner.__dict__[attr]
        target = getattr(owner, attr)
        setattr(owner, attr,
                functools.update_wrapper(self.wrap(target, name, **opts),
                                         target))
        self._patched.append((owner, attr, original))

    def patch_scheduler(self):
        """Wrap scheduling so each event's callback opens a layer span and
        the queue insert itself is a ``sim`` span."""
        wrap = self.wrap
        layer_cache = self._layer_cache

        def handler(callback):
            key = getattr(callback, "__func__", callback)
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Timer):
                key = getattr(owner._callback, "__func__", owner._callback)
            layer = layer_cache.get(key)
            if layer is None:
                layer = layer_cache[key] = callback_layer(callback)
            if layer == "sim":
                return callback
            return wrap(callback, layer)

        schedule = SchedulerBase.schedule
        schedule_reserved = SchedulerBase.schedule_reserved
        insert = wrap(lambda fn, *a: fn(*a), "sim")

        def traced_schedule(sched, delay, callback, *args):
            return insert(schedule, sched, delay, handler(callback), *args)

        def traced_reserved(sched, time_, seq, callback, *args):
            return insert(schedule_reserved, sched, time_, seq,
                          handler(callback), *args)

        for attr, fn in (("schedule", traced_schedule),
                         ("schedule_reserved", traced_reserved)):
            self._patched.append((SchedulerBase, attr,
                                  SchedulerBase.__dict__[attr]))
            setattr(SchedulerBase, attr, fn)

    def install(self):
        """Wrap every layer's entry points (see the module docstring)."""
        self.patch_scheduler()
        self.patch(Simulator, "run", "sim")
        for cls in (RandomWaypoint, StaticPlacement):
            for attr in ("position", "positions_at"):
                self.patch(cls, attr, "mobility", count="mobility.calls")
        for cls in (GridIndex, ScanIndex):
            self.patch(cls, "near", "net.spatial",
                       count="net.spatial.near_calls", tally=_len)
            self.patch(cls, "position", "net.spatial")
        self.patch(WirelessChannel, "transmit", "net.channel",
                   count="net.channel.transmits", tally=_len)
        self.patch(WirelessChannel, "neighbors_of", "net.channel",
                   count="net.channel.neighbor_queries")
        self.patch(WirelessChannel, "in_range", "net.channel")
        self.patch(CsmaMac, "send", "net.mac", count="net.mac.sends")
        self.patch(CsmaMac, "handle_frame", "net.mac",
                   count="net.mac.frames_in")
        for attr in ("on_tx_outcome", "purge"):
            self.patch(CsmaMac, attr, "net.mac")
        self.patch(DropTailQueue, "push", "net.queue",
                   count="net.queue.ops", tally=_refused)
        for attr in ("pop", "peek", "clear", "remove_if"):
            self.patch(DropTailQueue, attr, "net.queue",
                       count="net.queue.ops")
        self.patch(FifoJitterQueue, "push", "net.queue",
                   count="net.queue.ops")
        for cls, _ in experiments_scenario.PROTOCOLS.values():
            for attr in ("on_packet", "send_data"):
                self.patch(cls, attr, "routing", count="routing.packets")
            self.patch(cls, "on_link_failure", "routing")
        for attr in sorted(vars(MetricsCollector)):
            if attr.startswith("on_") or attr == "observe_final_seqno":
                self.patch(MetricsCollector, attr, "metrics",
                           count="metrics.calls")
        for attr in ("on_table_change", "check_all", "_on_deliver",
                     "_on_transmit", "on_crash", "on_reboot", "on_heal"):
            self.patch(InvariantMonitor, attr, "faults",
                       count="faults.monitor_calls")
        self.patch(FaultInjector, "_fuzz", "faults")
        self.patch(TraceRecorder, "record", "obs", count="obs.events")
        self.patch(TraceRecorder, "_on_transmit", "obs")
        self.patch(repro_obs, "write_trace", "obs", count="obs.traces",
                   tally=_file_size)
        self.patch(exec_manifest.CampaignManifest, "_append", "exec.journal",
                   count="exec.journal_records")
        self.patch(exec_cache.ResultCache, "put", "exec.cache",
                   count="exec.cache_puts")
        self.patch(exec_cache.ResultCache, "lookup", "exec.load")
        self.patch(exec_manifest.CampaignManifest, "load", "exec.load")
        self.patch(exec_engine, "trace_ok", "exec.load")
        self.patch(exec_worker, "run_trial_payload", "exec", new_trial=True)
        self.patch(experiments_scenario.Scenario, "__init__",
                   "experiments.build")
        self.patch(experiments_scenario.Scenario, "run", "experiments")
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived table ----------------------------------------------------

    def self_times(self):
        """``{span name: total self seconds}`` derived from the spans."""
        n = len(self.name_of)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=n)
        own = duration - covered
        totals = np.bincount(name_of, weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def dump(self, path, trial_labels, table):
        """Write every span plus the derived per-layer table, once."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trial=np.frombuffer(self.trial_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            trials=np.array(trial_labels),
        )
        with open(path[:-len(".npz")] + ".layers.json", "w",
                  encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


class _Span:
    __slots__ = ("tracer", "nid", "index")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.index = len(t.name_of)
        t.name_of.append(self.nid)
        t.parent.append(t.stack[-1])
        t.trial_of.append(t.trial)
        t.end.append(0.0)
        t.stack.append(self.index)
        t.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.index] = time.perf_counter()
        t.stack.pop()

