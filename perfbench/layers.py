"""Per-layer self time and counts for the traced run.

The traced run wraps the entry points of each layer from outside the
program: :data:`HOOKS` names ``(layer, module, class, method)`` and
:meth:`LayerTrace.install` replaces each class attribute before the
pilot is built, so bound methods captured at build time (MQTT handlers,
update hooks, sweep reporters) are wrapped too.  Spans are aggregated
in memory — per layer and per hook, no I/O — and read out at the end.

Accounting.  A span's self time is its duration minus the time of the
spans it directly contains.  The kernel's run loop is the one span
whose children are not all wrapped: the kernel profiler times every
event callback, so

* ``simkernel.self_s`` = run-loop time outside any event callback, plus
  process stepping (``Process._on_timer``/``_wake`` spans, which include
  the glue code of process bodies between wrapped calls), and
* unattributed time = callback time no layer span covers, plus window
  time outside every span.

Every span's time lands once, in its own layer's self time or in its
parent's, so the layer self times plus the unattributed time equal the
traced window by construction; no tolerance is needed there.  The check
that can fail is where two independent clocks meet: the spans directly
inside the run loop (timed by the wrappers) cannot outlast the event
callbacks that hold them (timed by the kernel profiler), and no layer's
self time may be negative, beyond :data:`ACCOUNTING_TOLERANCE`.  The
window opens at the kernel's first ``run`` (the end of set-up) and
closes when the program's ``run`` returns.
"""

import functools
import importlib
import inspect
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.app import percentile

#: Largest negative term allowed in the accounting, as a share of the
#: traced window: the jitter between the kernel profiler's clock reads
#: and the wrappers' clock reads.
ACCOUNTING_TOLERANCE = 0.01

#: Event-label families (``KernelProfiler.by_service`` keys) that are
#: fixed-cadence timers: broker sweeps, client keepalive pings, the fog
#: replicator's poll and the service pump.
TIMER_FAMILIES = ("svc:sweep", "svc:ping", "proc:replicator", "proc:service-pump")

HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("simkernel", "repro.simkernel.simulator", "Simulator", "run"),
    ("simkernel", "repro.simkernel.simulator", "Simulator", "run_until"),
    ("simkernel", "repro.simkernel.process", "Process", "_on_timer"),
    ("simkernel", "repro.simkernel.process", "Process", "_wake"),
    ("network", "repro.network.node", "NetworkNode", "send"),
    ("network", "repro.network.topology", "Network", "transmit"),
    ("network", "repro.network.link", "Link", "transmit"),
    ("network", "repro.network.link", "Link", "_arrive"),
    ("mqtt.broker", "repro.mqtt.broker", "MqttBroker", "on_packet"),
    ("mqtt.broker", "repro.mqtt.broker", "MqttBroker", "_sweep"),
    ("mqtt.client", "repro.mqtt.client", "MqttClient", "on_packet"),
    ("mqtt.client", "repro.mqtt.client", "MqttClient", "publish"),
    ("mqtt.client", "repro.mqtt.client", "MqttClient", "_ping"),
    ("agents", "repro.agents.iot_agent", "IoTAgent", "_on_measure"),
    ("agents", "repro.agents.iot_agent", "IoTAgent", "send_command"),
    ("agents", "repro.agents.iot_agent", "IoTAgent", "_on_command_ack"),
    ("context", "repro.context.broker", "ContextBroker", "update_attributes"),
    ("context", "repro.context.broker", "ContextBroker", "query"),
    ("context", "repro.context.broker", "ContextBroker", "create_entity"),
    ("context", "repro.context.broker", "ContextBroker", "delete_entity"),
    ("security", "repro.security.crypto.channel", "SecureChannel", "seal"),
    ("security", "repro.security.crypto.channel", "SecureChannel", "open"),
    ("security", "repro.security.auth.pep", "PepProxy", "check"),
    ("security", "repro.security.auth.pep", "PepProxy", "mqtt_authenticator"),
    ("security", "repro.security.auth.pep", "PepProxy", "mqtt_authorizer"),
    ("security", "repro.security.auth.oauth", "OAuthServer", "introspect"),
    ("security", "repro.security.detection.engine", "DetectionEngine", "_on_update"),
    ("security", "repro.security.detection.sequence", "CommandRhythmMonitor", "observe"),
    ("security", "repro.security.ledger.contracts", "AuthorizationContract", "authorize"),
    ("security", "repro.security.ledger.blockchain", "Blockchain", "submit"),
    ("security", "repro.security.ledger.blockchain", "Blockchain", "seal_block"),
    ("service", "repro.service.app", "NgsiService", "submit"),
    ("service", "repro.service.app", "NgsiService", "_execute"),
    ("service", "repro.service.app", "NgsiService", "_drain_tick"),
    ("service", "repro.service.app", "NgsiService", "_on_broker_write"),
    ("history", "repro.context.history", "ShortTermHistory", "_on_update"),
    ("history", "repro.context.history", "ShortTermHistory", "read"),
    ("store", "repro.store.durable", "DurabilityService", "on_sample"),
    ("store", "repro.store.durable", "DurabilityService", "flush_now"),
    ("store", "repro.store.durable", "SegmentStore", "append"),
    ("store", "repro.store.durable", "SegmentStore", "commit"),
    ("store", "repro.store.durable", "SegmentStore", "read_all"),
    ("columnar", "repro.store.columnar", "CompactionService", "compact_once"),
    ("columnar", "repro.store.columnar", "ColumnarReader", "read"),
    ("columnar", "repro.store.columnar", "ColumnarStore", "read_chunk"),
    ("devices", "repro.devices.sweep", "SweepGroup", "_tick"),
    ("devices", "repro.devices.base", "Device", "report_once"),
    ("devices", "repro.devices.base", "Device", "_handle_command"),
    ("devices", "repro.devices.actuators", "Pump", "pump_volume"),
    ("devices", "repro.devices.actuators", "Valve", "_apply"),
    ("devices", "repro.devices.drone", "Drone", "start_survey"),
    ("devices", "repro.devices.drone", "Drone", "measure_zone"),
    ("physics", "repro.physics.field", "Field", "advance_day"),
    ("physics", "repro.physics.field", "FieldZone", "irrigate"),
    ("physics", "repro.physics.ndvi", "NdviTracker", "record_day"),
    ("irrigation", "repro.irrigation.scheduler", "PlatformScheduler", "run_cycle"),
    ("fog", "repro.fog.replication", "Replicator", "_capture"),
    ("fog", "repro.fog.replication", "Replicator", "_pump"),
    ("fog", "repro.fog.replication", "Replicator", "_on_packet"),
    ("fog", "repro.fog.replication", "CloudSyncTarget", "_on_packet"),
)

LAYERS = tuple(dict.fromkeys(hook[0] for hook in HOOKS))

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("simkernel.events", "count"),
    ("simkernel.timer_events", "count"),
    ("simkernel.timer_share", "share"),
    ("simkernel.self_s", "s"),
    ("network.transmits", "count"),
    ("network.self_s", "s"),
    ("mqtt.broker.packets", "count"),
    ("mqtt.broker.route_candidates_per_publish", "count"),
    ("mqtt.broker.self_s", "s"),
    ("mqtt.client.self_s", "s"),
    ("agents.measures", "count"),
    ("agents.self_s", "s"),
    ("context.updates", "count"),
    ("context.notifications", "count"),
    ("context.notifications_per_candidate", "share"),
    ("context.self_s", "s"),
    ("security.aead_ops", "count"),
    ("security.auth_checks", "count"),
    ("security.self_s", "s"),
    ("service.requests", "count"),
    ("service.cache_hit_rate", "share"),
    ("service.quota_rejections", "count"),
    ("service.pump_ticks", "count"),
    ("service.sim_latency_p99_s", "s"),
    ("service.self_s", "s"),
    ("history.appends", "count"),
    ("history.reads", "count"),
    ("history.read_self_s", "s"),
    ("history.scanned_per_row", "count"),
    ("store.appends", "count"),
    ("store.commits", "count"),
    ("store.bytes_per_sample", "B"),
    ("store.self_s", "s"),
    ("columnar.compactions", "count"),
    ("columnar.compact_s", "s"),
    ("columnar.reads", "count"),
    ("columnar.read_self_s", "s"),
    ("columnar.chunks_decoded_per_read", "count"),
    ("columnar.wal_records_scanned_per_read", "count"),
    ("columnar.pruned_block_share", "share"),
    ("devices.self_s", "s"),
    ("physics.self_s", "s"),
    ("irrigation.cycles", "count"),
    ("irrigation.self_s", "s"),
    ("fog.sync_batches", "count"),
    ("fog.empty_poll_share", "share"),
    ("fog.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "share"),
)

_COLUMNAR_READ = "ColumnarReader.read"
#: The kernel's run loop: its direct children are event callbacks.
_RUN_LOOP = ("Simulator.run", "Simulator.run_until")


class LayerTrace:
    """Span aggregation for one traced instance."""

    def __init__(self) -> None:
        self.recording = False
        self.armed = False
        self.missing: List[str] = []
        self._stack: List[list] = []
        self.window_start = self.window_s = 0.0
        self.self_s: Dict[str, float] = {}
        self.key_self_s: Dict[str, float] = {}
        self.key_total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.root_s = 0.0
        self.kernel_children_s = 0.0
        self.counts: Dict[str, float] = {}

    # -- wiring -----------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, method in HOOKS:
            key = f"{class_name}.{method}"
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.missing.append(key)
                continue
            original = inspect.getattr_static(cls, method, None)
            if not inspect.isfunction(original):
                self.missing.append(key)
                continue
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"{key} is a generator; a span around it would be empty")
            setattr(cls, method, self._wrap(layer, key, original, _OBSERVERS.get(key)))

    def arm(self) -> None:
        """Start recording at the next kernel ``run`` (the end of set-up)."""
        self.armed = True

    def stop(self) -> None:
        self.window_s = time.perf_counter() - self.window_start
        self.recording = False

    def _open_window(self) -> None:
        self.armed = False
        self.recording = True
        self._stack.clear()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.key_self_s = {}
        self.key_total_s = {}
        self.calls = {}
        self.counts = {}
        self.root_s = self.kernel_children_s = 0.0
        self.window_start = time.perf_counter()

    def on_stack(self, key: str) -> bool:
        return any(frame[2] == key for frame in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, layer: str, key: str, fn: Callable, observe: Optional[Callable]):
        trace = self
        stack = self._stack
        perf_counter = time.perf_counter
        opens_window = layer == "simkernel"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not trace.recording:
                if not (opens_window and trace.armed):
                    return fn(*args, **kwargs)
                trace._open_window()
            if observe is not None:
                observe(trace, args, None, True)
            frame = [0.0, layer, key]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                own = elapsed - frame[0]
                trace.self_s[layer] += own
                trace.key_self_s[key] = trace.key_self_s.get(key, 0.0) + own
                trace.key_total_s[key] = trace.key_total_s.get(key, 0.0) + elapsed
                trace.calls[key] = trace.calls.get(key, 0) + 1
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    if parent[2] in _RUN_LOOP:
                        trace.kernel_children_s += elapsed
                else:
                    trace.root_s += elapsed
            if observe is not None:
                observe(trace, args, result, False)
            return result

        return span

    # -- read-out -----------------------------------------------------------

    def accounting(self, callback_s: float) -> Dict[str, Any]:
        """Layer self times, unattributed time and the two-clock check.

        ``callback_s`` is the kernel profiler's total event-callback time.
        """
        loose_callback_s = callback_s - self.kernel_children_s
        layer_self = dict(self.self_s)
        layer_self["simkernel"] -= loose_callback_s
        unattributed = (self.window_s - self.root_s) + loose_callback_s
        problems = []
        # Spans inside event callbacks cannot outlast the callbacks the
        # kernel profiler timed: callback time outside spans, and the run
        # loop's own time left after it, stay non-negative.
        checked = list(layer_self.items()) + [("unattributed", unattributed),
                                               ("callback time outside spans",
                                                loose_callback_s)]
        for name, seconds in checked:
            if seconds < -ACCOUNTING_TOLERANCE * self.window_s:
                problems.append(f"{name} is negative ({seconds:.3f}s)")
        return {"layer_self_s": layer_self, "unattributed_s": unattributed,
                "window_s": self.window_s, "callback_outside_spans_s": loose_callback_s,
                "problems": problems}


# -- observers: counts taken where the work happens ---------------------------------


def _observe_history_read(trace, args, result, before) -> None:
    if before:
        return
    trace.count("history.scanned", result.scanned_samples)
    trace.count("history.rows", len(result.rows))


def _observe_columnar_read(trace, args, result, before) -> None:
    if before:
        return
    trace.count("columnar.scanned_blocks", result.scanned_blocks)
    trace.count("columnar.pruned_blocks", result.pruned_blocks)


def _observe_read_chunk(trace, args, result, before) -> None:
    if not before and trace.on_stack(_COLUMNAR_READ):
        trace.count("columnar.chunks_decoded")


def _observe_read_all(trace, args, result, before) -> None:
    if not before and trace.on_stack(_COLUMNAR_READ):
        trace.count("columnar.wal_records_scanned", len(result))


def _observe_replicator_pump(trace, args, result, before) -> None:
    # A poll is a pump tick from the replicator's own timer (not the
    # drain-on-ack call); it is empty when nothing was waiting.
    if not before or trace.on_stack("Replicator._on_packet"):
        return
    replicator = args[0]
    trace.count("fog.polls")
    if replicator.backlog_depth == 0 and replicator._in_flight is None:
        trace.count("fog.empty_polls")


_OBSERVERS: Dict[str, Callable] = {
    "ShortTermHistory.read": _observe_history_read,
    "ColumnarReader.read": _observe_columnar_read,
    "ColumnarStore.read_chunk": _observe_read_chunk,
    "SegmentStore.read_all": _observe_read_all,
    "Replicator._pump": _observe_replicator_pump,
}


# -- per-layer metrics ---------------------------------------------------------------


def counter(snapshot: Dict[str, Any], name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(value for key, value in snapshot["counters"].items()
               if key == name or key.startswith(name + "{"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def store_bytes(store_dir: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(store_dir):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def event_mix(profiler) -> Dict[str, int]:
    """Exact event counts by label family, largest first."""
    families = profiler.by_service()
    return {name: entry.count for name, entry in
            sorted(families.items(), key=lambda item: (-item[1].count, item[0]))}


def per_layer_metrics(trace: LayerTrace, accounting: Dict[str, Any], runner, service,
                      store: Optional[Dict[str, float]], untraced_s: float) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_METRICS` for one traced instance."""
    snapshot = runner.metrics_snapshot()
    calls, counts, own = trace.calls, trace.counts, accounting["layer_self_s"]
    events = runner.sim.events_executed
    mix = event_mix(runner.profiler)
    timer_events = sum(mix.get(family, 0) for family in TIMER_FAMILIES)
    served = [record["done_s"] - record["at_s"] for record in service.records
              if record["status"] not in (429, 503)]
    columnar_reads = calls.get(_COLUMNAR_READ, 0)
    scanned_blocks = counts.get("columnar.scanned_blocks", 0)
    pruned_blocks = counts.get("columnar.pruned_blocks", 0)
    values = {
        "simkernel.events": events,
        "simkernel.timer_events": timer_events,
        "simkernel.timer_share": _ratio(timer_events, events),
        "network.transmits": calls.get("Link.transmit", 0),
        "mqtt.broker.packets": calls.get("MqttBroker.on_packet", 0),
        "mqtt.broker.route_candidates_per_publish": _ratio(
            counter(snapshot, "mqtt.route_candidates"), counter(snapshot, "mqtt.publishes_in")),
        "agents.measures": counter(snapshot, "iota.measures_processed"),
        "context.updates": counter(snapshot, "context.updates"),
        "context.notifications": counter(snapshot, "context.notifications"),
        "context.notifications_per_candidate": _ratio(
            counter(snapshot, "context.notifications"),
            counter(snapshot, "context.dispatch_candidates")),
        "security.aead_ops": calls.get("SecureChannel.seal", 0) + calls.get("SecureChannel.open", 0),
        "security.auth_checks": counter(snapshot, "security.auth_checks"),
        "service.requests": counter(snapshot, "service.requests"),
        "service.cache_hit_rate": service.cache.hit_rate if service.cache else 0.0,
        "service.quota_rejections": counter(snapshot, "service.rejected{reason=quota}"),
        "service.pump_ticks": calls.get("NgsiService._drain_tick", 0),
        "service.sim_latency_p99_s": percentile(served, 99.0),
        "history.appends": calls.get("ShortTermHistory._on_update", 0),
        "history.reads": calls.get("ShortTermHistory.read", 0),
        "history.read_self_s": trace.key_self_s.get("ShortTermHistory.read", 0.0),
        "history.scanned_per_row": _ratio(counts.get("history.scanned", 0),
                                          counts.get("history.rows", 0)),
        "store.appends": calls.get("SegmentStore.append", 0),
        "store.commits": calls.get("SegmentStore.commit", 0),
        "store.bytes_per_sample": (_ratio(store["bytes"], store["samples"])
                                   if store is not None else 0.0),
        "columnar.compactions": calls.get("CompactionService.compact_once", 0),
        "columnar.compact_s": trace.key_total_s.get("CompactionService.compact_once", 0.0),
        "columnar.reads": columnar_reads,
        "columnar.read_self_s": trace.key_self_s.get(_COLUMNAR_READ, 0.0),
        "columnar.chunks_decoded_per_read": _ratio(
            counts.get("columnar.chunks_decoded", 0), columnar_reads),
        "columnar.wal_records_scanned_per_read": _ratio(
            counts.get("columnar.wal_records_scanned", 0), columnar_reads),
        "columnar.pruned_block_share": _ratio(pruned_blocks, pruned_blocks + scanned_blocks),
        "irrigation.cycles": calls.get("PlatformScheduler.run_cycle", 0),
        "fog.sync_batches": counter(snapshot, "fog.sync_batches_sent"),
        "fog.empty_poll_share": _ratio(counts.get("fog.empty_polls", 0),
                                       counts.get("fog.polls", 0)),
        "trace.overhead": _ratio(accounting["window_s"], untraced_s),
        "trace.unattributed_share": _ratio(accounting["unattributed_s"],
                                           accounting["window_s"]),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = own[layer]
    return {name: float(values[name]) for name, _unit in PER_LAYER_METRICS}
