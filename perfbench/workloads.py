"""The benchmark's three workloads: inputs, one measured instance, checks.

Every workload drives the program through ``repro.core.run.run`` with a
:class:`RunOptions` built from the seed alone, so the same seed gives
the same inputs.  One *instance* is set-up (everything until the kernel's
first ``Simulator.run``) and the run phase.  Output checks run after the
timed phases and never count towards any metric.
"""

import dataclasses
import hashlib
import json
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.context.history import HOUR_S, HistoryQuery
from repro.core.pilots import PILOT_BUILDERS
from repro.core.run import RunOptions, RunResult, run
from repro.service.app import NgsiService, ServiceConfig
from repro.service.http import Request
from repro.service.loadgen import (LoadProfile, RequestTrace, TraceRequest, generate_trace,
                                   schedule_trace, standard_trace)
from repro.service.tenancy import TenantQuota, TenantSpec
from repro.simkernel.simulator import Simulator

import reference

DAY_S = 86400.0
FARM = "matopiba"
GRID = 6  # matopiba is a 6x6 VRI grid
ENTITY_TYPE = "AgriParcel"
ATTR = "soilMoisture"
PILOT_PREFIX = f"urn:{ENTITY_TYPE}:{FARM}:"
ENTITY_IDS = [f"{PILOT_PREFIX}{r}-{c}" for r in range(GRID) for c in range(GRID)]
FULL_SECURITY = "auth,encryption,detection,ledger,command_rhythm"

#: E19's isolation gate: the greedy tenant must collect at least this
#: many 429s, and no other tenant any.
GREEDY_MIN_429 = 50
#: The durable workload must seal "tens of chunks" for its read path
#: to decode; fewer means the WAL segment size no longer rotates.
DURABLE_MIN_CHUNKS = 10
DURABLE_DAYS = 5
SEASON_DAYS = 10
#: The season's one dashboard tenant polls 50 times less often than
#: E19's ``dash-a`` (every 2 s): about 8,600 requests in 10 days, so each
#: kind's p99 has over 25 samples beyond it, with the service a small
#: share of the run.
SEASON_DASHBOARD_INTERVAL_S = 100.0
#: Traces start after the farm's first reports: a dashboard read of an
#: attribute no sensor has reported yet is a correct 404.
SERVE_WARMUP_S = 3600.0
#: ``standard_trace``'s dashboard mix (tenants ``dash-a``/``dash-b``).
DASHBOARD_MIX = {"list": 2.0, "entity": 3.0, "attr": 2.0, "sth_raw": 2.0, "sth_rollup": 1.0}
#: The first ``Simulator.run`` of a measured instance executes as this
#: many equal slices of its simulated time, with one repetition of the
#: host-speed reference after each slice but the last (see RunBoundary).
RUN_SLICES = 60


class SetupComplete(Exception):
    """Raised at the kernel's first ``run`` when only set-up is timed."""


class RunBoundary:
    """Marks where set-up ends, and times the host's speed during the run.

    Wraps ``Simulator.run`` once per process; the first call of a build
    is the run phase.  ``begin()`` re-arms it for the next build; with
    ``abort`` set that first call raises :class:`SetupComplete` before a
    single event executes.  With ``slices`` set, the run phase executes
    as that many ``Simulator.run_until`` segments of equal simulated
    time, which the kernel guarantees bit-identical to one ``run``, and
    one repetition of ``reference.repetition`` runs after each segment
    but the last (``reference.sample``).  Its times
    (``reference_s``) sample the host's speed all through the run; the
    time spent on them (``interleaved_s``) is not the program's.
    ``slices_s`` holds the host seconds of each segment, and ``marks``
    what ``mark()`` (if set) returned at the end of each.
    """

    def __init__(self) -> None:
        self.entered: Optional[float] = None
        self.abort = False
        self.slices = RUN_SLICES
        self.mark: Optional[Callable[[], Any]] = None
        self.slices_s: List[float] = []
        self.reference_s: List[float] = []
        self.marks: List[Any] = []
        self.interleaved_s = 0.0

    def install(self) -> None:
        original = Simulator.run
        boundary = self

        def run_marking_setup_end(sim, until=None, max_events=None):
            if boundary.entered is not None:
                return original(sim, until, max_events)
            boundary.entered = time.perf_counter()
            if boundary.abort:
                raise SetupComplete()
            if not boundary.slices or until is None or max_events is not None:
                return original(sim, until, max_events)
            return boundary._run_interleaved(sim, original, until)

        Simulator.run = run_marking_setup_end

    def _run_interleaved(self, sim, original, until: float) -> float:
        perf_counter = time.perf_counter
        start = sim.now
        for k in range(1, self.slices):
            began = perf_counter()
            sim.run_until(start + (until - start) * k / self.slices)
            ended = perf_counter()
            self.slices_s.append(ended - began)
            self._mark()
            self.reference_s.extend(reference.sample(1))
            self.interleaved_s += perf_counter() - ended
        began = perf_counter()
        try:
            return original(sim, until)
        finally:
            self.slices_s.append(perf_counter() - began)
            self._mark()

    def _mark(self) -> None:
        if self.mark is not None:
            self.marks.append(self.mark())

    def begin(self, abort: bool = False) -> None:
        self.entered = None
        self.abort = abort
        self.slices_s = []
        self.reference_s = []
        self.marks = []
        self.interleaved_s = 0.0


class RequestClock:
    """Host time per north-side request: admission plus execution.

    Wraps ``NgsiService.submit`` (admission, and execution too when the
    service runs synchronously) and ``NgsiService._execute`` (execution
    when the pump drains the backlog later).  A request rejected at
    admission (401/403/429/503) is counted as finished but gives no
    latency sample.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.samples: Dict[str, List[float]] = {"ngsi": [], "sth": []}
        self.finished = 0
        self._pending: Dict[int, Any] = {}
        self._in_submit = False
        self._executed = False

    def _sample(self, request: Request, seconds: float) -> None:
        kind = "sth" if request.path.startswith("/STH/") else "ngsi"
        self.samples[kind].append(seconds)

    def install(self) -> None:
        submit = NgsiService.submit
        execute = NgsiService._execute
        clock = self
        perf_counter = time.perf_counter

        def timed_submit(service, request):
            clock._in_submit = True
            clock._executed = False
            started = perf_counter()
            try:
                response = submit(service, request)
            finally:
                elapsed = perf_counter() - started
                clock._in_submit = False
            if response is None:
                # Queued: keep the request referenced so its id stays unique
                # until the pump executes it.
                clock._pending[id(request)] = (request, elapsed)
            else:
                clock.finished += 1
                if clock._executed:
                    clock._sample(request, elapsed)
            return response

        def timed_execute(service, route, request, *args):
            if clock._in_submit:
                clock._executed = True
                return execute(service, route, request, *args)
            started = perf_counter()
            try:
                return execute(service, route, request, *args)
            finally:
                elapsed = perf_counter() - started
                pending = clock._pending.pop(id(request), None)
                admission = pending[1] if pending is not None else 0.0
                clock.finished += 1
                clock._sample(request, admission + elapsed)

        NgsiService.submit = timed_submit
        NgsiService._execute = timed_execute

    def counts(self) -> Dict[str, int]:
        """Latency samples taken so far, by kind."""
        return {kind: len(samples) for kind, samples in self.samples.items()}

    @property
    def unfinished(self) -> int:
        return len(self._pending)


@dataclass
class Instance:
    """One measured instance of a workload."""

    setup_s: float
    #: Host seconds of the run phase, the reference repetitions excluded.
    run_s: float
    sim_days: float
    #: Peak resident memory when the measured phases ended (before checks).
    rss_mb: float
    #: Host seconds per equal slice of the run phase's simulated time.
    slices_s: List[float]
    #: Host seconds of each reference repetition interleaved with the run.
    reference_s: List[float]
    #: Latency samples of each kind taken by the end of each slice.
    slice_counts: List[Dict[str, int]]
    ngsi_s: List[float]
    sth_s: List[float]
    finished: int
    within_quota: int
    failed: int
    digests: Dict[str, Any]
    failures: List[str]
    #: Raw inputs for per-layer metrics (traced instances only read them).
    result: Optional[RunResult] = None
    service: Optional[NgsiService] = None
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    uses_store: bool
    options: Callable[[int, Optional[str], bool], RunOptions]
    check: Callable[[RunResult, NgsiService, Dict[str, Any]], List[str]]
    #: Set-up-only passes before each instance, timed with its own set-up.
    setup_passes: int
    #: Builds and runs the program for one instance.
    execute: Callable[[RunOptions], RunResult] = run


# -- inputs -------------------------------------------------------------------


def even_arrivals(trace: RequestTrace, start_s: float, end_s: float) -> RequestTrace:
    """``trace`` with each tenant's requests, in their order, spread evenly
    over ``(start_s, end_s)``.

    ``generate_trace`` picks each request's kind and target from the seed
    and draws exponential gaps between them.  Where the cost of a read
    grows or cycles with simulated time, the gaps decide how many reads
    land at the costly moments, and so the p99 of one seed: on
    ``durable``, where every read decodes the WAL tail that grows until
    the next compaction, ``sth_p99_ms`` ranged from 5.9 to 8.6 ms over
    four seeds with those gaps and from 6.0 to 6.6 ms with even ones.
    """
    requests = []
    for spec in trace.tenants:
        own = [r for r in trace.requests if r.tenant == spec.name]
        gap = (end_s - start_s) / (len(own) + 1)
        requests.extend(
            TraceRequest(at_s=start_s + (i + 1) * gap, tenant=r.tenant, method=r.method,
                         path=r.path, params=r.params, body=r.body, token=r.token)
            for i, r in enumerate(own))
    requests.sort(key=lambda r: (r.at_s, r.tenant))
    return RequestTrace(trace.name, trace.seed, trace.tenants, requests)


def season_trace(seed: int) -> RequestTrace:
    """One E19 dashboard tenant, polling the secured season's north side."""
    dashboard = LoadProfile(
        TenantSpec("dashboard", "dashboard-secret", (PILOT_PREFIX,),
                   quota=TenantQuota(600, 60.0, 256)),
        interval_s=SEASON_DASHBOARD_INTERVAL_S, mix=DASHBOARD_MIX, start_s=SERVE_WARMUP_S,
    )
    # The last arrival leaves the service an hour to answer before the end.
    end_s = SEASON_DAYS * DAY_S - HOUR_S
    trace = generate_trace("season-dashboard", seed, end_s, [dashboard], ENTITY_IDS,
                           ENTITY_TYPE, ATTR)
    return even_arrivals(trace, SERVE_WARMUP_S, end_s)


def season_options(seed: int, store_dir: Optional[str], profile: bool) -> RunOptions:
    return RunOptions(pilot=FARM, seed=seed, days=SEASON_DAYS, security=FULL_SECURITY,
                      serve_trace=season_trace(seed), profile=profile)


def run_served_sync(options: RunOptions) -> RunResult:
    """``run(options)`` with the trace served by a synchronous service.

    ``run`` serves a trace through a queued service whose pump ticks every
    simulated second: 864,000 timer events in 10 days, three times the
    secured season's own.  With ``ServiceConfig(queued=False)`` each
    request is answered when it arrives and the service adds no timer,
    so the season still loads its south side.  The cache stays on.
    """
    runner = PILOT_BUILDERS[options.pilot](seed=options.seed,
                                           security=options.resolved_security(),
                                           profile=options.profile)
    service = NgsiService(runner.sim, runner.context, runner.history, runner.security,
                          ServiceConfig(queued=False))
    schedule_trace(service, options.resolved_serve_trace())
    runner.run_days(options.days)
    return RunResult(report=runner.report(), runner=runner, service=service)


def serve_options(seed: int, store_dir: Optional[str], profile: bool) -> RunOptions:
    e19 = standard_trace(seed=seed, duration_s=DAY_S, entity_ids=ENTITY_IDS, farm=FARM)
    # The same requests an hour later (``dataclasses.replace`` takes twice
    # as long, and this is timed as set-up).
    trace = RequestTrace(e19.name, e19.seed, e19.tenants, [
        TraceRequest(at_s=r.at_s + SERVE_WARMUP_S, tenant=r.tenant, method=r.method,
                     path=r.path, params=r.params, body=r.body, token=r.token)
        for r in e19.requests
    ])
    return RunOptions(pilot=FARM, seed=seed, days=1 + SERVE_WARMUP_S / DAY_S,
                      serve_trace=trace, profile=profile)


def durable_trace(seed: int) -> RequestTrace:
    """An analyst reading history and a writer posting, from day 1 on."""
    profiles = [
        LoadProfile(
            TenantSpec("analyst", "analyst-secret", (PILOT_PREFIX,),
                       quota=TenantQuota(600, 60.0, 256)),
            interval_s=200.0,
            mix={"sth_raw": 2.0, "sth_rollup": 1.0, "entity": 1.0},
            start_s=DAY_S,
        ),
        LoadProfile(
            TenantSpec("writer", "writer-secret", (PILOT_PREFIX,),
                       write_prefixes=(f"urn:Ops:{FARM}:",),
                       quota=TenantQuota(600, 60.0, 256)),
            interval_s=400.0, mix={"write": 1.0}, start_s=DAY_S,
        ),
    ]
    trace = generate_trace("durable", seed, DURABLE_DAYS * DAY_S, profiles, ENTITY_IDS,
                           ENTITY_TYPE, ATTR)
    return even_arrivals(trace, DAY_S, DURABLE_DAYS * DAY_S)


def durable_options(seed: int, store_dir: Optional[str], profile: bool) -> RunOptions:
    return RunOptions(
        pilot=FARM, seed=seed, days=DURABLE_DAYS, serve_trace=durable_trace(seed),
        store_dir=store_dir, store_compact_s=6 * 3600.0,
        store_segment_bytes=64 * 1024, profile=profile,
    )


# -- output checks --------------------------------------------------------------


def check_season(result: RunResult, service: NgsiService, extra) -> List[str]:
    report = result.report
    failures = []
    expected_days = SEASON_DAYS
    if report.season_days != expected_days:
        failures.append(f"season stopped at day {report.season_days} of {expected_days}")
    if report.measures_processed <= 0 or report.decisions <= 0:
        failures.append("season processed no measures or made no decisions")
    statuses = {record["status"] for record in service.records}
    if statuses != {200}:
        failures.append(f"dashboard requests answered {sorted(statuses)}, expected only 200")
    return failures + check_isolation(service, greedy=None)


def check_isolation(service: NgsiService, greedy: Optional[str]) -> List[str]:
    """Only ``greedy`` (if any) collects 429s; every tenant completes work
    and the tenants within quota get no answer other than 2xx."""
    within, failed = fail_counts(service)
    failures = [f"{failed} of {within} requests within quota were not answered 2xx"] if failed else []
    for tenant in service.tenants():
        if tenant.name == greedy:
            if tenant.rejected_quota < GREEDY_MIN_429:
                failures.append(f"greedy tenant got {tenant.rejected_quota} 429s, "
                                f"expected >= {GREEDY_MIN_429}")
            continue
        if tenant.rejected_quota:
            failures.append(f"tenant {tenant.name} got {tenant.rejected_quota} 429s")
        if tenant.completed <= 0:
            failures.append(f"tenant {tenant.name} completed no request")
    return failures


def check_serve(result: RunResult, service: NgsiService, extra) -> List[str]:
    failures = check_isolation(service, greedy="greedy")
    if service.cache.hits <= 0:
        failures.append("response cache never hit")
    return failures


def durable_probe_queries() -> List[HistoryQuery]:
    """Query shapes the in-memory rings and buckets still hold in full."""
    queries = []
    for entity_id in ENTITY_IDS:
        queries.extend([
            HistoryQuery(entity_id, ATTR, last_n=20),
            HistoryQuery(entity_id, ATTR, period_s=HOUR_S, method="mean"),
            HistoryQuery(entity_id, ATTR, since=DURABLE_DAYS // 2 * DAY_S,
                         until=(DURABLE_DAYS // 2 + 1) * DAY_S),
            HistoryQuery(entity_id, ATTR, aggregate=True),
        ])
    return queries


def check_durable(result: RunResult, service: NgsiService, extra) -> List[str]:
    runner = result.runner
    history = runner.history
    durability = runner.durability
    compaction = durability.compaction
    failures = []
    chunks = len(compaction.columnar.chunk_indexes())
    extra["chunks"] = chunks
    if chunks < DURABLE_MIN_CHUNKS:
        failures.append(f"compaction sealed {chunks} chunks, expected >= {DURABLE_MIN_CHUNKS}")
    for query in durable_probe_queries():
        columnar = history.read(query, source="columnar")
        memory = history.read(query, source="memory")
        if not memory.rows and memory.stats is None:
            failures.append(f"probe {query} found no in-memory samples")
        elif columnar.rows != memory.rows or columnar.stats != memory.stats:
            failures.append(f"columnar answer differs from memory for {query}")
    if not durability.flush_now():
        failures.append("final fsync barrier failed")
    audit = compaction.audit()
    if not audit["boundary_consistent"] or audit["overlap_chunks"] or audit["overlap_segments"]:
        failures.append(f"compaction audit failed: {audit}")
    durability.crash_and_recover()
    if durability.lost_committed:
        failures.append(f"recovery lost {durability.lost_committed} committed samples")
    if not durability.prefix_consistent:
        failures.append("recovered store is not a prefix of the accepted samples")
    return failures + check_isolation(service, greedy=None)


#: Why each workload exists is in README.md.  Set-up-only passes give
#: ``setup_s`` more than one slot per instance: seven for durable, whose
#: set-up takes 25 ms, and one for serve, which runs one instance.  The
#: season's 0.7 s set-up already has one slot per instance, four or five
#: per run.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("season-secure", uses_store=False, options=season_options,
                 check=check_season, setup_passes=0, execute=run_served_sync),
        Workload("serve", uses_store=False, options=serve_options,
                 check=check_serve, setup_passes=1),
        Workload("durable", uses_store=True, options=durable_options,
                 check=check_durable, setup_passes=7),
    )
}


# -- one instance -------------------------------------------------------------------


def report_digest(result: RunResult) -> str:
    data = json.dumps(dataclasses.asdict(result.report), sort_keys=True)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def response_digest(service: NgsiService) -> str:
    """``NgsiService.response_log_digest()``, hashed record by record.

    The service joins its whole log into one string first; for the serve
    workload's 200k retained records that string alone is about 1 GB.
    A cache hit records the very body object it served before, so each
    body is encoded once and spliced in where the record has ``"body"``
    (the second key in sorted order; no string value can hold that
    unescaped text).
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    bodies: Dict[int, str] = {}
    digest = hashlib.sha256()
    for i, record in enumerate(service.records):
        body = record["body"]
        line = encode(dict(record, body=None))
        if body is not None:
            text = bodies.get(id(body))
            if text is None:
                text = bodies[id(body)] = encode(body)
            line = line.replace('"body":null', '"body":' + text, 1)
        if i:
            digest.update(b"\n")
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def fail_counts(service: NgsiService):
    """(requests of within-quota tenants that finished, of those not 2xx)."""
    within = failed = 0
    for tenant in service.tenants():
        if tenant.rejected_quota:
            continue
        finished = tenant.submitted + tenant.rejected_auth - len(tenant.backlog)
        within += finished
        failed += finished - tenant.completed
    return within, failed


def setup_only(workload: Workload, seed: int, boundary: RunBoundary, work_dir: str) -> float:
    """Build everything a run needs, stop at the first event; set-up seconds."""
    store_dir = _store_dir(workload, work_dir)
    try:
        started = time.perf_counter()
        options = workload.options(seed, store_dir, False)
        boundary.begin(abort=True)
        try:
            workload.execute(options)
        except SetupComplete:
            pass
        else:
            raise RuntimeError("set-up pass ran the simulation")
        return boundary.entered - started
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def run_instance(workload: Workload, seed: int, boundary: RunBoundary,
                 clock: RequestClock, work_dir: str, profile: bool = False,
                 on_measured: Optional[Callable[[], None]] = None,
                 before_checks: Optional[Callable[[Instance], None]] = None,
                 check: bool = True) -> Instance:
    """Set up, run and check one instance of ``workload``.

    ``on_measured`` fires right after the last timed phase (the traced
    run closes its window there); ``before_checks`` sees the instance
    while the run's state is still untouched by the checks; ``check``
    runs the workload's output checks and the response-log digest.
    """
    store_dir = _store_dir(workload, work_dir)
    try:
        started = time.perf_counter()
        options = workload.options(seed, store_dir, profile)
        clock.reset()
        boundary.begin()
        result = workload.execute(options)
        run_end = time.perf_counter()
        setup_s = boundary.entered - started
        run_s = run_end - boundary.entered - boundary.interleaved_s
        options = None
        service = result.service
        if on_measured is not None:
            on_measured()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        within, failed = fail_counts(service)
        instance = Instance(
            setup_s=setup_s, run_s=run_s,
            sim_days=result.runner.sim.now / DAY_S,
            rss_mb=rss_mb,
            slices_s=list(boundary.slices_s), reference_s=list(boundary.reference_s),
            slice_counts=list(boundary.marks),
            ngsi_s=list(clock.samples["ngsi"]), sth_s=list(clock.samples["sth"]),
            finished=clock.finished, within_quota=within, failed=failed,
            digests={
                "report": report_digest(result),
                "events": result.runner.sim.events_executed,
                "requests": clock.finished,
            },
            failures=[], result=result, service=service,
        )
        if clock.unfinished:
            instance.failures.append(f"{clock.unfinished} requests never finished")
        if before_checks is not None:
            before_checks(instance)
        if check:
            instance.digests["responses"] = response_digest(service)
            instance.failures.extend(workload.check(result, service, instance.extra))
        instance.result = instance.service = None
        return instance
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def _store_dir(workload: Workload, work_dir: str) -> Optional[str]:
    if not workload.uses_store:
        return None
    return tempfile.mkdtemp(prefix="store-", dir=work_dir)
