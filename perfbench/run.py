"""The repository benchmark: one workload per invocation, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload season-secure --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures end-to-end metrics with tracing off: identical
instances of the workload run, each after the same number of set-up-only
passes, for as many whole instances as fit in ``--seconds`` (at least
one).  Every time is scaled by the host speed a reference workload
measured during the same instance (see :func:`end_to_end`).
``--trace 1`` runs one untraced instance, then one traced instance whose
layer spans give the per-layer metrics (see ``layers.py``).

Outputs are checked (see ``workloads.py``); a failed check prints
``"correct": false`` and exits 1.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Host, digests, the
layer table and the event mix go to earlier lines and to a result file
under ``.perfbench-work/results/``.  ``README.md`` explains the workloads.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Never fall back to some other installed copy of the program.
    sys.exit(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}")
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: Host seconds of one ``reference.repetition`` on the host the bounds were
#: set on, in its typical phase: the speed every time metric is scaled to.
REFERENCE_REP_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_days_per_s": "d/s",
    "requests_per_s": "1/s",
    "ngsi_p50_ms": "ms",
    "ngsi_p99_ms": "ms",
    "sth_p50_ms": "ms",
    "sth_p99_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


# -- host and source identity -----------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha(root: str):
    """The checkout's commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git_dir, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_sha256(src: str) -> str:
    """Digest of every Python file under ``src``."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def host_info() -> dict:
    info = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }
    info["fingerprint"] = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")).hexdigest()[:16]
    info["git_sha"] = git_sha(ROOT)
    info["source_sha256"] = source_sha256(os.path.join(ROOT, "src"))
    info["benchmark_sha256"] = source_sha256(os.path.dirname(os.path.abspath(__file__)))
    return info


# -- statistics ----------------------------------------------------------------------


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


#: Reference repetitions run just before each instance's set-up; with as
#: many of its run phase's first ones they bracket the set-up in time.
SETUP_REFERENCE_REPS = 8


def speed_scale(reference_s) -> float:
    """Factor that turns host seconds measured beside these reference
    repetitions into seconds on a host where one repetition takes
    :data:`REFERENCE_REP_S`."""
    return REFERENCE_REP_S / statistics.mean(reference_s)


def slice_scales(instance) -> list:
    """The speed scale of each slice of the run phase, from the reference
    repetitions just before and just after it.

    The host's speed can halve and recover within one run, so each slice,
    and each request it served, is scaled by the speed at its own time.
    """
    ref = instance.reference_s
    return [speed_scale(ref[max(k - 1, 0):k + 1]) for k in range(len(ref) + 1)]


def scaled_samples(instance, kind: str, scales) -> list:
    """The instance's ``kind`` latencies, each scaled by its slice's scale."""
    samples = getattr(instance, kind + "_s")
    out = []
    for k, scale in enumerate(scales):
        begin = instance.slice_counts[k - 1][kind] if k else 0
        out.extend(t * scale for t in samples[begin:instance.slice_counts[k][kind]])
    if len(out) != len(samples):
        raise RuntimeError(f"{len(samples) - len(out)} {kind} samples outside the slices")
    return out


def per_request(series) -> list:
    """Each request's latency, the lower median over the instances.

    Instances of one seed serve the same requests in the same order, so
    their samples line up; the lower median drops a burst of host
    contention that hit one request in one instance, whether the run fit
    two instances or three.
    """
    lengths = {len(values) for values in series}
    if len(lengths) != 1:
        raise RuntimeError(f"instances timed different numbers of requests: {sorted(lengths)}")
    return [statistics.median_low(values) for values in zip(*series)]


def end_to_end(instances, setup_slots, setup_reference_s, scaled: bool = True) -> dict:
    """End-to-end metrics from identical instances of one seed.

    A shared host's speed drifts by up to 2x over seconds and minutes, and
    a drift moves every time measured during it alike.  So each slice of
    an instance's run phase, and each request it served, is multiplied by
    the slice's speed scale (:func:`slice_scales`), and its set-up slots
    by the scale of the repetitions around them; with ``scaled`` off all
    times stay as measured.  Rates use the lower median instance,
    latency percentiles the per-request lower medians
    (:func:`per_request`), and ``setup_s`` the median over all set-up
    slots.
    """
    runs, ngsi, sth, setup_scales = [], [], [], []
    for inst, before in zip(instances, setup_reference_s):
        scales = slice_scales(inst) if scaled else [1.0] * len(inst.slices_s)
        runs.append(sum(t * k for t, k in zip(inst.slices_s, scales)))
        ngsi.append(scaled_samples(inst, "ngsi", scales))
        sth.append(scaled_samples(inst, "sth", scales))
        setup_scales.append(speed_scale(before + inst.reference_s[:SETUP_REFERENCE_REPS])
                            if scaled else 1.0)
    run_s = statistics.median_low(runs)
    ngsi, sth = per_request(ngsi), per_request(sth)
    for kind, values in (("NGSIv2", ngsi), ("STH", sth)):
        if len(values) < 1000:
            raise RuntimeError(f"only {len(values)} {kind} latency samples; "
                               "p99 needs at least 1000")
    first = instances[0]
    return {
        "setup_s": statistics.median(t * k for slots, k in zip(setup_slots, setup_scales)
                                     for t in slots),
        "sim_days_per_s": first.sim_days / run_s,
        "requests_per_s": first.finished / run_s,
        "ngsi_p50_ms": nearest_rank(ngsi, 50) * 1e3,
        "ngsi_p99_ms": nearest_rank(ngsi, 99) * 1e3,
        "sth_p50_ms": nearest_rank(sth, 50) * 1e3,
        "sth_p99_ms": nearest_rank(sth, 99) * 1e3,
        "ok_share": 1.0 - first.failed / first.within_quota,
        # ru_maxrss only grows: the first instance's reading is the peak
        # of set-up and one run, before any output check allocated.
        "peak_rss_mb": first.rss_mb,
    }


# -- determinism across runs ------------------------------------------------------------


def check_digests(workload: str, seed: int, source: str, instances) -> list:
    """Same seed, same program ⇒ same digests: within this run and across
    runs of this checkout (remembered in the work directory, keyed by
    ``source``, the program's and the benchmark's code digests)."""
    failures = []
    first = instances[0].digests
    for inst in instances[1:]:
        shared = {key: first[key] for key in inst.digests}
        if inst.digests != shared:
            failures.append(f"instances of one run disagree: {shared} vs {inst.digests}")
    path = os.path.join(WORK_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}:{source}"
    if key in known and known[key] != first:
        failures.append(f"digests differ from an earlier run of seed {seed}: "
                        f"{known[key]} vs {first}")
    else:
        known[key] = first
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    return failures


# -- the two modes ----------------------------------------------------------------------


def measure(workload, seed: int, boundary, clock, seconds: float) -> dict:
    """Whole instances until the next one would end after ``seconds``,
    judged by the last one (the first also runs the output checks); at
    least one."""
    setup_slots = []
    setup_reference_s = []
    instances = []
    started = time.perf_counter()
    last = 0.0
    while not instances or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        # Each instance has the same set-up slots: its set-up-only passes,
        # then its own set-up.
        slots = []
        setup_reference_s.append(reference.sample(SETUP_REFERENCE_REPS))
        for _ in range(workload.setup_passes):
            slots.append(workloads.setup_only(workload, seed, boundary, WORK_DIR))
            gc.collect()
        # The output checks run on the first instance; the others must
        # reproduce its digests (see check_digests).
        instance = workloads.run_instance(workload, seed, boundary, clock, WORK_DIR,
                                          check=not instances)
        instances.append(instance)
        slots.append(instance.setup_s)
        setup_slots.append(slots)
        # Collect the last instance's cycles outside the next one's timing.
        gc.collect()
        last = time.perf_counter() - began
    return {
        "instances": instances,
        "metrics": end_to_end(instances, setup_slots, setup_reference_s),
        "unscaled": end_to_end(instances, setup_slots, setup_reference_s, scaled=False),
        "setup_slots": setup_slots,
        "setup_reference_s": setup_reference_s,
    }


def trace_run(workload, seed: int, boundary, clock) -> dict:
    boundary.slices = 0
    untraced = workloads.run_instance(workload, seed, boundary, clock, WORK_DIR)
    gc.collect()
    trace = layers.LayerTrace()
    trace.install()
    captured = {}

    def capture(instance):
        runner = instance.result.runner
        if workload.uses_store:
            captured["store"] = {
                "bytes": layers.store_bytes(runner.durability.store.root),
                "samples": runner.durability.run_appended,
            }
        accounting = trace.accounting(runner.profiler.total_wall_s)
        captured["accounting"] = accounting
        captured["metrics"] = layers.per_layer_metrics(
            trace, accounting, runner, instance.service, captured.get("store"),
            untraced.run_s)
        captured["event_mix"] = layers.event_mix(runner.profiler)
        instance.failures.extend(accounting["problems"])

    trace.arm()
    traced = workloads.run_instance(workload, seed, boundary, clock, WORK_DIR,
                                    profile=True, on_measured=trace.stop,
                                    before_checks=capture)
    return {"instances": [untraced, traced], "metrics": captured["metrics"],
            "accounting": captured["accounting"], "event_mix": captured["event_mix"],
            "missing_hooks": trace.missing}


# -- output ---------------------------------------------------------------------------


def print_layer_table(accounting: dict) -> None:
    window = accounting["window_s"]
    print(f"layer self time, traced window {window:.3f}s (adds up by construction; "
          f"callback time outside spans {accounting['callback_outside_spans_s']:.3f}s, "
          f"no term below -{layers.ACCOUNTING_TOLERANCE:.0%} of the window):")
    rows = sorted(accounting["layer_self_s"].items(), key=lambda item: -item[1])
    rows.append(("unattributed", accounting["unattributed_s"]))
    for name, seconds in rows:
        print(f"  {name:<14} {seconds:9.3f}s  {seconds / window:7.2%}")


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure whole instances until the next would end after "
                             "this many seconds (at least one instance)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True))
    boundary = workloads.RunBoundary()
    boundary.install()
    clock = workloads.RequestClock()
    clock.install()
    boundary.mark = clock.counts

    if args.trace:
        outcome = trace_run(workload, args.seed, boundary, clock)
        units = dict(layers.PER_LAYER_METRICS)
        counted = outcome["instances"][1:]
    else:
        outcome = measure(workload, args.seed, boundary, clock, args.seconds)
        units = END_TO_END_UNITS
        counted = outcome["instances"]
    instances = outcome["instances"]
    failures = [f for inst in instances for f in inst.failures]
    failures += check_digests(args.workload, args.seed,
                              host["source_sha256"] + host["benchmark_sha256"], instances)

    digests = instances[0].digests
    print(f"workload {args.workload} seed {args.seed}: {len(counted)} measured "
          f"instance(s); report digest {digests['report'][:16]}, response-log digest "
          f"{digests['responses'][:16]}, {digests['events']} kernel events")
    if args.trace:
        print_layer_table(outcome["accounting"])
        print("event mix by label family: " + json.dumps(outcome["event_mix"]))
        if outcome["missing_hooks"]:
            print("hooks not found: " + ", ".join(outcome["missing_hooks"]))
    else:
        inst = counted[0]
        print(f"latency samples: {len(inst.ngsi_s)} NGSIv2, {len(inst.sth_s)} STH per "
              f"instance; setup slots: {len(outcome['setup_slots'][0])} x "
              f"{len(instances)} instances; speed scale per instance: "
              + ", ".join(f"{speed_scale(i.reference_s):.4f}" for i in instances))
        print("unscaled " + json.dumps(outcome["unscaled"], sort_keys=True))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    result = {
        "correct": not failures,
        "attempted": sum(inst.finished for inst in counted),
        "failed": sum(inst.failed for inst in counted),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  host=host, digests=digests, failures=failures,
                  instances=[{"setup_s": i.setup_s, "run_s": i.run_s,
                              "finished": i.finished,
                              "ngsi_samples": len(i.ngsi_s), "sth_samples": len(i.sth_s),
                              "slices_s": i.slices_s, "reference_s": i.reference_s,
                              "extra": i.extra} for i in instances])
    for key in ("unscaled", "setup_slots", "setup_reference_s", "accounting", "event_mix",
                "missing_hooks"):
        if key in outcome:
            record[key] = outcome[key]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(WORK_DIR, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
