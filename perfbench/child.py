"""One sample of one workload, in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

run.py starts this with PYTHONPATH pointing at the checkout's src/ and a
fixed PYTHONHASHSEED, and reads one JSON object from the last line of its
standard output.  The spec names the workload, its operations, the
monotonic time at which run.py spawned this process (set-up time
starts there) and a scratch directory.

Order of events: import gapscan, validate and plan every operation, fill
the base-prime cache at the highest number any operation sieves, start a
pool where the workload has one -- that is set-up, and all a child in
mode "setup" does.  Then each timed operation and its correctness gate.
The host probe's sampler ticks throughout, from before the import on;
its ticks are taken out of every time and give each time its slowness.
Peak RSS includes the probe's own buffers (a few MiB, the same on every
commit).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_ns() -> int:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return int(total * 1e9)


def _peak_rss_kib() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def import_gapscan(root: str):
    """Import gapscan and refuse any copy but the checkout's own."""
    t0 = time.perf_counter_ns()
    import gapscan
    import_ns = time.perf_counter_ns() - t0
    want = os.path.join(root, "src", "gapscan")
    if os.path.dirname(os.path.realpath(gapscan.__file__)) != os.path.realpath(want):
        raise SystemExit(f"gapscan imported from {gapscan.__file__}, not {want}")
    return gapscan, import_ns


def set_up(gs, name: str, ops: list[dict], workers: int) -> None:
    """Everything a run pays before its first pair is evaluated."""
    import workloads as wl
    if name != "cubes":
        for op in ops:
            start = op.get("start", 2)
            config = gs.ScanConfig(start, op.get("stop", start + op.get("width", 0)),
                                   chunk_size=op.get("chunk", 1 << 24),
                                   workers=workers if name == "dense-par-ckpt" else 1)
            config.validate()
            gs.plan_chunks(config)
    top = wl.top(name, ops)
    gs.sieve_range(top, top + 1)
    if name == "dense-par-ckpt":
        # The same pool run_scan starts: default context, one no-op per worker.
        from multiprocessing import get_context
        with get_context().Pool(processes=workers) as pool:
            pool.map(abs, range(workers))


def sample(spec: dict) -> dict:
    import probe
    sampler = probe.Sampler()
    forks = os.path.join(spec["scratch"], f"ticks-{os.getpid()}")
    sampler.follow_forks(forks)
    sampler.start(probe.SETUP_INTERVAL_S)
    import workloads as wl
    name, ops = spec["workload"], spec["ops"]
    gs, import_ns = import_gapscan(spec["root"])
    set_up(gs, name, ops, spec["workers"])
    ready = time.monotonic_ns()
    ready_mark = sampler.mark()
    sampler.stop()
    sampler.top_up(probe.SETUP_TICKS, probe.SETUP_STREAMS)
    setup_wall, _, _ = sampler.span(0, ready_mark)
    _, _, setup_slowness = sampler.span(0, sampler.mark())
    sampler.start(stream=name in wl.STREAMING)

    pinned = wl.load_pinned()
    results = []
    for op in ops if spec["mode"] == "sample" else []:
        a = sampler.mark()
        cpu0 = _cpu_ns()
        since = time.monotonic_ns()
        t0 = time.perf_counter_ns()
        data = wl.canon(name, wl.run(gs, name, op, spec["workers"], spec["scratch"]))
        got = wl.digest(data)
        wall = time.perf_counter_ns() - t0
        cpu = _cpu_ns() - cpu0
        tick_wall, tick_cpu, slowness = sampler.span(a, sampler.mark())
        forked = probe.Sampler.forked_ticks(forks, since)
        if forked:
            # The workers did the work: their ticks give the speed, and
            # each worker lost its share of their time.
            cpu -= sum(t[1] + t[2] for t in forked)
            tick_wall = sum(t[0] for t in forked) / spec["workers"]
            slowness = probe.slowness(forked)
        errors = wl.verify(gs, name, op, data, pinned, got)
        if not wl.verify(gs, name, op, wl.tamper(name, data), pinned):
            errors.append("the gate passed a tampered report")
        results.append({"wall_ns": wall - tick_wall, "cpu_ns": cpu - tick_cpu,
                        "slowness": slowness, "raw_wall_ns": wall, "errors": errors})
    sampler.stop()
    probe.Sampler.forked_ticks(forks, 0)
    # An operation too short for any tick (smoke sizes) takes the speed of
    # the set-up.
    for r in results:
        r["slowness"] = r["slowness"] or setup_slowness
    return {
        "setup_ns": ready - spec["spawn_ns"] - setup_wall,
        "raw_setup_ns": ready - spec["spawn_ns"],
        "setup_slowness": setup_slowness,
        "import_ns": import_ns,
        "ticks": len(sampler.ticks),
        "peak_rss_kib": _peak_rss_kib(),
        "ops": results,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] in ("sample", "setup"):
        out = sample(spec)
    else:
        import tracing
        out = {"trace": tracing.run, "heights": tracing.sieve_height,
               "import": tracing.import_time}[spec["mode"]](spec)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
