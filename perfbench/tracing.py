"""The traced run: per-layer metrics, taken apart from the timed runs.

Spans come from wrappers that replace the public module attributes the
program looks up at call time: gapscan.primes.sieve_range and
next_prime_above, the sieve_range that gapscan.claims imported,
gapscan.scan's iter_consecutive_pairs, merge_reports, save_checkpoint and
load_checkpoint, and gapscan.run_scan.  No file of the program changes.  A
wrapper records (name, start, end, parent, numbers) in memory, and only in
the process that installed it, so pool workers run unwrapped code and only
parent-side layers are traced; the spans are written to the scratch
directory at the end.  Self time is a span minus its children.

Layer costs that no wrapper can isolate come from subtraction runs over
the same range:
  walk        = drain iter_consecutive_pairs - its sieve and successor spans
  scan self   = scan_chunk(claims=()) - drain
  claims      = scan_chunk(all claims) - scan_chunk(claims=())
The same operations also run untraced first; trace.overhead_s is the
traced minus the untraced time.

The probe sampler ticks throughout, as in the timed runs: each tick is
booked to the innermost open span and taken out of every time, and times
are divided by the ticks' slowness.  Layers a workload never reaches are
measured on a fixed micro-run instead (MICRO below), so every workload
prints every metric; map.json says where each metric is meant to be read.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

import child
import probe
import workloads as wl

# Off-path layers: a 1-worker scan of [2, 2**21) in 32 checkpointed chunks,
# halted after 16 and resumed, and the cube intervals n = 1..100.
MICRO = {"stop": 1 << 21, "chunk": 1 << 16, "halt": 16, "max_n": 100}
SMOKE_MICRO = {"stop": 1 << 14, "chunk": 1 << 11, "halt": 4, "max_n": 10}

# Heights of the warm-window sieve metrics, and their smoke stand-ins.
HEIGHTS = {"h8": 10**8, "h12": 10**12, "h15": 10**15, "h16": 10**16}
SMOKE_HEIGHTS = {"h8": 10**5, "h12": 10**6, "h15": 10**7, "h16": 10**8}
WINDOW = 1 << 20
SMOKE_WINDOW = 1 << 12

CLAIMS = ("IDENTITIES", "LEMMA_ORDER", "COR_BOUND", "COR_PRODUCT", "LEMMA_RATIO",
          "LEMMA_SQRT", "THEOREM_CUBE_BOUND", "CUBE_INTERVAL")


class Tracer:
    """In-memory spans around wrapped module attributes."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # name, start_ns, end_ns, parent, numbers, own ticks ns, all ticks ns
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.undo: list[tuple] = []

    def charge(self, tick_wall_ns: int) -> None:
        """Book a probe tick to the innermost open span (its own ticks) and
        to every open span (ticks anywhere inside them)."""
        if self.stack:
            self.spans[self.stack[-1]][5] += tick_wall_ns
            for idx in self.stack:
                self.spans[idx][6] += tick_wall_ns

    def _open(self, name: str, numbers: int = 0) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, numbers, 0, 0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.remove(idx)

    def wrap(self, module, attr: str, numbers=None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            idx = tracer._open(attr, numbers(*args) if numbers else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(module, attr, wrapper)
        self.undo.append((module, attr, original))

    def wrap_generator(self, module, attr: str) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                yield from original(*args, **kwargs)
                return
            idx = tracer._open(attr)
            try:
                yield from original(*args, **kwargs)
            finally:
                tracer._close(idx)

        setattr(module, attr, wrapper)
        self.undo.append((module, attr, original))

    def install(self, gs) -> None:
        sieve_numbers = lambda lo, hi: hi - lo  # noqa: E731
        self.wrap(gs.primes, "sieve_range", sieve_numbers)
        self.wrap(gs.claims, "sieve_range", sieve_numbers)
        self.wrap(gs.primes, "next_prime_above")
        self.wrap_generator(gs.scan, "iter_consecutive_pairs")
        for attr in ("merge_reports", "save_checkpoint", "load_checkpoint"):
            self.wrap(gs.scan, attr)
        self.wrap(gs, "run_scan")

    def remove(self) -> None:
        for module, attr, original in reversed(self.undo):
            setattr(module, attr, original)
        self.undo.clear()

    def self_ns(self) -> list[int]:
        """Each span minus its children and its own probe ticks."""
        own = [end - start - ticks for _, start, end, _, _, ticks, _ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict:
        """name -> [calls, total ns, self ns, numbers], probe ticks out."""
        out: dict = {}
        for span, own in zip(self.spans, self.self_ns()):
            t = out.setdefault(span[0], [0, 0, 0, 0])
            t[0] += 1
            t[1] += span[2] - span[1] - span[6]
            t[2] += own
            t[3] += span[4]
        return out


class Clock:
    """Times code while a probe Sampler ticks: wall time minus the ticks
    inside it, and the factor that takes it to the reference speed (from
    those ticks, or from all ticks so far when none fell inside)."""

    def __init__(self, sampler: probe.Sampler) -> None:
        self.sampler = sampler

    def factor(self, a: int, b: int) -> float:
        return 1 / (self.sampler.span(a, b)[2] or self.sampler.span(0, b)[2]
                    or probe.measure(3))

    def timed(self, fn, *args, **kwargs):
        """(ns net of ticks, factor, raw ns, result) of fn(*args)."""
        a = self.sampler.mark()
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        raw = time.perf_counter_ns() - t0
        b = self.sampler.mark()
        return raw - self.sampler.span(a, b)[0], self.factor(a, b), raw, out

    def ns(self, fn, *args, **kwargs) -> float:
        """fn's time at the reference speed, in ns."""
        net, factor, _, _ = self.timed(fn, *args, **kwargs)
        return net * factor


def _primes_layers(totals: dict, factor: float) -> dict:
    sieve = totals.get("sieve_range", [0, 0, 0, 0])
    npa = totals.get("next_prime_above", [0, 0, 0, 0])
    return {
        "primes.sieve_range.ns_per_number":
            sieve[2] * factor / sieve[3] if sieve[3] else 0.0,
        "primes.sieve_range.calls": sieve[0],
        "primes.numbers_sieved": sieve[3],
        "primes.next_prime_above.calls": npa[0],
        "primes.next_prime_above.ms_per_call":
            npa[1] * factor / npa[0] / 1e6 if npa[0] else 0.0,
    }


def _pair_layers(gs, clock: Clock, lo: int, hi: int) -> tuple[dict, dict]:
    """Walk, scan-loop and claim costs per pair by subtraction, and
    compute_record on a sample of the range's pairs; and the sieve and
    successor metrics of the drain, which ran in this process."""
    tracer = Tracer()
    sieve_numbers = lambda lo, hi: hi - lo  # noqa: E731
    tracer.wrap(gs.primes, "sieve_range", sieve_numbers)
    tracer.wrap(gs.primes, "next_prime_above")
    clock.sampler.on_tick = tracer.charge
    try:
        net, factor, _, pairs = clock.timed(
            lambda: sum(1 for _ in gs.iter_consecutive_pairs(lo, hi)))
    finally:
        clock.sampler.on_tick = None
        tracer.remove()
    inner = sum(t[1] for t in tracer.totals().values())
    t_drain = net * factor
    t_walk = (net - inner) * factor
    t_none = clock.ns(gs.scan_chunk, lo, hi, claims=())
    t_all = clock.ns(gs.scan_chunk, lo, hi)

    sample = []
    for p, q in gs.iter_consecutive_pairs(lo, hi):
        if p > 2:
            g = q - p
            sample.append(gs.PrimePair(p=p, q=q, g=g, m=p + g // 2, b=g // 2))
        if len(sample) >= 20000:
            break
    compute = gs.compute_record
    t_rec = clock.ns(lambda: [compute(pair) for pair in sample])
    return {
        "primes.walk.ns_per_pair": t_walk / pairs,
        "scan.scan_chunk.self_ns_per_pair": (t_none - t_drain) / pairs,
        "claims.ns_per_pair": (t_all - t_none) / pairs,
        "midpoint.compute_record.ns_per_call": t_rec / max(len(sample), 1),
    }, _primes_layers(tracer.totals(), factor)


def _scan_layers(totals: dict, runs: list[dict], workers: int, factor: float) -> dict:
    """Merge, checkpoint and run_scan metrics from traced run_scan calls."""

    def per_call(name: str) -> float:
        calls, _, own, _ = totals.get(name, [0, 0, 0, 0])
        return own * factor / calls if calls else 0.0

    # Chunk elapsed_ns includes the probe ticks of whoever ran the chunk,
    # so it is set against wall time with the ticks left in.
    busy = sum(r["elapsed_ns"] for r in runs)
    wall = sum(r["wall_ns"] for r in runs)
    waited = sum(r["waited_ns"] for r in runs)
    for name in ("merge_reports", "save_checkpoint", "load_checkpoint"):
        waited -= totals.get(name, [0, 0, 0, 0])[1]
    return {
        "scan.merge_reports.us_per_call": per_call("merge_reports") / 1e3,
        "scan.save_checkpoint.ms_per_call": per_call("save_checkpoint") / 1e6,
        "scan.load_checkpoint.ms": totals.get("load_checkpoint", [0, 0])[1] * factor / 1e6,
        "scan.checkpoint_bytes": max((r["checkpoint_bytes"] for r in runs), default=0),
        "scan.run_scan.worker_busy_frac": busy / (workers * wall) if wall else 0.0,
        "scan.run_scan.parent_wait_s": waited * factor / 1e9,
        "scan.chunks": sum(r["chunks"] for r in runs),
    }


def _traced_pass(gs, clock: Clock, name: str, ops: list[dict], workers: int,
                 scratch: str):
    """Run `ops` with a fresh tracer installed.  Returns the tracer, the
    pass's time net of ticks and its speed factor, the outputs, and per
    run_scan-based op its timeline."""
    tracer = Tracer()
    sampler = clock.sampler
    outputs, runs = [], []
    a = sampler.mark()
    t_pass = time.perf_counter_ns()
    tracer.install(gs)
    sampler.on_tick = tracer.charge
    try:
        for op in ops:
            stamps: list[tuple[int, int]] = []
            progress = lambda done, total, chunk: stamps.append(  # noqa: E731
                (time.perf_counter_ns(), sampler.mark()))
            sizes = []
            save = gs.scan.save_checkpoint

            def measured_save(state, path, _save=save):
                _save(state, path)
                sizes.append(os.path.getsize(path))

            gs.scan.save_checkpoint = measured_save
            first = sampler.mark()
            t0 = time.perf_counter_ns()
            try:
                out = wl.run(gs, name, op, workers, scratch, progress)
            finally:
                gs.scan.save_checkpoint = save
            wall = time.perf_counter_ns() - t0
            outputs.append(out)
            if name != "cubes" and stamps:
                last_ns, last_mark = stamps[-1]
                runs.append({
                    "wall_ns": wall,
                    "waited_ns": last_ns - t0 - sampler.span(first, last_mark)[0],
                    "elapsed_ns": out.elapsed_ns, "chunks": len(stamps),
                    "checkpoint_bytes": max(sizes, default=0)})
    finally:
        sampler.on_tick = None
        tracer.remove()
    b = sampler.mark()
    net = time.perf_counter_ns() - t_pass - sampler.span(a, b)[0]
    return tracer, net, clock.factor(a, b), outputs, runs


def _claim_counts(name: str, datas: list) -> dict:
    checked = {c: 0 for c in CLAIMS}
    failed = 0
    for data in datas:
        if name == "cubes":
            checked["CUBE_INTERVAL"] += len(data)
            failed += sum(1 for row in data if row[3] != "PASS")
            continue
        for claim, counter in data["per_claim"].items():
            checked[claim] += int(counter["checked"])
            failed += int(counter["failed"])
    out = {f"claims.checked.{c}": n for c, n in checked.items()}
    out["claims.failed"] = failed
    return out


def _start_clock(stream: bool = False) -> Clock:
    sampler = probe.Sampler()
    sampler.start(stream=stream)
    return Clock(sampler)


def run(spec: dict) -> dict:
    """The traced run of one workload, in this (fresh) process."""
    name, ops, workers, scratch = spec["workload"], spec["ops"], spec["workers"], spec["scratch"]
    micro = SMOKE_MICRO if spec["smoke"] else MICRO
    gs, _ = child.import_gapscan(spec["root"])
    pinned = wl.load_pinned()
    clock = _start_clock(name in wl.STREAMING)

    # Base primes: the first window at the top height fills the cache; the
    # same window again is warm.
    top = wl.top(name, ops)
    width = min(WINDOW, top)
    t_first = clock.ns(gs.sieve_range, top - width, top)
    t_warm = clock.ns(gs.sieve_range, top - width, top)
    child.set_up(gs, name, ops, workers)

    # The untraced pass, then the traced pass over the same operations.
    datas, t_plain, raw_plain = [], 0.0, 0
    for op in ops:
        net, factor, raw, out = clock.timed(wl.run, gs, name, op, workers, scratch)
        t_plain += net * factor
        raw_plain += raw
        datas.append(wl.canon(name, out))
    tracer, net, factor, outputs, runs = _traced_pass(gs, clock, name, ops, workers,
                                                      scratch)
    traced = [wl.canon(name, out) for out in outputs]
    failed = sum(1 for op, data in zip(ops + ops, datas + traced)
                 if wl.verify(gs, name, op, data, pinned))

    totals = tracer.totals()
    metrics = {
        "primes.base_primes_s": (t_first - t_warm) / 1e9,
        "primes.pairs": 0 if name == "cubes"
        else sum(int(d["pairs_checked"]) for d in traced),
        "trace.overhead_s": (net * factor - t_plain) / 1e9,
        "raw.wall_s": raw_plain / len(ops) / 1e9,
    }
    metrics.update(_claim_counts(name, traced))

    if name == "cubes":
        lo, hi = 2, micro["stop"]
        numbers = sum((n + 1) ** 3 - n ** 3 - 1 for op in ops
                      for n in range(1, op["max_n"] + 1))
        t_cubes = t_plain
    else:
        lo = ops[0].get("start", 2)
        hi = ops[0].get("stop", lo + ops[0].get("width", 0))
        n = micro["max_n"]
        numbers = (n + 1) ** 3 - 1 - n
        t_cubes = clock.ns(lambda: [gs.check_cube_interval(k) for k in range(1, n + 1)])
    metrics["claims.check_cube_interval.ns_per_number"] = t_cubes / numbers
    pair_layers, drain_primes = _pair_layers(gs, clock, lo, hi)
    metrics.update(pair_layers)
    # Pool workers sieve untraced on dense-par-ckpt; there the sieve and
    # successor metrics come from the drain of the same range.
    metrics.update(_primes_layers(totals, factor) if "sieve_range" in totals
                   else drain_primes)

    if name == "dense-par-ckpt":
        layers = _scan_layers(totals, runs, workers, factor)
    else:
        # Merges and checkpoints happen only on dense-par-ckpt: measure them
        # on the micro-run everywhere else, and run_scan's too on cubes.
        m_tracer, _, m_factor, _, m_runs = _traced_pass(
            gs, clock, "dense-par-ckpt", [dict(micro)], 1, scratch)
        micro_layers = _scan_layers(m_tracer.totals(), m_runs, 1, m_factor)
        layers = micro_layers if name == "cubes" else _scan_layers(totals, runs, 1, factor)
        for key in ("scan.merge_reports.us_per_call", "scan.save_checkpoint.ms_per_call",
                    "scan.load_checkpoint.ms", "scan.checkpoint_bytes"):
            layers[key] = micro_layers[key]
    metrics.update(layers)
    clock.sampler.stop()
    # The mean tick in ms, as a reference-host tick times the slowness.
    metrics["host.probe_ms"] = \
        clock.sampler.span(0, clock.sampler.mark())[2] * probe.REFERENCE_NS / 1e6

    with open(os.path.join(scratch, f"spans-{name}-{spec['seed']}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "numbers",
                              "own_tick_ns", "all_tick_ns"],
                   "spans": tracer.spans}, fh)
    return {"attempted": 2 * len(ops), "failed": failed, "metrics": metrics,
            "diagnostics": {"host.probe_ms": metrics["host.probe_ms"]}}


def sieve_height(spec: dict) -> dict:
    """ns per number of one warm window at each height in spec["heights"]
    (median of three windows), in this fresh process."""
    gs, _ = child.import_gapscan(spec["root"])
    width = SMOKE_WINDOW if spec["smoke"] else WINDOW
    clock = _start_clock()
    out = {}
    for key, h in spec["heights"].items():
        gs.sieve_range(h + 3 * width, h + 3 * width + 1)
        times = [clock.ns(gs.sieve_range, h + i * width, h + (i + 1) * width)
                 for i in range(3)]
        out[f"primes.sieve_range.ns_per_number.{key}"] = statistics.median(times) / width
    clock.sampler.stop()
    return out


def import_time(spec: dict) -> dict:
    """Seconds to import gapscan in this fresh interpreter, net of probe
    ticks and at the reference speed."""
    sampler = probe.Sampler()
    sampler.start(probe.SETUP_INTERVAL_S)
    _, import_ns = child.import_gapscan(spec["root"])
    done = sampler.mark()
    sampler.stop()
    sampler.top_up(probe.SETUP_TICKS, probe.SETUP_STREAMS)
    ticks_ns, _, _ = sampler.span(0, done)
    slowness = sampler.span(0, sampler.mark())[2]
    return {"cli.import_s": (import_ns - ticks_ns) / slowness / 1e9}
