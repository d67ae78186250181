"""gapscan benchmark: one command, stdlib only.

    python3 perfbench/run.py --workload dense-1w --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each sample is a fresh interpreter
(child.py) that imports gapscan from the checkout's src/, sets up, and
times the workload's operations while the host probe (probe.py) ticks
inside them.  Every time printed is normalised to the probe's reference
speed: (time - ticks) / the ticks' slowness against the reference host.  Raw times, probe
times and machine information go to a diagnostics line before the result
and, per sample, to .bench_build/perfbench/.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, each the median
over the run's operations (times) or samples (set-up, memory).  --trace 1
runs tracing.py instead and prints the per-layer metrics.  The last line of
standard output is always the result object:
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at tiny sizes, once untraced and once traced,
checks the output schema against BENCHMARK.json and map.json, and checks
that the correctness gate counts a tampered report and a dead child as
failed.  It takes about ten seconds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import probe
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
# Every child is killed, with its own children, once the run has lasted
# this long, so a run always ends within 180 s.
RUN_LIMIT_S = 165
MIN_SAMPLES = 3
MAX_SAMPLES = 64


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "probe_reference_ms": probe.REFERENCE_NS / 1e6,
        "probe_stream_reference_ms": probe.STREAM_REFERENCE_NS / 1e6,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONNOUSERSITE"] = "1"
    # A fixed mmap threshold turns off glibc's adaptive one, which the probe
    # ticks' own buffers would otherwise move at timing-dependent moments,
    # flipping the program's big sieve buffers between mmap and the heap.
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=131072"
    for var in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                "PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONMALLOC",
                "PYTHONPROFILEIMPORTTIME", "PYTHONWARNINGS", "PYTHONTRACEMALLOC"):
        env.pop(var, None)
    return env


def spawn(spec: dict, deadline: float) -> dict | None:
    """Run child.py on `spec` in a session of its own; its result object,
    or None if it failed or was still running at `deadline` (monotonic),
    when it is killed with everything it started."""
    spec = dict(spec, root=ROOT, scratch=SCRATCH)
    spec["spawn_ns"] = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"child timed out: {spec['workload']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(err)
        print(f"child exited {proc.returncode}: {spec['workload']}", file=sys.stderr)
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"child printed no result: {spec['workload']}", file=sys.stderr)
        return None


def workers() -> int:
    return len(os.sched_getaffinity(0))


def summarise(planned: list[list[dict]], samples: list[dict | None],
              setups: list[dict | None] = ()) -> dict:
    """End-to-end metrics over a run's samples.

    `samples[i]` is the child result for the operations `planned[i]`, or
    None if that child failed; all of its operations then count as failed.
    `setups` are set-up-only children; each counts as one operation.
    Each time is divided by the slowness of the probe ticks it saw.
    """
    attempted = failed = 0
    wall, cpu, raw_wall, setup, raw_setup, rss, slowness = [], [], [], [], [], [], []
    for s in setups:
        attempted += 1
        if s is None:
            failed += 1
            continue
        setup.append(s["setup_ns"] / s["setup_slowness"] / 1e9)
        raw_setup.append(s["raw_setup_ns"] / 1e9)
    for ops, sample in zip(planned, samples):
        attempted += len(ops)
        if sample is None or len(sample["ops"]) != len(ops):
            failed += len(ops)
            continue
        setup.append(sample["setup_ns"] / sample["setup_slowness"] / 1e9)
        raw_setup.append(sample["raw_setup_ns"] / 1e9)
        rss.append(sample["peak_rss_kib"] / 1024)
        for op in sample["ops"]:
            if op["errors"]:
                failed += 1
                print("correctness:", "; ".join(op["errors"]), file=sys.stderr)
                continue
            wall.append(op["wall_ns"] / op["slowness"] / 1e9)
            cpu.append(op["cpu_ns"] / op["slowness"] / 1e9)
            raw_wall.append(op["raw_wall_ns"] / 1e9)
            slowness.append(op["slowness"])
    metrics = {}
    diagnostics = {}
    if wall:
        metrics = {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mib": statistics.median(rss),
            "setup_s": statistics.median(setup),
        }
        diagnostics = {
            "raw.wall_s": statistics.median(raw_wall),
            "raw.setup_s": statistics.median(raw_setup),
            "host.slowness": statistics.median(slowness),
            "samples": len(rss),
            "setups": len(setup),
            "operations": len(wall),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "diagnostics": diagnostics, "samples": samples, "setups": list(setups)}


def measure(name: str, seed: int, seconds: float, size: dict, deadline: float) -> dict:
    """Samples in fresh interpreters until `seconds` have passed, starting
    none that would end past them (but at least MIN_SAMPLES).  Each sample
    is one child that sets up and runs its operations, plus set-up-only
    children up to size["setups"] set-ups."""
    planned = wl.plan(name, seed, size, MAX_SAMPLES)
    samples: list[dict | None] = []
    setups: list[dict | None] = []
    durations = []
    begin = time.monotonic()
    while len(samples) < MAX_SAMPLES:
        elapsed = time.monotonic() - begin
        if len(samples) >= MIN_SAMPLES and \
                elapsed + statistics.median(durations) > seconds:
            break
        t0 = time.monotonic()
        spec = {"workload": name, "ops": planned[len(samples)], "workers": workers()}
        for _ in range(size["setups"] - 1):
            setups.append(spawn(dict(spec, mode="setup"), deadline))
        samples.append(spawn(dict(spec, mode="sample"), deadline))
        durations.append(time.monotonic() - t0)
    return summarise(planned[: len(samples)], samples, setups)


def traced(name: str, seed: int, size: dict, smoke: bool, deadline: float) -> dict:
    """The traced run (tracing.py), then the warm-window sieve heights and
    the import time, each in fresh interpreters of their own.  The 1e16
    window gets a process to itself: its base primes take ~460 MiB."""
    import tracing
    ops = wl.plan(name, seed, size, 1)[0]
    common = {"workload": name, "seed": seed, "workers": workers(), "smoke": smoke}
    out = spawn(dict(common, mode="trace", ops=ops), deadline)
    if out is None:
        return {"attempted": len(ops), "failed": len(ops), "metrics": {},
                "diagnostics": {}}
    heights = tracing.SMOKE_HEIGHTS if smoke else tracing.HEIGHTS
    extra = [dict(common, mode="heights", heights={k: heights[k] for k in group})
             for group in (("h8", "h12", "h15"), ("h16",))]
    extra += [dict(common, mode="import")] * (1 if smoke else 5)
    imports = []
    for spec in extra:
        got = spawn(spec, deadline)
        out["attempted"] += 1
        if got is None:
            out["failed"] += 1
        elif "cli.import_s" in got:
            imports.append(got["cli.import_s"])
        else:
            out["metrics"].update(got)
    if imports:
        out["metrics"]["cli.import_s"] = statistics.median(imports)
    return out


def result_line(outcome: dict, units: dict) -> dict:
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in outcome["metrics"].items() if k in units}
    failed = outcome["failed"]
    if set(metrics) != set(units):
        failed = max(failed, 1)
    return {"correct": failed == 0, "attempted": max(outcome["attempted"], 1),
            "failed": failed, "metrics": metrics}


def benchmark_units(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def prepare() -> None:
    """Refuse to run without the program; compile it and the benchmark so
    no sample pays for bytecode compilation."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gapscan", "__init__.py")):
        raise SystemExit("perfbench: no src/gapscan in this checkout; nothing to measure")
    os.makedirs(SCRATCH, exist_ok=True)
    for d in (os.path.join(ROOT, "src"), HERE):
        if not compileall.compile_dir(d, quiet=1):
            raise SystemExit(f"perfbench: {d} does not compile")


def one(name: str, seed: int, seconds: float, trace: bool, size: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    outcome = traced(name, seed, size, False, deadline) if trace \
        else measure(name, seed, seconds, size, deadline)
    line = result_line(outcome, benchmark_units(trace))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info(), "diagnostics": outcome["diagnostics"],
              "result": line, "samples": outcome.get("samples"),
              "setups": outcome.get("setups")}
    with open(os.path.join(SCRATCH, f"result-{name}-{seed}-{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": record["machine"],
                      "diagnostics": outcome["diagnostics"]}))
    return line


def smoke() -> int:
    """Tiny sizes, every workload, both modes; schema and gate checks.
    Prints {"smoke": "ok"} and exits 0, or lists the problems and exits 1."""
    problems = []
    for trace in (False, True):
        units = benchmark_units(trace)
        for name in wl.NAMES:
            size = wl.SIZES["smoke"][name]
            deadline = time.monotonic() + RUN_LIMIT_S
            outcome = traced(name, 7, size, True, deadline) if trace \
                else measure(name, 7, 0, size, deadline)
            line = result_line(outcome, units)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(line)}")
            missing = set(units) - set(line["metrics"])
            if missing:
                problems.append(f"{name} trace={trace}: missing {sorted(missing)}")
            for key, m in line["metrics"].items():
                if not isinstance(m["value"], (int, float)) or m["unit"] != units[key]:
                    problems.append(f"{name}: bad metric {key} {m}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{name} trace={trace}: {line['failed']} failed")
            print(f"smoke {name} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} attempted, {line['failed']} failed",
                  file=sys.stderr)
    with open(os.path.join(HERE, "map.json"), encoding="utf-8") as fh:
        mapped = set(json.load(fh)["layers"])
    if mapped != set(benchmark_units(True)):
        problems.append(f"map.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(mapped ^ set(benchmark_units(True)))}")
    # The gate as run.py counts it: a sample whose report was tampered
    # with, and a child that died, each count as failed operations.
    op = {"wall_ns": 1, "cpu_ns": 1, "slowness": 1, "raw_wall_ns": 1, "errors": []}
    good = {"setup_ns": 1, "raw_setup_ns": 1, "setup_slowness": 1, "peak_rss_kib": 1,
            "ops": [op]}
    bad = dict(good, ops=[dict(op, errors=["tampered"])])
    counted = summarise([[{}], [{}], [{}]], [good, bad, None])
    if (counted["attempted"], counted["failed"]) != (3, 2):
        problems.append(f"gate counted {counted['failed']} of 3, expected 2")
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed"}))
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    prepare()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    line = one(args.workload, args.seed, args.seconds, bool(args.trace),
               wl.SIZES["full"][args.workload])
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
