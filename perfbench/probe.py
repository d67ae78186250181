"""Host probe: a frozen, stdlib-only reference workload, and a sampler that
runs it inside every timed operation.

The probe copies the seed version of gapscan's sieve window and fused
per-pair arithmetic, and must never import gapscan, so a change to the
program cannot move it.

Why it runs *inside* the operation: on the 2-vCPU guest this benchmark was
built on, the speed of one vCPU swings by up to 2x within a fraction of a
second (CPU time tracks wall time, so it is not preemption), and the two
vCPUs swing independently.  A probe timed before and after a sample, or on
the other vCPU, misses most of that.  `Sampler` instead interrupts the main
thread every INTERVAL_S with SIGALRM and times one probe tick in CPU time;
an operation's time minus its ticks, divided by the ticks' slowness
against the pinned reference, is its time at the reference speed.

Do not edit the arithmetic or the constants below; a changed probe changes
every normalised number the benchmark has ever printed.
"""

from __future__ import annotations

import glob
import os
import signal
import statistics
import time
from math import isqrt, sqrt

# One tick: sieve [LO, LO + WIDTH) and run the per-pair arithmetic over its
# primes, about 1 ms of CPU in Python bytecode.
LO = 10**8
WIDTH = 1 << 12
INTERVAL_S = 0.04
# Set-up is short (~70 ms on the dense workloads), so it ticks faster and
# is followed by back-to-back ticks until it has SETUP_TICKS of them, and
# SETUP_STREAMS streaming ticks: much of set-up is exec, page faults and
# file reads, which slow less than bytecode when the host slows.
SETUP_INTERVAL_S = 0.02
SETUP_TICKS = 8
SETUP_STREAMS = 2
# Streaming ticks, on every STREAM_EVERY-th tick where asked for: sieve
# [STREAM_LO, STREAM_LO + STREAM_WIDTH) and count its primes, about 20 ms
# spent mostly in strided writes to a 4 MiB buffer, twice one core's L2.
# Code that runs mostly in C over big buffers (cubes) slows less than
# bytecode when the host slows; the geometric mean of the two tick kinds
# tracks it.
STREAM_LO = 10**6
STREAM_WIDTH = 1 << 22
STREAM_EVERY = 10

# Checksums of the two tick kinds, pinned so a broken probe is caught.
CHECKSUM = 4082
STREAM_CHECKSUM = 282533

# The reference speed: normalised times are in seconds of a host on which
# a tick takes exactly this much CPU time (and a streaming tick this much).
REFERENCE_NS = 1_000_000
STREAM_REFERENCE_NS = 20_000_000


def _base_primes(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start::p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, f in enumerate(flags) if f]


_BASE = _base_primes(isqrt(LO + WIDTH))


def _sieve(lo: int, hi: int) -> bytearray:
    width = hi - lo
    flags = bytearray(b"\x01") * width
    first_even = lo + (lo & 1)
    flags[first_even - lo :: 2] = b"\x00" * ((hi - first_even + 1) // 2)
    for p in _BASE:
        if p == 2:
            continue
        pp = p * p
        if pp >= hi:
            break
        start = max(pp, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            step = 2 * p
            flags[start - lo :: step] = b"\x00" * ((hi - start + step - 1) // step)
    return flags


def _pairs(lo: int, flags: bytearray) -> int:
    """The seed's per-pair arithmetic over consecutive primes of one window;
    returns a checksum so the work cannot be skipped."""
    acc = 0
    prev = -1
    idx = flags.find(1)
    while idx >= 0:
        q = lo + idx
        if prev > 0:
            p = prev
            g = q - p
            b = g >> 1
            m2 = (p + b) * (p + b)
            b2 = b * b
            two_p = p << 1
            two_q = q << 1
            c_lo = b2 // two_p
            c_hi = b2 // two_q
            x_lo = (m2 - p) % two_p
            x_hi = (m2 - q) % two_q
            alpha = q + (c_lo << 1)
            beta = p + (c_hi << 1)
            delta = beta * q - alpha * p
            if m2 - p * q != b2 or delta != x_lo - x_hi or c_hi > c_lo:
                acc += 1
            if g * g >= (p << 3) * (c_lo + 1) or g * g * g >= 16 * p * p:
                acc += 1
            acc += g + c_lo + delta
        prev = q
        idx = flags.find(1, idx + 1)
    return acc


def tick(stream: bool = False) -> tuple[int, int, int]:
    """One probe tick: (wall ns, CPU ns of the bytecode part, CPU ns of the
    streaming part or 0)."""
    w0 = time.perf_counter_ns()
    c0 = time.thread_time_ns()
    acc = _pairs(LO, _sieve(LO, LO + WIDTH))
    c1 = time.thread_time_ns()
    if acc != CHECKSUM:
        raise RuntimeError(f"probe checksum {acc} != {CHECKSUM}")
    c2 = c1
    if stream:
        acc = _sieve(STREAM_LO, STREAM_LO + STREAM_WIDTH).count(1)
        c2 = time.thread_time_ns()
        if acc != STREAM_CHECKSUM:
            raise RuntimeError(f"probe checksum {acc} != {STREAM_CHECKSUM}")
    return time.perf_counter_ns() - w0, c1 - c0, c2 - c1


def slowness(ticks: list[tuple[int, int, int]]) -> float | None:
    """How much slower than the reference host these ticks ran.

    Ticks sample the speed at evenly spaced moments, so the work done in a
    stretch of time is its length times the mean *speed* (reference tick /
    tick), and the slowness is the inverse of that mean.  With streaming
    ticks among them, it is the geometric mean of the two kinds'."""
    if not ticks:
        return None
    s = 1 / statistics.fmean(REFERENCE_NS / t[1] for t in ticks)
    streams = [t[2] for t in ticks if t[2]]
    if streams:
        s = sqrt(s / statistics.fmean(STREAM_REFERENCE_NS / c for c in streams))
    return s


def measure(n: int = 15) -> float:
    """Slowness of `n` back-to-back bytecode ticks, for code that is not
    run under a Sampler."""
    return slowness([tick() for _ in range(n)])


class Sampler:
    """Ticks on SIGALRM every INTERVAL_S of real time, in the main thread,
    whatever it is doing; `ticks` holds tick() of each."""

    def __init__(self) -> None:
        self.ticks: list[tuple[int, int, int]] = []
        self.on_tick = None
        self.stream = False

    def _on_alarm(self, signum, frame) -> None:
        t = tick(self.stream and len(self.ticks) % STREAM_EVERY == 0)
        self.ticks.append(t)
        if self.on_tick is not None:
            self.on_tick(t[0])

    def start(self, interval: float = INTERVAL_S, stream: bool = False) -> None:
        self.stream = stream
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def top_up(self, n: int, streams: int = 0) -> None:
        """Tick back to back until there are at least `n` ticks, then add
        `streams` streaming ticks."""
        while len(self.ticks) < n:
            self.ticks.append(tick())
        self.ticks.extend(tick(stream=True) for _ in range(streams))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.ticks)

    def follow_forks(self, prefix: str) -> None:
        """Tick in every process forked from this one too (pool workers,
        which do the work on the parallel workload), appending
        "monotonic_ns wall_ns cpu_ns 0" lines to `prefix`-<pid>.ticks; a
        worker may be killed at any moment, so every tick is written at
        once.  Read them back with `forked_ticks`."""

        def in_child() -> None:
            fd = os.open(f"{prefix}-{os.getpid()}.ticks",
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

            def on_alarm(signum, frame) -> None:
                t = tick()
                os.write(fd, f"{time.monotonic_ns()} {t[0]} {t[1]} {t[2]}\n".encode())

            signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

        os.register_at_fork(after_in_child=in_child)

    @staticmethod
    def forked_ticks(prefix: str, since_ns: int) -> list[tuple[int, int, int]]:
        """The forked processes' ticks that ended after `since_ns`
        (monotonic); removes their files."""
        ticks = []
        for path in glob.glob(f"{glob.escape(prefix)}-*.ticks"):
            with open(path, encoding="ascii") as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 4 and line.endswith("\n") and int(parts[0]) > since_ns:
                        ticks.append((int(parts[1]), int(parts[2]), int(parts[3])))
            os.remove(path)
        return ticks

    def span(self, a: int, b: int) -> tuple[int, int, float | None]:
        """Ticks [a, b): their total wall ns, total CPU ns, slowness."""
        ticks = self.ticks[a:b]
        return (sum(t[0] for t in ticks), sum(t[1] + t[2] for t in ticks),
                slowness(ticks))


if __name__ == "__main__":
    ticks = [tick(i % 2 == 0) for i in range(40)]
    print(f"slowness {slowness([t[:2] + (0,) for t in ticks]):.3f} (bytecode), "
          f"{slowness(ticks):.3f} (with streaming) against the reference host")
