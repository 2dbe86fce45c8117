"""Run state shared by the workloads: timed operations, rounds, checks.

A run is a sequence of whole rounds.  Every round of a workload performs
the same multiset of operations, so a run's figures do not depend on how
many rounds fit in ``--seconds``; a run keeps starting rounds until its
timed phases add up to ``--seconds`` and it has done ``min_rounds``.

With tracing on, round 0 runs untraced as a warm-up, then rounds
alternate traced and untraced; per-layer metrics come from the traced
rounds and ``trace.overhead_pct`` compares the two kinds.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Iterator

import layers
from measure import median
from spans import Recorder

#: No new round starts once a run has been going this long, so a run on
#: a slow host still ends within about two minutes.
MAX_RUN_SECONDS = 120.0


@dataclass
class RunState:
    seed: int
    seconds: float
    traced: bool
    work_dir: Path
    recorder: Recorder = field(default_factory=Recorder)
    reads: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    restarts: list[float] = field(default_factory=list)
    speedups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Wall seconds spent in timed phases (operations only).
    op_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    #: Every round's (traced, timed seconds, operations, write seconds,
    #: writes).
    rounds: list[tuple[bool, float, int, float, int]] = field(default_factory=list)
    traced_reads: int = 0
    traced_writes: int = 0
    counters: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(layers.COUNTERS, 0.0)
    )
    #: Per-layer figures a workload measures itself (see layers.py).
    layer_extra: dict[str, float] = field(default_factory=dict)
    #: Seconds spent making the workload's inputs before set-up, if any.
    inputs_seconds: float | None = None
    started: float = field(default_factory=time.perf_counter)
    _round_op_seconds: float = 0.0

    # ------------------------------------------------------------------
    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def note_failure(self, message: str) -> None:
        self.failed += 1
        print(f"operation failed: {message}", file=sys.stderr)

    @property
    def tracing(self) -> bool:
        return self.recorder.recording()

    @contextmanager
    def timed_phase(self) -> Iterator[None]:
        """Count the enclosed wall time as time spent on operations."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.op_seconds += elapsed
            self._round_op_seconds += elapsed

    def read(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return self._op("read", self.reads, fn, args, kwargs)

    def write(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return self._op("write", self.writes, fn, args, kwargs)

    def _op(self, kind: str, samples: list[float], fn, args, kwargs) -> Any:
        """One timed operation; returns its result, or None if it raised."""
        self.attempted += 1
        tracing = self.tracing
        span = (
            self.recorder.span(f"op.{kind}", request=self.attempted)
            if tracing
            else nullcontext()
        )
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 — counted, the run goes on
            self.note_failure(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        samples.append(time.perf_counter() - start)
        if tracing:
            if kind == "read":
                self.traced_reads += 1
            else:
                self.traced_writes += 1
        return result

    # ------------------------------------------------------------------
    def run_rounds(
        self,
        one_round: Callable[[int], None],
        min_rounds: int,
        wrappers: Any = None,
    ) -> int:
        """Run whole rounds until the timed phases fill ``seconds``."""
        if self.traced:
            min_rounds = max(min_rounds, 3)
        index = 0
        while index < min_rounds or (
            self.op_seconds < self.seconds
            and time.perf_counter() - self.started < MAX_RUN_SECONDS
        ):
            traced = self.traced and index % 2 == 1
            # Garbage left by earlier phases is collected outside the
            # timed operations; what a round makes itself still counts.
            gc.collect()
            self._round_op_seconds = 0.0
            reads, writes = len(self.reads), len(self.writes)
            before = layers.counter_totals() if traced else None
            with wrappers.installed() if traced else nullcontext():
                one_round(index)
            if before is not None:
                after = layers.counter_totals()
                for name in self.counters:
                    self.counters[name] += after[name] - before[name]
            self.rounds.append(
                (
                    traced,
                    self._round_op_seconds,
                    len(self.reads) - reads + len(self.writes) - writes,
                    sum(self.writes[writes:]),
                    len(self.writes) - writes,
                )
            )
            index += 1
        return index

    def trace_overhead_pct(self) -> float:
        """Traced against untraced rounds, the warm-up round left out."""
        traced = [round_[1] for round_ in self.rounds[1:] if round_[0]]
        untraced = [round_[1] for round_ in self.rounds[1:] if not round_[0]]
        if not traced or not untraced:
            return 0.0
        return 100.0 * (median(traced) / median(untraced) - 1.0)

    @property
    def traced_rounds(self) -> int:
        return sum(1 for round_ in self.rounds if round_[0])

    def round_medians(self) -> tuple[float, float]:
        """Median over rounds of operations per second and of the mean
        write latency, so a round hit by a burst of host noise does not
        move the run's figure."""
        rates = [ops / seconds for __, seconds, ops, __, __ in self.rounds]
        writes = [total / count for __, __, __, total, count in self.rounds if count]
        return median(rates), median(writes)


def stop_children(timeout: float = 30.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Worker processes are joined (killed past ``timeout``), then the
    ``multiprocessing`` resource tracker, which shared memory starts and
    which would otherwise outlive the run by a moment: closing its pipe
    stops it, and it is reaped here rather than by whoever adopts it.
    """
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    while True:
        try:
            ended, __ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if ended:
            return
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)
