"""Shared pieces of the benchmark: paths, timing, spans and results."""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run outputs (traces, temporary cache stores); ignored by git.
OUT = ROOT / ".perfbench"


def use_program() -> None:
    """Make ``import repro`` load the checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}; run "
                         f"from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses (``python -m repro ...``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextmanager
def scratch_dir(label: str) -> Iterator[Path]:
    """A per-process directory under :data:`OUT`, removed afterwards."""
    path = OUT / f"tmp-{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            OUT.rmdir()          # only when nothing else is left there
        except OSError:
            pass


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak RSS (VmHWM) of another process in MiB, or None once it has
    exited (a zombie has no VmHWM)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its children
    (pool workers), in MiB.

    Live children are read from their VmHWM, exited ones from
    ``RUSAGE_CHILDREN`` (which covers a child only once it is reaped),
    so workers count whether a pool keeps them or has let them go.
    """
    live = [process_peak_rss_mb(child.pid)
            for child in multiprocessing.active_children()]
    multiprocessing.active_children()      # reaps the children that exited
    # Linux reports ru_maxrss in KiB.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + max([reaped] + [mb for mb in live if mb is not None])


class Tracer:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent]``.

    A span's parent is the span open around it on this tracer; a
    layer's self time is its duration minus its direct children's.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, the self time (s) of each span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        result: Dict[str, List[float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            result.setdefault(name, []).append((end - start - inner) / 1e9)
        return result

    def mean_ms(self, name: str) -> float:
        """Mean self time of ``name`` spans in ms (0 when none ran)."""
        values = self.self_times().get(name, [])
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Print the result line; ``metrics`` must name exactly ``units``."""
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise SystemExit(f"perfbench: metric mismatch, missing {missing}, "
                         f"unexpected {extra}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units}}),
        flush=True)


def report(lines: Dict[str, float]) -> None:
    """Workload-specific figures for people, on stderr."""
    for name, value in lines.items():
        print(f"perfbench: {name} = {value:.6g}", file=sys.stderr)


#: Check misses printed on standard error; the rest are counted.
MISSES_SHOWN = 20


def misses_report(misses: List[str]) -> None:
    for line in misses[:MISSES_SHOWN]:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    if len(misses) > MISSES_SHOWN:
        print(f"perfbench: ... {len(misses) - MISSES_SHOWN} more misses",
              file=sys.stderr)


#: Seconds one :class:`SpeedGauge` sample takes at the reference box's
#: typical speed (2 vCPUs, Python 3.11.7): the anchor of the scaling.
REFERENCE_SAMPLE_S = 0.006

#: Cold starts of the program timed in each run; ``setup_s`` is the
#: median of their scaled set-up times.  The host's speed drifts over
#: seconds, so starts in a row are alike; the first
#: :data:`STARTS_BEFORE` run before the workload and the rest after it.
SETUP_STARTS = 5
STARTS_BEFORE = 3

#: Gauge samples taken on each side of one cold start.
SETUP_SAMPLES = 5

#: The CPUs this benchmark may use, read before any pinning.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts from now on, on
    one CPU: the lowest it may use.

    On the reference box each of the two vCPUs drifts in speed on its
    own (the ratio of their gauge times ranged from 0.62 to 1.33 over
    one-second blocks), so a gauge sample taken on one CPU says little
    about work done on the other.  Pinned, the gauge and the program
    share a CPU: set-up times and gauge samples then correlated at 0.9.
    """
    os.sched_setaffinity(0, {min(ALL_CPUS)})


@contextmanager
def on_all_cpus() -> Iterator[None]:
    """Let this process (and what it starts meanwhile) use every CPU."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


#: Samples within this many seconds of a round set its scale.
GAUGE_WINDOW_S = 1.5


def reference_loop() -> float:
    """Seconds a fixed piece of dict, string and JSON work takes now.

    It does the kind of work the program does (hashing, allocation,
    ``json``), so it slows down and speeds up with the host as the
    program does: on the reference box the ratio of a corridor spec
    parse-and-fingerprint to this loop stayed within ±3 % while both
    drifted by ±20 %; a pure integer loop tracked it only to ±10 %.
    """
    start = time.perf_counter()
    table = {}
    for i in range(1500):
        table[f"k{i}"] = [i, str(i), {"v": i * 0.5}]
    json.loads(json.dumps(table, sort_keys=True))
    sorted(table)
    return time.perf_counter() - start


class SpeedGauge:
    """The machine's speed, sampled during a run with fixed work.

    Shared hosts drift: on the reference box a fixed pure-Python loop's
    median time over ten 10 s runs ranged from 18.0 to 22.5 ms, and
    within a run it wandered by as much from one second to the next.
    Time metrics are therefore reported at the reference speed: each
    measured time is multiplied by :data:`REFERENCE_SAMPLE_S` over the
    median of the :func:`reference_loop` samples taken within
    :data:`GAUGE_WINDOW_S` of its round.  The samples run no program
    code, so a slower program still reads slower.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.times: List[float] = []
        self._scales: Dict[int, float] = {}

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples now, after one untimed pass: the first
        pass after other work runs slower (cold caches) than the host's
        speed explains."""
        reference_loop()
        for _ in range(count):
            self.samples.append(reference_loop())
            self.times.append(time.perf_counter())

    def scale_of(self, samples: Sequence[float]) -> float:
        """Scale for work bracketed by ``samples``."""
        return REFERENCE_SAMPLE_S / float(np.median(samples))

    @property
    def epoch(self) -> int:
        """Index of the latest sample: work done now belongs to it."""
        return len(self.samples) - 1

    def scale_at(self, epoch: int) -> float:
        """Scale for work done between sample ``epoch`` and the next."""
        if epoch in self._scales:
            return self._scales[epoch]
        end = min(epoch + 1, len(self.samples) - 1)
        middle = (self.times[epoch] + self.times[end]) / 2
        near = [s for s, t in zip(self.samples, self.times)
                if abs(t - middle) <= GAUGE_WINDOW_S]
        near = near or self.samples[epoch:end + 1]
        self._scales[epoch] = self.scale_of(near)
        return self._scales[epoch]


def timed_loop(seconds: float, round_fn, gauge: SpeedGauge,
               samples_per_round: int = 1, gauge_every: float = 0.0,
               settle=None, check=None) -> List[Tuple[float, int]]:
    """Run whole rounds until ``seconds`` of rounds have passed.

    ``round_fn(index)`` runs one round; ``check(record)`` (if given) is
    handed what it returned, so that outputs are checked and dropped as
    the run goes and its memory does not grow with the rounds done.
    The gauge samples the machine's speed before a round once
    ``gauge_every`` seconds have passed since its last sample, and once
    after the last round, each time after ``settle()`` (if given) has
    returned.  Neither the checks nor the settling is counted.
    Returns ``(wall seconds, gauge epoch)`` per round.
    """
    rounds: List[Tuple[float, int]] = []
    elapsed = 0.0
    since_sample = gauge_every
    while True:
        if since_sample >= gauge_every or elapsed >= seconds:
            if settle is not None:
                settle()
            gauge.sample(samples_per_round)
            since_sample = 0.0
        if elapsed >= seconds:
            return rounds
        start = time.perf_counter()
        record = round_fn(len(rounds))
        took = time.perf_counter() - start
        rounds.append((took, gauge.epoch))
        elapsed += took
        since_sample += took
        if check is not None:
            check(record)


def scaled_seconds(rounds: List[Tuple[float, int]], gauge: SpeedGauge
                   ) -> float:
    """Total round time at the reference speed."""
    return sum(took * gauge.scale_at(epoch) for took, epoch in rounds)
