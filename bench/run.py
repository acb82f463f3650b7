"""Benchmark of realtoric, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus-small, large-d, polygon, cli-cold (see workloads.py).
One closed-loop client in one process sends each operation after the
previous one returns. The package is imported from ``src/`` of the
checkout; without it the benchmark exits 2 and prints no result.

With ``--trace 0`` the run measures, with nothing wrapped, for about
``--seconds`` seconds and reports the end-to-end metrics:

* ``ops_per_s``: completed operations per second of operation time;
* ``latency_ms_p50`` and ``latency_ms_tail``: the median and the
  workload's tail percentile of the completed operations of each block,
  averaged over the blocks. The tail percentile is the highest of 50, 75,
  90, 99 and 99.9 with at least ten samples beyond it in every run of the
  default length, counted over all blocks; it is printed with the sample
  count;
* ``success_rate``: completed over attempted operations, the complement
  of the error rate, which is printed with a count per error code and
  each failing input;
* ``setup_s``: median time to ``import realtoric`` in a fresh interpreter,
  rescaled as below;
* ``peak_rss_mb``: peak resident memory of the process doing the work.

Where the operations run in the benchmark's own process, their times are
wall-clock times rescaled to a reference machine speed. On a shared
machine the speed of pure Python code drifts by 15 % up to a factor of
two over seconds to minutes, with the load of other tenants; a run of
20 s cannot average that out, and runs a few minutes apart disagree by as
much. So a fixed loop of pure Python work (``calibration_work``) is timed
before an operation whenever a quarter second has passed since the last
timing, and each operation's time is multiplied by ``CALIBRATION_REF_S``
over the mean of the loop times just before it started and just after it
ended. The speed changes within a second, so the loop times are not
smoothed, and a long operation is bracketed on both sides. Over 12 s
windows of the large-d workload on one input set, the operations' total
time spread by 23 % (quartile distance over median), rescaled by 3 %;
with the median of the last five loop times before each operation, the
scheme used first, it spread by 7 %. A loop over float lists followed
both large-d and polygon better than one over integers and small dicts.
The loop is the benchmark's own code, so a change to realtoric cannot
move it. The unscaled figures and the scale factors are printed too.

Work done in child processes (cli-cold, and the imports timed for
``setup_s``) is rescaled another way: the loop runs in the parent just
after it wakes from waiting for a child, and there it did not follow the
children's speed. Instead a bare interpreter (``python -c pass``) is
started before every timed child and after the last, and each child's
time is multiplied by ``INTERPRETER_REF_S`` over the mean of the start-up
times on either side. Over 5 minutes of cli-cold, the median command time
of 30-command windows spread by 15 %, rescaled by 2 %. Interpreter
start-up is Python's own work, which a change to realtoric cannot move.

With ``--trace 1`` the run takes a fixed number of operations three times,
block by block: once plain and twice with spans around calls into the
package (spans.py). It reports unscaled per-layer times and exact counts
from the first traced pass, fails when the second traced pass counts
differently, and reports the traced over untraced throughput as
``trace.overhead``. Spans are written to ``bench/out/``. What each
per-layer metric should move:

* ``intmat.smith_normal_form.*``, ``intmat.snf_entries``: large-d
  ``latency_ms_p50``, then corpus-small ``ops_per_s``;
* ``intmat.mat_mul.s``, ``homology.homology.self_s``,
  ``gluing.build_real_complex.s``, ``fan.normalize_fan.*``,
  ``fan.random_fan.s``: corpus-small ``ops_per_s``;
* ``fan.minimal_model.s``, ``polytope.find_ample.*``: polygon
  ``latency_ms_p50``;
* ``polytope.lattice_points.*``: polygon ``latency_ms_p50`` and
  ``peak_rss_mb``;
* ``moment.*``: polygon ``latency_ms_p50`` and ``success_rate``;
* ``cli.*``: cli-cold ``latency_ms_p50``, and ``setup_s`` everywhere.

Every operation's output is checked outside the timed region. A wrong
answer makes the run exit 1; the last line of standard output is always
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, Workload, WrongAnswer, child_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 9
CLI_REPEATS = 5
# The calibration loop's time when the machine the benchmark was tuned on
# ran at full speed (2 vCPUs, Python 3.11).
CALIBRATION_REF_S = 0.0006
# Start-up time of a bare interpreter on that machine at full speed.
INTERPRETER_REF_S = 0.060
CALIBRATION_EVERY_S = 0.25
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import realtoric; "
    "print(time.perf_counter() - t); print(realtoric.__file__)"
)


def calibration_work() -> float:
    """A fixed piece of pure Python work: float lists, exp and fsum."""
    acc = 0.0
    xs = [i * 0.001 for i in range(2000)]
    for _ in range(2):
        top = max(xs)
        weights = [math.exp(x - top) for x in xs]
        acc += math.fsum(w * x for w, x in zip(weights, xs))
    return acc


class Speed:
    """The machine's speed over a run, from fixed work timed between operations.

    ``sample`` times the work at most every ``every_s`` seconds, always
    before an operation starts. An operation's factor is the reference time
    of the work over the mean of the samples taken just before it started
    and just after it ended, so a drift during a long operation counts too.
    """

    ref_s = CALIBRATION_REF_S
    every_s = CALIBRATION_EVERY_S

    def __init__(self) -> None:
        self.marks: list[float] = []  # when each sample ended
        self.samples: list[float] = []

    def work(self) -> float:
        """Seconds the fixed work takes now."""
        # The fastest of three drops a loop slowed by an interrupt or by a
        # core that is still waking up; a drift lasts far longer.
        times = []
        for _ in range(3):
            start = time.perf_counter()
            calibration_work()
            times.append(time.perf_counter() - start)
        return min(times)

    def sample(self, force: bool = False) -> None:
        if force or not self.marks or time.perf_counter() - self.marks[-1] >= self.every_s:
            self.samples.append(self.work())
            self.marks.append(time.perf_counter())

    def factors(self, spans: list[tuple[float, float]]) -> list[float]:
        """Scale for each ``(start, end)``: reference over the bracketing samples."""
        out = []
        for start, end in spans:
            before = bisect.bisect_right(self.marks, start) - 1
            after = min(bisect.bisect_left(self.marks, end), len(self.marks) - 1)
            out.append(2 * self.ref_s / (self.samples[before] + self.samples[after]))
        return out


class ChildSpeed(Speed):
    """The machine's speed for child processes, from a bare interpreter's start.

    It is sampled before every child, so each child is bracketed by the
    start-up times of the bare interpreters just before and just after it.
    """

    ref_s = INTERPRETER_REF_S
    every_s = 0.0

    def work(self) -> float:
        t0 = time.perf_counter()
        probe([sys.executable, "-c", "pass"])
        return time.perf_counter() - t0


class Tally:
    """Operation times, failures and wrong answers of one pass.

    ``spans`` holds the start and end of every attempted operation and
    ``completed`` whether it returned; ``block_starts`` the index of each
    block's first operation. Times are raw until scaled by ``factors``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self.completed: list[bool] = []
        self.block_starts: list[int] = []
        self.failures: Counter = Counter()
        self.failing: dict[tuple[str, str], list] = {}
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def times(self, factors: list[float] | None = None) -> list[float]:
        """Every attempted operation's time, scaled by ``factors`` if given."""
        raw = [end - start for start, end in self.spans]
        return raw if factors is None else [t * f for t, f in zip(raw, factors)]

    def latencies(self, factors: list[float] | None = None) -> list[float]:
        return [t for t, ok in zip(self.times(factors), self.completed) if ok]

    def rate(self, factors: list[float] | None = None) -> float:
        """Completed operations per second of operation time."""
        return sum(self.completed) / sum(self.times(factors))

    def blocks(self, factors: list[float] | None = None) -> list[list[float]]:
        """Sorted latencies of the completed operations of each block."""
        times = self.times(factors)
        bounds = self.block_starts + [len(times)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            done = sorted(t for t, ok in zip(times[lo:hi], self.completed[lo:hi]) if ok)
            if done:
                out.append(done)
        return out


def run_op(w: Workload, item, tally: Tally, tracer=None, speed: Speed | None = None) -> None:
    """Run, time and check one operation, recording its outcome."""
    description, payload = item
    if speed:
        speed.sample()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = w.op(payload)
        else:
            with tracer.span("bench.op") as span:
                result = w.op_traced(payload, tracer, span)
    except Exception as exc:  # every failure is counted, by code, and the run goes on
        tally.spans.append((t0, time.perf_counter()))
        tally.completed.append(False)
        code = getattr(exc, "code", type(exc).__name__)
        tally.failures[code] += 1
        key = (code, json.dumps(description, sort_keys=True))
        tally.failing.setdefault(key, [0, f"{type(exc).__name__}: {exc}"[:300]])[0] += 1
        return
    tally.spans.append((t0, time.perf_counter()))
    tally.completed.append(True)
    try:
        w.check(payload, result)
    except WrongAnswer as exc:
        tally.wrong.append(f"{json.dumps(description)}: {exc}")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - math.ceil(pct / 100 * n)


def measure(w: Workload, it, seconds: float, speed: Speed) -> Tally:
    """Blocks of operations from ``it`` until the next would pass ``seconds``."""
    tally = Tally()
    start = time.perf_counter()
    last_block = 0.0
    tail_samples = 0
    while True:
        elapsed = time.perf_counter() - start
        if last_block and elapsed + last_block > seconds and tail_samples >= 10:
            break
        first = len(tally.spans)
        tally.block_starts.append(first)
        for _ in range(w.block):
            run_op(w, next(it), tally, speed=speed)
        tail_samples += beyond(sum(tally.completed[first:]), w.tail_pct)
        last_block = time.perf_counter() - start - elapsed
    speed.sample(force=True)
    return tally


def probe(argv: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, env=child_env(str(SRC)), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr.strip()}")
    return done


def setup_seconds() -> float:
    """Median import time of realtoric over fresh interpreters, rescaled."""
    speed = ChildSpeed()
    times, spans = [], []
    for i in range(SETUP_REPEATS + 1):
        if i:  # the first one also writes the bytecode cache
            speed.sample()
        t0 = time.perf_counter()
        lines = probe([sys.executable, "-c", IMPORT_PROBE]).stdout.split("\n")
        if Path(lines[1]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"fresh interpreter imported realtoric from {lines[1]}")
        if i:
            spans.append((t0, time.perf_counter()))
            times.append(float(lines[0]))
    speed.sample()
    return statistics.median(t * f for t, f in zip(times, speed.factors(spans)))


def cli_probes(w: Workload) -> dict:
    """Interpreter start, numpy and realtoric import, and command run time."""
    interpreter = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        probe([sys.executable, "-c", "pass"])
        interpreter.append(time.perf_counter() - t0)
    timings = getattr(w, "child_timings", None)
    if not timings:
        fan = OUT / "cli-probe-fan.json"
        fan.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]]}) + "\n")
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        timings = [
            json.loads(probe([sys.executable, child, str(SRC), "classify", str(fan)]).stderr.splitlines()[-1])
            for _ in range(CLI_REPEATS)
        ]
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(t["import_s"] for t in timings),
        "cli.numpy_import_s": statistics.median(t["numpy_import_s"] for t in timings),
        "cli.run_s": statistics.median(t["run_s"] for t in timings),
    }


def end_to_end(w: Workload, seconds: float) -> tuple[Tally, dict, list[str]]:
    setup = setup_seconds()
    speed = ChildSpeed() if w.work_in_children else Speed()
    it = w.stream()
    for _, item in zip(range(w.warmup), it):
        run_op(w, item, Tally())
    tally = measure(w, it, seconds, speed)
    who = resource.RUSAGE_CHILDREN if w.work_in_children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    factors = speed.factors(tally.spans)
    lat = sorted(tally.latencies(factors))
    blocks = tally.blocks(factors)
    metrics = {
        "ops_per_s": (tally.rate(factors), "1/s"),
        "latency_ms_p50": (statistics.fmean(statistics.median(b) for b in blocks) * 1e3, "ms"),
        "latency_ms_tail": (statistics.fmean(percentile(b, w.tail_pct) for b in blocks) * 1e3, "ms"),
        "success_rate": (len(lat) / tally.attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"latency_ms_tail is p{w.tail_pct:g}; {len(lat)} completed operations in {len(blocks)} blocks, "
        f"{sum(beyond(len(b), w.tail_pct) for b in blocks)} beyond it",
        f"pooled over the run: p50 {statistics.median(lat) * 1e3:.6f} ms, "
        f"p{w.tail_pct:g} {percentile(lat, w.tail_pct) * 1e3:.6f} ms",
        f"error_rate {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted} attempted)",
    ]
    notes.append(
        f"unscaled ops_per_s {tally.rate():.6f}; scale factor median {statistics.median(factors):.4f}, "
        f"range {min(factors):.4f}..{max(factors):.4f}, from {len(speed.samples)} calibrations"
    )
    return tally, metrics, notes


def per_layer(w: Workload) -> tuple[Tally, dict, list[str]]:
    items = [item for _, item in zip(range(w.block * w.traced_blocks), w.stream())]
    plain, traced = Tally(), Tally()
    tracer, again = Tracer(), Tracer()
    # Block by block: plain, traced, traced again, so that a change in the
    # machine's speed during the run hits all three passes alike.
    for start in range(0, len(items), w.block):
        chunk = items[start:start + w.block]
        for item in chunk:
            run_op(w, item, plain)
        for t, tally in ((tracer, traced), (again, Tally())):
            t.install()
            try:
                for item in chunk:
                    run_op(w, item, tally, t)
            finally:
                t.uninstall()
    s, check = tracer.summary(), again.summary()
    for key in ("calls", "counts", "maxima"):
        if s[key] != check[key]:
            traced.wrong.append(f"{key} differ between two traced passes: {s[key]} vs {check[key]}")
    tracer.write(OUT / f"spans-{w.name}-{w.seed}.json")

    def secs(kind, name):
        return s[kind].get(name, 0) / 1e9

    count = s["counts"].get
    boxes = count("polytope.lattice_points.box_cells", 0)
    op_s = secs("total_ns", "bench.op")
    metrics = {
        "trace.overhead": (traced.rate() / plain.rate(), "ratio"),
        "intmat.smith_normal_form.self_s": (secs("self_ns", "intmat.smith_normal_form"), "s"),
        "intmat.smith_normal_form.calls": (s["calls"].get("intmat.smith_normal_form", 0), "count"),
        "intmat.smith_normal_form.op_share": (secs("self_ns", "intmat.smith_normal_form") / op_s, "ratio"),
        "intmat.snf_entries": (count("intmat.snf_entries", 0), "count"),
        "intmat.mat_mul.s": (secs("total_ns", "intmat.mat_mul"), "s"),
        "homology.homology.self_s": (secs("self_ns", "homology.homology"), "s"),
        "gluing.build_real_complex.s": (secs("total_ns", "gluing.build_real_complex"), "s"),
        "fan.normalize_fan.self_s": (secs("self_ns", "fan.normalize_fan"), "s"),
        "fan.normalize_fan.calls": (s["calls"].get("fan.normalize_fan", 0), "count"),
        "fan.random_fan.s": (secs("total_ns", "fan.random_fan"), "s"),
        "fan.minimal_model.s": (secs("total_ns", "fan.minimal_model"), "s"),
        "polytope.find_ample.s": (secs("total_ns", "polytope.find_ample"), "s"),
        "polytope.find_ample.max_coeff_bits": (s["maxima"].get("polytope.find_ample.max_coeff_bits", 0), "bits"),
        "polytope.lattice_points.s": (secs("total_ns", "polytope.lattice_points"), "s"),
        "polytope.lattice_points.count": (count("polytope.lattice_points.count", 0), "count"),
        "polytope.lattice_points.box_cells": (boxes, "count"),
        "polytope.lattice_points.hit_ratio": (count("polytope.lattice_points.count", 0) / boxes if boxes else 0.0, "ratio"),
        "moment.run_moment_checks.self_s": (secs("self_ns", "moment.run_moment_checks"), "s"),
        "moment.moment_map.calls": (s["calls"].get("moment.moment_map", 0), "count"),
        "moment.moment_map.s": (secs("total_ns", "moment.moment_map"), "s"),
        "moment.failures.Overflow": (count("moment.run_moment_checks.raised.Overflow", 0), "count"),
    }
    metrics.update({k: (v, "s") for k, v in cli_probes(w).items()})
    notes = [f"traced pass: {len(items)} operations, {op_s:.6f} s of operation time"]
    notes += [
        f"{name}: calls {s['calls'][name]} total_s {s['total_ns'][name] / 1e9:.6f} self_s {s['self_ns'][name] / 1e9:.6f}"
        for name in sorted(s["calls"])
    ]
    notes += [f"raised {k}: {v}" for k, v in sorted(s["counts"].items()) if ".raised." in k]
    return traced, metrics, notes


def provenance(w: Workload, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "realtoric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process",
        "params": w.params,
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "realtoric" / "__init__.py").is_file():
        print(f"error: no realtoric package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import realtoric

    OUT.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](realtoric, args.seed, OUT)
    if args.trace:
        tally, metrics, notes = per_layer(w)
        problems = tally.wrong
    else:
        tally, metrics, notes = end_to_end(w, args.seconds)
        problems = tally.wrong + w.oracle()

    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    for code, n in sorted(tally.failures.items()):
        print(f"  failures {code}: {n}")
    for (code, description), (n, message) in sorted(tally.failing.items()):
        print(f"  failing input {code} x{n}: {description} ({message})")
    for problem in problems:
        print(f"  WRONG {problem}")
    print("provenance " + json.dumps(provenance(w, args), sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
