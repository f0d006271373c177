"""pcsamp benchmark: one workload, one seed, one process, one client.

    python3 bench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; pcsamp is imported from ``src/`` of that
checkout and nowhere else.  The loop is closed: the next item starts when
the previous one has ended.  Every output is checked exactly against the
benchmark's own reference arithmetic.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it replays a fixed set of items
untraced and then traced, and reports per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object.  A result file is written under
``bench/results/``.  The exit code is 1 when an output was wrong and 2
when pcsamp cannot be found.

Times are reported at a reference machine speed.  Shared machines change
speed by up to 2x within a second, so every timed span (an item, or a step
of set-up) is scaled by calibration samples taken just before, inside and
just after it (:class:`SpeedClock`).  The raw times are kept in the result
file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 15
WARMUP_ITEMS = 3
WARMUP_SEED = 0      # warm-up items are the same for every seed, so their cost is too
MIN_ITEMS = 100      # so that at least ten latency samples lie beyond p90
REFERENCE_S = 4e-4   # calibration loop time that defines the reference speed
CALIBRATION_SAMPLES = 3  # calibration loops timed just before each span
SAMPLE_INTERVAL_S = 0.01  # one more calibration loop per interval inside a span

sys.path.insert(0, str(BENCH))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailure  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed loop of exact rational arithmetic."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i % 89 + 2)
    return time.perf_counter() - t0


def import_pcsamp():
    """Import pcsamp afresh from this checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "pcsamp" or k.startswith("pcsamp.")]:
        del sys.modules[key]
    pc = importlib.import_module("pcsamp")
    importlib.import_module("pcsamp.cli")
    if Path(pc.__file__).resolve().parent != SRC / "pcsamp":
        raise ImportError(f"pcsamp was imported from {pc.__file__}, not from {SRC}")
    return pc


class SpeedClock:
    """Times spans of program work and scales them to the reference speed.

    Each ``with clock:`` block is one span.  CALIBRATION_SAMPLES calibration
    loops run just before it, outside the span.  With ``sample_inside``, a
    SIGALRM handler also runs one every SAMPLE_INTERVAL_S inside the span,
    and its own time is taken out of the span's.  A span's factor to the
    reference speed is the mean of REFERENCE_S over each calibration time
    before, inside and just after it.  The inside samples are evenly spaced
    in time, so on a long span this mean follows the speed over the whole
    span rather than only at its ends.  The traced run turns
    inside sampling off, so that the handler's time stays out of the spans
    it records.
    """

    def __init__(self, sample_inside: bool = True) -> None:
        self.sample_inside = sample_inside
        self.spans: list[float] = []          # raw seconds of each span
        self.gaps: list[list[float]] = []     # calibration times just before each span
        self.inside: list[list[float]] = []   # calibration times inside each span
        self._handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.inside[-1].append(calibrate())
        self._handler_s += time.perf_counter() - t0

    def __enter__(self) -> None:
        self.gaps.append([calibrate() for _ in range(CALIBRATION_SAMPLES)])
        self.inside.append([])
        self._handler_s = 0.0
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.spans.append(time.perf_counter() - self.t0 - self._handler_s)

    def factors(self) -> list[float]:
        """Each span's factor to the reference speed."""
        return [
            statistics.mean(REFERENCE_S / c for c in self.gaps[k] + self.inside[k] + after)
            for k, after in enumerate(self.gaps[1:] + [[]])
        ]

    def scaled(self) -> list[float]:
        """Each span's time at the reference speed."""
        return [t * f for t, f in zip(self.spans, self.factors())]


def setup(workload, seed: int, workdir: Path):
    """Import, input generation, scenario-file writing and warm-up.

    Repeated SETUP_REPEATS times; returns the last repetition's package and
    items with every repetition's raw and scaled duration.  The warm-up
    items come from WARMUP_SEED, so warm-up cost does not vary with
    ``seed``.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        clock = SpeedClock()
        with clock:
            pc = import_pcsamp()
        with clock:
            items = workload.make_items(seed, workdir, workload.size)
        with clock:
            warmup = workload.make_items(WARMUP_SEED, workdir / "warmup", WARMUP_ITEMS)
        for item in warmup:
            try:
                with clock:
                    workload.run(pc, item)
            except Exception:  # noqa: BLE001 - a warm-up item's failure is not counted
                pass
        raw.append(sum(clock.spans))
        scaled.append(sum(clock.scaled()))
    return pc, items, raw, scaled


class Tally:
    """Outcomes, latencies and calibration samples of one pass's items."""

    def __init__(self, sample_inside: bool = True) -> None:
        self.clock = SpeedClock(sample_inside)   # one span per item
        self.ok: list[bool] = []
        self.wrong = 0
        self.errors: Counter = Counter()
        self.examples: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.ok)

    def step(self, workload, pc, item) -> None:
        try:
            with self.clock:
                out = workload.run(pc, item)
        except Exception as exc:  # noqa: BLE001 - any exception is a failed item
            self._fail(type(exc).__name__, str(exc))
            return
        try:
            workload.check(item, out)
        except CheckFailure as exc:
            self.wrong += 1
            self._fail("CheckFailure", str(exc))
            return
        self.ok.append(True)

    def _fail(self, kind: str, message: str) -> None:
        self.ok.append(False)
        self.errors[kind] += 1
        self.examples.setdefault(kind, message)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "errors": dict(self.errors),
            "first_message": self.examples,
            "failed_ratio": self.failed / self.attempted,
            "raw_busy_s": sum(self.clock.spans),
            "calibration_median_s": statistics.median(
                c for samples in self.clock.gaps + self.clock.inside for c in samples
            ),
        }


def latency_metrics(tally: Tally) -> tuple[dict, dict]:
    scaled = tally.clock.scaled()
    done = sorted(t for t, ok in zip(scaled, tally.ok) if ok)
    deciles = statistics.quantiles(done, n=10)
    metrics = {
        "items_per_s": (len(done) / sum(scaled), "1/s"),
        "item_p50_ms": (deciles[4] * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
    }
    raw = sorted(t for t, ok in zip(tally.clock.spans, tally.ok) if ok)
    raw_deciles = statistics.quantiles(raw, n=10)
    info = {
        "latency_samples": len(done),
        "samples_beyond_p90": sum(1 for t in done if t > deciles[8]),
        "raw": {
            "items_per_s": len(raw) / sum(tally.clock.spans),
            "item_p50_ms": raw_deciles[4] * 1e3,
            "item_p90_ms": raw_deciles[8] * 1e3,
        },
    }
    return metrics, info


def timed_run(workload, pc, items, seconds: float) -> tuple[Tally, dict, dict]:
    """Closed loop over the items, ending at a period boundary once
    ``seconds`` have passed (or, for a workload with a ``pace``, once
    pace * seconds items have been attempted) and at least MIN_ITEMS items
    have passed, since only passed items give latency samples."""
    tally = Tally()
    t0 = time.perf_counter()
    k = 0
    while True:
        tally.step(workload, pc, items[k % len(items)])
        k += 1
        if workload.pace is None:
            enough = time.perf_counter() - t0 >= seconds
        else:
            enough = k >= workload.pace * seconds
        if k % workload.period == 0 and sum(tally.ok) >= MIN_ITEMS and enough:
            break
    metrics, info = latency_metrics(tally)
    info["wall_s"] = time.perf_counter() - t0
    return tally, metrics, info


def traced_run(workload, pc, items) -> tuple[Tally, dict, dict, Tracer]:
    """Replay the leading trace_items items untraced, then traced."""
    chosen = items[: workload.trace_items]
    plain = Tally(sample_inside=False)
    for item in chosen:
        plain.step(workload, pc, item)
    tally = Tally(sample_inside=False)
    with Tracer() as tracer:
        for k, item in enumerate(chosen):
            tracer.item = k
            tally.step(workload, pc, item)
    metrics = tracer.metrics(tally.clock.factors())
    metrics["trace.overhead_ratio"] = (sum(tally.clock.scaled()) / sum(plain.clock.scaled()) - 1.0, "ratio")
    info = {"untraced_s": sum(plain.clock.spans), "traced_s": sum(tally.clock.spans), "spans": len(tracer.start)}
    tally.wrong += plain.wrong
    return tally, metrics, info, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcsamp" / "__init__.py").is_file():
        print(f"bench: no pcsamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pc, items, setup_raw, setup_scaled = setup(workload, args.seed, workdir)
        if args.trace:
            tally, metrics, info, tracer = traced_run(workload, pc, items)
        else:
            tally, metrics, info = timed_run(workload, pc, items, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_scaled), "s")
            metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "reference_calibration_s": REFERENCE_S,
        "items": tally.summary(),
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_scaled,
        **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write_spans(RESULTS / f"{stem}.spans.csv.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':48s} {tally.failed / tally.attempted:>14.6g} ratio")
    print(
        f"items: {tally.attempted} attempted, {tally.failed} failed ({tally.wrong} wrong answers), "
        f"errors {dict(tally.errors)}; python {record['python']}, nproc {record['nproc']}"
    )
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
