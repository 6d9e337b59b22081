"""Seeded benchmark of torsionforms: detect on random curves, detect on
planted curves and their twists, and the CLI scan.

    python3 bench/run.py --workload detect_planted --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7
# speed_kernel() takes SPEED_REF_S at the reference speed; the op time that
# may pass between two samples of the machine's speed
SPEED_REF_S = 0.001
SPEED_GAP_S = 0.02

sys.path.insert(0, str(HERE))

from workloads import FAILED, WORKLOADS  # noqa: E402


def import_program():
    """The torsionforms of this checkout, never an installed copy."""
    if not (SRC / "torsionforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no torsionforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torsionforms
    import torsionforms.cli  # noqa: F401  (not imported by the package itself)

    if Path(torsionforms.__file__).resolve().parent != SRC / "torsionforms":
        raise SystemExit(f"error: imported torsionforms from {torsionforms.__file__}")
    return torsionforms


def speed_kernel() -> int:
    """A fixed piece of pure-Python integer and dict work, about a
    millisecond long, whose time tracks the speed the shared machine gives
    this process at that moment."""
    x, s, d = 1234567891011, 0, {}
    for i in range(2500):
        x = (x * x + i) % 1000000007000000063
        d[i & 63] = x
        s += x & 0xFF
    return s


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on one CPU, so
    that the speed samples are taken where the ops run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def speed_sample() -> float:
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


def probe(workload: str) -> int:
    """Body of one set-up sample: import, one warm-up op, then report ready."""
    work = HERE / f".work-probe-{workload}"
    work.mkdir(exist_ok=True)
    try:
        tf = import_program()
        with contextlib.redirect_stderr(io.StringIO()):
            WORKLOADS[workload](tf, 0, work).warmup()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ready", flush=True)
    return 0


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to the end of its
    warm-up op, over SETUP_PROBES interpreters: each scaled to reference
    speed by the speed samples taken just before and after it, and as read
    off the clock."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed_sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            took = time.perf_counter() - t0
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe for {workload} failed")
        samples.append((took * 2 * SPEED_REF_S / (before + speed_sample()), took))
    return statistics.median(t for t, _ in samples), statistics.median(t for _, t in samples)


def run_rounds(wl, rounds, seconds):
    """Run whole rounds until ``seconds`` of op time have passed (or exactly
    ``rounds`` rounds when given).  Returns the ops, their results, their
    latencies, and their latencies scaled to reference speed.

    The machine's speed is sampled with speed_kernel() before a round's first
    op, after its last op, and after any op that ends SPEED_GAP_S or more of
    op time since the last sample.  The ops between two samples are scaled by
    SPEED_REF_S over the mean of the two.  Runs of short ops go unbroken, so
    the kernel does not evict what a cache hit depends on."""
    ops, results, latencies, scaled = [], [], [], []
    perf = time.perf_counter
    done, timed = 0, 0.0
    while (timed < seconds) if rounds is None else (done < rounds):
        batch = wl.round(done)
        last, since, start = speed_sample(), 0.0, len(latencies)
        for k, (fn, args, _) in enumerate(batch):
            t0 = perf()
            try:
                res = fn(*args)
            except Exception as exc:  # judged by the workload's check
                res = exc
            lat = perf() - t0
            latencies.append(lat)
            results.append(res)
            timed += lat
            since += lat
            if since >= SPEED_GAP_S or k == len(batch) - 1:
                now = speed_sample()
                factor = 2 * SPEED_REF_S / (last + now)
                scaled += [t * factor for t in latencies[start:]]
                last, since, start = now, 0.0, len(latencies)
        ops += batch
        done += 1
    return ops, results, latencies, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        return probe(args.workload)

    pin_to_one_cpu()
    tf = import_program()
    setup = None if args.trace else setup_seconds(args.workload)
    work = HERE / f".work-{args.workload}-{args.seed}"
    work.mkdir(exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](tf, args.seed, work)
        with contextlib.redirect_stderr(io.StringIO()):
            wl.warmup()
            speed_sample()
            tracer = None
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install(tf)
            try:
                ops, results, latencies, scaled = run_rounds(
                    wl, wl.trace_rounds if args.trace else wl.rounds, args.seconds)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        failed, errors, ok = 0, [], []
        for i, (op, res) in enumerate(zip(ops, results)):
            try:
                verdict = wl.check(op, res)
            except Exception as exc:  # malformed output
                verdict = f"checking op {i} raised {exc!r}"
            if verdict == FAILED or isinstance(res, Exception):
                failed += 1
            else:
                ok.append(i)
            if verdict not in (None, FAILED):
                errors.append(verdict)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in errors[:10]:
        print(f"incorrect: {err}", file=sys.stderr)

    if tracer is not None:
        metrics = tracer.metrics(sum(latencies), len(ok))
        extra = {"throughput_ops_s_at_reference_speed": len(ok) / sum(scaled)}
    else:
        metrics = end_to_end(wl, ok, scaled, setup[0])
        extra = {"wall_clock_metrics": end_to_end(wl, ok, latencies, setup[1])}
    result = {"correct": not errors, "attempted": len(ops), "failed": failed, "metrics": metrics}
    save(args, dict(result, **extra))
    print(json.dumps(result))
    return 0


def end_to_end(wl, ok, latencies, setup_s) -> dict:
    """The end-to-end metrics from the latencies of all ops; ``ok`` indexes
    the completed ones.  Failed ops count in the time, not in the latencies."""
    done = [latencies[i] for i in ok]
    tail = statistics.quantiles(done, n=100, method="inclusive")[wl.tail - 1]
    return {
        "throughput_ops_s": {"value": len(done) / sum(latencies), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(done) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def save(args, result) -> None:
    """Keep the run's result; a traced run also gets its overhead against
    the untraced run of the same workload and seed, when there is one."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    if not args.trace:
        (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
        return
    untraced = RESULTS / f"{stem}.json"
    if untraced.is_file():
        plain = json.loads(untraced.read_text())["metrics"]["throughput_ops_s"]["value"]
        traced = result["throughput_ops_s_at_reference_speed"]
        result = dict(result, overhead={
            "untraced_throughput_ops_s": plain,
            "traced_throughput_ops_s": traced,
            "slowdown": plain / traced - 1,
        })
    (RESULTS / f"{stem}-trace.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    sys.exit(main())
