"""Benchmark of the exact hkconvex pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Runs one workload (`certify`, `monad` or `transport`) as a closed loop:
one client, one process, no threads, each instance sent only after the
previous one completed, and each instance processed once. Inputs come
from `--seed` through the benchmark's own generator (`gen.py`). The loop
runs for `--seconds` and for at least 100 instances, and ends only after
a whole cycle of the generator's instance shapes, so that every run sees
the same mix of sizes. Every output is
checked outside the timed region; for the default seed the outputs must
also match the digests in `golden.json`.

The machine this benchmark was built on is shared: its speed drifts by
up to a factor of two over tens of seconds, whatever the program does.
So every reported time is scaled to machine speed: a fixed exact-arithmetic
reference kernel is timed just before and just after each instance (and
around set-up), and a wall time t becomes t * REF_SECONDS / (kernel time).
REF_SECONDS is the kernel's duration on the idle machine, so the scaled
figures read as wall times on an idle machine. A change to the library
moves them; a busy neighbour does not. The raw wall-time figures are
printed too, on the line before the result.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics. With `--trace 1` every instance runs twice, once
plain and once under the tracer (alternating which goes first); the two
outputs must be byte-equal, and the last line holds the per-layer
metrics of `tracing.py`. The line before it describes the inputs and the
run. The benchmark imports the library from `src/` of the checkout it
lives in and exits with status 2 when that is missing.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
MIN_INSTANCES = 100
# Counts are averaged over this many leading instances, so that two traced
# runs with the same seed report identical counts.
COUNT_INSTANCES = 100
SETUP_REPEATS = 3
SETUP_SAMPLE = 10
# The loop stops here even short of MIN_INSTANCES, so the run ends in time.
LOOP_DEADLINE_S = 150.0
# reference_kernel() duration on the idle machine (2 vCPU VM at 2.0 GHz,
# Python 3.11.7); its minimum over 3000 calls there was 0.46 ms.
REF_SECONDS = 0.0005


def reference_kernel() -> Fraction:
    """Fixed exact-arithmetic work whose duration tracks machine speed."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i % 97 + 1)
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED or not GOLDEN.is_file():
        return []
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(workload, [])


def import_library():
    """Import hkconvex from this checkout's src/, never from elsewhere."""
    if not (SRC / "hkconvex" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library at {SRC / 'hkconvex'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import hkconvex

    if Path(hkconvex.__file__).resolve().parent != (SRC / "hkconvex").resolve():
        raise SystemExit(f"bench: imported hkconvex from {hkconvex.__file__}, not {SRC}")


def setup(cls, seed: int, workdir: str, copies: int):
    """Build the workload, warm it up, prepare the first instances.

    Repeated SETUP_REPEATS times on fresh objects; the last repetition's
    objects are kept. Returns them with the median duration and the
    median reference kernel time around the repetitions.
    """
    durations = []
    kernel = [kernel_seconds()]
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed, workdir)
        warm = wl.prepare(wl.data(-1), f"warm{rep}")
        wl.run(warm)
        wl.cleanup(warm)
        ready = {
            i: [wl.prepare(wl.data(i), f"i{i}c{c}") for c in range(copies)]
            for i in range(SETUP_SAMPLE)
        }
        durations.append(time.perf_counter() - t0)
        kernel.append(kernel_seconds())
        if rep < SETUP_REPEATS - 1:
            for insts in ready.values():
                for inst in insts:
                    wl.cleanup(inst)
    return wl, ready, statistics.median(durations), statistics.median(kernel)


def timed(wl, inst, tracer=None, index=-1):
    """(output or None, seconds, error text or None) of one instance."""
    if tracer is not None:
        tracer.install(index)
    t0 = time.perf_counter()
    try:
        out = wl.run(inst)
        error = None
    except Exception:
        out = None
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return out, seconds, error


def run_loop(wl, ready: dict, seconds: float, golden: list, tracer=None) -> dict:
    """The closed loop; returns latencies, failures and input statistics.

    `scale` holds, per instance, REF_SECONDS over the mean reference
    kernel time just before and just after it.
    """
    copies = 2 if tracer is not None else 1
    plain, traced, scale, stats, failures = [], [], [], [], []
    loop_t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - loop_t0
        if elapsed >= seconds and i >= MIN_INSTANCES and i % wl.cycle == 0:
            break
        if time.perf_counter() - _PROCESS_T0 >= LOOP_DEADLINE_S:
            break
        insts = ready.pop(i, None) or [
            wl.prepare(wl.data(i), f"i{i}c{c}") for c in range(copies)
        ]
        problems = []
        kernel_before = kernel_seconds()
        if tracer is None:
            out, t, error = timed(wl, insts[0])
            plain.append(t)
        else:
            results = {}
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                inst = insts[1] if is_traced else insts[0]
                results[is_traced] = timed(wl, inst, tracer if is_traced else None, i)
            out, t, error = results[False]
            plain.append(t)
            traced.append(results[True][1])
            error = error or results[True][2]
            if error is None and wl.canonical(out) != wl.canonical(results[True][0]):
                problems.append("traced output differs from untraced output")
        scale.append(2 * REF_SECONDS / (kernel_before + kernel_seconds()))
        if error is not None:
            problems.append(error)
            stats.append({})
        else:
            try:
                found, st = wl.verify(insts[0], out)
                problems += found
                stats.append(st)
                if i < len(golden) and digest(wl.canonical(out)) != golden[i]:
                    problems.append("output digest differs from golden.json")
            except Exception:
                problems.append(traceback.format_exc(limit=3))
                stats.append({})
        if problems:
            failures.append((i, problems))
        for inst in insts:
            wl.cleanup(inst)
        i += 1
    return {
        "plain": plain,
        "traced": traced,
        "scale": scale,
        "stats": stats,
        "failures": failures,
        "golden_checked": min(i, len(golden)),
    }


def input_summary(stats: list) -> dict:
    keys = sorted({k for st in stats for k in st})
    out = {}
    for k in keys:
        values = [st[k] for st in stats if k in st]
        out[k] = {
            "mean": round(statistics.fmean(values), 4),
            "min": min(values),
            "max": max(values),
        }
    return out


def timings(latencies: list, setup_s: float) -> dict:
    lat_ms = [t * 1000 for t in latencies]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_per_s": {"value": len(latencies) / sum(latencies), "unit": "instances/s"},
        "latency_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_ms_p90": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "monad", "transport"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracing
    import workloads

    import_s = time.perf_counter() - _PROCESS_T0
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl, ready, prepare_s, setup_kernel = setup(
            workloads.WORKLOADS[args.workload],
            args.seed,
            str(workdir),
            copies=2 if tracer else 1,
        )
        golden = load_golden(args.workload, args.seed)
        res = run_loop(wl, ready, args.seconds, golden, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(res["plain"])
    failed = len(res["failures"])
    for index, problems in res["failures"][:3]:
        print(f"instance {index} failed: {problems}", file=sys.stderr)
    setup_s = import_s + prepare_s
    raw = timings(res["plain"], setup_s)
    if tracer is not None:
        overhead = sum(res["traced"]) / sum(res["plain"]) - 1
        metrics = tracing.layer_metrics(
            tracer.spans,
            res["scale"],
            min(COUNT_INSTANCES, attempted),
            res["stats"],
            overhead,
        )
        WORK.mkdir(exist_ok=True)
        tracer.write(str(WORK / f"spans-{args.workload}.tsv"))
    else:
        metrics = timings(
            [t * f for t, f in zip(res["plain"], res["scale"])],
            setup_s * REF_SECONDS / setup_kernel,
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": attempted,
        "failed_frac": failed / attempted,
        "golden_checked": res["golden_checked"],
        "import_s": import_s,
        "prepare_s": prepare_s,
        "wall": {k: v["value"] for k, v in raw.items()},
        "kernel_ms_median": statistics.median(
            REF_SECONDS * 1000 / f for f in res["scale"]
        ),
        "inputs": input_summary(res["stats"]),
    }
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
