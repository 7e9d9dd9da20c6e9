"""Benchmark for nil: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {xval,oracle,classify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; nil is imported from its `src/`.  One
client sends one request at a time and the next only after the previous
one completed (a closed loop), on one thread, until the requests have kept
the program busy for S seconds.  Outputs are checked between requests,
outside the timed windows.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the functions in tracer.TRACED are wrapped and the
per-layer metrics are reported instead.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import stats
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 12  # before the timed loop, and as many again after it
REFERENCE_PASSES = 10  # calibration passes after each set-up probe
DIGEST_INPUTS = 100  # the stdout digest covers the first this many inputs
PROBE_TIMEOUT_S = 60


def import_nil():
    """Import nil from the checkout's src/, never from anywhere else."""
    if not (SRC / "nil" / "__init__.py").is_file():
        raise SystemExit(f"error: no nil package under {SRC}; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import nil.cli

    if Path(nil.__file__).resolve().parent != (SRC / "nil").resolve():
        raise SystemExit(f"error: imported nil from {nil.__file__}, not {SRC}")
    return nil


def setup_samples(name, workdir, calibrator):
    """Seconds taken by fresh processes to `import nil` and serve one
    warm-up request, one sample per process.

    The host's speed shifts within seconds, so run.py probes both before
    and after the timed loop rather than in one burst, and after each
    probe times REFERENCE_PASSES passes of the calibration reference, from
    which setup_s is calibrated as the other times are.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), name, str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
        for _ in range(REFERENCE_PASSES):
            calibrator.sample()
    return samples


def serve(nil, workload, index):
    """Run input `index` once; returns (exit code or None, output)."""
    try:
        return workload.request(nil, index)
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a failed item, counted by record()
        return None, repr(exc)


def record(nil, workload, loop, index, code, output):
    """Check one output, outside the timed window, and count it."""
    loop["attempted"] += workload.items_per_request
    if code is None:
        text, found = f"raised {output}", [f"raised {output}"]
    else:
        text = workload.digest_text(output)
        sha = hashlib.sha256(text.encode()).hexdigest()
        if index in loop["checked"]:
            first_sha, found = loop["checked"][index]
            if sha != first_sha:
                found = found + ["output differs from an earlier run of this input"]
        else:
            try:
                found = workload.problems(nil, index, code, output)
            except Exception as exc:  # e.g. stdout that is not JSON
                found = [f"checking the output raised {exc!r}"]
            loop["checked"][index] = sha, found
    if index < DIGEST_INPUTS:
        loop["texts"].setdefault(index, text)
    if found:
        loop["failed"] += workload.items_per_request
        loop["problems"].append(f"input {index}: {'; '.join(found)}")


def closed_loop(nil, workload, seconds, tracer, calibrator):
    """Send requests until they have kept the program busy for `seconds`.

    Latencies are raw seconds, less the time the calibrator's timer
    interrupts took inside each request.  `timed_items` counts the items
    completed correctly inside the loop.
    """
    loop = {"latencies": [], "attempted": 0, "failed": 0, "problems": [],
            "checked": {}, "texts": {}, "stdout_bytes": 0}
    latencies = loop["latencies"]
    i = 0
    while sum(latencies) < seconds:
        index = i % workload.pool
        workload.prepare_check(nil, index)
        if tracer is not None:
            tracer.resume()
        interrupted = calibrator.spent_s
        start = time.perf_counter()
        code, output = serve(nil, workload, index)
        latencies.append(time.perf_counter() - start - (calibrator.spent_s - interrupted))
        if tracer is not None:
            tracer.pause()
        if isinstance(output, str):
            loop["stdout_bytes"] += len(output.encode())
        record(nil, workload, loop, index, code, output)
        i += 1
    loop["busy_s"] = sum(latencies)
    loop["timed_items"] = loop["attempted"] - loop["failed"]
    return loop


def stdout_digest(nil, workload, loop):
    """sha256 of the outputs of the first DIGEST_INPUTS inputs, in input
    order, so that it does not depend on how far a run got.  Inputs among
    them that the timed loop did not reach are run now, untimed, and
    checked and counted like the others."""
    digest = hashlib.sha256()
    for index in range(min(DIGEST_INPUTS, workload.pool)):
        if index not in loop["texts"]:
            workload.prepare_check(nil, index)
            record(nil, workload, loop, index, *serve(nil, workload, index))
        digest.update(loop["texts"][index].encode())
    return digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, setup_s):
    scale = loop["scale"]
    return {
        "items_per_s": metric(loop["timed_items"] / (loop["busy_s"] * scale), "1/s"),
        "request_p50_ms": metric(1000 * statistics.median(loop["latencies"]) * scale, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(workload, loop, tracer):
    """Per-function calls, self time and errors, plus the layer counters.

    A function the workload is expected to call that made no call is
    returned in `missing` and left out of the metrics, so that a renamed
    function cannot pass for an idle layer; `result` then reports the run
    as not correct.
    """
    summary = tracer.summary()
    metrics, missing = {}, []
    for module_name, attr in tracing.TRACED:
        name = f"{module_name}.{attr}"
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        if entry["calls"] == 0 and name in workload.expected:
            missing.append(name)
            continue
        metrics[f"{name}.calls"] = metric(entry["calls"], "count")
        metrics[f"{name}.self_s"] = metric(entry["self_s"] * loop["scale"], "s")
        metrics[f"{name}.errors"] = metric(entry["errors"], "count")
    counts = tracer.counts
    for key in ("ideal.power.gens", "wgraph.chordless_cycles.cycles", "classifier.configs"):
        metrics[key] = metric(counts.get(key, 0), "count")
    solves = counts.get("closure.lp_scan_solves", 0)
    hits = counts.get("closure.lp_scan_hits", 0)
    metrics["closure.lp_hit_ratio"] = metric(hits / solves if solves else 0.0, "ratio")
    metrics["cli.stdout_bytes"] = metric(loop["stdout_bytes"], "bytes")
    overhead = len(tracer) * tracing.span_cost_s() / loop["busy_s"]
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    return metrics, missing


def report_lines(workload, loop, metrics, missing):
    latencies = loop["latencies"]
    p90 = stats.percentile(latencies, 90)
    scale = loop["scale"]
    lines = [
        f"workload {workload.name}: {len(latencies)} requests, "
        f"{len(loop['checked'])} distinct inputs, {loop['busy_s']:.2f} s busy (raw)",
        f"  calibration: {len(loop['reference_s'])} reference samples, mean "
        f"{1000 * statistics.mean(loop['reference_s']):.4f} ms; calibrated = raw * {scale:.4f}",
        f"  raw items_per_s = {loop['timed_items'] / loop['busy_s']:.4f} 1/s, "
        f"raw request_p50_ms = {1000 * statistics.median(latencies):.4f} ms",
        f"  request_p90_ms = "
        + (f"{1000 * p90 * scale:.3f} ms" if p90 is not None
           else "n/a (fewer than 10 samples beyond)"),
        f"  failed_frac = {loop['failed'] / loop['attempted']:.6f} ratio "
        f"({loop['failed']} of {loop['attempted']} {workload.item_unit})",
        f"  stdout_sha256 = {loop['stdout_sha256']} over the first "
        f"{len(loop['texts'])} inputs",
    ]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  MISSING {name}: expected on {workload.name}, made no call" for name in missing]
    lines += [f"  FAILED {p}" for p in loop["problems"][:20]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nil = import_nil()
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_calibrator = calibrate.Calibrator()
    try:
        setup = [] if args.trace else setup_samples(args.workload, workdir, setup_calibrator)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup(nil, workdir)
        calibrator = calibrate.Calibrator()
        tracer = None
        if args.trace:
            # Spans leave out the calibration interrupts, as latencies do.
            tracer = tracing.Tracer(clock=lambda: time.perf_counter() - calibrator.spent_s)
            tracer.install()
            tracer.pause()
        with calibrator:
            loop = closed_loop(nil, workload, args.seconds, tracer, calibrator)
        loop["scale"] = calibrator.scale()
        loop["reference_s"] = calibrator.samples
        loop["stdout_sha256"] = stdout_digest(nil, workload, loop)
        if tracer is not None:
            metrics, missing = per_layer(workload, loop, tracer)
            tracer.write(WORK / f"trace-{args.workload}.jsonl")
        else:
            setup += setup_samples(args.workload, workdir, setup_calibrator)
            setup_s = statistics.median(setup) * setup_calibrator.scale()
            metrics, missing = end_to_end(loop, setup_s), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report_lines(workload, loop, metrics, missing):
        print(line)
    print(json.dumps(result(loop, metrics, missing)))
    return 0


def result(loop, metrics, missing):
    """The result line.  An expected layer that made no call makes the run
    incorrect, so that a renamed function cannot pass unnoticed."""
    return {
        "correct": loop["failed"] == 0 and not missing,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }

if __name__ == "__main__":
    sys.exit(main())
