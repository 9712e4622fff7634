#!/usr/bin/env python3
"""The ipscope benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pipeline|serve-steady|ingest-reload \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which builds the repository's libraries
from source) into .bench_build/; later runs rebuild only what changed.
The harness binary runs the workload in its own process, checks every
output against the oracles, and prints its raw numbers; this script turns
them into the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are END_TO_END; with --trace 1 they are
PER_LAYER, partly computed here from the run's Chrome trace (self times,
see selftime.py). See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ipscope_perfbench")
WORKLOADS = ("pipeline", "serve-steady", "ingest-reload")
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import selftime  # noqa: E402

END_TO_END = ("setup_s", "op_p50_ms", "op_tail_ms", "cpu_ms_per_op",
              "peak_rss_mb")

# Per-layer metrics the harness reports from registry deltas around calls.
FROM_REGISTRY = (
    "cdn.store_build.par_util", "cdn.rows_emitted",
    "io.save.par_util", "io.load.par_util", "io.store_bytes",
    "io.bytes_per_block",
    "activity.churn.par_util", "activity.change.par_util",
    "analysis.patterns.par_util",
    "par.queue_wait_s", "par.imbalance_ratio", "par.steals",
    "ingest.shard_bytes", "ingest.shards_loaded",
    "serve.cache.hit_ratio", "serve.cache.evictions",
    "serve.reader_p50_us", "serve.reader_p99_us",
    "trace.overhead.op_p50_ms", "trace.overhead.ops_per_s",
)

# Per-layer metrics read from spans: (metric, span, scale from us, unit).
# Each is the median duration of every span of that name in the run.
FROM_SPANS = (
    ("sim.world_s", "sim.world", 1e-6, "s"),
    ("cdn.store_build_s", "cdn.store_build", 1e-6, "s"),
    ("io.save_s", "io.save", 1e-6, "s"),
    ("io.load_s", "io.load", 1e-6, "s"),
    ("activity.churn_s", "activity.churn", 1e-6, "s"),
    ("activity.change_s", "activity.change", 1e-6, "s"),
    ("analysis.patterns_s", "analysis.patterns", 1e-6, "s"),
    ("ingest.append_ms", "ingest.append", 1e-3, "ms"),
    ("ingest.load_ms", "ingest.load", 1e-3, "ms"),
    ("serve.snapshot.install_ms", "serve.reload", 1e-3, "ms"),
    ("serve.first_answer_ms.summary", "serve.first_answer.summary", 1e-3,
     "ms"),
    ("serve.first_answer_ms.churn", "serve.first_answer.churn", 1e-3, "ms"),
    ("serve.first_answer_ms.patterns", "serve.first_answer.patterns", 1e-3,
     "ms"),
    ("serve.direct_answer_us.point", "serve.direct_answer.point", 1, "us"),
    ("serve.direct_answer_us.prefix", "serve.direct_answer.prefix", 1, "us"),
    ("serve.direct_answer_us.as", "serve.direct_answer.as", 1, "us"),
    ("serve.direct_answer_ms.summary", "serve.direct_answer.summary", 1e-3,
     "ms"),
    ("serve.direct_answer_ms.churn", "serve.direct_answer.churn", 1e-3,
     "ms"),
    ("serve.direct_answer_ms.patterns", "serve.direct_answer.patterns", 1e-3,
     "ms"),
)

# Derived from span means and self times (computed in span_metrics).
DERIVED = (
    "io.save_mb_per_s", "io.load_mb_per_s",
    "serve.handle_frame_us", "serve.frame.codec_us", "serve.cache.cost_us",
    "serve.tcp.self_us", "pipeline.pass.self_ms", "ingest.refresh.self_ms",
)

PER_LAYER = (tuple(m for m, _, _, _ in FROM_SPANS) + DERIVED +
             FROM_REGISTRY)


def fail(message):
    """Aborts without a result line."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ipscope source tree next to perfbench/ (run from a full "
             "checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ipscope_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def span_metrics(trace_path, layer):
    """Per-layer metrics computed from the Chrome trace of a traced run."""
    stats = selftime.SpanStats(selftime.load_events(trace_path))
    out = {}
    for metric, span, scale, unit in FROM_SPANS:
        if stats.has(span):
            out[metric] = (stats.median(span) * scale, unit)
    store_mb = layer.get("io.store_bytes", {}).get("value", 0) / 1e6
    for metric, span in (("io.save_mb_per_s", "io.save"),
                         ("io.load_mb_per_s", "io.load")):
        if stats.has(span) and store_mb > 0:
            out[metric] = (store_mb / (stats.median(span) * 1e-6), "MB/s")
    if stats.has("serve.handle_frame"):
        frame = stats.mean("serve.handle_frame")
        request = stats.mean("serve.handle_request")
        direct = stats.mean_of(["serve.direct_answer.point",
                                "serve.direct_answer.prefix",
                                "serve.direct_answer.as"])
        out["serve.handle_frame_us"] = (frame, "us")
        out["serve.frame.codec_us"] = (frame - request, "us")
        out["serve.cache.cost_us"] = (request - direct, "us")
        if stats.has("serve.rtt"):
            out["serve.tcp.self_us"] = (stats.mean("serve.rtt") - frame, "us")
    for metric, span in (("pipeline.pass.self_ms", "pipeline.pass"),
                         ("ingest.refresh.self_ms", "ingest.refresh")):
        if stats.has(span):
            out[metric] = (stats.self_median(span) * 1e-3, "ms")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    work = os.path.join(BUILD, "work-%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail("harness exited with %d" % done.returncode)
        for line in lines[:-1]:
            print(line)
        raw = json.loads(lines[-1])
        metrics = {}
        if args.trace:
            layer = raw["layer"]
            for name, m in layer.items():
                metrics[name] = (m["value"], m["unit"])
            metrics.update(span_metrics(raw["trace"], layer))
            wanted = PER_LAYER
        else:
            for name, m in raw["e2e"].items():
                metrics[name] = (m["value"], m["unit"])
            wanted = END_TO_END
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m for m in wanted if m not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]}
                    for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
