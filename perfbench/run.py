#!/usr/bin/env python3
"""PM-LSH benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload deep-batch --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the harness and the
engine sources with sbt (offline) into .bench_build/; later runs reuse the
build while the sources are unchanged. Each run starts one JVM that
generates the workload, builds and warms the engines, drives the timed
closed loop and checks every answer (perfbench/src). This script turns the
harness's raw file into metrics, prints them by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones and the spans go to
.bench_build/trace-<workload>-<seed>.json. Exit status is 0 only when
every correctness gate passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as M  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
CLASSES = OUT / "sbt-target" / "scala-2.13" / "classes"
MAIN = "repro.perfbench.Main"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "4g"

# Spark on Java 17 needs these modules opened (spark-submit adds them).
JAVA_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]

ENGINE_METRIC = {"R-LSH": "rlsh_request_ms_p50", "SRS": "srs_request_ms_p50",
                 "QALSH": "qalsh_request_ms_p50", "Multi-Probe": "multiprobe_request_ms_p50"}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the run."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def sources_stamp():
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "main").rglob("*")) + sorted((BENCH / "src").rglob("*")) + [
        BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    if not (ROOT / "src" / "main" / "scala" / "repro" / "core").is_dir():
        die("engine sources (src/main/scala/repro/core) not found under %s" % ROOT)
    if not os.environ.get("SPARK_HOME"):
        die("SPARK_HOME must name a Spark 4 binary distribution")
    stamp_file = OUT / "build.stamp"
    stamp = sources_stamp()
    if CLASSES.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Dsbt.override.build.repos=true "
                   "-Dsbt.repository.config=%s -Xmx2g"
                   % os.path.join(os.path.expanduser("~"), ".sbt", "repositories"))
    rc = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                    "Compile/products"], BUILD_TIMEOUT_S, cwd=BENCH, env=env,
                   stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if rc != 0 or not CLASSES.is_dir():
        die("build failed (sbt exit %d)" % rc)
    stamp_file.write_text(stamp)


def harness(args):
    raw_file = OUT / ("raw-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if raw_file.exists():
        raw_file.unlink()
    for d in ("spark-local", "tmp"):
        (OUT / d).mkdir(exist_ok=True)
    cp = os.pathsep.join([str(CLASSES), os.path.join(os.environ["SPARK_HOME"], "jars", "*")])
    # Parallel GC with a fixed heap: G1's adaptive sizing under the engines'
    # large short-lived arrays made call times vary far more between runs.
    cmd = ["java", "-XX:+UseParallelGC", "-Xms" + HEAP, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + str(OUT / "tmp")] + JAVA_OPENS + [
        "-cp", cp, MAIN, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(raw_file), "--local-dir", str(OUT / "spark-local")]
    if args.data_seed is not None:
        cmd += ["--data-seed", str(args.data_seed)]
    rc = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if rc != 0 or not raw_file.is_file():
        die("harness failed (exit %d)" % rc)
    return json.loads(raw_file.read_text())


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="query seed")
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, default=None,
                    help="dataset seed (default: the dataset's own)")
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        die("BENCHMARK.json not found at %s" % ROOT)
    spec = json.loads(spec_file.read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not (M.valid_metric_name(m["name"]) and M.valid_unit(m["unit"])):
            die("BENCHMARK.json: invalid metric name or unit in %r" % m)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die("unknown workload %r" % args.workload)
    build()
    raw = harness(args)

    e2e, info = M.end_to_end(raw)
    out = {"workload": raw["workload"], "seed": args.seed, "trace": args.trace,
           "env": raw["env"], "digest": raw["digest"], "gates": raw["gates"],
           "quality": raw["quality"], "info": info}
    print("perfbench %s seed=%d trace=%d" % (raw["workload"], args.seed, args.trace))
    print("env: " + " ".join("%s=%s" % kv for kv in raw["env"].items()))

    if args.trace:
        layer, tinfo = M.per_layer(raw)
        wanted = spec["per_layer"]
        values = layer
        trace_file = OUT / ("trace-%s-%d.json" % (raw["workload"], args.seed))
        trace_file.write_text(json.dumps({"env": raw["env"], "spans": M.trace_spans(raw)}))
        out["trace_info"] = tinfo
        print("trace: %d traced / %d untraced timed calls, spans in %s"
              % (tinfo["traced_requests"], tinfo["untraced_requests"], trace_file.relative_to(ROOT)))
        print("trace: job spans cover %.1f%% of a traced call's wall time, driver self time "
              "the other %.1f%%; tasks run during %.1f%% of job time; overhead from %d pairs"
              % (100 * tinfo["job_share"], 100 * (1 - tinfo["job_share"]),
                 100 * tinfo["task_share"], tinfo["overhead_pairs"]))
    else:
        wanted = spec["end_to_end"]
        values = e2e

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or v != v:
            die("metric %s was not measured" % m["name"], 3)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("%-40s %14s %s" % (m["name"], fmt(v), m["unit"]))

    if not args.trace:
        n = info["requests"]
        tail = info["tail"]
        print("%-40s %14s %s" % ("samples", n, "timed calls"))
        if tail and tail[0] >= 90:
            print("%-40s %14s ms (nearest rank, n=%d)" % ("request_ms_p90", fmt(M.nearest_rank(
                [r["ms"] for r in raw["requests"] if r["ok"]], 90)), n))
        else:
            print("%-40s %14s (needs >= 100 calls of one engine; n=%d)" % ("request_ms_p90", "n/a", n))
        if tail and tail[0] > 50:
            print("%-40s %14s ms (highest percentile with >= %d calls beyond it)"
                  % ("request_ms_p%g" % tail[0], fmt(tail[1]), M.MIN_BEYOND))
        print("%-40s %14s fraction (%d of %d queries)" % (
            "failed_frac", fmt(info["failed_frac"]), info["failed_queries"], info["attempted_queries"]))
        for eng, name in ENGINE_METRIC.items():
            if eng in info["engine_p50"]:
                print("%-40s %14s ms (n=%d)" % (name, fmt(info["engine_p50"][eng]),
                                                 info["engine_samples"][eng]))
            else:
                print("%-40s %14s (engine not in this workload)" % (name, "n/a"))
        for eng, q in raw["quality"].items():
            print("quality %-12s recall=%.4f overall_ratio=%.4f queries=%d"
                  % (eng, q["recall"], q["overall_ratio"], q["queries"]))
    print("digest %s (neighbour ids of the reference answers; %d later answers differed)"
          % (raw["digest"], raw["answers_changed"]))
    failed_gates = [g for g in raw["gates"] if not g["ok"]]
    for g in failed_gates:
        print("GATE FAILED %s: %s" % (g["name"], g["detail"]))
    correct = not failed_gates
    out["metrics"] = metrics
    (OUT / ("result-%s-%d-%d.json" % (raw["workload"], args.seed, args.trace))).write_text(
        json.dumps(out, indent=1))
    print(json.dumps({"correct": correct, "attempted": info["attempted_queries"],
                      "failed": info["failed_queries"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
