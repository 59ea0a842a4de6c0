"""Arithmetic of the benchmark: percentiles, span algebra and the metrics
run.py derives from the harness's raw-result file. Pure functions, no I/O,
so test_metrics.py can check them directly."""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def valid_metric_name(name):
    """A metric name: starts with a letter or digit, at most 64 of
    [A-Za-z0-9_.-]."""
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit):
    return bool(UNIT_RE.fullmatch(unit))


def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank rule: the smallest sample
    with at least p% of the samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    rank = _rank(len(s), p)
    return s[rank - 1]


def _rank(n, p):
    # rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(values, levels=PERCENTILES, min_beyond=MIN_BEYOND):
    """The highest of `levels` with at least `min_beyond` samples beyond it,
    as (level, value), or None when even the lowest level has fewer."""
    n = len(values)
    ok = [p for p in levels if beyond(n, p) >= min_beyond]
    if not ok:
        return None
    p = max(ok)
    return p, nearest_rank(values, p)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((s, e) for s, e in intervals if e > s):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """A span's duration minus the part of its interval its children cover
    (children may overlap each other and stick out of the span)."""
    s, e = span
    clipped = [(max(s, cs), min(e, ce)) for cs, ce in children]
    return (e - s) - union_length(clipped)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def mean(xs):
    return sum(xs) / len(xs) if xs else float("nan")


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus the per-engine medians
    and sample counts the summary prints. Returns (metrics, info)."""
    reqs = raw["requests"]
    ok = [r for r in reqs if r["ok"]]
    engines = raw["engines"]
    per_engine = {e: [r["ms"] for r in ok if r["engine"] == e] for e in engines}
    p50s = {e: median(v) for e, v in per_engine.items()}
    # One engine: the median call. Several engines: the geometric mean of
    # their medians, since the median of a mix of engines falls into the
    # gap between two of them and jumps with the mix.
    request_p50 = math.exp(mean([math.log(v) for v in p50s.values()]))
    answered = sum(r["queries"] for r in ok)
    quality = raw["quality"]
    metrics = {
        "request_ms_p50": request_p50,
        "qps": answered / (raw["loop_ms"] / 1000.0),
        "recall": mean([quality[e]["recall"] for e in engines]),
        "overall_ratio": mean([quality[e]["overall_ratio"] for e in engines]),
        "setup_s": median(raw["setup_s"]),
        "index_mb": raw["index_bytes"] / 2.0 ** 20,
    }
    all_ms = [r["ms"] for r in ok]
    info = {
        "requests": len(reqs),
        "failed_requests": len(reqs) - len(ok),
        "attempted_queries": sum(r["queries"] for r in reqs),
        "failed_queries": sum(r["queries"] for r in reqs if not r["ok"]),
        "tail": tail_percentile(all_ms) if len(engines) == 1 else None,
        "engine_p50": p50s,
        "engine_samples": {e: len(v) for e, v in per_engine.items()},
    }
    info["failed_frac"] = info["failed_queries"] / max(1, info["attempted_queries"])
    return metrics, info


def _by_tag(rows):
    out = {}
    for r in rows:
        out.setdefault(r["tag"], []).append(r)
    return out


def per_layer(raw):
    """Per-layer metrics of a traced run, and the trace's coverage figures.
    Spark spans are attributed to requests by tag `request-<id>`."""
    tr = raw["trace"]
    jobs = _by_tag(tr["jobs"])
    tasks = _by_tag(tr["tasks"])
    ok = [r for r in raw["requests"] if r["ok"]]
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]

    def per_request(f):
        return mean([f(jobs.get("request-%d" % r["id"], []),
                       tasks.get("request-%d" % r["id"], [])) for r in traced])

    def job_intervals(r):
        return [(j["start_ms"], j["end_ms"]) for j in jobs.get("request-%d" % r["id"], [])]

    queries = sum(r["queries"] for r in traced)
    result_bytes = sum(t["result_bytes"] for r in traced
                       for t in tasks.get("request-%d" % r["id"], []))
    range_engine = "PM-LSH" if "PM-LSH" in raw["engines"] else "R-LSH"
    self_ms = [self_time((r["start_ms"], r["end_ms"]), job_intervals(r))
               for r in traced if r["engine"] == range_engine]
    builds = sorted({t for t in tasks if t.startswith("build-")})
    build_run = [sum(t["run_ms"] for t in tasks[b]) for b in builds]

    # Traced and untraced passes alternate over the same batches: pair the
    # i-th traced call of an (engine, batch) with its i-th untraced call.
    overhead = []
    for key in sorted({(r["engine"], r["batch"]) for r in ok}):
        a = [r["ms"] for r in traced if (r["engine"], r["batch"]) == key]
        b = [r["ms"] for r in untraced if (r["engine"], r["batch"]) == key]
        overhead += [x - y for x, y in zip(a, b)]

    job_share, task_share = [], []
    for r in traced:
        wall = r["end_ms"] - r["start_ms"]
        ji = job_intervals(r)
        jw = union_length([(max(r["start_ms"], s), min(r["end_ms"], e)) for s, e in ji])
        ti = [(t["start_ms"], t["end_ms"]) for t in tasks.get("request-%d" % r["id"], [])]
        if wall > 0:
            job_share.append(jw / wall)
        if jw > 0:
            task_share.append(union_length(ti) / union_length(ji))

    m = {
        "spark.jobs_per_request": per_request(lambda j, t: len(j)),
        "spark.tasks_per_request": per_request(lambda j, t: len(t)),
        "spark.job_ms_per_request": per_request(
            lambda j, t: sum(x["end_ms"] - x["start_ms"] for x in j)),
        "spark.task_wait_ms_per_request": per_request(lambda j, t: sum(x["wait_ms"] for x in t)),
        "spark.task_run_ms_per_request": per_request(lambda j, t: sum(x["run_ms"] for x in t)),
        "spark.task_deserialize_ms_per_request": per_request(
            lambda j, t: sum(x["deserialize_ms"] for x in t)),
        "spark.task_gc_ms_per_request": per_request(lambda j, t: sum(x["gc_ms"] for x in t)),
        "spark.result_bytes_per_query": result_bytes / max(1, queries),
        "spark.build_task_run_ms": median(build_run),
        "rangelsh.driver_self_ms_per_request": mean(self_ms),
        "trace.overhead_ms_per_request": median(overhead),
    }
    m.update(raw["counts"])
    m.update(tr["layers"])
    info = {"traced_requests": len(traced), "untraced_requests": len(untraced),
            "overhead_pairs": len(overhead), "job_share": mean(job_share),
            "task_share": mean(task_share)}
    return m, info


def trace_spans(raw):
    """The run's spans as one list: request -> spark.job -> spark.task, and
    the replay spans, each with a parent id."""
    tr = raw["trace"]
    spans = []
    jobs = _by_tag(tr["jobs"])
    tasks = _by_tag(tr["tasks"])
    for r in raw["requests"]:
        if not r["traced"]:
            continue
        rid = "request-%d" % r["id"]
        spans.append({"id": rid, "parent": None, "name": "request", "engine": r["engine"],
                      "start_ms": r["start_ms"], "end_ms": r["end_ms"], "ok": r["ok"],
                      "queries": r["queries"]})
        for j in jobs.get(rid, []):
            jid = "job-%d" % j["job"]
            spans.append({"id": jid, "parent": rid, "name": "spark.job",
                          "start_ms": j["start_ms"], "end_ms": j["end_ms"]})
        for i, t in enumerate(tasks.get(rid, [])):
            spans.append({"id": "task-%d-%d-%d" % (t["job"], t["stage"], i),
                          "parent": "job-%d" % t["job"], "name": "spark.task",
                          "start_ms": t["start_ms"], "end_ms": t["end_ms"],
                          "wait_ms": t["wait_ms"], "run_ms": t["run_ms"],
                          "deserialize_ms": t["deserialize_ms"], "gc_ms": t["gc_ms"],
                          "result_bytes": t["result_bytes"]})
    for i, s in enumerate(tr["replay_spans"]):
        spans.append({"id": "replay-%d" % i, "parent": None, "name": s["name"],
                      "start_ms": s["start_ms"], "end_ms": s["end_ms"]})
    return spans
