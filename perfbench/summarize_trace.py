#!/usr/bin/env python3
"""Per-layer ledger from the span file of a traced benchmark run.

    python3 perfbench/summarize_trace.py SPAN_FILE [--by-name]

The span file's first line is a header with counters read from the return
values of the replayed calls; every other line is one span:
[id, parent, request, name, start_ns, end_ns]. A span's layer is the first
component of its name. A span's self time is its duration minus the part of
it that its children cover. Request trees are the spans under a root named
"request.*"; "shadow.*" roots and set-up spans (request 0) stay outside them.

Prints the per-layer metrics as one JSON object (name -> {value, unit});
--by-name adds a table of span counts and mean durations on stderr. Exits 1
when the layers' self times cover less than MIN_COVERAGE of the traced
request time.
"""

import json
import sys
from collections import defaultdict

MIN_COVERAGE = 0.90

# Span-name prefix -> ledger layer. "registry.acquire" (resolving a registry
# dataset) and "dataset.append" both run in the dataset-hosting layer.
LAYERS = {
    "serve": "serve",
    "session": "session",
    "engine": "engine",
    "registry": "dataset",
    "dataset": "dataset",
}

# Name and unit of every per-layer metric, in BENCHMARK.json order.
METRICS = [
    ("data.csv_read_s", "s"),
    ("data.csv_mb_per_s", "MB/s"),
    ("data.append_rows_ms", "ms"),
    ("profile.build_s", "s"),
    ("profile.cells_per_s", "1/s"),
    ("sketch.panel_hit_ratio", "ratio"),
    ("profile.append_merge_ms", "ms"),
    ("profile.bytes", "bytes"),
    ("snapshot.load_ms", "ms"),
    ("registry.attach_s", "s"),
    ("registry.append_ms", "ms"),
    ("registry.delta_merged_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("session.hit_us", "us"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("engine.miss_ms", "ms"),
    ("engine.enumerate_ms", "ms"),
    ("engine.evaluate_ms", "ms"),
    ("engine.assemble_ms", "ms"),
    ("engine.candidates", "count"),
    ("engine.overview_ms", "ms"),
    ("engine.refine_share", "ratio"),
    ("engine.create_ms", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.transport_us", "us"),
    ("serve.append_decode_ms", "ms"),
    ("serve.append_wait_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("self_us.serve", "us"),
    ("self_us.session", "us"),
    ("self_us.engine", "us"),
    ("self_us.dataset", "us"),
    ("trace.coverage", "ratio"),
]


def load(path):
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [json.loads(line) for line in f if line.strip()]
    return header, spans


def self_times(spans):
    """Span id -> self time in ns (duration minus the union of children)."""
    children = defaultdict(list)
    for span_id, parent, _, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    result = {}
    for span_id, _, _, _, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span_id] = (end - start) - covered
    return result


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def summarize(path, by_name=False):
    header, spans = load(path)
    counters = header["counters"]
    by_id = {span[0]: span for span in spans}
    durations = defaultdict(list)  # name -> [ms]
    for _, _, _, name, start, end in spans:
        durations[name].append((end - start) / 1e6)

    def mean_ms(name):
        values = durations.get(name, ())
        return sum(values) / len(values) if values else 0.0

    # Request trees: self time by layer, and the roots' total.
    root_of = {}
    for span_id, parent, _, _, _, _ in spans:
        root = span_id
        while by_id[root][1]:
            root = by_id[root][1]
        root_of[span_id] = root
    own = self_times(spans)
    layer_ns = defaultdict(int)
    roots = [s for s in spans if not s[1] and s[3].startswith("request.")]
    root_ids = {s[0] for s in roots}
    for span_id, parent, _, name, _, _ in spans:
        if parent and root_of[span_id] in root_ids:
            layer_ns[LAYERS.get(name.split(".")[0], "other")] += own[span_id]
    request_ns = sum(s[5] - s[4] for s in roots)
    read_roots = [(s[5] - s[4]) / 1e6 for s in roots if s[3] != "request.append"]
    read_mean_ms = sum(read_roots) / len(read_roots) if read_roots else 0.0

    csv_read_s = mean_ms("data.csv_read") / 1e3
    build_s = mean_ms("profile.build") / 1e3
    lookups = counters["cache_hits"] + counters["cache_misses"]
    values = {
        "data.csv_read_s": csv_read_s,
        "data.csv_mb_per_s": ratio(counters["csv_bytes"] / 1e6, csv_read_s),
        "data.append_rows_ms": mean_ms("data.append_rows"),
        "profile.build_s": build_s,
        "profile.cells_per_s": ratio(counters["profile_cells"], build_s),
        "sketch.panel_hit_ratio": ratio(counters["panel_hits"],
                                        counters["panel_acquires"]),
        "profile.append_merge_ms": mean_ms("profile.append_merge"),
        "profile.bytes": counters["profile_bytes"],
        "snapshot.load_ms": mean_ms("snapshot.load"),
        "registry.attach_s": mean_ms("registry.attach") / 1e3,
        "registry.append_ms": mean_ms("dataset.append"),
        "registry.delta_merged_ratio": ratio(counters["appends_merged"],
                                             counters["appends"]),
        "cache.hit_ratio": ratio(counters["cache_hits"], lookups),
        "session.hit_us": mean_ms("session.hit") * 1e3,
        "cache.invalidations": counters["cache_invalidations"],
        "cache.evictions": counters["cache_evictions"],
        "cache.bytes": counters["cache_bytes"],
        "engine.miss_ms": mean_ms("session.miss"),
        "engine.enumerate_ms": mean_ms("engine.enumerate"),
        "engine.evaluate_ms": mean_ms("engine.evaluate"),
        "engine.assemble_ms": mean_ms("engine.assemble"),
        "engine.candidates": ratio(counters["candidates"], counters["misses"]),
        "engine.overview_ms": mean_ms("engine.overview"),
        "engine.refine_share": ratio(counters["pairs_refined"],
                                     counters["pairs_total"]),
        "engine.create_ms": mean_ms("engine.create"),
        "serve.http_parse_us": mean_ms("serve.http_parse") * 1e3,
        "serve.decode_us": mean_ms("serve.decode") * 1e3,
        "serve.encode_us": mean_ms("serve.encode") * 1e3,
        "serve.response_bytes": ratio(counters["response_bytes"],
                                      counters["reads"]),
        "serve.transport_us": (counters["http_read_mean_ms"] - read_mean_ms)
        * 1e3,
        "serve.append_decode_ms": mean_ms("serve.append_decode"),
        "serve.append_wait_ms": counters["http_append_mean_ms"]
        - mean_ms("serve.append_decode") - mean_ms("dataset.append"),
        "serve.start_ms": mean_ms("serve.start"),
        "trace.coverage": ratio(sum(layer_ns.values()), request_ns),
    }
    for layer in ("serve", "session", "engine", "dataset"):
        values["self_us." + layer] = ratio(layer_ns[layer] / 1e3, len(roots))

    if by_name:
        for name in sorted(durations):
            values_ms = durations[name]
            print(f"{name:28s} {len(values_ms):8d} spans  "
                  f"mean {sum(values_ms) / len(values_ms):10.4f} ms",
                  file=sys.stderr)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS}


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = summarize(argv[1], by_name="--by-name" in argv[2:])
    print(json.dumps(metrics))
    coverage = metrics["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        print(f"layer self times cover {coverage:.3f} of traced request time, "
              f"below {MIN_COVERAGE}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
