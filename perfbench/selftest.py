#!/usr/bin/env python3
"""The benchmark's self-test: a tiny run of every workload, traced and
untraced, that fails when a metric is missing from the output or from
BENCHMARK.json, or when an output check fails.

    python3 perfbench/selftest.py

Takes about a minute after the build (run.py builds on first use).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics each workload reports in its report line.
WORKLOAD_METRICS = {
    "sp_cold": ["setup_s", "cold_p50_ms", "cold_p95_ms", "qps", "error_ratio",
                "peak_rss_mb", "link_recall", "link_precision"],
    "spj_explore": ["setup_s", "cold_p50_ms", "cold_p95_ms", "warm_p50_ms",
                    "plain_p50_ms", "qps", "error_ratio", "peak_rss_mb",
                    "link_recall", "link_precision"],
    "wire_mix": ["setup_s", "warm_p50_ms", "plain_p50_ms", "plain_p99_ms", "qps",
                 "rows_per_s", "error_ratio", "peak_rss_mb"],
}

# The contract line's end-to-end metrics exist on every workload, so the
# primary query class's latency is reported under one name: p50_ms/tail_ms
# are cold p50/p95 on the in-process workloads and plain p50/p99 on the wire.
PRIMARY = {
    "sp_cold": {"p50_ms": "cold_p50_ms", "tail_ms": "cold_p95_ms"},
    "spj_explore": {"p50_ms": "cold_p50_ms", "tail_ms": "cold_p95_ms"},
    "wire_mix": {"p50_ms": "plain_p50_ms", "tail_ms": "plain_p99_ms"},
}

# Per-layer metrics every traced run reports.
LAYER_METRICS = [
    "storage.register_s", "blocking.tbi_build_s", "blocking.qbi_s",
    "blocking.block_join_s", "blocking.blocks", "metablocking.s",
    "metablocking.comparisons_out", "metablocking.keep_ratio",
    "matching.compare_s", "matching.comparisons", "matching.matches",
    "matching.match_ratio", "matching.us_per_comparison",
    "matching.li_hit_ratio", "matching.links", "persist.restore_s",
    "persist.log_bytes", "persist.log_bytes_per_link", "sql.parse_s",
    "engine.prepare_s", "engine.open_s", "engine.emit_s", "engine.batches",
    "exec.morsels_scanned", "exec.probe_morsels", "parallel.cpu_per_wall",
    "server.open_ms", "server.next_ms", "server.execute_ms",
    "server.bytes_per_row", "server.result_cache_hit_ratio",
    "server.plan_cache_hit_ratio", "server.wire_overhead_ratio",
    "obs.trace_overhead_ratio",
]


def run(workload, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if len(lines) < 2:
        return result.returncode, None, None
    return result.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for name in LAYER_METRICS:
        if name not in per_layer:
            errors.append("BENCHMARK.json per_layer lacks %s" % name)
    for workload, names in WORKLOAD_METRICS.items():
        for contract_name, own_name in PRIMARY[workload].items():
            if contract_name not in end_to_end or own_name not in names:
                errors.append("%s: %s -> %s is not a contract metric" %
                              (workload, own_name, contract_name))

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, report, contract = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if contract is None:
                errors.append("%s: exit %d without a result" % (where, code))
                continue
            if set(contract) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: result keys %s" % (where, sorted(contract)))
            if not contract["correct"] or contract["failed"] != 0 or code != 0:
                errors.append("%s: failed checks %s" % (where, report["failures"]))
            if set(contract["metrics"]) != set(expected):
                errors.append("%s: result metrics differ from BENCHMARK.json: %s" %
                              (where, sorted(set(expected) ^ set(contract["metrics"]))))
            for name, metric in contract["metrics"].items():
                if name in expected and metric["unit"] != expected[name]:
                    errors.append("%s: %s unit %s, BENCHMARK.json says %s" %
                                  (where, name, metric["unit"], expected[name]))
            wanted = WORKLOAD_METRICS[workload] + (LAYER_METRICS if trace else [])
            for name in wanted:
                if name not in report["metrics"]:
                    errors.append("%s: report lacks %s" % (where, name))
            print("%s: ok=%s attempted=%d" % (where, contract["correct"],
                                             contract["attempted"]))
    for error in errors:
        print("SELFTEST FAILED: " + error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
