// The QueryER benchmark program: runs one seeded workload and prints its
// metrics. perfbench/run.py builds this program and forwards its flags:
//
//   queryer_perfbench --workload <sp_cold|spj_explore|wire_mix> --seed <n>
//                     --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]
//
// Output: one "report" JSON line with every metric of the workload under its
// own name (cold_p50_ms, plain_p99_ms, ...), its sample counts and failed
// checks; then, as the last line, the contract line — correct, attempted,
// failed and the metrics BENCHMARK.json lists (end-to-end ones with
// --trace 0, per-layer ones with --trace 1). Exits 1 when any output check
// failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// End-to-end metrics of the contract line. p50_ms and tail_ms are the
// latency of each workload's primary query class: cold DEDUP (p95 tail) on
// sp_cold and spj_explore, plain wire operations (p99 tail) on wire_mix.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"p50_ms", "ms"},      {"tail_ms", "ms"},
    {"qps", "1/s"},          {"peak_rss_mb", "MB"}, {"link_recall", "ratio"},
    {"link_precision", "ratio"},
};

// Per-layer metrics of the contract line (traced run). A layer the workload
// does not exercise reports 0.
const std::vector<MetricSpec> kPerLayer = {
    {"storage.register_s", "s"},
    {"blocking.tbi_build_s", "s"},
    {"blocking.qbi_s", "s"},
    {"blocking.block_join_s", "s"},
    {"blocking.blocks", "count"},
    {"metablocking.s", "s"},
    {"metablocking.comparisons_out", "count"},
    {"metablocking.keep_ratio", "ratio"},
    {"matching.compare_s", "s"},
    {"matching.comparisons", "count"},
    {"matching.matches", "count"},
    {"matching.match_ratio", "ratio"},
    {"matching.us_per_comparison", "us"},
    {"matching.li_hit_ratio", "ratio"},
    {"matching.links", "count"},
    {"persist.restore_s", "s"},
    {"persist.log_bytes", "bytes"},
    {"persist.log_bytes_per_link", "bytes"},
    {"sql.parse_s", "s"},
    {"engine.prepare_s", "s"},
    {"engine.open_s", "s"},
    {"engine.emit_s", "s"},
    {"engine.batches", "count"},
    {"exec.morsels_scanned", "count"},
    {"exec.probe_morsels", "count"},
    {"parallel.cpu_per_wall", "ratio"},
    {"server.open_ms", "ms"},
    {"server.next_ms", "ms"},
    {"server.execute_ms", "ms"},
    {"server.bytes_per_row", "bytes"},
    {"server.result_cache_hit_ratio", "ratio"},
    {"server.plan_cache_hit_ratio", "ratio"},
    {"server.wire_overhead_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"replay.share", "ratio"},
    {"self.query_s", "s"},
    {"self.sql.parse_s", "s"},
    {"self.engine.prepare_s", "s"},
    {"self.engine.open_s", "s"},
    {"self.engine.emit_s", "s"},
    {"self.blocking.qbi_s", "s"},
    {"self.blocking.block_join_s", "s"},
    {"self.metablocking_s", "s"},
    {"self.matching_s", "s"},
    {"self.li.publish_s", "s"},
    {"self.wire.open_s", "s"},
    {"self.wire.next_s", "s"},
    {"self.wire.close_s", "s"},
    {"self.wire.execute_s", "s"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: queryer_perfbench --workload <sp_cold|spj_explore|wire_mix>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny]"
               " [--work-dir <dir>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  Report report;
  try {
    if (args.workload == "sp_cold") {
      RunSpCold(args, &report);
    } else if (args.workload == "spj_explore") {
      RunSpjExplore(args, &report);
    } else if (args.workload == "wire_mix") {
      RunWireMix(args, &report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  if (report.attempted() == 0) report.AddAttempted(1);

  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  const bool wire = args.workload == "wire_mix";
  report.Set("p50_ms", report.Get(wire ? "plain_p50_ms" : "cold_p50_ms"), "ms");
  report.Set("tail_ms", report.Get(wire ? "plain_p99_ms" : "cold_p95_ms"), "ms");
  std::vector<std::string> names;
  for (const MetricSpec& spec : args.trace ? kPerLayer : kEndToEnd) {
    names.push_back(spec.name);
    // Every end-to-end metric is a measurement that cannot be 0; a 0 means
    // the workload produced no samples for it.
    if (!args.trace && report.Get(spec.name) <= 0) {
      report.Fail(std::string(spec.name) + " was not measured");
    }
  }
  if (args.trace) {
    ZeroMissing(kPerLayer, &report);
    const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (SpanRecorder::Instance().WriteChromeJson(path)) {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    } else {
      report.Fail("cannot write " + path);
    }
  }
  report.Set("error_ratio",
             static_cast<double>(report.failed()) / static_cast<double>(report.attempted()),
             "ratio");

  std::printf("%s\n", report.FullJson(args).c_str());
  std::printf("%s\n", report.ContractJson(names).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
