// Shared machinery of the QueryER benchmark: run arguments, the metric
// report, the in-memory span recorder of traced runs, latency samples,
// answer fingerprints, Link Index scoring against ground truth, the
// in-process query runner and the ER-stage replay.
//
// Everything here calls the engine only through its public headers; the
// benchmark adds no hooks inside src/.

#ifndef QUERYER_PERFBENCH_BENCH_H_
#define QUERYER_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "datagen/ground_truth.h"
#include "engine/query_engine.h"
#include "exec/exec_stats.h"
#include "exec/table_runtime.h"
#include "matching/link_index.h"

namespace perfbench {

using queryer::EntityId;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny tables and passes, for the benchmark's own self-test.
  bool tiny = false;
  /// Working directory for snapshots and the span file (inside the
  /// checkout, under the build directory).
  std::string work_dir = ".";
};

/// Seconds on the steady clock.
double Now();

/// Process CPU seconds (user + system, all threads).
double CpuSeconds();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// A per-table seed derived from the workload seed (splitmix64 of both).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag);

/// Latency samples in milliseconds.
struct Samples {
  std::vector<double> ms;
  void Add(double seconds) { ms.push_back(seconds * 1e3); }
  std::size_t count() const { return ms.size(); }
  /// Linear-interpolated quantile (p in [0,1]); 0 when empty.
  double Quantile(double p) const;
  double Median() const { return Quantile(0.5); }
  /// Operations per second of a closed loop that ran these operations back
  /// to back: count / summed latency.
  double Rate() const;
};

/// Best-of-N timing over repeated passes of the same seeded work: each
/// operation's fastest repetition. On a shared host, interference comes in
/// bursts of seconds that slow a whole stretch of a run by up to a third;
/// best-of-N rejects those bursts, while a change to the work itself slows
/// every repetition and still shows.
class BestOf {
 public:
  /// Records operation `op`'s latency in the current pass.
  void Add(std::size_t op, double seconds);
  void EndPass() { ++passes_; }
  std::size_t passes() const { return passes_; }
  /// Fastest latency of every operation `keep` selects (all when empty).
  Samples Best(const std::vector<bool>& keep = {}) const;
  /// Whether to start another pass: always until two passes ran, then while
  /// one more pass of the average length ends within half a pass of
  /// `seconds` after `start` (so runs last `seconds` on average).
  bool More(double start, double seconds) const;

 private:
  std::vector<double> best_;
  std::size_t passes_ = 0;
};

/// The run's metrics and failed checks. `Set` records a metric by its
/// workload-level name; the contract line picks its subset by name.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const;
  /// Records a failed output check (counted in `failed`).
  void Fail(const std::string& what);
  /// Records a check; fails with `what` when `ok` is false.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void AddAttempted(std::uint64_t n) { attempted_ += n; }
  void AddSampleCount(const std::string& name, std::size_t n) {
    sample_counts_[name] = n;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failures_.size(); }
  bool correct() const { return failures_.empty(); }

  /// One JSON line with every metric, sample count and failure.
  std::string FullJson(const Args& args) const;
  /// The contract line: correct/attempted/failed plus the named metrics.
  std::string ContractJson(const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::size_t> sample_counts_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
};

// ---------------------------------------------------------------------------
// Spans of traced runs. Each span has a name, start, end, parent and query
// id; spans stay in memory and are written once, at exit.
// ---------------------------------------------------------------------------

class SpanRecorder {
 public:
  struct Record {
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root.
    std::uint64_t query;   // 0 = not part of a query.
    std::uint32_t thread;
    std::string name;
    double start;  // Now() seconds.
    double end;
  };

  /// Turns span recording on (spans accumulate across Enable calls).
  static void Enable();
  static void Disable();
  /// The process recorder whether or not it is recording now.
  static SpanRecorder& Instance();

  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Record record);
  /// Sum of self time (duration minus child coverage) per span name.
  std::map<std::string, double> SelfSeconds() const;
  /// Chrome trace-event JSON (loads in ui.perfetto.dev).
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Record> Snapshot() const;

  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span on the calling thread; a no-op while tracing is off. Nested
/// spans on one thread become children of the innermost open span.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t query = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Record record_{};
};

/// Query id for the spans of one benchmark operation (unique per process).
std::uint64_t NewQueryId();

// ---------------------------------------------------------------------------
// Answers and links.
// ---------------------------------------------------------------------------

/// Order-insensitive fingerprint of a row multiset: the wrapping sum of a
/// per-row hash, so the same rows in any order give the same value.
class RowFingerprint {
 public:
  template <typename Values>
  void AddRow(const Values& values) {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& v : values) {
      for (char c : v) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      h = (h ^ 0x1f) * 1099511628211ull;
    }
    sum_ += h * 0x9E3779B97F4A7C15ull + (h >> 29);
    ++rows_;
  }
  std::uint64_t value() const { return sum_ ^ (rows_ * 0xC2B2AE3D27D4EB4Full); }
  std::uint64_t rows() const { return rows_; }

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t rows_ = 0;
};

/// Canonical fingerprint of a Link Index's clustering: each entity hashed
/// with the smallest member of its cluster.
std::uint64_t LinkFingerprint(const queryer::LinkIndex& li);

/// Pair counts of a Link Index against ground truth, over the pairs with at
/// least one resolved endpoint.
struct LinkScore {
  std::uint64_t true_pairs = 0;    // Ground-truth pairs in scope.
  std::uint64_t linked_pairs = 0;  // Linked pairs in scope.
  std::uint64_t correct = 0;       // In both.
  void Accumulate(const LinkScore& o) {
    true_pairs += o.true_pairs;
    linked_pairs += o.linked_pairs;
    correct += o.correct;
  }
  double recall() const {
    return true_pairs == 0 ? 1.0 : double(correct) / double(true_pairs);
  }
  double precision() const {
    return linked_pairs == 0 ? 1.0 : double(correct) / double(linked_pairs);
  }
};
LinkScore ScoreLinks(const queryer::LinkIndex& li,
                     const queryer::datagen::GroundTruth& truth);

/// Case-insensitive ASCII equality, the engine's text `=`.
bool EqualsNoCase(std::string_view a, std::string_view b);

/// ASCII lower case: join values are compared up to case.
std::string Lower(std::string_view s);

// ---------------------------------------------------------------------------
// In-process queries and the ER replay.
// ---------------------------------------------------------------------------

/// Per-stage totals of a traced run, summed over its operations.
struct LayerTotals {
  double parse_s = 0, prepare_s = 0, open_s = 0, emit_s = 0;
  std::uint64_t batches = 0;
  std::uint64_t morsels = 0, probe_morsels = 0;
  double qbi_s = 0, block_join_s = 0, metablocking_s = 0, compare_s = 0;
  std::uint64_t blocks = 0, pairs_in = 0, comparisons_out = 0;
  std::uint64_t comparisons = 0, matches = 0;
  std::uint64_t query_entities = 0, already_resolved = 0;
  std::uint64_t replayed = 0, dedup_queries = 0;
};

/// Outcome of one in-process query, drained through a cursor.
struct QueryRun {
  queryer::Status status;
  std::string plan_text;
  std::uint64_t rows = 0;
  std::uint64_t fingerprint = 0;
  queryer::ExecStats stats;
  double latency_s = 0;  // Prepare -> last row.
};

/// Prepare + Open + drain (or stop once `row_limit` rows arrived, when it
/// is non-zero). Records engine.prepare, engine.open (Open plus the first
/// Next, where DEDUP resolution runs) and engine.emit spans; with `totals`
/// also times a separate ParseSelect of the same text (sql.parse) and sums
/// the stage times into `totals`.
QueryRun RunQuery(queryer::QueryEngine* engine, const std::string& sql,
                  std::uint64_t query_id, LayerTotals* totals,
                  std::uint64_t row_limit = 0);

/// Counts one resolution must reproduce: the ExecStats fields a replay is
/// held to.
struct ErCounts {
  std::uint64_t after_metablocking = 0;
  std::uint64_t executed = 0;
  std::uint64_t matches = 0;
  bool operator==(const ErCounts& o) const {
    return after_metablocking == o.after_metablocking &&
           executed == o.executed && matches == o.matches;
  }
  bool operator!=(const ErCounts& o) const { return !(*this == o); }
  void Accumulate(const ErCounts& o) {
    after_metablocking += o.after_metablocking;
    executed += o.executed;
    matches += o.matches;
  }
  std::string ToString() const;
};
ErCounts CountsOf(const queryer::ExecStats& stats);

/// Replays one Deduplicate over `query_entities` of `runtime`'s table
/// through the public stage calls — QueryBlockIndex::Build, BlockJoin,
/// RunMetaBlocking, ExecuteComparisons — and publishes the resolved marks,
/// exactly as the engine's single-session resolution does. Records one
/// span per stage and adds the stage totals to `totals`.
queryer::Result<ErCounts> ReplayResolve(queryer::TableRuntime* runtime,
                                        const std::vector<EntityId>& query_entities,
                                        std::uint64_t query_id,
                                        LayerTotals* totals);

/// DR_E of a resolved selection: the selection plus every linked member,
/// ascending and distinct.
std::vector<EntityId> ResolvedClosure(const queryer::LinkIndex& li,
                                      const std::vector<EntityId>& entities);

/// Entities whose `id` column lies in [low, high] (ids are row positions).
std::vector<EntityId> IdWindow(const queryer::Table& table, std::uint64_t low,
                               std::uint64_t high);

/// Adds the per-layer metrics derived from `totals` and the recorder's
/// self times to `report`.
void ReportLayers(const LayerTotals& totals, Report* report);

/// A metric name with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Sets every metric of `specs` that the workload did not measure to 0: a
/// layer the workload does not exercise did no work.
void ZeroMissing(const std::vector<MetricSpec>& specs, Report* report);

/// Median of a small sample of set-up timings.
double MedianOf(std::vector<double> values);

/// Number of distinct duplicate groups among `entities` (the row count of
/// an SP DEDUP answer over that selection).
std::size_t GroupCount(const queryer::LinkIndex& li,
                       const std::vector<EntityId>& entities);

/// Workload entry points. Each fills `report`; a failed check is recorded
/// there, never thrown.
void RunSpCold(const Args& args, Report* report);
void RunSpjExplore(const Args& args, Report* report);
void RunWireMix(const Args& args, Report* report);

}  // namespace perfbench

#endif  // QUERYER_PERFBENCH_BENCH_H_
