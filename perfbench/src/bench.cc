#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <unordered_map>

#include "blocking/block_join.h"
#include "blocking/token_blocking.h"
#include "matching/comparison_execution.h"
#include "metablocking/meta_blocking.h"
#include "sql/parser.h"

namespace perfbench {

using queryer::Result;
using queryer::Status;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM is this program's own high-water mark; getrusage's ru_maxrss
  // would also count the launching process's memory from before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Samples::Quantile(double p) const {
  if (ms.empty()) return 0;
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

void BestOf::Add(std::size_t op, double seconds) {
  if (op >= best_.size()) best_.resize(op + 1, std::numeric_limits<double>::infinity());
  best_[op] = std::min(best_[op], seconds);
}

Samples BestOf::Best(const std::vector<bool>& keep) const {
  Samples out;
  for (std::size_t i = 0; i < best_.size(); ++i) {
    // An operation that never completed (its run failed) has no latency.
    if (!std::isfinite(best_[i])) continue;
    if (keep.empty() || (i < keep.size() && keep[i])) out.Add(best_[i]);
  }
  return out;
}

bool BestOf::More(double start, double seconds) const {
  if (passes_ < 2) return true;
  const double elapsed = Now() - start;
  return elapsed + 0.5 * elapsed / static_cast<double>(passes_) <= seconds;
}

double Samples::Rate() const {
  double total_ms = 0;
  for (double v : ms) total_ms += v;
  return total_ms == 0 ? 0 : static_cast<double>(ms.size()) * 1e3 / total_ms;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricJson(double value, const std::string& unit) {
  return "{\"value\":" + JsonNumber(value) + ",\"unit\":" + JsonString(unit) + "}";
}

}  // namespace

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.first;
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

std::string Report::FullJson(const Args& args) const {
  std::string out = "{\"report\":\"queryer-perfbench\",\"workload\":" +
                    JsonString(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"tiny\":" + (args.tiny ? "1" : "0") + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + MetricJson(metric.first, metric.second);
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, n] : sample_counts_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + std::to_string(n);
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(failures_[i]);
  }
  return out + "]}";
}

std::string Report::ContractJson(const std::vector<std::string>& names) const {
  std::string out = std::string("{\"correct\":") +
                    (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed()) + ",\"metrics\":{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto it = metrics_.find(names[i]);
    if (i > 0) out += ",";
    out += JsonString(names[i]) + ":" +
           (it == metrics_.end() ? MetricJson(0, "missing")
                                 : MetricJson(it->second.first, it->second.second));
  }
  return out + "}}";
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace {

std::atomic<SpanRecorder*> g_recorder{nullptr};
std::atomic<std::uint64_t> g_next_query{0};
std::atomic<std::uint32_t> g_next_thread{0};
thread_local std::vector<std::uint64_t> t_open_spans;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder* recorder = new SpanRecorder();  // Process-long.
  return *recorder;
}

void SpanRecorder::Enable() { g_recorder.store(&Instance()); }

void SpanRecorder::Disable() { g_recorder.store(nullptr); }

void SpanRecorder::Add(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecorder::Record> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  const std::vector<Record> records = Snapshot();
  // Children of one parent ran on the parent's thread, one after another,
  // inside its interval; their summed durations are the covered part.
  std::unordered_map<std::uint64_t, double> child_cover;
  for (const Record& r : records) {
    if (r.parent != 0) child_cover[r.parent] += r.end - r.start;
  }
  std::map<std::string, double> out;
  for (const Record& r : records) {
    auto it = child_cover.find(r.id);
    const double covered = it == child_cover.end() ? 0 : it->second;
    out[r.name] += std::max(0.0, (r.end - r.start) - covered);
  }
  return out;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  const std::vector<Record> records = Snapshot();
  double epoch = records.empty() ? 0 : records.front().start;
  for (const Record& r : records) epoch = std::min(epoch, r.start);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                  r.thread, (r.start - epoch) * 1e6, (r.end - r.start) * 1e6);
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":" << JsonString(r.name) << ","
        << buf << "\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"query\":" << r.query << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t query)
    : recorder_(g_recorder.load()) {
  if (recorder_ == nullptr) return;
  record_.id = recorder_->NextId();
  record_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  record_.query = query;
  record_.thread = t_thread;
  record_.name = name;
  t_open_spans.push_back(record_.id);
  record_.start = Now();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  record_.end = Now();
  t_open_spans.pop_back();
  recorder_->Add(std::move(record_));
}

std::uint64_t NewQueryId() { return g_next_query.fetch_add(1) + 1; }

// ---------------------------------------------------------------------------
// Answers and links.
// ---------------------------------------------------------------------------

std::uint64_t LinkFingerprint(const queryer::LinkIndex& li) {
  const std::size_t n = li.num_entities();
  std::vector<EntityId> rep(n);
  std::unordered_map<EntityId, EntityId> smallest;
  for (EntityId e = 0; e < n; ++e) {
    rep[e] = li.Representative(e);
    auto [it, inserted] = smallest.emplace(rep[e], e);
    if (!inserted) it->second = std::min(it->second, e);
  }
  std::uint64_t h = 1469598103934665603ull;
  for (EntityId e = 0; e < n; ++e) {
    const std::uint64_t word = (std::uint64_t{smallest[rep[e]]} << 1) |
                               (li.IsResolved(e) ? 1u : 0u);
    h = (h ^ word) * 1099511628211ull;
    h ^= h >> 32;
  }
  return h;
}

LinkScore ScoreLinks(const queryer::LinkIndex& li,
                     const queryer::datagen::GroundTruth& truth) {
  LinkScore score;
  const std::size_t n = li.num_entities();
  // A pair is in scope when at least one endpoint is resolved; count each
  // once, from its smaller resolved endpoint.
  auto counted_here = [&](EntityId e, EntityId other) {
    return other != e && (!li.IsResolved(other) || e < other);
  };
  for (EntityId e = 0; e < n; ++e) {
    if (!li.IsResolved(e)) continue;
    for (EntityId m : truth.ClusterMembers(e)) {
      if (counted_here(e, m)) ++score.true_pairs;
    }
    for (EntityId m : li.Cluster(e)) {
      if (!counted_here(e, m)) continue;
      ++score.linked_pairs;
      if (truth.AreDuplicates(e, m)) ++score.correct;
    }
  }
  return score;
}

bool EqualsNoCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

// ---------------------------------------------------------------------------
// Queries and replay.
// ---------------------------------------------------------------------------

QueryRun RunQuery(queryer::QueryEngine* engine, const std::string& sql,
                  std::uint64_t query_id, LayerTotals* totals,
                  std::uint64_t row_limit) {
  QueryRun run;
  if (totals != nullptr) {
    Span span("sql.parse", query_id);
    const double t = Now();
    auto parsed = queryer::ParseSelect(sql);
    totals->parse_s += Now() - t;
    if (!parsed.ok()) {
      run.status = parsed.status();
      return run;
    }
  }
  const double t0 = Now();
  auto prepared = [&] {
    Span span("engine.prepare", query_id);
    return engine->Prepare(sql);
  }();
  const double t1 = Now();
  if (!prepared.ok()) {
    run.status = prepared.status();
    return run;
  }
  run.plan_text = prepared->plan_text();

  RowFingerprint fingerprint;
  std::vector<std::string_view> row;
  std::uint64_t batches = 0;
  auto consume = [&](const queryer::RowBatch& batch, std::size_t width) {
    ++batches;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      row.clear();
      for (std::size_t c = 0; c < width; ++c) row.push_back(batch.value(i, c));
      fingerprint.AddRow(row);
    }
  };

  queryer::CursorPtr cursor;
  std::unique_ptr<queryer::RowBatch> batch;
  bool has = false;
  {
    Span span("engine.open", query_id);
    auto opened = prepared->Open();
    if (!opened.ok()) {
      run.status = opened.status();
      return run;
    }
    cursor = std::move(opened).MoveValueUnsafe();
    batch = std::make_unique<queryer::RowBatch>(cursor->batch_size());
    auto next = cursor->Next(batch.get());
    if (!next.ok()) {
      run.status = next.status();
      return run;
    }
    has = *next;
    if (has) consume(*batch, cursor->columns().size());
  }
  const auto more = [&] { return has && (row_limit == 0 || fingerprint.rows() < row_limit); };
  const double t2 = Now();
  {
    Span span("engine.emit", query_id);
    while (more()) {
      auto next = cursor->Next(batch.get());
      if (!next.ok()) {
        run.status = next.status();
        return run;
      }
      has = *next;
      if (has) consume(*batch, cursor->columns().size());
    }
  }
  const double t3 = Now();
  run.latency_s = t3 - t0;
  run.stats = cursor->stats();
  cursor->Close();
  run.rows = fingerprint.rows();
  run.fingerprint = fingerprint.value();
  if (totals != nullptr) {
    totals->prepare_s += t1 - t0;
    totals->open_s += t2 - t1;
    totals->emit_s += t3 - t2;
    totals->batches += batches;
    totals->morsels += run.stats.morsels_scanned;
    totals->probe_morsels += run.stats.probe_morsels;
  }
  return run;
}

std::string ErCounts::ToString() const {
  return "after_metablocking=" + std::to_string(after_metablocking) +
         " executed=" + std::to_string(executed) +
         " matches=" + std::to_string(matches);
}

ErCounts CountsOf(const queryer::ExecStats& stats) {
  ErCounts counts;
  counts.after_metablocking = stats.comparisons_after_metablocking;
  counts.executed = stats.comparisons_executed;
  counts.matches = stats.matches_found;
  return counts;
}

Result<ErCounts> ReplayResolve(queryer::TableRuntime* runtime,
                               const std::vector<EntityId>& query_entities,
                               std::uint64_t query_id, LayerTotals* totals) {
  queryer::LinkIndex& li = runtime->link_index();
  std::vector<EntityId> unresolved;
  for (EntityId e : query_entities) {
    if (!li.IsResolved(e)) unresolved.push_back(e);
  }
  totals->query_entities += query_entities.size();
  totals->already_resolved += query_entities.size() - unresolved.size();
  ErCounts counts;
  if (unresolved.empty()) return counts;

  double t = Now();
  queryer::QueryBlockIndex qbi = [&] {
    Span span("blocking.qbi", query_id);
    return queryer::QueryBlockIndex::Build(runtime->table(), unresolved,
                                           runtime->blocking_options());
  }();
  totals->qbi_s += Now() - t;

  const queryer::TableBlockIndex& tbi = runtime->tbi();
  t = Now();
  queryer::BlockCollection blocks = [&] {
    Span span("blocking.block_join", query_id);
    return queryer::BlockJoin(qbi, tbi);
  }();
  totals->block_join_s += Now() - t;
  totals->blocks += blocks.size();
  totals->pairs_in +=
      static_cast<std::uint64_t>(queryer::TotalQueryComparisons(blocks));

  t = Now();
  queryer::MetaBlockingResult refined = [&] {
    Span span("metablocking", query_id);
    return queryer::RunMetaBlocking(std::move(blocks),
                                    runtime->meta_blocking_config(),
                                    runtime->thread_pool());
  }();
  totals->metablocking_s += Now() - t;
  counts.after_metablocking = refined.comparisons.size();
  totals->comparisons_out += refined.comparisons.size();

  t = Now();
  auto executed = [&] {
    Span span("matching", query_id);
    return queryer::ExecuteComparisons(
        runtime->table(), refined.comparisons, runtime->matching_config(), &li,
        &runtime->attribute_weights(), runtime->thread_pool());
  }();
  totals->compare_s += Now() - t;
  if (!executed.ok()) return executed.status();
  counts.executed = executed->executed;
  counts.matches = executed->matches_found;
  totals->comparisons += counts.executed;
  totals->matches += counts.matches;

  {
    Span span("li.publish", query_id);
    li.MarkResolvedBatch(unresolved);
    // The engine compacts an outgrown durable link log after every
    // resolution; so does the replay, so both leave the same files.
    (void)runtime->MaybeCompactLinkLog();
  }
  return counts;
}

std::vector<EntityId> ResolvedClosure(const queryer::LinkIndex& li,
                                      const std::vector<EntityId>& entities) {
  std::vector<EntityId> out;
  for (EntityId e : entities) {
    for (EntityId m : li.Cluster(e)) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<EntityId> IdWindow(const queryer::Table& table, std::uint64_t low,
                               std::uint64_t high) {
  std::vector<EntityId> out;
  const std::size_t id_column = *table.schema().IndexOf("id");
  for (EntityId e = 0; e < table.num_rows(); ++e) {
    const auto id = std::stoull(std::string(table.ValueAt(e, id_column)));
    if (id >= low && id <= high) out.push_back(e);
  }
  return out;
}

void ReportLayers(const LayerTotals& t, Report* r) {
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  r->Set("sql.parse_s", t.parse_s, "s");
  r->Set("engine.prepare_s", t.prepare_s, "s");
  r->Set("engine.open_s", t.open_s, "s");
  r->Set("engine.emit_s", t.emit_s, "s");
  r->Set("engine.batches", static_cast<double>(t.batches), "count");
  r->Set("exec.morsels_scanned", static_cast<double>(t.morsels), "count");
  r->Set("exec.probe_morsels", static_cast<double>(t.probe_morsels), "count");
  r->Set("blocking.qbi_s", t.qbi_s, "s");
  r->Set("blocking.block_join_s", t.block_join_s, "s");
  r->Set("blocking.blocks", static_cast<double>(t.blocks), "count");
  r->Set("metablocking.s", t.metablocking_s, "s");
  r->Set("metablocking.comparisons_out", static_cast<double>(t.comparisons_out),
         "count");
  r->Set("metablocking.keep_ratio",
         ratio(static_cast<double>(t.comparisons_out), static_cast<double>(t.pairs_in)),
         "ratio");
  r->Set("matching.compare_s", t.compare_s, "s");
  r->Set("matching.comparisons", static_cast<double>(t.comparisons), "count");
  r->Set("matching.matches", static_cast<double>(t.matches), "count");
  r->Set("matching.match_ratio",
         ratio(static_cast<double>(t.matches), static_cast<double>(t.comparisons)),
         "ratio");
  r->Set("matching.us_per_comparison",
         ratio(t.compare_s * 1e6, static_cast<double>(t.comparisons)), "us");
  r->Set("matching.li_hit_ratio",
         ratio(static_cast<double>(t.already_resolved),
               static_cast<double>(t.query_entities)),
         "ratio");
  r->Set("replay.share",
         ratio(static_cast<double>(t.replayed), static_cast<double>(t.dedup_queries)),
         "ratio");
  for (const auto& [name, seconds] : SpanRecorder::Instance().SelfSeconds()) {
    r->Set("self." + name + "_s", seconds, "s");
  }
}

void ZeroMissing(const std::vector<MetricSpec>& specs, Report* report) {
  for (const MetricSpec& spec : specs) {
    if (!report->Has(spec.name)) report->Set(spec.name, 0, spec.unit);
  }
}

double MedianOf(std::vector<double> values) {
  Samples samples;
  samples.ms = std::move(values);
  return samples.Median();
}

std::size_t GroupCount(const queryer::LinkIndex& li,
                       const std::vector<EntityId>& entities) {
  std::vector<EntityId> reps;
  for (EntityId e : entities) reps.push_back(li.Representative(e));
  std::sort(reps.begin(), reps.end());
  return static_cast<std::size_t>(std::unique(reps.begin(), reps.end()) - reps.begin());
}

}  // namespace perfbench
