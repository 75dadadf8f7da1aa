// spj_explore: the paper's SPJ exploration over PPL ⋈ OAO, run after a
// restart from snapshots. One in-process client, num_threads = 4, a durable
// Link Index under a temporary data_dir.
//
// About 70% of the queries are cold DEDUP joins over fresh five-person
// windows (the AES planner deduplicates the PPL selection, then resolves
// the joining OAO rows inside a Dirty-Right Deduplicate-Join), 15% revisit
// an earlier window (as the join or as an SP DEDUP: Link Index reads) and
// 15% are plain joins and filters. Blocking plus meta-blocking is about
// half of a cold query here, so this is the workload a meta-blocking or
// Link Index change must move.

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include <unistd.h>

#include "bench.h"
#include "datagen/orgs.h"
#include "datagen/people.h"
#include "exec/hash_join.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kOaoTag = 11;
constexpr std::uint64_t kPplTag = 12;
constexpr std::uint64_t kMixTag = 13;

enum class Kind { kCold, kWarm, kPlain };

struct SpjQuery {
  Kind kind;
  std::string sql;
  bool join = false;
  std::vector<EntityId> selection;  // PPL window of DEDUP queries.
  std::uint64_t expected_rows = 0;  // Plain queries only.
};

std::string DedupJoinSql(std::uint64_t low) {
  return "SELECT DEDUP ppl.surname, oao.name FROM ppl INNER JOIN oao ON "
         "ppl.org = oao.name WHERE ppl.id BETWEEN " +
         std::to_string(low) + " AND " + std::to_string(low + 4);
}

// The generated workload: class shares are fixed, the order and the
// parameters come from the seed.
std::vector<SpjQuery> MakeQueries(const queryer::Table& ppl, const queryer::Table& oao,
                                  std::size_t count, std::uint64_t seed) {
  queryer::RandomEngine rng(seed);
  const std::size_t n_cold = count * 70 / 100;
  const std::size_t n_warm = count * 15 / 100;
  std::vector<Kind> kinds(n_cold, Kind::kCold);
  kinds.insert(kinds.end(), n_warm, Kind::kWarm);
  kinds.insert(kinds.end(), count - n_cold - n_warm, Kind::kPlain);
  rng.Shuffle(&kinds);
  // A warm query needs an earlier cold one.
  std::swap(kinds[0], *std::find(kinds.begin(), kinds.end(), Kind::kCold));

  std::vector<std::uint64_t> windows;
  for (std::uint64_t low = 0; low + 4 < ppl.num_rows(); low += 5) windows.push_back(low);
  rng.Shuffle(&windows);

  const std::size_t org = *ppl.schema().IndexOf("org");
  const std::size_t surname = *ppl.schema().IndexOf("surname");
  const std::size_t name = *oao.schema().IndexOf("name");
  // Plain-join answers are counted here from the generated rows: equal
  // join values up to case, empty values never join.
  std::unordered_map<std::string, std::uint64_t> oao_names;
  for (EntityId e = 0; e < oao.num_rows(); ++e) {
    if (!oao.ValueAt(e, name).empty()) ++oao_names[Lower(oao.ValueAt(e, name))];
  }

  std::vector<SpjQuery> queries;
  std::vector<std::uint64_t> issued;
  std::size_t next_window = 0;
  for (Kind kind : kinds) {
    SpjQuery q;
    q.kind = kind;
    if (kind == Kind::kCold) {
      const std::uint64_t low = windows[next_window++];
      issued.push_back(low);
      q.sql = DedupJoinSql(low);
      q.join = true;
      q.selection = IdWindow(ppl, low, low + 4);
    } else if (kind == Kind::kWarm) {
      const std::uint64_t low = rng.Pick(issued);
      q.selection = IdWindow(ppl, low, low + 4);
      q.join = rng.Bernoulli(0.5);
      q.sql = q.join ? DedupJoinSql(low)
                     : "SELECT DEDUP surname, given_name FROM ppl WHERE id BETWEEN " +
                           std::to_string(low) + " AND " + std::to_string(low + 4);
    } else if (rng.Bernoulli(0.5)) {
      const auto low = static_cast<std::uint64_t>(
          rng.Uniform(0, static_cast<std::int64_t>(ppl.num_rows()) - 50));
      q.sql = "SELECT ppl.surname, oao.name FROM ppl INNER JOIN oao ON "
              "ppl.org = oao.name WHERE ppl.id BETWEEN " +
              std::to_string(low) + " AND " + std::to_string(low + 49);
      for (EntityId e : IdWindow(ppl, low, low + 49)) {
        auto it = oao_names.find(Lower(ppl.ValueAt(e, org)));
        if (!ppl.ValueAt(e, org).empty() && it != oao_names.end()) {
          q.expected_rows += it->second;
        }
      }
    } else {
      std::string_view value;
      while (value.empty() || value.find('\'') != std::string_view::npos) {
        value = ppl.ValueAt(static_cast<EntityId>(rng.Uniform(
                                0, static_cast<std::int64_t>(ppl.num_rows()) - 1)),
                            surname);
      }
      q.sql = "SELECT given_name, surname, org FROM ppl WHERE surname = '" +
              std::string(value) + "'";
      for (EntityId e = 0; e < ppl.num_rows(); ++e) {
        if (EqualsNoCase(ppl.ValueAt(e, surname), value)) ++q.expected_rows;
      }
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

struct PassRecord {
  std::vector<ErCounts> counts;
  std::vector<std::uint64_t> answers;
  std::vector<std::string> plans;
  std::uint64_t links = 0;
  double wall = 0;
};

}  // namespace

void RunSpjExplore(const Args& args, Report* report) {
  const std::size_t oao_rows = args.tiny ? 300 : 2773;
  const std::size_t ppl_rows = args.tiny ? 1000 : 10000;
  const std::size_t per_pass = args.tiny ? 40 : 300;
  const int setup_reps = args.tiny ? 2 : 11;

  auto oao = queryer::datagen::MakeOrganisations(oao_rows, DeriveSeed(args.seed, kOaoTag));
  auto ppl = queryer::datagen::MakePeople(
      ppl_rows, queryer::datagen::OrganisationNamePool(oao), DeriveSeed(args.seed, kPplTag));
  const std::vector<SpjQuery> queries =
      MakeQueries(*ppl.table, *oao.table, per_pass, DeriveSeed(args.seed, kMixTag));

  const std::filesystem::path data_dir = std::filesystem::absolute(
      std::filesystem::path(args.work_dir) / ("spj-" + std::to_string(getpid())));
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);
  // Declared before every engine, so it runs after they closed their files.
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_data_dir{data_dir};
  queryer::EngineOptions options;
  options.num_threads = 4;
  options.data_dir = data_dir.string();

  // Untimed preparation: build the indices once and snapshot them.
  {
    queryer::QueryEngine engine(options);
    queryer::Status status = engine.RegisterTable(ppl.table);
    if (status.ok()) status = engine.RegisterTable(oao.table);
    if (status.ok()) status = engine.WarmIndices("ppl");
    if (status.ok()) status = engine.WarmIndices("oao");
    if (status.ok()) status = engine.SaveSnapshots();
    if (!status.ok()) {
      report->Fail("preparation: " + status.ToString());
      return;
    }
  }

  // Set-up: a restart, i.e. both tables restored from their snapshots.
  std::unique_ptr<queryer::QueryEngine> engine;
  auto restore = [&]() -> queryer::Status {
    engine = std::make_unique<queryer::QueryEngine>(options);
    queryer::Status status = engine->RegisterTableFromSnapshots("ppl");
    return status.ok() ? engine->RegisterTableFromSnapshots("oao") : status;
  };
  std::vector<double> setup;
  for (int rep = 0; rep < setup_reps; ++rep) {
    engine.reset();  // Closes the previous restart's files, untimed.
    const double t0 = Now();
    queryer::Status status = restore();
    setup.push_back(Now() - t0);
    if (!status.ok()) {
      report->Fail("restore: " + status.ToString());
      return;
    }
  }
  report->Set("setup_s", MedianOf(setup), "s");
  report->Set("persist.restore_s", MedianOf(setup), "s");
  auto ppl_rt = *engine->GetRuntime("ppl");
  auto oao_rt = *engine->GetRuntime("oao");
  const std::size_t ppl_org = *ppl.table->schema().IndexOf("org");
  const std::size_t oao_name = *oao.table->schema().IndexOf("name");

  // Replays a DEDUP query's resolution through the public stage calls.
  auto replay = [&](const SpjQuery& q, std::uint64_t qid, LayerTotals* totals,
                    ErCounts* counts) -> queryer::Status {
    if (!q.join) {
      QUERYER_ASSIGN_OR_RETURN(*counts, ReplayResolve(ppl_rt.get(), q.selection, qid, totals));
      return queryer::Status::OK();
    }
    // Deduplicate(ppl) first; its DR_E's join keys then select the OAO rows
    // the Dirty-Right Deduplicate-Join resolves (Alg. 1, lines 4-5).
    QUERYER_ASSIGN_OR_RETURN(*counts, ReplayResolve(ppl_rt.get(), q.selection, qid, totals));
    std::unordered_set<std::string> keys;
    for (EntityId e : ResolvedClosure(ppl_rt->link_index(), q.selection)) {
      std::string key = queryer::CanonicalJoinKey(ppl.table->ValueAt(e, ppl_org));
      if (!key.empty()) keys.insert(std::move(key));
    }
    std::vector<EntityId> joining;
    for (EntityId e = 0; e < oao.table->num_rows(); ++e) {
      if (keys.count(queryer::CanonicalJoinKey(oao.table->ValueAt(e, oao_name))) > 0) {
        joining.push_back(e);
      }
    }
    QUERYER_ASSIGN_OR_RETURN(ErCounts dirty,
                             ReplayResolve(oao_rt.get(), joining, qid, totals));
    counts->Accumulate(dirty);
    return queryer::Status::OK();
  };
  auto replayable = [](const SpjQuery& q, const std::string& plan) {
    if (!q.join) return plan.find("Deduplicate(ppl)") != std::string::npos;
    return plan.find("DedupJoin[Dirty-Right](ppl.org = oao.name)") != std::string::npos &&
           plan.find("Deduplicate(ppl)") != std::string::npos &&
           plan.find("Deduplicate(oao)") == std::string::npos;
  };

  BestOf timing;
  auto run_pass = [&](bool traced, const PassRecord* reference, LayerTotals* totals,
                      PassRecord* out) {
    ppl_rt->ResetLinkIndex();
    oao_rt->ResetLinkIndex();
    out->counts.assign(queries.size(), {});
    out->answers.assign(queries.size(), 0);
    out->plans.assign(queries.size(), "");
    const double start = Now();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const SpjQuery& q = queries[i];
      const bool dedup = q.kind != Kind::kPlain;
      const std::uint64_t qid = NewQueryId();
      report->AddAttempted(1);
      Span span("query", qid);
      ErCounts replayed;
      bool was_replayed = false;
      if (traced && dedup) {
        ++totals->dedup_queries;
        if (reference != nullptr && replayable(q, reference->plans[i])) {
          queryer::Status status = replay(q, qid, totals, &replayed);
          if (!status.ok()) {
            report->Fail("replay of " + q.sql + ": " + status.ToString());
            continue;
          }
          was_replayed = true;
          ++totals->replayed;
        }
      }
      QueryRun run = RunQuery(engine.get(), q.sql, qid, traced ? totals : nullptr);
      if (!run.status.ok()) {
        report->Fail(q.sql + ": " + run.status.ToString());
        continue;
      }
      if (!traced) timing.Add(i, run.latency_s);
      if (!dedup) {
        report->Check(run.rows == q.expected_rows,
                      q.sql + ": " + std::to_string(run.rows) + " rows, expected " +
                          std::to_string(q.expected_rows));
      } else if (!q.join) {
        report->Check(run.rows == GroupCount(ppl_rt->link_index(), q.selection),
                      q.sql + ": answer rows differ from the Link Index's groups");
      }
      if (was_replayed) {
        report->Check(run.stats.comparisons_executed == 0,
                      q.sql + ": the replay left comparisons to the engine");
      }
      const ErCounts counts = was_replayed ? replayed : CountsOf(run.stats);
      out->counts[i] = counts;
      out->answers[i] = run.fingerprint;
      out->plans[i] = run.plan_text;
      if (reference != nullptr) {
        if (!traced || was_replayed || !dedup) {
          report->Check(counts == reference->counts[i],
                        q.sql + ": counts " + counts.ToString() + " differ from " +
                            reference->counts[i].ToString());
        }
        report->Check(run.fingerprint == reference->answers[i],
                      q.sql + ": answer differs between passes");
      }
    }
    out->wall = Now() - start;
    if (!traced) timing.EndPass();
    out->links = LinkFingerprint(ppl_rt->link_index()) * 31 +
                 LinkFingerprint(oao_rt->link_index());
  };

  const double start = Now();
  PassRecord first;
  run_pass(false, nullptr, nullptr, &first);
  LinkScore score = ScoreLinks(ppl_rt->link_index(), ppl.ground_truth);
  score.Accumulate(ScoreLinks(oao_rt->link_index(), oao.ground_truth));

  if (!args.trace) {
    while (timing.More(start, args.seconds)) {
      PassRecord again;
      run_pass(false, &first, nullptr, &again);
      report->Check(again.links == first.links, "Link Index differs between passes");
    }
  } else {
    LayerTotals totals;
    const std::uint64_t log0 = queryer::GlobalEngineMetrics().li_log_bytes->Value();
    const double cpu0 = CpuSeconds();
    PassRecord traced;
    SpanRecorder::Enable();
    run_pass(true, &first, &totals, &traced);
    SpanRecorder::Disable();
    report->Check(traced.links == first.links,
                  "link-set fingerprint differs between traced and untraced runs");
    const double links = static_cast<double>(ppl_rt->link_index().num_links() +
                                             oao_rt->link_index().num_links());
    const double log_bytes =
        static_cast<double>(queryer::GlobalEngineMetrics().li_log_bytes->Value() - log0);
    report->Set("parallel.cpu_per_wall", (CpuSeconds() - cpu0) / traced.wall, "ratio");
    report->Set("obs.trace_overhead_ratio", traced.wall / first.wall, "ratio");
    report->Set("matching.links", links, "count");
    report->Set("persist.log_bytes", log_bytes, "bytes");
    report->Set("persist.log_bytes_per_link", links == 0 ? 0 : log_bytes / links, "bytes");
    ReportLayers(totals, report);
  }

  // The durable Link Index must survive another restart unchanged.
  const std::size_t ppl_links = ppl_rt->link_index().num_links();
  const std::size_t oao_links = oao_rt->link_index().num_links();
  ppl_rt.reset();
  oao_rt.reset();
  engine.reset();
  queryer::Status status = restore();
  report->AddAttempted(1);
  if (!status.ok()) {
    report->Fail("reopen: " + status.ToString());
  } else {
    report->Check((*engine->GetRuntime("ppl"))->link_index().num_links() == ppl_links &&
                      (*engine->GetRuntime("oao"))->link_index().num_links() == oao_links,
                  "reopening data_dir recovered a different num_links");
  }

  std::vector<bool> is_cold, is_warm, is_plain;
  for (const SpjQuery& q : queries) {
    is_cold.push_back(q.kind == Kind::kCold);
    is_warm.push_back(q.kind == Kind::kWarm);
    is_plain.push_back(q.kind == Kind::kPlain);
  }
  const Samples cold = timing.Best(is_cold);
  const Samples warm = timing.Best(is_warm);
  const Samples plain = timing.Best(is_plain);
  report->Set("cold_p50_ms", cold.Quantile(0.50), "ms");
  report->Set("cold_p95_ms", cold.Quantile(0.95), "ms");
  report->Set("warm_p50_ms", warm.Quantile(0.50), "ms");
  report->Set("plain_p50_ms", plain.Quantile(0.50), "ms");
  report->AddSampleCount("cold", cold.count());
  report->AddSampleCount("warm", warm.count());
  report->AddSampleCount("plain", plain.count());
  report->AddSampleCount("passes", timing.passes());
  report->Set("qps", timing.Best().Rate(), "1/s");
  report->Set("link_recall", score.recall(), "ratio");
  report->Set("link_precision", score.precision(), "ratio");
}

}  // namespace perfbench
