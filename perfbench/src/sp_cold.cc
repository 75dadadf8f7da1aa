// sp_cold: cold SP DEDUP queries over a DSD-like table, one in-process
// client, num_threads = 1.
//
// Every query selects five entities no earlier query of its pass selected,
// so each one pays the whole ER pipeline and the Link Index is written but
// never read warm. Comparison execution is most of the wall time here, so
// this is the workload a comparison-kernel change must move.

#include <cstdio>

#include "bench.h"
#include "datagen/scholarly.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kDsdTag = 1;
constexpr std::uint64_t kOrderTag = 2;

std::string ColdSql(std::uint64_t low) {
  return "SELECT DEDUP title, venue FROM dsd WHERE id BETWEEN " +
         std::to_string(low) + " AND " + std::to_string(low + 4);
}

struct PassRecord {
  std::vector<ErCounts> counts;
  std::vector<std::uint64_t> answers;
  std::uint64_t links = 0;
  double wall = 0;
};

}  // namespace

void RunSpCold(const Args& args, Report* report) {
  const std::size_t rows = args.tiny ? 400 : 3344;
  const std::size_t per_pass = args.tiny ? 20 : 200;
  const int setup_reps = args.tiny ? 2 : 11;

  auto dsd = queryer::datagen::MakeDsdLike(rows, DeriveSeed(args.seed, kDsdTag));
  // Disjoint five-id windows in a seeded order.
  std::vector<std::uint64_t> windows;
  for (std::uint64_t low = 0; low + 4 < rows; low += 5) windows.push_back(low);
  queryer::RandomEngine rng(DeriveSeed(args.seed, kOrderTag));
  rng.Shuffle(&windows);
  windows.resize(per_pass);
  std::vector<std::vector<EntityId>> selections;
  for (std::uint64_t low : windows) {
    selections.push_back(IdWindow(*dsd.table, low, low + 4));
  }

  // Set-up: RegisterTable + WarmIndices on a fresh engine, several times.
  queryer::EngineOptions options;
  options.num_threads = 1;
  std::unique_ptr<queryer::QueryEngine> engine;
  std::vector<double> setup, reg, warm;
  for (int rep = 0; rep < setup_reps; ++rep) {
    engine.reset();
    engine = std::make_unique<queryer::QueryEngine>(options);
    const double t0 = Now();
    queryer::Status status;
    {
      Span span("storage.register");
      status = engine->RegisterTable(dsd.table);
    }
    const double t1 = Now();
    if (status.ok()) {
      Span span("blocking.tbi_build");
      status = engine->WarmIndices("dsd");
    }
    const double t2 = Now();
    if (!status.ok()) {
      report->Fail("set-up: " + status.ToString());
      return;
    }
    setup.push_back(t2 - t0);
    reg.push_back(t1 - t0);
    warm.push_back(t2 - t1);
  }
  report->Set("setup_s", MedianOf(setup), "s");
  report->Set("storage.register_s", MedianOf(reg), "s");
  report->Set("blocking.tbi_build_s", MedianOf(warm), "s");
  auto runtime = *engine->GetRuntime("dsd");
  queryer::LinkIndex& li = runtime->link_index();

  // One pass over the seeded windows, from an empty Link Index. With
  // `traced`, each query's resolution is first replayed stage by stage and
  // the engine then answers from the Link Index.
  BestOf timing;
  auto run_pass = [&](bool traced, const PassRecord* reference, LayerTotals* totals,
                      PassRecord* out) {
    runtime->ResetLinkIndex();
    out->counts.assign(windows.size(), {});
    out->answers.assign(windows.size(), 0);
    const double start = Now();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const std::string sql = ColdSql(windows[i]);
      const std::vector<EntityId>& selection = selections[i];
      const std::uint64_t qid = NewQueryId();
      report->AddAttempted(1);
      Span span("query", qid);
      ErCounts replayed;
      if (traced) {
        auto counts = ReplayResolve(runtime.get(), selection, qid, totals);
        if (!counts.ok()) {
          report->Fail("replay of " + sql + ": " + counts.status().ToString());
          continue;
        }
        replayed = *counts;
        ++totals->replayed;
        ++totals->dedup_queries;
      }
      QueryRun run = RunQuery(engine.get(), sql, qid, traced ? totals : nullptr);
      if (!run.status.ok()) {
        report->Fail(sql + ": " + run.status.ToString());
        continue;
      }
      if (!traced) timing.Add(i, run.latency_s);
      report->Check(!traced || run.stats.comparisons_executed == 0,
                    sql + ": the replay left comparisons to the engine");
      report->Check(run.rows == GroupCount(li, selection),
                    sql + ": answer rows differ from the Link Index's groups");
      const ErCounts counts = traced ? replayed : CountsOf(run.stats);
      out->counts[i] = counts;
      out->answers[i] = run.fingerprint;
      if (reference != nullptr) {
        report->Check(counts == reference->counts[i],
                      sql + ": counts " + counts.ToString() + " differ from " +
                          reference->counts[i].ToString());
        report->Check(run.fingerprint == reference->answers[i],
                      sql + ": answer differs between passes");
      }
    }
    out->wall = Now() - start;
    if (!traced) timing.EndPass();
    out->links = LinkFingerprint(li);
  };

  const double start = Now();
  PassRecord first;
  run_pass(false, nullptr, nullptr, &first);
  const LinkScore score = ScoreLinks(li, dsd.ground_truth);
  const std::size_t links = li.num_links();
  std::uint64_t comparisons = 0;
  for (const ErCounts& c : first.counts) comparisons += c.executed;

  if (!args.trace) {
    // Further passes while the run's time lasts; each must repeat the
    // first exactly.
    while (timing.More(start, args.seconds)) {
      PassRecord again;
      run_pass(false, &first, nullptr, &again);
      report->Check(again.links == first.links, "Link Index differs between passes");
    }
  } else {
    LayerTotals totals;
    const double cpu0 = CpuSeconds();
    PassRecord traced;
    SpanRecorder::Enable();
    run_pass(true, &first, &totals, &traced);
    SpanRecorder::Disable();
    report->Check(traced.links == first.links,
                  "link-set fingerprint differs between traced and untraced runs");
    report->Set("parallel.cpu_per_wall", (CpuSeconds() - cpu0) / traced.wall, "ratio");
    report->Set("obs.trace_overhead_ratio", traced.wall / first.wall, "ratio");
    report->Set("matching.links", static_cast<double>(li.num_links()), "count");
    ReportLayers(totals, report);
  }

  const Samples cold = timing.Best();
  report->Set("cold_p50_ms", cold.Quantile(0.50), "ms");
  report->Set("cold_p95_ms", cold.Quantile(0.95), "ms");
  report->AddSampleCount("cold", cold.count());
  report->AddSampleCount("passes", timing.passes());
  report->Set("qps", cold.Rate(), "1/s");
  report->Set("link_recall", score.recall(), "ratio");
  report->Set("link_precision", score.precision(), "ratio");
  report->Set("links_per_pass", static_cast<double>(links), "count");
  report->Set("comparisons_per_pass", static_cast<double>(comparisons), "count");
}

}  // namespace perfbench
