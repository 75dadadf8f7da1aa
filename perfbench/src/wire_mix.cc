// wire_mix: server and relational traffic with no ER in the timed loop.
// Two Client connections over loopback to an in-process QueryServer
// (num_threads = 1, max_concurrent_queries = 2), each a closed loop over a
// seeded mix of OPEN + NEXT paginations (64- or 1,024-row pages): selective
// filters on OAGP, projections, the OAGP ⋈ OAGV join, full scans closed
// after their first page and, every 8th operation, an EXECUTE of a hot
// DEDUP statement whose answer is already in the result cache.
//
// Each connection keeps one client thread and one server thread busy, so
// two clients load the four-core host without measuring its scheduler.
// A comparison-kernel or meta-blocking change should not move this
// workload; framing, JSON, the caches, cursor emit and the columnar
// scan/filter/join path should.

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "datagen/scholarly.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/query_server.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kDsdTag = 21;
constexpr std::uint64_t kOagpTag = 22;
constexpr std::uint64_t kOagvTag = 23;
constexpr std::uint64_t kUniverseTag = 24;
constexpr std::uint64_t kPoolTag = 25;
constexpr std::uint64_t kClientTag = 26;

constexpr std::size_t kPageSizes[] = {64, 1024};

enum class Shape { kDrain, kFirstPage, kExecute };

// One statement of the pool, with the answers the wire must reproduce.
struct Statement {
  std::string sql;
  Shape shape = Shape::kDrain;
  std::uint64_t expected_rows = 0;      // kDrain: counted from the tables.
  std::uint64_t fingerprint = 0;        // kDrain / kExecute: in-process answer.
  std::uint64_t page_fingerprint[2] = {0, 0};  // kFirstPage, per page size.
};

struct Op {
  std::size_t statement;
  std::size_t page;  // Index into kPageSizes.
};

struct ClientLog {
  std::vector<Op> ops;
  std::vector<double> latency;  // Seconds, per op.
  std::uint64_t rows = 0;
  Samples open_ms, next_ms, execute_ms;  // Traced runs only.
  std::vector<std::string> failures;
};

struct Pool {
  std::vector<Statement> statements;
  std::vector<std::size_t> filters, projections, scans, hot;
  std::size_t join = 0;
};

Pool MakePool(const queryer::Table& dsd, const queryer::Table& oagp,
              const queryer::Table& oagv, bool tiny, std::uint64_t seed) {
  queryer::RandomEngine rng(seed);
  Pool pool;
  auto add = [&](Statement s, std::vector<std::size_t>* group) {
    pool.statements.push_back(std::move(s));
    if (group != nullptr) group->push_back(pool.statements.size() - 1);
    return pool.statements.size() - 1;
  };
  const std::size_t venue = *oagp.schema().IndexOf("venue");
  for (int i = 0; i < 16; ++i) {
    std::string_view v;
    while (v.empty() || v.find('\'') != std::string_view::npos) {
      v = oagp.ValueAt(static_cast<EntityId>(rng.Uniform(
                           0, static_cast<std::int64_t>(oagp.num_rows()) - 1)),
                       venue);
    }
    Statement s;
    s.sql = "SELECT id, title, year FROM oagp WHERE venue = '" + std::string(v) + "'";
    for (EntityId e = 0; e < oagp.num_rows(); ++e) {
      if (EqualsNoCase(oagp.ValueAt(e, venue), v)) ++s.expected_rows;
    }
    add(std::move(s), &pool.filters);
  }
  add({"SELECT title, year FROM dsd", Shape::kDrain, dsd.num_rows()}, &pool.projections);
  add({"SELECT title, rank FROM oagv", Shape::kDrain, oagv.num_rows()}, &pool.projections);

  // The join's answer size, counted from the generated rows (equal values
  // up to case; empty values never join).
  Statement join;
  join.sql = "SELECT oagp.title, oagv.title FROM oagp INNER JOIN oagv ON oagp.venue = oagv.title";
  const std::size_t title = *oagv.schema().IndexOf("title");
  std::unordered_map<std::string, std::uint64_t> venues;
  for (EntityId e = 0; e < oagv.num_rows(); ++e) {
    if (!oagv.ValueAt(e, title).empty()) ++venues[Lower(oagv.ValueAt(e, title))];
  }
  for (EntityId e = 0; e < oagp.num_rows(); ++e) {
    auto it = venues.find(Lower(oagp.ValueAt(e, venue)));
    if (!oagp.ValueAt(e, venue).empty() && it != venues.end()) join.expected_rows += it->second;
  }
  pool.join = add(std::move(join), nullptr);

  add({"SELECT * FROM oagp", Shape::kFirstPage}, &pool.scans);
  add({"SELECT * FROM oagv", Shape::kFirstPage}, &pool.scans);

  const std::uint64_t width = tiny ? 4 : 10;
  for (int i = 0; i < 4; ++i) {
    const auto low = static_cast<std::uint64_t>(
        rng.Uniform(0, static_cast<std::int64_t>(dsd.num_rows() - width - 1)));
    add({"SELECT DEDUP title, venue FROM dsd WHERE id BETWEEN " + std::to_string(low) +
             " AND " + std::to_string(low + width - 1),
         Shape::kExecute},
        &pool.hot);
  }
  return pool;
}

// A client's block of operations, repeated every round: an EXECUTE of a hot
// statement at every 8th position and fixed shares of the plain shapes (55%
// filters, 25% projections, 2% joins, 18% first-page scans) and of the two
// page sizes, in a seeded order.
std::vector<Op> MakeBlock(const Pool& pool, std::size_t size, std::uint64_t seed) {
  queryer::RandomEngine rng(seed);
  const std::size_t plain = size - size / 8;
  const std::size_t joins = std::max<std::size_t>(1, plain * 2 / 100);
  const std::size_t projections = plain * 25 / 100;
  const std::size_t scans = plain * 18 / 100;
  std::vector<std::size_t> plain_ops;
  for (std::size_t i = 0; i < plain; ++i) {
    plain_ops.push_back(i < joins                          ? pool.join
                        : i < joins + projections          ? rng.Pick(pool.projections)
                        : i < joins + projections + scans  ? rng.Pick(pool.scans)
                                                           : rng.Pick(pool.filters));
  }
  rng.Shuffle(&plain_ops);
  std::vector<std::size_t> pages(size);
  for (std::size_t i = 0; i < size; ++i) pages[i] = i % 2;
  rng.Shuffle(&pages);
  std::vector<Op> block;
  for (std::size_t k = 0, next = 0; k < size; ++k) {
    const std::size_t statement = k % 8 == 7 ? rng.Pick(pool.hot) : plain_ops[next++];
    block.push_back({statement, pages[k]});
  }
  return block;
}

// In-process answer of a first page: the same rows a wire NEXT returns.
queryer::Result<std::uint64_t> FirstPageFingerprint(queryer::QueryEngine* engine,
                                                    const std::string& sql,
                                                    std::size_t rows) {
  QUERYER_ASSIGN_OR_RETURN(auto cursor, engine->ExecuteStream(sql));
  QUERYER_ASSIGN_OR_RETURN(auto page, cursor->Fetch(rows));
  RowFingerprint fp;
  for (const auto& row : page) fp.AddRow(row);
  return fp.value();
}

// Runs one operation over the wire; returns its latency (first frame to
// last row) or records a failure.
double WireOp(queryer::Client* client, const Statement& s, std::size_t page_rows,
              bool traced, ClientLog* log) {
  const std::uint64_t qid = NewQueryId();
  Span span("query", qid);
  auto fail = [&](const std::string& what) {
    log->failures.push_back(s.sql + ": " + what);
    return -1.0;
  };
  const double t0 = Now();
  if (s.shape == Shape::kExecute) {
    auto result = [&] {
      Span verb("wire.execute", qid);
      return client->Execute(s.sql);
    }();
    const double t1 = Now();
    if (!result.ok()) return fail(result.status().ToString());
    if (traced) log->execute_ms.Add(t1 - t0);
    if (!result->cached) return fail("hot statement missed the result cache");
    RowFingerprint fp;
    for (const auto& row : result->rows) fp.AddRow(row);
    if (fp.value() != s.fingerprint) return fail("wire answer differs from in-process answer");
    log->rows += result->rows.size();
    return t1 - t0;
  }

  auto open = [&] {
    Span verb("wire.open", qid);
    return client->Open(s.sql);
  }();
  double t = Now();
  if (traced) log->open_ms.Add(t - t0);
  if (!open.ok()) return fail(open.status().ToString());
  RowFingerprint fp;
  bool done = false;     // The server released the cursor.
  bool stopped = false;  // No further page is wanted.
  while (!stopped) {
    const double tn = Now();
    auto page = [&] {
      Span verb("wire.next", qid);
      return client->Next(open->cursor, page_rows);
    }();
    t = Now();
    if (traced) log->next_ms.Add(t - tn);
    if (!page.ok()) return fail(page.status().ToString());
    for (const auto& row : page->rows) fp.AddRow(row);
    done = page->done;
    stopped = done || s.shape == Shape::kFirstPage;
  }
  const double latency = t - t0;
  if (s.shape == Shape::kFirstPage && !done) {
    queryer::Status closed = [&] {
      Span verb("wire.close", qid);
      return client->Close(open->cursor);
    }();
    if (!closed.ok()) return fail(closed.ToString());
  }
  if (s.shape == Shape::kFirstPage) {
    const std::size_t which = page_rows == kPageSizes[0] ? 0 : 1;
    if (fp.value() != s.page_fingerprint[which]) {
      return fail("first page differs from in-process first page");
    }
  } else {
    if (fp.rows() != s.expected_rows) {
      return fail(std::to_string(fp.rows()) + " rows, expected " +
                  std::to_string(s.expected_rows));
    }
    if (fp.value() != s.fingerprint) return fail("wire answer differs from in-process answer");
  }
  log->rows += fp.rows();
  return latency;
}

}  // namespace

void RunWireMix(const Args& args, Report* report) {
  const std::size_t dsd_rows = args.tiny ? 400 : 3344;
  const std::size_t oagp_rows = args.tiny ? 2000 : 50000;
  const std::size_t oagv_rows = args.tiny ? 400 : 6500;
  const int setup_reps = args.tiny ? 2 : 3;

  const auto universe =
      queryer::datagen::MakeVenueUniverse(400, DeriveSeed(args.seed, kUniverseTag));
  auto dsd = queryer::datagen::MakeDsdLike(dsd_rows, DeriveSeed(args.seed, kDsdTag));
  auto oagp = queryer::datagen::MakeOagpLike(oagp_rows, universe,
                                             DeriveSeed(args.seed, kOagpTag));
  auto oagv = queryer::datagen::MakeOagvLike(oagv_rows, universe,
                                             DeriveSeed(args.seed, kOagvTag));
  Pool pool = MakePool(*dsd.table, *oagp.table, *oagv.table, args.tiny,
                       DeriveSeed(args.seed, kPoolTag));

  // Set-up: register, warm every index and start the server, several times.
  queryer::EngineOptions options;
  options.num_threads = 1;
  options.max_concurrent_queries = 2;
  options.admission_timeout = 30;  // A shed session fails its operation.
  std::unique_ptr<queryer::QueryEngine> engine;
  std::unique_ptr<queryer::QueryServer> server;
  std::vector<double> setup, reg, warm_indices;
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    engine.reset();
    const double t0 = Now();
    engine = std::make_unique<queryer::QueryEngine>(options);
    queryer::Status status;
    for (const auto& table : {dsd.table, oagp.table, oagv.table}) {
      if (status.ok()) status = engine->RegisterTable(table);
    }
    const double t1 = Now();
    for (const char* name : {"dsd", "oagp", "oagv"}) {
      if (status.ok()) status = engine->WarmIndices(name);
    }
    const double t2 = Now();
    server = std::make_unique<queryer::QueryServer>(engine.get());
    if (status.ok()) status = server->Start();
    setup.push_back(Now() - t0);
    reg.push_back(t1 - t0);
    warm_indices.push_back(t2 - t1);
    if (!status.ok()) {
      report->Fail("set-up: " + status.ToString());
      return;
    }
  }
  report->Set("setup_s", MedianOf(setup), "s");
  report->Set("storage.register_s", MedianOf(reg), "s");
  report->Set("blocking.tbi_build_s", MedianOf(warm_indices), "s");

  // Untimed preparation: in-process reference answers, and the hot DEDUP
  // statements resolved and cached (a later resolution moves the Link Index
  // epoch and invalidates earlier entries, hence the second round).
  std::vector<queryer::Client> clients;
  for (int c = 0; c < 2; ++c) {
    auto client = queryer::Client::Connect("127.0.0.1", server->port(),
                                           "bench-" + std::to_string(c));
    if (!client.ok()) {
      report->Fail("connect: " + client.status().ToString());
      return;
    }
    clients.push_back(std::move(client).MoveValueUnsafe());
  }
  for (std::size_t h : pool.hot) {
    auto result = clients[0].Execute(pool.statements[h].sql);
    if (!result.ok()) {
      report->Fail(pool.statements[h].sql + ": " + result.status().ToString());
      return;
    }
  }
  for (Statement& s : pool.statements) {
    if (s.shape == Shape::kFirstPage) {
      for (std::size_t i = 0; i < 2; ++i) {
        auto fp = FirstPageFingerprint(engine.get(), s.sql, kPageSizes[i]);
        if (!fp.ok()) {
          report->Fail(s.sql + ": " + fp.status().ToString());
          return;
        }
        s.page_fingerprint[i] = *fp;
      }
      continue;
    }
    QueryRun run = RunQuery(engine.get(), s.sql, 0, nullptr);
    if (!run.status.ok()) {
      report->Fail(s.sql + ": " + run.status.ToString());
      return;
    }
    s.fingerprint = run.fingerprint;
    if (s.shape == Shape::kDrain) {
      report->Check(run.rows == s.expected_rows,
                    s.sql + ": " + std::to_string(run.rows) + " rows in-process, expected " +
                        std::to_string(s.expected_rows));
    }
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t h : pool.hot) {
      auto result = clients[0].Execute(pool.statements[h].sql);
      report->Check(result.ok() && (round == 0 || result->cached),
                    pool.statements[h].sql + ": not served from the result cache");
    }
  }
  LinkScore score;
  {
    auto runtime = *engine->GetRuntime("dsd");
    score = ScoreLinks(runtime->link_index(), dsd.ground_truth);
  }

  // The timed loop: rounds in which both clients run their blocks, while
  // the run's time lasts.
  const std::size_t block_size = args.tiny ? 80 : 600;
  std::vector<std::vector<Op>> blocks;
  std::vector<bool> is_plain, is_warm;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    blocks.push_back(MakeBlock(pool, block_size, DeriveSeed(args.seed, kClientTag + c)));
    for (const Op& op : blocks.back()) {
      const bool hot = pool.statements[op.statement].shape == Shape::kExecute;
      is_plain.push_back(!hot);
      is_warm.push_back(hot);
    }
  }
  // One round; latencies go to `timing` at position client * block_size + k.
  auto run_round = [&](bool traced, BestOf* timing, std::vector<ClientLog>* logs) {
    logs->assign(clients.size(), ClientLog{});
    const double start = Now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = (*logs)[c];
        for (const Op& op : blocks[c]) {
          const double latency = WireOp(&clients[c], pool.statements[op.statement],
                                        kPageSizes[op.page], traced, &log);
          if (latency < 0) break;  // Failure recorded; the connection state is unknown.
          log.ops.push_back(op);
          log.latency.push_back(latency);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = Now() - start;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      const ClientLog& log = (*logs)[c];
      for (const std::string& f : log.failures) report->Fail(f);
      report->AddAttempted(log.ops.size() + log.failures.size());
      if (timing == nullptr) continue;
      for (std::size_t k = 0; k < log.latency.size(); ++k) {
        timing->Add(c * block_size + k, log.latency[k]);
      }
    }
    if (timing != nullptr) timing->EndPass();
    return wall;
  };

  const queryer::ServerMetrics& sm = queryer::GlobalServerMetrics();
  const std::uint64_t bytes0 = sm.bytes_written->Value();
  const std::uint64_t rc_hits0 = sm.result_cache_hits->Value();
  const std::uint64_t rc_miss0 = sm.result_cache_misses->Value();
  const std::uint64_t pc_hits0 = sm.plan_cache_hits->Value();
  const std::uint64_t pc_miss0 = sm.plan_cache_misses->Value();
  BestOf timing;
  std::vector<ClientLog> first;
  const double start = Now();
  const double untraced_wall = run_round(false, &timing, &first);
  const std::uint64_t bytes = sm.bytes_written->Value() - bytes0;
  std::uint64_t rows = 0;
  for (const ClientLog& log : first) rows += log.rows;
  if (!args.trace) {
    std::vector<ClientLog> logs;
    while (timing.More(start, args.seconds)) run_round(false, &timing, &logs);
  }

  const Samples plain = timing.Best(is_plain);
  const Samples warm = timing.Best(is_warm);
  report->Set("plain_p50_ms", plain.Quantile(0.50), "ms");
  report->Set("plain_p99_ms", plain.Quantile(0.99), "ms");
  report->Set("warm_p50_ms", warm.Quantile(0.50), "ms");
  report->AddSampleCount("plain", plain.count());
  report->AddSampleCount("warm", warm.count());
  report->AddSampleCount("passes", timing.passes());
  // Both clients loop concurrently, so the throughput is the sum of their
  // closed-loop rates; each client's answers have the same rows every round.
  double qps = 0, rows_per_s = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    std::vector<bool> mine(clients.size() * block_size, false);
    std::fill(mine.begin() + c * block_size, mine.begin() + (c + 1) * block_size, true);
    const Samples own = timing.Best(mine);
    qps += own.Rate();
    rows_per_s += own.count() == 0 ? 0
                                   : static_cast<double>(first[c].rows) * own.Rate() /
                                         static_cast<double>(own.count());
  }
  report->Set("qps", qps, "1/s");
  report->Set("rows_per_s", rows_per_s, "rows/s");
  report->Set("link_recall", score.recall(), "ratio");
  report->Set("link_precision", score.precision(), "ratio");

  if (args.trace) {
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
    };
    report->Set("server.bytes_per_row",
                rows == 0 ? 0 : static_cast<double>(bytes) / static_cast<double>(rows), "bytes");
    report->Set("server.result_cache_hit_ratio",
                ratio(sm.result_cache_hits->Value() - rc_hits0,
                      sm.result_cache_misses->Value() - rc_miss0),
                "ratio");
    report->Set("server.plan_cache_hit_ratio",
                ratio(sm.plan_cache_hits->Value() - pc_hits0,
                      sm.plan_cache_misses->Value() - pc_miss0),
                "ratio");

    std::vector<ClientLog> traced;
    SpanRecorder::Enable();
    const double traced_wall = run_round(true, nullptr, &traced);
    SpanRecorder::Disable();
    Samples open_ms, next_ms, execute_ms;
    for (const ClientLog& log : traced) {
      open_ms.ms.insert(open_ms.ms.end(), log.open_ms.ms.begin(), log.open_ms.ms.end());
      next_ms.ms.insert(next_ms.ms.end(), log.next_ms.ms.begin(), log.next_ms.ms.end());
      execute_ms.ms.insert(execute_ms.ms.end(), log.execute_ms.ms.begin(),
                           log.execute_ms.ms.end());
    }
    report->Set("server.open_ms", open_ms.Median(), "ms");
    report->Set("server.next_ms", next_ms.Median(), "ms");
    report->Set("server.execute_ms", execute_ms.Median(), "ms");
    report->Set("obs.trace_overhead_ratio", traced_wall / untraced_wall, "ratio");

    // The same plain operations in-process, through the cursor API, against
    // their untraced wire latencies (a first-page scan stops after one
    // batch, which is the work the server does for its first page).
    const ClientLog& log = first[0];
    double wire_s = 0, local_s = 0;
    LayerTotals totals;
    SpanRecorder::Enable();
    for (std::size_t i = 0; i < log.ops.size(); ++i) {
      const Statement& s = pool.statements[log.ops[i].statement];
      if (s.shape == Shape::kExecute) continue;
      const std::uint64_t qid = NewQueryId();
      Span span("query", qid);
      QueryRun run = RunQuery(engine.get(), s.sql, qid, &totals,
                              s.shape == Shape::kFirstPage ? kPageSizes[log.ops[i].page] : 0);
      if (!run.status.ok()) {
        report->Fail(s.sql + ": " + run.status.ToString());
        break;
      }
      local_s += run.latency_s;
      wire_s += log.latency[i];
    }
    SpanRecorder::Disable();
    report->Set("server.wire_overhead_ratio", local_s == 0 ? 0 : wire_s / local_s, "ratio");
    ReportLayers(totals, report);
  }

  clients.clear();
  server->Stop();
}

}  // namespace perfbench
