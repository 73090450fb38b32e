// dashboard_refresh: `clients` sessions refresh a hot set of dashboard
// panels with Zipf popularity. A refresh sends the panel's contract query
// and then its exact twin. The run is split into epochs; between epochs,
// with every client stopped (Catalog has no lock for mutation during
// reads), one write step swaps lineitem for a pre-built alternate version.
// The service layer (admission, result cache, synopsis cache) does most of
// the work here, and each write makes the caches pay for invalidation and
// synopsis rebuilds.

#include <optional>
#include <random>
#include <thread>

#include "common_sql.h"
#include "workload/datagen.h"

namespace aqpbench {

namespace {

struct Panel {
  std::string sql;  // Exact twin; the contract query appends the clause.
  size_t num_keys;
  double error;
};

// Panels in order of popularity. Panel 0 is the landing panel, the first
// one every client reloads after a write.
std::vector<Panel> MakePanels(std::mt19937_64& rng) {
  return {
      {Fmt("SELECT SUM(extendedprice) AS revenue FROM lineitem WHERE "
           "discount < %.6f",
           Uniform(rng, 0.45, 0.55)),
       0, 0.05},
      {Fmt("SELECT shipmode, AVG(quantity) AS q FROM lineitem WHERE "
           "extendedprice > %.6f GROUP BY shipmode",
           Uniform(rng, 1.08, 1.12)),
       1, 0.05},
      {Fmt("SELECT AVG(discount) AS d FROM lineitem WHERE extendedprice > %.6f",
           Uniform(rng, 1.10, 1.15)),
       0, 0.05},
      {Fmt("SELECT shipmode, SUM(extendedprice) AS revenue, COUNT(*) AS n "
           "FROM lineitem WHERE discount < %.6f GROUP BY shipmode",
           Uniform(rng, 0.55, 0.65)),
       1, 0.10},
      {Fmt("SELECT COUNT(*) AS n, SUM(quantity) AS q FROM lineitem WHERE "
           "extendedprice < %.6f",
           Uniform(rng, 1.28, 1.34)),
       0, 0.05},
  };
}

constexpr int kEpochs = 16;

struct World {
  aqp::Catalog catalog;
  std::shared_ptr<const aqp::Table> versions[2];
  std::unique_ptr<aqp::service::QueryService> service;
};

// One refresh as a client saw it. Answers are checked by the client right
// after the refresh (outside both timed calls); only what the metrics need
// is kept, plus, in the traced run, the answers of refreshes that missed the
// result cache, for their replay after the epoch.
struct Refresh {
  size_t panel = 0;
  Clock::time_point c0, c1, e1;
  std::optional<AnswerFacts> contract, exact;
  bool post_write = false;
  std::unique_ptr<std::pair<aqp::core::ApproxResult, aqp::core::ApproxResult>>
      kept;
};

}  // namespace

void RunDashboardRefresh(const Config& config, RunData* data) {
  const size_t rows = config.smoke ? 200000 : 1000000;
  const size_t clients = std::max<size_t>(config.clients, 1);
  data->sizes["lineitem_rows"] = std::to_string(rows);
  data->sizes["clients"] = std::to_string(clients);
  data->sizes["panels"] = "5";
  data->sizes["hot_set_queries"] = "10";
  data->sizes["epochs"] = std::to_string(kEpochs);

  std::unique_ptr<World> world = TimedSetups(kSetups, data, [&] {
    auto w = std::make_unique<World>();
    auto generated = aqp::workload::GenerateLineitemLike(rows, config.seed);
    auto alternate =
        aqp::workload::GenerateLineitemLike(rows, config.seed + 7919);
    if (!generated.ok() || !alternate.ok()) Die("lineitem generation failed");
    w->catalog = std::move(generated.value());
    w->versions[0] = w->catalog.Get("lineitem").value();
    w->versions[1] = alternate.value().Get("lineitem").value();
    w->service = std::make_unique<aqp::service::QueryService>(&w->catalog);
    return w;
  });
  aqp::service::QueryService& service = *world->service;

  std::mt19937_64 rng(config.seed);
  const std::vector<Panel> panels = MakePanels(rng);
  // Serial references of every panel on both data versions, computed before
  // the timed window.
  std::vector<aqp::Table> references[2];
  for (int v = 0; v < 2; ++v) {
    world->catalog.RegisterOrReplace("lineitem", world->versions[v]);
    for (const Panel& p : panels) {
      references[v].push_back(SerialReference(world->catalog, p.sql));
    }
  }
  world->catalog.RegisterOrReplace("lineitem", world->versions[0]);

  // Zipf(1) popularity over the panels.
  std::vector<double> weights;
  for (size_t i = 0; i < panels.size(); ++i) weights.push_back(1.0 / (i + 1));

  std::vector<std::shared_ptr<aqp::service::Session>> sessions;
  std::vector<std::mt19937_64> rngs;
  for (size_t c = 0; c < clients; ++c) {
    sessions.push_back(service.OpenSession());
    rngs.emplace_back(config.seed * 1000003 + c + 1);
  }

  const double epoch_s = config.seconds / kEpochs;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const int version = epoch % 2;
    if (epoch > 0) {
      world->catalog.RegisterOrReplace("lineitem", world->versions[version]);
      if (data->tracer) {
        TimeSynopsisBuilds(world->catalog, service.options(), "lineitem",
                           "shipmode", data->tracer.get());
      }
    }
    std::vector<std::vector<Refresh>> done(clients);
    // Per-client check tallies, merged after the epoch; the perturb hook
    // rides on client 0.
    std::vector<RunData> tallies(clients);
    tallies[0].perturb = data->perturb;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(epoch_s));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
        bool first = true;
        while (Clock::now() < deadline) {
          Refresh r;
          // After a write every client first reloads the landing panel.
          r.panel = first ? 0 : pick(rngs[c]);
          r.post_write = first;
          first = false;
          const Panel& p = panels[r.panel];
          r.c0 = Clock::now();
          auto contract =
              service.Execute(sessions[c], p.sql + ContractClause(p.error));
          r.c1 = Clock::now();
          auto exact = service.Execute(sessions[c], p.sql);
          r.e1 = Clock::now();
          CheckPair(contract, exact, references[version][r.panel], p.num_keys,
                    p.error, p.sql, &tallies[c]);
          if (contract.ok()) r.contract = FactsOf(contract.value());
          if (exact.ok()) r.exact = FactsOf(exact.value());
          if (data->tracer && contract.ok() && exact.ok() &&
              !(r.contract->cache_hit && r.exact->cache_hit)) {
            r.kept = std::make_unique<
                std::pair<aqp::core::ApproxResult, aqp::core::ApproxResult>>(
                std::move(contract).value(), std::move(exact).value());
          }
          done[c].push_back(std::move(r));
        }
      });
    }
    for (auto& t : threads) t.join();
    data->measured_s += MsBetween(start, Clock::now()) / 1e3;

    // Readers are stopped: merge, record and (traced run) replay the epoch.
    data->perturb = data->perturb && tallies[0].perturb;
    for (RunData& tally : tallies) {
      if (tally.mismatches > 0 && data->mismatches == 0) {
        data->first_mismatch = tally.first_mismatch;
      }
      data->mismatches += tally.mismatches;
      data->score.approximated += tally.score.approximated;
      data->score.met += tally.score.met;
    }
    std::mt19937_64 span_rng(config.seed + epoch);
    for (size_t c = 0; c < clients; ++c) {
      for (const Refresh& r : done[c]) {
        const Panel& p = panels[r.panel];
        const long ci = RecordSqlOp(OpKind::kContract, r.c0, r.c1,
                                    r.contract ? &*r.contract : nullptr,
                                    r.post_write, data);
        const long ei = RecordSqlOp(OpKind::kExact, r.c1, r.e1,
                                    r.exact ? &*r.exact : nullptr, false, data);
        data->ops[ci].twin = ei;
        if (!data->tracer) continue;
        Tracer* tracer = data->tracer.get();
        ++tracer->stats.contract_pairs;
        if (data->ops[ci].ms > data->ops[ei].ms) ++tracer->stats.approx_slower;
        // A seeded quarter of the refreshes is traced; hits have a single
        // rung, and their spans are kept for a seeded 1% of them.
        if (!r.contract || !r.exact || span_rng() % 4 != 0) continue;
        auto trace_one = [&](const AnswerFacts& f, const std::string& sql,
                             const aqp::core::ApproxResult* answer,
                             Clock::time_point s0, Clock::time_point s1,
                             bool decompose) {
          if (f.cache_hit) {
            AccountCacheHit(s0, s1, span_rng() % 100 == 0, tracer);
          } else {
            ReplaySql(world->catalog, service.options(), sql, *answer, s0, s1,
                      decompose, tracer);
          }
        };
        trace_one(*r.contract, p.sql + ContractClause(p.error),
                  r.kept ? &r.kept->first : nullptr, r.c0, r.c1, false);
        trace_one(*r.exact, p.sql, r.kept ? &r.kept->second : nullptr, r.c1,
                  r.e1, true);
      }
    }
  }
  const auto stats = service.StatsSnapshot();
  if (data->tracer) {
    data->tracer->stats.result_cache_hits = stats.result_cache.hits;
    data->tracer->stats.result_cache_misses = stats.result_cache.misses;
    data->tracer->stats.synopsis_builds = stats.synopsis_cache.builds;
  }
}

}  // namespace aqpbench
