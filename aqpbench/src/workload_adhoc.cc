// adhoc_contract: one analyst sends a seeded stream of distinct aggregate
// queries over lineitem/orders, each twice — as a WITH ERROR contract query
// and as its exact twin. The approximation layers (core pilot/plan/final,
// sampling) do most of the work; the twin takes the same path without them.
// No SQL repeats, so the result cache never hits.

#include <cstdio>
#include <iterator>
#include <random>
#include <set>

#include "common_sql.h"
#include "workload/datagen.h"

namespace aqpbench {

namespace {

// One query template of the stream. `make` instantiates its constants.
struct Template {
  size_t num_keys;
  double error;
  std::string (*make)(std::mt19937_64& rng);
};

// Each template keeps its selectivity within a narrow band (its constants
// are drawn from a small continuous range, so no SQL text repeats) and the
// templates together span selectivities from about 1% to 80%.
std::string T0(std::mt19937_64& rng) {
  return Fmt("SELECT SUM(extendedprice) AS s FROM lineitem WHERE discount < %.6f",
             Uniform(rng, 0.45, 0.55));
}
std::string T1(std::mt19937_64& rng) {
  return Fmt(
      "SELECT shipmode, SUM(extendedprice) AS s, COUNT(*) AS c FROM lineitem "
      "WHERE discount < %.6f GROUP BY shipmode",
      Uniform(rng, 0.75, 0.85));
}
// Selective predicate (E2): about 1% of rows qualify.
std::string T2(std::mt19937_64& rng) {
  return Fmt(
      "SELECT COUNT(*) AS c FROM lineitem WHERE discount < %.6f AND quantity "
      "< 26",
      Uniform(rng, 0.018, 0.022));
}
std::string T3(std::mt19937_64& rng) {
  const double lo = Uniform(rng, 0.1, 0.7);
  return Fmt(
      "SELECT AVG(extendedprice) AS a FROM lineitem WHERE discount BETWEEN "
      "%.6f AND %.6f",
      lo, lo + 0.2);
}
// Zipf-distributed key with many rare groups (E3).
std::string T4(std::mt19937_64& rng) {
  return Fmt(
      "SELECT suppkey, COUNT(*) AS c, SUM(quantity) AS q FROM lineitem WHERE "
      "discount < %.6f GROUP BY suppkey",
      Uniform(rng, 0.09, 0.11));
}
std::string T5(std::mt19937_64& rng) {
  return Fmt(
      "SELECT AVG(quantity) AS a, SUM(discount) AS d FROM lineitem WHERE "
      "extendedprice < %.6f",
      Uniform(rng, 1.28, 1.34));
}
std::string T6(std::mt19937_64& rng) {
  return Fmt(
      "SELECT shipmode, AVG(quantity) AS a FROM lineitem WHERE extendedprice "
      "> %.6f GROUP BY shipmode",
      Uniform(rng, 1.08, 1.12));
}
std::string T7(std::mt19937_64& rng) {
  const double lo = Uniform(rng, 0.1, 0.9);
  return Fmt(
      "SELECT SUM(extendedprice) AS s, COUNT(*) AS c FROM lineitem WHERE "
      "discount BETWEEN %.6f AND %.6f",
      lo, lo + 0.05);
}
std::string Join(std::mt19937_64& rng) {
  return Fmt(
      "SELECT o.orderpriority, SUM(l.extendedprice) AS s FROM lineitem l "
      "JOIN orders o ON l.orderkey = o.orderkey WHERE l.discount < %.6f GROUP "
      "BY o.orderpriority",
      Uniform(rng, 0.25, 0.3));
}

// One round of the stream. The filtered aggregates are cheap and appear
// twice; the three GROUP BYs cost up to tens of times more and appear once.
// The loop runs whole rounds, so every run has the same mix.
const Template kRound[] = {
    {0, 0.05, T0}, {0, 0.10, T2}, {0, 0.05, T3}, {0, 0.05, T5},
    {0, 0.05, T7}, {1, 0.05, T1}, {0, 0.05, T0}, {0, 0.10, T2},
    {0, 0.05, T3}, {0, 0.05, T5}, {0, 0.05, T7}, {1, 0.10, T4},
    {1, 0.05, T6},
};
// The join costs about as much as two whole rounds, so a run sends exactly
// one join pair, at the end of the first round of this epoch.
const Template kJoin = {1, 0.05, Join};
constexpr int kJoinEpoch = 1;
constexpr int kEpochs = 24;

struct World {
  aqp::Catalog catalog;
  std::shared_ptr<const aqp::Table> versions[2];
  std::unique_ptr<aqp::service::QueryService> service;
};

// Sends `exact_sql` with the contract clause of `t`, then without, records
// both operations, checks the twin against the serial reference (computed
// with the window paused) and scores the contract answer; in the traced run
// replays both down the ladder. `post_write` marks the contract query as
// the first answer after a write.
void RunPair(World& world, const std::shared_ptr<aqp::service::Session>& session,
             const std::string& exact_sql, const Template& t, bool post_write,
             bool traced, Window* window, RunData* data) {
  aqp::service::QueryService& service = *world.service;
  const std::string contract_sql = exact_sql + ContractClause(t.error);
  window->Resume();
  const auto c0 = Clock::now();
  aqp::Result<aqp::core::ApproxResult> contract =
      service.Execute(session, contract_sql);
  const auto c1 = Clock::now();
  aqp::Result<aqp::core::ApproxResult> exact = service.Execute(session, exact_sql);
  const auto e1 = Clock::now();
  window->Pause();

  const AnswerFacts cf = contract.ok() ? FactsOf(contract.value()) : AnswerFacts();
  const AnswerFacts ef = exact.ok() ? FactsOf(exact.value()) : AnswerFacts();
  const long c = RecordSqlOp(OpKind::kContract, c0, c1,
                             contract.ok() ? &cf : nullptr, post_write, data);
  const long e = RecordSqlOp(OpKind::kExact, c1, e1, exact.ok() ? &ef : nullptr,
                             false, data);
  data->ops[c].twin = e;
  CheckPair(contract, exact, SerialReference(world.catalog, exact_sql),
            t.num_keys, t.error, exact_sql, data);

  if (data->tracer) {
    LayerStats& st = data->tracer->stats;
    ++st.contract_pairs;
    if (data->ops[c].ms > data->ops[e].ms) ++st.approx_slower;
    if (traced && contract.ok() && exact.ok()) {
      ReplaySql(world.catalog, service.options(), contract_sql,
                contract.value(), c0, c1, false, data->tracer.get());
      ReplaySql(world.catalog, service.options(), exact_sql, exact.value(), c1,
                e1, true, data->tracer.get());
    }
  }
}

}  // namespace

void RunAdhocContract(const Config& config, RunData* data) {
  const size_t rows = config.smoke ? 200000 : 1000000;
  data->sizes["lineitem_rows"] = std::to_string(rows);
  data->sizes["orders_rows"] = std::to_string(rows / 4);
  data->sizes["clients"] = "1";
  data->sizes["epochs"] = std::to_string(kEpochs);
  data->sizes["round_pairs"] = std::to_string(std::size(kRound));
  data->sizes["join_pairs"] = "1";

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
  auto session = service.OpenSession();
  std::mt19937_64 rng(config.seed);
  std::set<std::string> seen;
  Window window(config);
  for (int epoch = 0; epoch < kEpochs && !window.Done(); ++epoch) {
    if (epoch > 0) {
      // Write step between epochs: the client is idle, so the catalog may
      // be mutated. The first pair of the epoch pays what the write costs.
      world->catalog.RegisterOrReplace("lineitem", world->versions[epoch % 2]);
      if (data->tracer) {
        TimeSynopsisBuilds(world->catalog, service.options(), "lineitem", "",
                           data->tracer.get());
      }
    }
    window.StartEpoch(kEpochs - epoch);
    // Each epoch opens a round, so its first answer after the write is
    // always the same kind of query.
    bool first = true;
    bool join_due = epoch == kJoinEpoch;
    auto send = [&](const Template& t) {
      std::string sql;
      do {
        sql = t.make(rng);
      } while (!seen.insert(sql).second);
      // The traced run replays every third pair, and the join.
      const bool traced = data->tracer && ((data->ops.size() / 2) % 3 == 0 ||
                                           &t == &kJoin);
      RunPair(*world, session, sql, t, first, traced, &window, data);
      first = false;
    };
    do {
      for (const Template& t : kRound) send(t);
      if (join_due) send(kJoin);
      join_due = false;
    } while (!window.EpochDone());
  }
  window.Finish(data);
  const auto stats = service.StatsSnapshot();
  if (data->tracer) {
    data->tracer->stats.result_cache_hits = stats.result_cache.hits;
    data->tracer->stats.result_cache_misses = stats.result_cache.misses;
    data->tracer->stats.synopsis_builds = stats.synopsis_cache.builds;
  }
}

}  // namespace aqpbench
