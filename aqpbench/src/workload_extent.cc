// extent_scan: one client queries a lineitem-like table, clustered on
// orderkey and written to extents at set-up, under a per-query memory budget
// smaller than the table's decoded size. SQL cannot reach extent-backed
// tables (the binder calls Catalog::Get), so the stream is engine plans sent
// to Execute: range filters and aggregates, most selective on the clustered
// key and prunable, some on an unclustered column and not. Each aggregate
// also has an approximate twin: the same aggregate as a WITH ERROR contract
// query through the QueryService over the table's in-memory copy, which
// asks whether sampling a resident copy beats a pruned exact scan.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>

#include "common_sql.h"
#include "engine/executor.h"
#include "storage/extent/extent_reader.h"
#include "storage/extent/extent_writer.h"
#include "workload/datagen.h"

namespace aqpbench {

namespace {

using aqp::PlanNode;
using aqp::PlanPtr;

constexpr int kEpochs = 16;
// One cycle of the stream. The grouped prunable aggregate opens every cycle;
// the loop runs whole cycles, so every run has the same mix. Selective
// prunable operations are the majority, so the median operation is one of
// them rather than the boundary between them and the full reads.
constexpr int kCycle[] = {0, 1, 0, 2, 1, 0, 3, 1, 1};
constexpr const char* kExtentTable = "lineitem_x";
constexpr const char* kMemoryTable = "lineitem_mem";

aqp::Table MakeClustered(size_t rows, uint64_t seed) {
  using Dist = aqp::workload::ColumnSpec::Dist;
  std::vector<aqp::workload::ColumnSpec> specs(6);
  specs[0].name = "orderkey";
  specs[0].dist = Dist::kSequential;
  specs[1].name = "suppkey";
  specs[1].dist = Dist::kZipfInt;
  specs[1].cardinality = 1000;
  specs[1].zipf_s = 0.8;
  specs[2].name = "quantity";
  specs[2].dist = Dist::kUniformInt;
  specs[2].min_value = 1;
  specs[2].max_value = 50;
  specs[3].name = "extendedprice";
  specs[3].dist = Dist::kPareto;
  specs[3].pareto_alpha = 2.5;
  specs[4].name = "discount";
  specs[4].dist = Dist::kUniformDouble;
  specs[4].min_value = 0;
  specs[4].max_value = 1;
  specs[5].name = "shipmode";
  specs[5].dist = Dist::kCategorical;
  specs[5].zipf_s = 0.5;
  specs[5].categories = {"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
  auto t = aqp::workload::GenerateTable(specs, rows, seed);
  if (!t.ok()) Die("extent table generation failed");
  return std::move(t).value();
}

// One operation of the stream: a plan over `table`, and for aggregates the
// SQL of its contract twin over the in-memory copy.
struct ExtentOp {
  std::function<PlanPtr(const std::string& table)> plan;
  std::string twin_sql;  // Empty: no twin.
  size_t num_keys = 0;
  double error = 0.05;
};

ExtentOp MakeOp(int kind, size_t rows, std::mt19937_64& rng) {
  using aqp::Between;
  using aqp::Col;
  using aqp::Lit;
  ExtentOp op;
  const double n = static_cast<double>(rows);
  switch (kind) {
    case 0: {  // Selective prunable aggregate, grouped (also the epoch probe).
      const int64_t lo = static_cast<int64_t>(Uniform(rng, 0, 0.9 * n));
      const int64_t hi = lo + static_cast<int64_t>(Uniform(rng, 0.045, 0.055) * n);
      op.plan = [=](const std::string& t) {
        return PlanNode::Aggregate(
            PlanNode::Filter(PlanNode::Scan(t),
                             Between(Col("orderkey"), Lit(lo), Lit(hi))),
            {Col("shipmode")}, {"shipmode"},
            {{aqp::AggKind::kSum, Col("extendedprice"), "s"},
             {aqp::AggKind::kCountStar, nullptr, "c"}});
      };
      op.twin_sql = Fmt(
          "SELECT shipmode, SUM(extendedprice) AS s, COUNT(*) AS c FROM %s "
          "WHERE orderkey BETWEEN %lld AND %lld GROUP BY shipmode",
          kMemoryTable, static_cast<long long>(lo), static_cast<long long>(hi));
      op.num_keys = 1;
      break;
    }
    case 1: {  // Selective prunable range filter returning rows.
      const int64_t lo = static_cast<int64_t>(Uniform(rng, 0, 0.99 * n));
      const int64_t hi = lo + static_cast<int64_t>(Uniform(rng, 0.005, 0.006) * n);
      op.plan = [=](const std::string& t) {
        return PlanNode::Project(
            PlanNode::Filter(PlanNode::Scan(t),
                             Between(Col("orderkey"), Lit(lo), Lit(hi))),
            {Col("orderkey"), Col("extendedprice"), Col("shipmode")},
            {"orderkey", "extendedprice", "shipmode"});
      };
      break;
    }
    case 2: {  // Aggregate on an unclustered column: nothing prunes.
      // Rounded to the digits the twin's SQL text carries, so both sides
      // filter on the same constant.
      const double d = std::round(Uniform(rng, 0.0045, 0.0055) * 1e6) / 1e6;
      op.plan = [=](const std::string& t) {
        return PlanNode::Aggregate(
            PlanNode::Filter(PlanNode::Scan(t),
                             aqp::Lt(Col("discount"), Lit(d))),
            {}, {},
            {{aqp::AggKind::kSum, Col("quantity"), "s"},
             {aqp::AggKind::kCountStar, nullptr, "c"}});
      };
      op.twin_sql = Fmt(
          "SELECT SUM(quantity) AS s, COUNT(*) AS c FROM %s WHERE discount < "
          "%.6f",
          kMemoryTable, d);
      op.error = 0.10;
      break;
    }
    default: {  // Range filter on an unclustered column: full read.
      const double d = Uniform(rng, 0.00095, 0.00105);
      op.plan = [=](const std::string& t) {
        return PlanNode::Project(
            PlanNode::Filter(PlanNode::Scan(t),
                             aqp::Lt(Col("discount"), Lit(d))),
            {Col("orderkey"), Col("discount")}, {"orderkey", "discount"});
      };
      break;
    }
  }
  return op;
}

struct World {
  aqp::Catalog catalog;
  std::shared_ptr<const aqp::Table> copies[2];
  std::shared_ptr<const aqp::extent::ExtentReader> readers[2];
  std::unique_ptr<aqp::service::QueryService> service;
  double write_s = 0.0;
};

}  // namespace

void RunExtentScan(const Config& config, RunData* data) {
  const size_t rows = config.smoke ? 600000 : 1000000;
  const std::string paths[2] = {config.work_dir + "/lineitem_a.aqpx",
                                config.work_dir + "/lineitem_b.aqpx"};

  std::unique_ptr<World> world = TimedSetups(kSetups, data, [&] {
    auto w = std::make_unique<World>();
    for (int v = 0; v < 2; ++v) {
      auto table = std::make_shared<const aqp::Table>(
          MakeClustered(rows, config.seed + 7919 * v));
      const auto w0 = Clock::now();
      auto written = aqp::extent::WriteTableToExtents(paths[v], *table);
      w->write_s += MsBetween(w0, Clock::now()) / 1e3;
      if (!written.ok()) Die("extent write failed: " + written.status().ToString());
      auto reader = aqp::extent::ExtentReader::Open(paths[v]);
      if (!reader.ok()) Die("extent open failed: " + reader.status().ToString());
      w->copies[v] = table;
      w->readers[v] = reader.value();
    }
    w->catalog.RegisterExtentBacked(kExtentTable, w->readers[0]);
    w->catalog.RegisterOrReplace(kMemoryTable, w->copies[0]);
    w->service = std::make_unique<aqp::service::QueryService>(&w->catalog);
    return w;
  });
  aqp::service::QueryService& service = *world->service;

  uint64_t raw_bytes = 0;
  uint64_t extent_raw_bytes = 0;
  for (const auto& e : world->readers[0]->extents()) {
    raw_bytes += e.raw_bytes;
    extent_raw_bytes = std::max(extent_raw_bytes, e.raw_bytes);
  }
  // The one non-default setting: a per-query budget of a third of the
  // decoded table, too small to materialize it, but never below what the
  // engine's concurrent per-extent decodes (one per thread) plus a selective
  // result need, and always below the decoded size.
  const uint64_t threads = aqp::ExecOptions().ResolvedThreads();
  const uint64_t budget =
      std::min(std::max(raw_bytes / 3, extent_raw_bytes * (threads + 1)),
               raw_bytes / 10 * 9);
  data->sizes["rows"] = std::to_string(rows);
  data->sizes["extents"] = std::to_string(world->readers[0]->num_extents());
  data->sizes["decoded_bytes"] = std::to_string(raw_bytes);
  data->sizes["file_bytes"] = std::to_string(world->readers[0]->file_bytes());
  data->sizes["memory_budget_bytes"] = std::to_string(budget);
  data->sizes["clients"] = "1";
  data->sizes["epochs"] = std::to_string(kEpochs);
  if (data->tracer) {
    data->tracer->stats.compression_ratio =
        static_cast<double>(raw_bytes) /
        static_cast<double>(world->readers[0]->file_bytes());
    data->tracer->stats.extent_write_s = world->write_s / 2.0;  // Per file.
  }

  auto session = service.OpenSession();
  std::mt19937_64 rng(config.seed);
  Window window(config);
  // Runs one operation of the stream: the extent plan under the budget, its
  // serial reference over the in-memory copy, and, for aggregates, the
  // contract twin through the service. `first` marks the first answer after
  // a write.
  auto run_op = [&](int kind, bool first) {
    const ExtentOp op = MakeOp(kind, rows, rng);
    const PlanPtr plan = op.plan(kExtentTable);
    aqp::MemoryTracker memory(budget);
    aqp::ExecOptions exec;
    exec.memory = &memory;
    aqp::ExecStats stats;
    window.Resume();
    const auto t0 = Clock::now();
    aqp::Result<aqp::Table> answer =
        aqp::Execute(plan, world->catalog, &stats, nullptr, exec);
    const auto t1 = Clock::now();
    window.Pause();

    OpRecord rec;
    rec.kind = OpKind::kExact;
    rec.ms = MsBetween(t0, t1);
    rec.ok = answer.ok();
    rec.post_write = first;
    data->ops.push_back(rec);
    const long exact_index = static_cast<long>(data->ops.size()) - 1;
    const aqp::Table reference =
        SerialReference(world->catalog, op.plan(kMemoryTable));
    if (answer.ok()) {
      data->CheckExact(answer.value(), reference, "extent plan");
    }
    if (data->tracer) {
      LayerStats& st = data->tracer->stats;
      st.rows_scanned.push_back(static_cast<double>(stats.rows_scanned));
      st.blocks_read.push_back(static_cast<double>(stats.blocks_read));
      st.morsels.push_back(static_cast<double>(stats.parallel.morsels));
      if (answer.ok()) {
        aqp::MemoryTracker replay_memory(budget);
        aqp::ExecOptions replay_exec;
        replay_exec.memory = &replay_memory;
        ReplayExtentPlan(world->catalog, kExtentTable, plan, replay_exec, t0,
                         t1, data->tracer.get());
      }
    }

    if (!op.twin_sql.empty()) {
      const std::string sql = op.twin_sql + ContractClause(op.error);
      window.Resume();
      const auto c0 = Clock::now();
      aqp::Result<aqp::core::ApproxResult> contract =
          service.Execute(session, sql);
      const auto c1 = Clock::now();
      window.Pause();
      const AnswerFacts facts =
          contract.ok() ? FactsOf(contract.value()) : AnswerFacts();
      const long ci = RecordSqlOp(OpKind::kContract, c0, c1,
                                  contract.ok() ? &facts : nullptr, false, data);
      data->ops[ci].twin = exact_index;
      if (contract.ok()) {
        data->ScoreContract(contract.value().approximated,
                            contract.value().table, reference, op.num_keys,
                            op.error);
      }
      if (data->tracer) {
        LayerStats& st = data->tracer->stats;
        ++st.contract_pairs;
        if (data->ops[ci].ms > data->ops[exact_index].ms) ++st.approx_slower;
        if (contract.ok()) {
          ReplaySql(world->catalog, service.options(), sql, contract.value(),
                    c0, c1, false, data->tracer.get());
        }
      }
    }
  };

  for (int epoch = 0; epoch < kEpochs && !window.Done(); ++epoch) {
    const int version = epoch % 2;
    if (epoch > 0) {
      world->catalog.RegisterExtentBacked(kExtentTable, world->readers[version]);
      world->catalog.RegisterOrReplace(kMemoryTable, world->copies[version]);
    }
    window.StartEpoch(kEpochs - epoch);
    bool first = true;
    do {
      for (int kind : kCycle) {
        run_op(kind, first);
        first = false;
      }
    } while (!window.EpochDone());
  }
  window.Finish(data);
  const auto stats = service.StatsSnapshot();
  if (data->tracer) {
    data->tracer->stats.result_cache_hits = stats.result_cache.hits;
    data->tracer->stats.result_cache_misses = stats.result_cache.misses;
    data->tracer->stats.synopsis_builds = stats.synopsis_cache.builds;
  }
  world.reset();
  for (const auto& p : paths) std::remove(p.c_str());
}

}  // namespace aqpbench
