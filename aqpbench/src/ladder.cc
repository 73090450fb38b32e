#include "ladder.h"

#include "engine/executor.h"
#include "engine/extent_scan.h"
#include "gov/governed_executor.h"
#include "sampling/block.h"
#include "service/synopsis_cache.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace aqpbench {

using aqp::Catalog;
using aqp::PlanKind;
using aqp::PlanPtr;
using aqp::Table;

namespace {

double Clamp0(double v) { return v > 0.0 ? v : 0.0; }

// Executes every subtree of `node` on its own and charges each Filter,
// Aggregate and Join its self time (subtree minus children) against the
// rows it consumed. The engine passes batch views between operators and
// materializes only at the root, so each subtree is timed under a COUNT(*)
// that consumes its output without materializing it. Scans, and projections
// that only rename the columns of a scan, hand the table over as a view and
// count as free: timed alone they would pay a materialization the pipeline
// never does.
struct SubtreeTiming {
  double ms = 0.0;
  uint64_t rows = 0;
};

bool IsFreeInput(const aqp::PlanNode& node) {
  if (node.kind() == PlanKind::kScan) return true;
  if (node.kind() != PlanKind::kProject) return false;
  for (const auto& e : node.exprs()) {
    if (e->kind() != aqp::ExprKind::kColumnRef) return false;
  }
  return IsFreeInput(*node.child());
}

SubtreeTiming TimeSubtree(const PlanPtr& node, const Catalog& catalog,
                          LayerStats* stats) {
  const PlanPtr counted = aqp::PlanNode::Aggregate(
      node, {}, {}, {{aqp::AggKind::kCountStar, nullptr, "n"}});
  if (IsFreeInput(*node)) {
    aqp::Result<Table> n = aqp::Execute(counted, catalog);
    return {0.0, n.ok() ? static_cast<uint64_t>(n.value().column(0).Int64At(0))
                        : 0};
  }
  double child_ms = 0.0;
  uint64_t child_rows = 0;
  for (size_t i = 0; i < node->num_children(); ++i) {
    SubtreeTiming c = TimeSubtree(node->child(i), catalog, stats);
    child_ms += c.ms;
    child_rows += c.rows;
  }
  const auto start = Clock::now();
  aqp::Result<Table> n = aqp::Execute(counted, catalog);
  SubtreeTiming t{MsBetween(start, Clock::now()),
                  n.ok() ? static_cast<uint64_t>(n.value().column(0).Int64At(0))
                         : 0};
  const double self_s = Clamp0(t.ms - child_ms) / 1e3;
  switch (node->kind()) {
    case PlanKind::kFilter:
      stats->filter_rows += child_rows;
      stats->filter_seconds += self_s;
      break;
    case PlanKind::kAggregate:
      stats->aggregate_rows += child_rows;
      stats->aggregate_seconds += self_s;
      break;
    case PlanKind::kJoin:
      stats->join_rows += child_rows;
      stats->join_seconds += self_s;
      break;
    default:
      break;
  }
  return t;
}

// The table the two-stage executor samples: the largest one the query scans.
std::string LargestTable(const aqp::sql::BoundQuery& bound,
                         const Catalog& catalog) {
  std::string best;
  uint64_t best_rows = 0;
  for (const auto& ref : bound.tables) {
    auto rows = catalog.Cardinality(ref.table);
    if (rows.ok() && (best.empty() || rows.value() > best_rows)) {
      best = ref.table;
      best_rows = rows.value();
    }
  }
  return best;
}

}  // namespace

AnswerFacts FactsOf(const aqp::core::ApproxResult& r) {
  AnswerFacts f;
  f.cache_hit = r.profile.cache_source == "result-cache";
  f.approximated = r.approximated;
  f.degradation_rung = r.profile.degradation_rung;
  f.admission_wait_ms = r.profile.admission_wait_seconds * 1e3;
  f.pilot_seconds = r.profile.pilot_seconds;
  f.total_seconds = r.profile.total_seconds;
  f.sampled_fraction = r.profile.sampled_fraction;
  f.rows_scanned = r.exec_stats.rows_scanned;
  f.blocks_read = r.exec_stats.blocks_read;
  f.morsels = r.exec_stats.parallel.morsels;
  return f;
}

void ObserveAnswer(const AnswerFacts& f, bool contract, double ms,
                   LayerStats* stats) {
  ++stats->service_answers;
  stats->admission_wait_ms.push_back(f.admission_wait_ms);
  if (f.degradation_rung > 0) ++stats->degraded_answers;
  if (f.cache_hit) {
    stats->result_cache_hit_ms.push_back(ms);
    return;
  }
  if (contract) {
    ++stats->contract_answers;
    stats->pilot_seconds += f.pilot_seconds;
    stats->executor_seconds += f.total_seconds;
    if (!f.approximated && f.pilot_seconds > 0.0) ++stats->declined_after_pilot;
    stats->sampled_fraction.push_back(f.sampled_fraction);
  }
  stats->rows_scanned.push_back(static_cast<double>(f.rows_scanned));
  stats->blocks_read.push_back(static_cast<double>(f.blocks_read));
  stats->morsels.push_back(static_cast<double>(f.morsels));
}

void AccountCacheHit(Clock::time_point top_start, Clock::time_point top_end,
                     bool record_span, Tracer* tracer) {
  const uint64_t op = tracer->next_op++;
  if (record_span) {
    tracer->spans.Add(op, "service.QueryService::Execute", -1, top_start,
                      top_end);
  }
  const double top_ms = MsBetween(top_start, top_end);
  tracer->stats.service_self_ms.push_back(top_ms);
  tracer->account.AddOp(top_ms, {{"service", top_ms}});
}

void ReplaySql(const Catalog& catalog,
               const aqp::service::ServiceOptions& options,
               const std::string& sql, const aqp::core::ApproxResult& answer,
               Clock::time_point top_start, Clock::time_point top_end,
               bool decompose_engine, Tracer* tracer) {
  LayerStats& st = tracer->stats;
  SpanLog& spans = tracer->spans;
  if (answer.profile.cache_source == "result-cache") {
    AccountCacheHit(top_start, top_end, true, tracer);
    return;
  }
  const uint64_t op = tracer->next_op++;
  const double top_ms = MsBetween(top_start, top_end);
  const long top =
      spans.Add(op, "service.QueryService::Execute", -1, top_start, top_end);
  std::map<std::string, double> self;

  auto t0 = Clock::now();
  {
    aqp::gov::GovernedExecutor governed(&catalog, nullptr, options.gov);
    (void)governed.Execute(sql);
  }
  auto t1 = Clock::now();
  const double gov_ms = MsBetween(t0, t1);
  const long gov_span =
      spans.Add(op, "gov.GovernedExecutor::Execute", top, t0, t1);

  t0 = Clock::now();
  {
    aqp::core::ApproxExecutor approx(&catalog, options.gov.aqp);
    (void)approx.Execute(sql);
  }
  t1 = Clock::now();
  const double core_ms = MsBetween(t0, t1);
  const long core_span =
      spans.Add(op, "core.ApproxExecutor::Execute", gov_span, t0, t1);

  t0 = Clock::now();
  aqp::Result<aqp::sql::SelectStmt> stmt = aqp::sql::Parse(sql);
  t1 = Clock::now();
  const double parse_ms = MsBetween(t0, t1);
  spans.Add(op, "sql.Parse", core_span, t0, t1);
  if (!stmt.ok()) return;
  t0 = Clock::now();
  aqp::Result<aqp::sql::BoundQuery> bound =
      aqp::sql::Bind(stmt.value(), catalog);
  t1 = Clock::now();
  const double bind_ms = MsBetween(t0, t1);
  spans.Add(op, "sql.Bind", core_span, t0, t1);
  if (!bound.ok()) return;

  double sampling_ms = 0.0;
  double engine_ms = 0.0;
  const aqp::core::AqpOptions& aqp_options = options.gov.aqp;
  // One stage on a block sample: draw at `rate`, then run the bound plan
  // with the sample substituted for the base table, as the executor does.
  auto sampled_stage = [&](double rate, const char* stage) {
    const std::string name = LargestTable(bound.value(), catalog);
    auto base = catalog.Get(name);
    if (name.empty() || !base.ok() || rate <= 0.0 || rate >= 1.0) return;
    auto d0 = Clock::now();
    aqp::Result<aqp::Sample> sample =
        aqp::BlockSample(*base.value(), rate, aqp_options.block_size,
                         aqp_options.seed, aqp_options.exec);
    auto d1 = Clock::now();
    spans.Add(op, std::string("sampling.BlockSample.") + stage, core_span, d0,
              d1);
    if (!sample.ok()) return;
    const double draw_ms = MsBetween(d0, d1);
    sampling_ms += draw_ms;
    st.draw_ms.push_back(draw_ms);
    st.drawn_rows += static_cast<double>(sample.value().table.num_rows());
    st.draw_seconds += draw_ms / 1e3;
    Catalog scratch = catalog;
    scratch.RegisterOrReplace(
        name, std::make_shared<const Table>(std::move(sample.value().table)));
    auto e0 = Clock::now();
    (void)aqp::Execute(bound.value().plan, scratch, nullptr, nullptr,
                       aqp_options.exec);
    auto e1 = Clock::now();
    spans.Add(op, std::string("engine.Execute.") + stage, core_span, e0, e1);
    engine_ms += MsBetween(e0, e1);
  };

  if (answer.profile.pilot_seconds > 0.0) {
    sampled_stage(answer.profile.pilot_rate, "pilot");
  }
  if (answer.approximated) {
    sampled_stage(answer.final_rate, "final");
  } else {
    auto e0 = Clock::now();
    (void)aqp::Execute(bound.value().plan, catalog, nullptr, nullptr,
                       aqp_options.exec);
    auto e1 = Clock::now();
    spans.Add(op, "engine.Execute.exact", core_span, e0, e1);
    const double exact_ms = MsBetween(e0, e1);
    engine_ms += exact_ms;
    st.engine_exact_ms.push_back(exact_ms);
    if (decompose_engine) TimeSubtree(bound.value().plan, catalog, &st);
  }

  self["service"] = Clamp0(top_ms - gov_ms);
  self["gov"] = Clamp0(gov_ms - core_ms);
  self["core"] =
      Clamp0(core_ms - parse_ms - bind_ms - sampling_ms - engine_ms);
  self["sql"] = parse_ms + bind_ms;
  self["sampling"] = sampling_ms;
  self["engine"] = engine_ms;
  st.service_self_ms.push_back(self["service"]);
  st.gov_self_ms.push_back(self["gov"]);
  st.core_self_ms.push_back(self["core"]);
  st.parse_ms.push_back(parse_ms);
  st.bind_ms.push_back(bind_ms);
  tracer->account.AddOp(top_ms, self);
}

void ReplayExtentPlan(const Catalog& catalog, const std::string& table,
                      const PlanPtr& plan, const aqp::ExecOptions& exec,
                      Clock::time_point top_start, Clock::time_point top_end,
                      Tracer* tracer) {
  LayerStats& st = tracer->stats;
  SpanLog& spans = tracer->spans;
  const uint64_t op = tracer->next_op++;
  const double top_ms = MsBetween(top_start, top_end);
  const long top = spans.Add(op, "engine.Execute", -1, top_start, top_end);

  PlanPtr filter = plan;
  while (filter != nullptr && !(filter->kind() == PlanKind::kFilter &&
                                filter->child()->kind() == PlanKind::kScan)) {
    filter = filter->num_children() > 0 ? filter->child() : nullptr;
  }
  auto reader = catalog.GetExtentReader(table);
  if (filter == nullptr || !reader.ok()) return;

  auto t0 = Clock::now();
  aqp::Result<Table> filtered =
      aqp::Execute(filter, catalog, nullptr, nullptr, exec);
  auto t1 = Clock::now();
  const double scan_ms = MsBetween(t0, t1);
  const long scan_span =
      spans.Add(op, "engine.Execute.extent_filter_scan", top, t0, t1);

  const aqp::extent::ExtentReader& r = *reader.value();
  t0 = Clock::now();
  const std::vector<aqp::PruneConjunct> conjuncts =
      aqp::ExtractPruneConjuncts(*filter->predicate(), r.schema());
  std::vector<size_t> survivors;
  for (size_t i = 0; i < r.num_extents(); ++i) {
    if (aqp::ExtentMayMatch(r.extent(i), conjuncts)) survivors.push_back(i);
  }
  t1 = Clock::now();
  const double prune_ms = MsBetween(t0, t1);
  spans.Add(op, "storage.ExtentMayMatch", scan_span, t0, t1);

  // Surviving extents are read with the engine's parallelism, one extent
  // per morsel, each read timed on its own.
  std::vector<double> read_ms(survivors.size(), 0.0);
  t0 = Clock::now();
  aqp::ThreadPool::Shared().ParallelFor(
      survivors.size(), 1, exec.ResolvedThreads(),
      [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          auto s = Clock::now();
          (void)r.ReadExtent(survivors[k]);
          read_ms[k] = MsBetween(s, Clock::now());
        }
      });
  t1 = Clock::now();
  const double read_wall_ms = MsBetween(t0, t1);
  spans.Add(op, "storage.ExtentReader::ReadExtent", scan_span, t0, t1);

  st.extents_total += r.num_extents();
  st.extents_pruned += r.num_extents() - survivors.size();
  for (size_t k = 0; k < survivors.size(); ++k) {
    st.extent_read_ms.push_back(read_ms[k]);
    st.extent_bytes_read += static_cast<double>(r.extent(survivors[k]).byte_size);
  }
  if (filtered.ok()) {
    st.extent_result_rows += static_cast<double>(filtered.value().num_rows());
  }
  const double scan_self = Clamp0(scan_ms - prune_ms - read_wall_ms);
  st.extent_scan_self_ms.push_back(scan_self);

  std::map<std::string, double> self;
  self["engine"] = Clamp0(top_ms - scan_ms) + scan_self;
  self["storage/extent"] = prune_ms + read_wall_ms;
  tracer->account.AddOp(top_ms, self);
}

void TimeSynopsisBuilds(const Catalog& catalog,
                        const aqp::service::ServiceOptions& options,
                        const std::string& table,
                        const std::string& strata_column, Tracer* tracer) {
  aqp::service::SynopsisCache::Options cache_options;
  cache_options.capture_baselines = options.drift.enabled;
  cache_options.baseline.sketch = options.drift.sketch;
  aqp::service::SynopsisCache cache(options.synopsis_cache_bytes, nullptr,
                                    cache_options);
  aqp::service::SynopsisSpec spec;
  spec.budget = options.synopsis_rows;
  spec.seed = options.gov.aqp.seed;
  std::vector<aqp::service::SynopsisSpec> specs = {spec};
  if (!strata_column.empty()) {
    spec.strata_column = strata_column;
    specs.push_back(spec);
  }
  const uint64_t op = tracer->next_op++;
  for (const auto& s : specs) {
    auto t0 = Clock::now();
    auto built = cache.GetOrBuild(catalog, table, s);
    auto t1 = Clock::now();
    tracer->spans.Add(op, "service.SynopsisCache::GetOrBuild", -1, t0, t1);
    if (built.ok()) tracer->stats.synopsis_build_ms.push_back(MsBetween(t0, t1));
  }
}

}  // namespace aqpbench
