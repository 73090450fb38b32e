#ifndef AQPBENCH_LADDER_H_
#define AQPBENCH_LADDER_H_

// The traced run's replay ladder. After an operation has been answered (and
// timed) through its top entry point, the same input is replayed through the
// public entry point of each layer below, one rung at a time:
//
//   SQL:    QueryService::Execute  (the operation itself)
//           gov::GovernedExecutor::Execute
//           core::ApproxExecutor::Execute
//           sql::Parse, sql::Bind
//           engine Execute on the bound plan (and on block samples drawn by
//           sampling::BlockSample at the answer's reported pilot/final rates)
//   Plans:  engine Execute          (the operation itself)
//           engine Execute on the fused filter+extent-scan subtree
//           ExtentMayMatch over every extent, ExtentReader::ReadExtent on
//           the surviving ones
//
// A layer's self time is its rung minus the rung(s) below it; negative
// differences (a replay that ran slower than the rung above) are clamped to
// zero and surface as negative unattributed time.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/approx_executor.h"
#include "engine/catalog.h"
#include "engine/plan.h"
#include "harness.h"
#include "service/query_service.h"

namespace aqpbench {

/// Raw per-layer observations of one run; main.cc turns them into the
/// per_layer metrics. Vectors hold one entry per observation.
struct LayerStats {
  // service
  std::vector<double> service_self_ms;
  std::vector<double> admission_wait_ms;
  std::vector<double> result_cache_hit_ms;
  std::vector<double> synopsis_build_ms;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t synopsis_builds = 0;
  // gov
  std::vector<double> gov_self_ms;
  uint64_t service_answers = 0;
  uint64_t degraded_answers = 0;
  // core
  std::vector<double> core_self_ms;
  double pilot_seconds = 0.0;
  double executor_seconds = 0.0;
  uint64_t contract_answers = 0;  // Executed (not cached) contract answers.
  uint64_t declined_after_pilot = 0;
  uint64_t contract_pairs = 0;
  uint64_t approx_slower = 0;
  std::vector<double> sampled_fraction;
  // sql
  std::vector<double> parse_ms;
  std::vector<double> bind_ms;
  // sampling
  std::vector<double> draw_ms;
  double drawn_rows = 0.0;  // Base-table rows the draws covered.
  double draw_seconds = 0.0;
  // engine
  std::vector<double> engine_exact_ms;
  double filter_rows = 0.0, filter_seconds = 0.0;
  double aggregate_rows = 0.0, aggregate_seconds = 0.0;
  double join_rows = 0.0, join_seconds = 0.0;
  std::vector<double> rows_scanned;  // Per executed answer, from ExecStats.
  std::vector<double> blocks_read;
  std::vector<double> morsels;
  std::vector<double> extent_scan_self_ms;
  // storage/extent
  uint64_t extents_total = 0;
  uint64_t extents_pruned = 0;
  std::vector<double> extent_read_ms;
  double extent_bytes_read = 0.0;
  double extent_result_rows = 0.0;
  double compression_ratio = 0.0;
  double extent_write_s = 0.0;
};

/// Span log, layer account and raw observations of one traced run.
struct Tracer {
  explicit Tracer(Clock::time_point epoch) : spans(epoch) {}
  SpanLog spans;
  LayerAccount account;
  LayerStats stats;
  uint64_t next_op = 0;
};

/// What an answered SQL operation reports about itself (admission wait,
/// cache source, degradation, pilot, ExecStats), small enough to keep for
/// every operation of a run.
struct AnswerFacts {
  bool cache_hit = false;
  bool approximated = false;
  int degradation_rung = 0;
  double admission_wait_ms = 0.0;
  double pilot_seconds = 0.0;
  double total_seconds = 0.0;
  double sampled_fraction = 1.0;
  uint64_t rows_scanned = 0;
  uint64_t blocks_read = 0;
  uint64_t morsels = 0;
};
AnswerFacts FactsOf(const aqp::core::ApproxResult& r);

/// Adds one answered SQL operation's facts to the traced run's statistics.
void ObserveAnswer(const AnswerFacts& f, bool contract, double ms,
                   LayerStats* stats);

/// Accounts one operation the result cache answered: the service alone ran,
/// so the ladder has one rung. The span is recorded only if `record_span`.
void AccountCacheHit(Clock::time_point top_start, Clock::time_point top_end,
                     bool record_span, Tracer* tracer);

/// Replays one SQL operation down the ladder (a cache hit is accounted with
/// AccountCacheHit). `top_start`/`top_end` bound
/// the QueryService::Execute call that produced `answer`. When
/// `decompose_engine` is set, every subtree of the exact bound plan is also
/// executed on its own to give per-operator self times.
void ReplaySql(const aqp::Catalog& catalog,
               const aqp::service::ServiceOptions& options,
               const std::string& sql, const aqp::core::ApproxResult& answer,
               Clock::time_point top_start, Clock::time_point top_end,
               bool decompose_engine, Tracer* tracer);

/// Replays one extent-scan plan. `plan` must contain exactly one Filter
/// directly over a Scan of the extent-backed `table`; `exec` carries the
/// same memory budget the operation ran under.
void ReplayExtentPlan(const aqp::Catalog& catalog, const std::string& table,
                      const aqp::PlanPtr& plan, const aqp::ExecOptions& exec,
                      Clock::time_point top_start, Clock::time_point top_end,
                      Tracer* tracer);

/// Times SynopsisCache::GetOrBuild on a cold cache for the synopses the
/// service builds for `table` (uniform, plus stratified on `strata_column`
/// when non-empty).
void TimeSynopsisBuilds(const aqp::Catalog& catalog,
                        const aqp::service::ServiceOptions& options,
                        const std::string& table,
                        const std::string& strata_column, Tracer* tracer);

}  // namespace aqpbench

#endif  // AQPBENCH_LADDER_H_
