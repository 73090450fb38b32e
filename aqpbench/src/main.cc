// aqpbench: the repository benchmark.
//
//   aqpbench --workload <adhoc_contract|dashboard_refresh|extent_scan>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//            [--smoke] [--perturb]
//   aqpbench --self-test
//
// Builds the workload's inputs from the seed, runs its closed loop for the
// timed window, checks every answer, and prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run also
// replays operations down the layer ladder (ladder.h) and reports the
// per-layer metrics, the per-layer self-time table and the span log.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common_sql.h"
#include "harness.h"
#include "workloads.h"

extern char** environ;

namespace aqpbench {
namespace {

// The run fails when fewer approximated answers than this share keep their
// requested error. Contracts are stated at 95% confidence; the floor leaves
// room for the sampling noise of a few dozen answers per run.
constexpr double kContractMetFloor = 0.75;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ContractMetShare(const RunData& d) {
  return d.score.approximated == 0
             ? 1.0
             : static_cast<double>(d.score.met) / d.score.approximated;
}

std::vector<Metric> EndToEnd(const RunData& d, Tail* tail) {
  std::vector<double> all, approx, exact, post_write, ratios;
  uint64_t ok = 0;
  for (const OpRecord& op : d.ops) {
    if (!op.ok) continue;
    ++ok;
    all.push_back(op.ms);
    (op.kind == OpKind::kContract ? approx : exact).push_back(op.ms);
    if (op.post_write) post_write.push_back(op.ms);
    if (op.kind == OpKind::kContract && op.twin >= 0 && d.ops[op.twin].ok &&
        d.ops[op.twin].ms > 0.0) {
      ratios.push_back(op.ms / d.ops[op.twin].ms);
    }
  }
  *tail = TailLatency(all);
  return {
      {"setup_s", Median(d.setup_s), "s"},
      {"latency_p50_ms", Median(all), "ms"},
      {"latency_tail_ms", tail->value, "ms"},
      {"throughput_qps", Ratio(static_cast<double>(ok), d.measured_s), "1/s"},
      {"approx_latency_p50_ms", Median(approx), "ms"},
      {"exact_latency_p50_ms", Median(exact), "ms"},
      {"approx_exact_ratio", Median(ratios), "ratio"},
      {"post_write_latency_p50_ms", Median(post_write), "ms"},
      {"contract_met_share", ContractMetShare(d), "ratio"},
      {"answered_share", Ratio(static_cast<double>(ok), d.ops.size()), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Tracer& t, double overhead_share) {
  const LayerStats& s = t.stats;
  const double hits = static_cast<double>(s.result_cache_hits);
  return {
      {"service.self_ms_p50", Median(s.service_self_ms), "ms"},
      {"service.result_cache_hit_ratio",
       Ratio(hits, hits + static_cast<double>(s.result_cache_misses)), "ratio"},
      {"service.result_cache_hit_ms_p50", Median(s.result_cache_hit_ms), "ms"},
      {"service.synopsis_builds", static_cast<double>(s.synopsis_builds),
       "count"},
      {"service.synopsis_build_ms_p50", Median(s.synopsis_build_ms), "ms"},
      {"service.admission_wait_ms_p50", Median(s.admission_wait_ms), "ms"},
      {"gov.self_ms_p50", Median(s.gov_self_ms), "ms"},
      {"gov.degraded_share",
       Ratio(static_cast<double>(s.degraded_answers), s.service_answers),
       "ratio"},
      {"core.self_ms_p50", Median(s.core_self_ms), "ms"},
      {"core.pilot_share", Ratio(s.pilot_seconds, s.executor_seconds), "ratio"},
      {"core.declined_after_pilot_share",
       Ratio(static_cast<double>(s.declined_after_pilot), s.contract_answers),
       "ratio"},
      {"core.approx_slower_share",
       Ratio(static_cast<double>(s.approx_slower), s.contract_pairs), "ratio"},
      {"core.sampled_fraction_p50", Median(s.sampled_fraction), "ratio"},
      {"sql.parse_ms_p50", Median(s.parse_ms), "ms"},
      {"sql.bind_ms_p50", Median(s.bind_ms), "ms"},
      {"sampling.draw_ms_p50", Median(s.draw_ms), "ms"},
      {"sampling.rows_per_s", Ratio(s.drawn_rows, s.draw_seconds), "rows/s"},
      {"engine.exact_ms_p50", Median(s.engine_exact_ms), "ms"},
      {"engine.filter_rows_per_s", Ratio(s.filter_rows, s.filter_seconds),
       "rows/s"},
      {"engine.aggregate_rows_per_s",
       Ratio(s.aggregate_rows, s.aggregate_seconds), "rows/s"},
      {"engine.join_rows_per_s", Ratio(s.join_rows, s.join_seconds), "rows/s"},
      {"engine.rows_scanned", Median(s.rows_scanned), "count"},
      {"engine.blocks_read", Median(s.blocks_read), "count"},
      {"engine.morsels", Median(s.morsels), "count"},
      {"engine.extent_scan_self_ms_p50", Median(s.extent_scan_self_ms), "ms"},
      {"storage.extent_prune_ratio",
       Ratio(static_cast<double>(s.extents_pruned), s.extents_total), "ratio"},
      {"storage.extent_read_ms_p50", Median(s.extent_read_ms), "ms"},
      {"storage.bytes_read_per_result_row",
       Ratio(s.extent_bytes_read, s.extent_result_rows), "B/row"},
      {"storage.compression_ratio", s.compression_ratio, "ratio"},
      {"storage.extent_write_s", s.extent_write_s, "s"},
      {"trace.unattributed_share",
       Ratio(std::fabs(t.account.unattributed_ms()), t.account.top_ms()),
       "ratio"},
      {"trace.overhead_share", overhead_share, "ratio"},
  };
}

std::string Provenance(const Config& c, const RunData& d) {
  std::string out = "{\"workload\":\"" + c.workload + "\",\"seed\":" +
                    std::to_string(c.seed) + ",\"seconds\":" + Num(c.seconds) +
                    ",\"trace\":" + (c.trace ? "1" : "0");
  const char* sha = std::getenv("AQPBENCH_GIT_SHA");
  const char* digest = std::getenv("AQPBENCH_SOURCE_DIGEST");
  out += ",\"git_sha\":\"" + JsonEscape(sha ? sha : "unknown") + "\"";
  out += ",\"source_digest\":\"" + JsonEscape(digest ? digest : "unknown") + "\"";
  out += ",\"build_type\":\"" AQPBENCH_BUILD_TYPE "\"";
  out += ",\"nproc\":" + std::to_string(aqp::HardwareThreads());
  out += ",\"sizes\":{";
  bool first = true;
  for (const auto& [k, v] : d.sizes) {
    out += (first ? "\"" : ",\"") + k + "\":\"" + JsonEscape(v) + "\"";
    first = false;
  }
  out += "},\"aqp_env\":{";
  first = true;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "AQP_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    out += (first ? "\"" : ",\"") + JsonEscape(std::string(*e, static_cast<size_t>(eq - *e))) +
           "\":\"" + JsonEscape(eq + 1) + "\"";
    first = false;
  }
  return out + "}}";
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  aqp::Table t = aqp::Table::Make(
                     aqp::Schema({{"k", aqp::DataType::kString},
                                  {"v", aqp::DataType::kDouble}}),
                     {aqp::Column::FromString({"a", "b"}),
                      aqp::Column::FromDouble({10.0, 20.0})})
                     .value();
  aqp::Table off = aqp::Table::Make(
                       t.schema(), {aqp::Column::FromString({"a", "b"}),
                                    aqp::Column::FromDouble({10.0, 20.5})})
                       .value();
  std::string why;
  expect(SameAnswer(t, t, &why), "identical answers compare equal");
  expect(!SameAnswer(off, t, &why), "a perturbed cell is a mismatch");
  expect(!SameAnswer(t.Slice(0, 1), t, &why), "a missing row is a mismatch");
  expect(std::fabs(MaxRelativeError(off, t, 1) - 0.025) < 1e-12,
         "relative error of the worst cell");
  RunData d;
  d.perturb = true;
  d.CheckExact(t, t, "perturbed");
  expect(d.mismatches == 1, "the perturb hook makes the checker fail");
  Tail tail = TailLatency({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  expect(tail.value == 2 && tail.samples == 12,
         "tail keeps ten samples beyond it");
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "aqpbench: %s\nusage: aqpbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--smoke] "
               "[--perturb] | --self-test\n",
               why);
  std::exit(2);
}

int Main(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--self-test") return SelfTest();
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--perturb") {
      config.perturb = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (config.work_dir.empty()) Usage("--work-dir is required");
  if (!(config.seconds > 0.0)) Usage("--seconds must be positive");
  config.clients = aqp::HardwareThreads();

  RunData data;
  data.perturb = config.perturb;
  double span_cost_ns = 0.0;
  if (config.trace) {
    span_cost_ns = SpanCostNs();
    data.tracer = std::make_unique<Tracer>(Clock::now());
  }
  if (config.workload == "adhoc_contract") {
    RunAdhocContract(config, &data);
  } else if (config.workload == "dashboard_refresh") {
    RunDashboardRefresh(config, &data);
  } else if (config.workload == "extent_scan") {
    RunExtentScan(config, &data);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }

  Tail tail;
  std::vector<Metric> metrics = EndToEnd(data, &tail);
  if (config.trace) {
    const Tracer& t = *data.tracer;
    const double overhead_share =
        Ratio(span_cost_ns * 1e-6 * static_cast<double>(t.spans.size()),
              t.account.top_ms());
    metrics = PerLayer(t, overhead_share);
    std::printf("%s", t.account.Render(config.workload, overhead_share).c_str());
    const std::string span_path = config.work_dir + "/spans-" + config.workload +
                                  "-seed" + std::to_string(config.seed) + ".jsonl";
    if (t.spans.WriteJsonl(span_path)) {
      std::printf("spans: %zu written to %s\n", t.spans.size(), span_path.c_str());
    } else {
      std::fprintf(stderr, "aqpbench: could not write %s\n", span_path.c_str());
    }
  }

  uint64_t failed = 0;
  for (const OpRecord& op : data.ops) failed += op.ok ? 0 : 1;
  const bool correct = !data.ops.empty() && data.mismatches == 0 &&
                       ContractMetShare(data) >= kContractMetFloor;
  std::printf("provenance: %s\n", Provenance(config, data).c_str());
  std::printf(
      "summary: ops=%zu failed=%llu failed_share=%.6f tail=p%.1f of %zu "
      "samples, approximated=%llu contract_met=%llu mismatches=%llu%s%s\n",
      data.ops.size(), static_cast<unsigned long long>(failed),
      Ratio(static_cast<double>(failed), data.ops.size()), tail.percentile,
      tail.samples, static_cast<unsigned long long>(data.score.approximated),
      static_cast<unsigned long long>(data.score.met),
      static_cast<unsigned long long>(data.mismatches),
      data.mismatches ? " first mismatch: " : "", data.first_mismatch.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(data.ops.size()) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace aqpbench

int main(int argc, char** argv) { return aqpbench::Main(argc, argv); }
