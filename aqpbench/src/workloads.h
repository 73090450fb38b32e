#ifndef AQPBENCH_WORKLOADS_H_
#define AQPBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "ladder.h"

namespace aqpbench {

/// One benchmark invocation.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // Length of the timed window.
  bool trace = false;
  bool smoke = false;     // Small data and a short run, for the self-tests.
  bool perturb = false;   // Corrupt one exact answer before it is checked.
  std::string work_dir;   // Scratch directory for extent files.
  size_t clients = 1;     // Client threads of multi-client workloads (nproc).
};

/// Everything one run measured, in workload-independent form; main.cc turns
/// it into the end-to-end metrics.
struct RunData {
  std::vector<double> setup_s;  // One entry per repeated set-up.
  std::vector<OpRecord> ops;
  double measured_s = 0.0;      // Sum of the timed windows.
  uint64_t mismatches = 0;      // Exact answers that differ from reference.
  std::string first_mismatch;
  ContractScore score;
  std::map<std::string, std::string> sizes;  // Workload sizes (provenance).
  std::unique_ptr<Tracer> tracer;            // Non-null in the traced run.
  bool perturb = false;  // The next checked exact answer gets one bad cell.

  /// Checks an exact answer against its serial reference.
  void CheckExact(const aqp::Table& got, const aqp::Table& want,
                  const std::string& what);
  /// Scores one contract answer against the exact answer of the same data.
  void ScoreContract(bool approximated, const aqp::Table& approx,
                     const aqp::Table& exact, size_t num_keys,
                     double requested_error);
};

/// Set-ups per run; the reported setup_s is their median.
constexpr int kSetups = 5;

/// Times set-up `repeats` times and returns the last set-up's product; each
/// repetition builds everything from scratch and the earlier products are
/// destroyed before the next starts.
template <typename Fn>
auto TimedSetups(int repeats, RunData* data, Fn&& setup) {
  decltype(setup()) product;
  for (int i = 0; i < repeats; ++i) {
    product = nullptr;
    const auto start = Clock::now();
    product = setup();
    data->setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
  }
  return product;
}

void RunAdhocContract(const Config& config, RunData* data);
void RunDashboardRefresh(const Config& config, RunData* data);
void RunExtentScan(const Config& config, RunData* data);

}  // namespace aqpbench

#endif  // AQPBENCH_WORKLOADS_H_
