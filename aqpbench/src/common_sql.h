#ifndef AQPBENCH_COMMON_SQL_H_
#define AQPBENCH_COMMON_SQL_H_

// Helpers the workloads share: formatting and seeded draws, the timed
// window of a single-client closed loop, the serial reference executor, and
// the recording and checking of contract/exact twin pairs.

#include <cstdarg>
#include <memory>
#include <random>
#include <string>

#include "common/result.h"
#include "core/approx_executor.h"
#include "engine/catalog.h"
#include "engine/plan.h"
#include "service/query_service.h"
#include "workloads.h"

namespace aqpbench {

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Uniform draw in [lo, hi).
inline double Uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

/// Prints `what` to stderr and exits with code 2 (set-up cannot continue).
[[noreturn]] void Die(const std::string& what);

/// The contract clause appended to a query to make its contract twin.
std::string ContractClause(double error);

/// Serial exact answer of `sql` (one thread, no sampling), or of `plan`.
aqp::Table SerialReference(const aqp::Catalog& catalog, const std::string& sql);
aqp::Table SerialReference(const aqp::Catalog& catalog,
                           const aqp::PlanPtr& plan);

/// The timed window of a single-client closed loop. The clock runs only
/// while the client is sending and waiting; answer checks and trace replays
/// happen with it paused. In the traced run the loop is bounded by wall
/// time instead, so replays cannot stretch the run.
class Window {
 public:
  explicit Window(const Config& config);
  /// Gives the next epoch an equal share of what is left of the window.
  void StartEpoch(int epochs_left);
  bool EpochDone() const;
  bool Done() const;
  void Resume();
  void Pause();
  void Finish(RunData* data);

 private:
  double Used() const;

  const double total_s_;
  const bool wall_bounded_;
  const Clock::time_point loop_start_;
  Clock::time_point segment_start_;
  bool running_ = false;
  double measured_s_ = 0.0;
  double epoch_start_ = 0.0;
  double epoch_budget_ = 0.0;
};

/// Records one SQL operation in `data` (and, in the traced run, what its
/// answer reported) and returns its index. `facts` is null for a failure.
long RecordSqlOp(OpKind kind, Clock::time_point start, Clock::time_point end,
                 const AnswerFacts* facts, bool post_write, RunData* data);

/// Checks/scores one answered twin pair against `reference`.
void CheckPair(const aqp::Result<aqp::core::ApproxResult>& contract,
               const aqp::Result<aqp::core::ApproxResult>& exact,
               const aqp::Table& reference, size_t num_keys, double error,
               const std::string& what, RunData* data);

}  // namespace aqpbench

#endif  // AQPBENCH_COMMON_SQL_H_
