#ifndef AQPBENCH_HARNESS_H_
#define AQPBENCH_HARNESS_H_

// Measurement plumbing shared by the three workloads: clocks, order
// statistics, answer checking, the in-memory span log of the traced run, and
// the per-layer self-time accumulator. Nothing here calls into the program
// except through the public Table/Value accessors.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/table.h"

namespace aqpbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The highest percentile that still has at least `beyond` samples above it:
/// the value at sorted rank n - beyond - 1. With fewer samples the maximum is
/// reported and `percentile` says 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailLatency(std::vector<double> v, size_t beyond = 10);

/// Kind of one timed operation, as the client sent it.
enum class OpKind {
  kContract,  // SQL with a WITH ERROR ... CONFIDENCE ... clause.
  kExact,     // SQL or plan without one (the exact twin of a contract query).
};

/// One timed operation of the closed loop.
struct OpRecord {
  OpKind kind = OpKind::kExact;
  double ms = 0.0;
  bool ok = false;
  bool post_write = false;  // A client's first answer after a write.
  long twin = -1;           // For contract ops: index of the exact twin.
};

/// Outcome of scoring approximate answers against exact ones.
struct ContractScore {
  uint64_t approximated = 0;  // Answers the program reported as approximate.
  uint64_t met = 0;           // ... whose true error is within the request.
};

/// Cell-for-cell comparison of an exact answer with the serial reference:
/// same shape, same column types, identical values in the same order. On a
/// mismatch returns false and describes the first difference in `why`.
bool SameAnswer(const aqp::Table& got, const aqp::Table& want, std::string* why);

/// Largest relative error of any aggregate cell of `approx` against `exact`.
/// Rows are matched on their first `num_keys` columns; a group missing from
/// either side counts as an error of 1 (100%).
double MaxRelativeError(const aqp::Table& approx, const aqp::Table& exact,
                        size_t num_keys);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Spans of the traced run, kept in memory and written out at exit. A span
/// is one timed call into a layer's public entry point; `parent` is the
/// index of the span one rung up the ladder (-1 for an operation's top
/// span), and all spans of one operation share `op`.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  /// Records [start, end) and returns the span's index.
  long Add(uint64_t op, const std::string& name, long parent,
           Clock::time_point start, Clock::time_point end);
  size_t size() const { return spans_.size(); }
  /// Writes one JSON object per line; returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint64_t op;
    std::string name;
    long parent;
    double start_us;
    double end_us;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Per-layer self time of the traced operations. Each operation contributes
/// its top span and the self time of every layer its ladder reached; the
/// remainder (top minus the layers' sum) is the operation's unattributed
/// time, which is negative where a rung replayed slower than the rung above.
class LayerAccount {
 public:
  void AddOp(double top_ms, const std::map<std::string, double>& self_ms);
  double top_ms() const { return top_ms_; }
  double unattributed_ms() const;
  /// Human-readable table: one row per layer plus `unattributed` and the
  /// trace overhead, each with its total and share of the top spans.
  std::string Render(const std::string& workload, double overhead_share) const;

 private:
  size_t ops_ = 0;
  double top_ms_ = 0.0;
  std::map<std::string, double> self_ms_;
};

/// Nanoseconds one span record costs (two clock reads and a vector append),
/// measured once at start-up; the traced run multiplies it by its span count
/// to report what the tracing itself costs.
double SpanCostNs();

}  // namespace aqpbench

#endif  // AQPBENCH_HARNESS_H_
