#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace aqpbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail TailLatency(std::vector<double> v, size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= beyond) {
    t.value = v.back();
    return t;
  }
  const size_t rank = v.size() - beyond - 1;
  t.value = v[rank];
  t.percentile = 100.0 * static_cast<double>(rank + 1) /
                 static_cast<double>(v.size());
  return t;
}

namespace {

std::string CellText(const aqp::Table& t, size_t row, size_t col) {
  return t.column(col).GetValue(row).ToString();
}

// Key of a row: its first `num_keys` cells, rendered.
std::string RowKey(const aqp::Table& t, size_t row, size_t num_keys) {
  std::string key;
  for (size_t c = 0; c < num_keys; ++c) {
    key += CellText(t, row, c);
    key += '\x1f';
  }
  return key;
}

}  // namespace

bool SameAnswer(const aqp::Table& got, const aqp::Table& want,
                std::string* why) {
  if (got.num_rows() != want.num_rows() ||
      got.num_columns() != want.num_columns()) {
    *why = "shape " + std::to_string(got.num_rows()) + "x" +
           std::to_string(got.num_columns()) + " vs reference " +
           std::to_string(want.num_rows()) + "x" +
           std::to_string(want.num_columns());
    return false;
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    if (got.column(c).type() != want.column(c).type()) {
      *why = "type of column " + std::to_string(c);
      return false;
    }
    const aqp::Column& g = got.column(c);
    const aqp::Column& w = want.column(c);
    for (size_t r = 0; r < got.num_rows(); ++r) {
      bool same = g.IsNull(r) == w.IsNull(r);
      if (same && !g.IsNull(r)) {
        switch (g.type()) {
          case aqp::DataType::kInt64:
            same = g.Int64At(r) == w.Int64At(r);
            break;
          case aqp::DataType::kDouble:
            same = g.DoubleAt(r) == w.DoubleAt(r);
            break;
          case aqp::DataType::kString:
            same = g.StringAt(r) == w.StringAt(r);
            break;
          default:
            same = g.GetValue(r) == w.GetValue(r);
            break;
        }
      }
      if (!same) {
        *why = "cell (" + std::to_string(r) + "," + std::to_string(c) +
               "): " + CellText(got, r, c) + " vs reference " +
               CellText(want, r, c);
        return false;
      }
    }
  }
  return true;
}

double MaxRelativeError(const aqp::Table& approx, const aqp::Table& exact,
                        size_t num_keys) {
  if (approx.num_columns() != exact.num_columns() ||
      approx.num_rows() != exact.num_rows()) {
    return 1.0;
  }
  std::map<std::string, size_t> exact_rows;
  for (size_t r = 0; r < exact.num_rows(); ++r) {
    exact_rows[RowKey(exact, r, num_keys)] = r;
  }
  double worst = 0.0;
  for (size_t r = 0; r < approx.num_rows(); ++r) {
    auto it = exact_rows.find(RowKey(approx, r, num_keys));
    if (it == exact_rows.end()) return 1.0;
    for (size_t c = num_keys; c < approx.num_columns(); ++c) {
      const aqp::Column& a = approx.column(c);
      const aqp::Column& e = exact.column(c);
      if (a.IsNull(r) || e.IsNull(it->second)) {
        if (a.IsNull(r) != e.IsNull(it->second)) return 1.0;
        continue;
      }
      const double av = a.NumericAt(r);
      const double ev = e.NumericAt(it->second);
      const double err =
          ev == 0.0 ? (av == 0.0 ? 0.0 : 1.0) : std::fabs(av - ev) / std::fabs(ev);
      worst = std::max(worst, err);
    }
  }
  return worst;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

long SpanLog::Add(uint64_t op, const std::string& name, long parent,
                  Clock::time_point start, Clock::time_point end) {
  spans_.push_back({op, name, parent, MsBetween(epoch_, start) * 1e3,
                    MsBetween(epoch_, end) * 1e3});
  return static_cast<long>(spans_.size()) - 1;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent;
    std::snprintf(buf, sizeof(buf), ",\"start_us\":%.3f,\"end_us\":%.3f}",
                  s.start_us, s.end_us);
    out << buf << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

void LayerAccount::AddOp(double top_ms,
                         const std::map<std::string, double>& self_ms) {
  ++ops_;
  top_ms_ += top_ms;
  for (const auto& [layer, ms] : self_ms) self_ms_[layer] += ms;
}

double LayerAccount::unattributed_ms() const {
  double sum = 0.0;
  for (const auto& [layer, ms] : self_ms_) sum += ms;
  return top_ms_ - sum;
}

std::string LayerAccount::Render(const std::string& workload,
                                 double overhead_share) const {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "traced per-layer self time, workload %s (%zu operations)\n",
                workload.c_str(), ops_);
  out << line;
  std::snprintf(line, sizeof(line), "  %-16s %14s %9s\n", "layer", "self ms",
                "share");
  out << line;
  auto row = [&](const std::string& name, double ms) {
    std::snprintf(line, sizeof(line), "  %-16s %14.3f %8.2f%%\n", name.c_str(),
                  ms, top_ms_ > 0 ? 100.0 * ms / top_ms_ : 0.0);
    out << line;
  };
  for (const auto& [layer, ms] : self_ms_) row(layer, ms);
  row("unattributed", unattributed_ms());
  row("total (top spans)", top_ms_);
  std::snprintf(line, sizeof(line), "  trace overhead share: %.6f\n",
                overhead_share);
  out << line;
  return out.str();
}

double SpanCostNs() {
  SpanLog log(Clock::now());
  constexpr int kSpans = 20000;
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    log.Add(static_cast<uint64_t>(i), "calibrate", -1, a, b);
  }
  return MsBetween(start, Clock::now()) * 1e6 / kSpans;
}

}  // namespace aqpbench
