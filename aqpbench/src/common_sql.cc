#include "common_sql.h"

#include <cstdio>
#include <cstdlib>

#include "engine/executor.h"
#include "sql/binder.h"

namespace aqpbench {

std::string Fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "aqpbench: %s\n", what.c_str());
  std::exit(2);
}

std::string ContractClause(double error) {
  return Fmt(" WITH ERROR %g%% CONFIDENCE 95%%", error * 100.0);
}

aqp::Table SerialReference(const aqp::Catalog& catalog,
                           const aqp::PlanPtr& plan) {
  aqp::ExecOptions serial;
  serial.num_threads = 1;
  aqp::Result<aqp::Table> out =
      aqp::Execute(plan, catalog, nullptr, nullptr, serial);
  if (!out.ok()) Die("reference execution failed: " + out.status().ToString());
  return std::move(out).value();
}

aqp::Table SerialReference(const aqp::Catalog& catalog, const std::string& sql) {
  aqp::Result<aqp::sql::BoundQuery> bound = aqp::sql::BindSql(sql, catalog);
  if (!bound.ok()) Die("reference bind failed: " + bound.status().ToString());
  return SerialReference(catalog, bound.value().plan);
}

namespace {

// Copy of `t` whose last column's first cell is changed.
aqp::Table PerturbFirstCell(const aqp::Table& t) {
  std::vector<aqp::Column> columns;
  for (size_t c = 0; c < t.num_columns(); ++c) columns.push_back(t.column(c));
  const size_t last = t.num_columns() - 1;
  const aqp::Column& src = t.column(last);
  aqp::Column changed(src.type());
  for (size_t r = 0; r < src.size(); ++r) {
    aqp::Value v = src.GetValue(r);
    if (r == 0) {
      if (src.type() == aqp::DataType::kInt64) {
        v = aqp::Value(src.Int64At(r) + 1);
      } else if (src.type() == aqp::DataType::kDouble) {
        v = aqp::Value(src.DoubleAt(r) + 1.0);
      } else if (src.type() == aqp::DataType::kString) {
        v = aqp::Value(src.StringAt(r) + "x");
      }
    }
    (void)changed.AppendValue(v);
  }
  columns[last] = std::move(changed);
  return aqp::Table::Make(t.schema(), std::move(columns)).value();
}

}  // namespace

void RunData::CheckExact(const aqp::Table& got, const aqp::Table& want,
                         const std::string& what) {
  std::string why;
  bool same;
  if (perturb && got.num_rows() > 0 && got.num_columns() > 0) {
    perturb = false;
    same = SameAnswer(PerturbFirstCell(got), want, &why);
  } else {
    same = SameAnswer(got, want, &why);
  }
  if (same) return;
  if (mismatches++ == 0) first_mismatch = what + ": " + why;
}

void RunData::ScoreContract(bool approximated, const aqp::Table& approx,
                            const aqp::Table& exact, size_t num_keys,
                            double requested_error) {
  if (!approximated) {
    CheckExact(approx, exact, "declined contract answer");
    return;
  }
  ++score.approximated;
  if (MaxRelativeError(approx, exact, num_keys) <= requested_error) {
    ++score.met;
  }
}

Window::Window(const Config& config)
    : total_s_(config.seconds),
      wall_bounded_(config.trace),
      loop_start_(Clock::now()) {}

double Window::Used() const {
  if (wall_bounded_) return MsBetween(loop_start_, Clock::now()) / 1e3;
  double used = measured_s_;
  if (running_) used += MsBetween(segment_start_, Clock::now()) / 1e3;
  return used;
}

void Window::StartEpoch(int epochs_left) {
  epoch_start_ = Used();
  epoch_budget_ = (total_s_ - epoch_start_) / std::max(epochs_left, 1);
}

bool Window::EpochDone() const { return Used() - epoch_start_ >= epoch_budget_; }

bool Window::Done() const { return Used() >= total_s_; }

void Window::Resume() {
  if (running_) return;
  segment_start_ = Clock::now();
  running_ = true;
}

void Window::Pause() {
  if (!running_) return;
  measured_s_ += MsBetween(segment_start_, Clock::now()) / 1e3;
  running_ = false;
}

void Window::Finish(RunData* data) {
  Pause();
  data->measured_s = measured_s_;
}

long RecordSqlOp(OpKind kind, Clock::time_point start, Clock::time_point end,
                 const AnswerFacts* facts, bool post_write, RunData* data) {
  OpRecord op;
  op.kind = kind;
  op.ms = MsBetween(start, end);
  op.ok = facts != nullptr;
  op.post_write = post_write;
  data->ops.push_back(op);
  if (data->tracer && facts != nullptr) {
    ObserveAnswer(*facts, kind == OpKind::kContract, op.ms,
                  &data->tracer->stats);
  }
  return static_cast<long>(data->ops.size()) - 1;
}

void CheckPair(const aqp::Result<aqp::core::ApproxResult>& contract,
               const aqp::Result<aqp::core::ApproxResult>& exact,
               const aqp::Table& reference, size_t num_keys, double error,
               const std::string& what, RunData* data) {
  if (exact.ok()) data->CheckExact(exact.value().table, reference, what);
  if (contract.ok()) {
    data->ScoreContract(contract.value().approximated, contract.value().table,
                        reference, num_keys, error);
  }
}

}  // namespace aqpbench
