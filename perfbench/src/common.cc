#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

SpanRecorder::Totals* SpanRecorder::Find(const char* name) {
  for (Totals& totals : totals_) {
    if (totals.name == name || std::strcmp(totals.name, name) == 0) {
      return &totals;
    }
  }
  return &totals_.emplace_back(Totals{name, 0, 0});
}

void SpanRecorder::Add(const char* name, double ns) {
  Totals* totals = Find(name);
  ++totals->count;
  totals->total_ns += ns;
}

SpanRecorder::Totals SpanRecorder::Get(const char* name) const {
  for (const Totals& totals : totals_) {
    if (std::strcmp(totals.name, name) == 0) return totals;
  }
  return Totals{name, 0, 0};
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  for (const Totals& theirs : other.totals_) {
    Totals* mine = Find(theirs.name);
    mine->count += theirs.count;
    mine->total_ns += theirs.total_ns;
  }
}

void WorkloadResult::Fail(std::string what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(std::move(what));
}

void AddCommonMetrics(const RunOptions& options, double setup_s,
                      double untraced_op_ns, double traced_op_ns,
                      double layer_sum_ns, double tolerance,
                      WorkloadResult* result) {
  if (!options.trace) {
    result->Add("setup_s", setup_s, "s");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  const double overhead =
      untraced_op_ns > 0 ? traced_op_ns / untraced_op_ns : 0;
  const double gap =
      untraced_op_ns > 0 ? (untraced_op_ns - layer_sum_ns) / untraced_op_ns
                         : 1;
  result->AddDetail("accounting_tolerance", tolerance, "ratio");
  result->AddDetail("untraced_op_ms", untraced_op_ns / 1e6, "ms");
  result->AddDetail("traced_op_ms", traced_op_ns / 1e6, "ms");
  result->AddDetail("layer_sum_ms", layer_sum_ns / 1e6, "ms");
  if (!(std::fabs(gap) <= tolerance)) {
    std::ostringstream what;
    what << "accounting gap " << gap << " exceeds the tolerance "
         << tolerance << " (layers " << layer_sum_ns / 1e6
         << " ms vs end-to-end " << untraced_op_ns / 1e6 << " ms per op)";
    result->Fail(what.str());
  }
  result->Add("fail_ratio",
              result->attempted > 0
                  ? static_cast<double>(result->failed) /
                        static_cast<double>(result->attempted)
                  : 1,
              "ratio");
  result->Add("trace_overhead", overhead, "ratio");
  result->Add("accounting_gap", gap, "ratio");
}

std::string ReadExampleData(const std::string& name) {
  const std::string path = "examples/data/" + name;
  std::ifstream file(path);
  std::ostringstream text;
  if (!file || !(text << file.rdbuf())) {
    std::cerr << "perfbench: cannot read " << path
              << " (run from the repository root)\n";
    std::exit(2);
  }
  return text.str();
}

}  // namespace perfbench
