// Shared pieces of the stap benchmark: run options, timing, order
// statistics, the benchmark's own span recorder and the result record.
//
// Every workload runs in one of two modes. The untraced run (--trace 0)
// measures the end-to-end metrics with no span recording at all. The
// traced run (--trace 1) first repeats a shorter untraced pass, then runs
// the same operations again with spans around the calls into each layer,
// and reports the per-layer metrics, the tracing overhead (traced over
// untraced end-to-end time) and the accounting gap (how far the layer
// times fall short of, or exceed, the untraced end-to-end time).
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke size: the smallest inputs that still exercise every layer
  // (the self-check uses it).
  bool smoke = false;
};

// --- order statistics -------------------------------------------------

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
// 0 for an empty one.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// Geometric mean of positive values; 0 if any is not positive.
double GeoMean(const std::vector<double>& values);

// The gated statistics. Other tenants of a shared host take time from
// this one in spells of seconds, so a run mixes fast and slow stretches
// in a proportion that changes from run to run; a median or a mean moves
// with that proportion. The slow stretches recur at a steady speed, so
// the 90th percentile of operation times and, for the single-thread
// workloads, the rate sustained in nine of ten rounds (the 10th
// percentile of per-round rates) repeat run to run; medians are reported
// beside them, ungated.
inline double P90(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.9);
}
inline double SustainedRate(std::vector<double> round_rates) {
  return Quantile(std::move(round_rates), 0.1);
}

// Median over `repeats` calls of `fn`, each timed in seconds: set-up
// time is measured several times a run.
template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsSince(start));
  }
  return Median(std::move(samples));
}

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// --- spans --------------------------------------------------------------

// The benchmark's own span recorder: one per thread, owned by the code
// that drives that thread. Span names are string literals; each name
// accumulates its count and total time. Totals are kept instead of
// events, so memory stays constant however long a traced run lasts. The
// benchmark's spans never nest, so a span's time is its self time.
class SpanRecorder {
 public:
  struct Totals {
    const char* name = nullptr;
    int64_t count = 0;
    double total_ns = 0;
  };

  void Add(const char* name, double ns);

  // Totals for `name`, or zeros if it never ran.
  Totals Get(const char* name) const;

  // Adds another thread's totals into this one.
  void Merge(const SpanRecorder& other);

 private:
  // The entry for `name`, added if new.
  Totals* Find(const char* name);

  std::vector<Totals> totals_;
};

// RAII span; a null recorder (the untraced run) makes it a no-op.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), name_(name) {
    if (recorder_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->Add(name_, NanosSince(start_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  const char* name_;
  Clock::time_point start_{};
};

// --- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;  // failed, refused or wrong, plus failed checks
  std::vector<std::string> failures;  // first few mismatches, for stderr
  // Printed on the result line: the end-to-end metrics (untraced run) or
  // the per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // Printed on a line of its own before the result: the workload's
  // detailed figures under their per-workload names, with sample counts.
  std::vector<Metric> detail;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void AddDetail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  // A workload's own end-to-end figure under its per-workload name: on
  // the detail line, and in the traced run's metrics too (taken from
  // its untraced pass), beside the layers it splits into.
  void AddHeadline(const RunOptions& options, std::string name, double value,
                   std::string unit) {
    if (options.trace) metrics.push_back({name, value, unit});
    AddDetail(std::move(name), value, std::move(unit));
  }
  // Counts one failed check and keeps its description.
  void Fail(std::string what);
};

// Fills the metrics every workload reports: setup_s and peak_rss_mb in
// the untraced run, fail_ratio, trace_overhead and accounting_gap in the
// traced run. A gap beyond `tolerance` fails the run.
void AddCommonMetrics(const RunOptions& options, double setup_s,
                      double untraced_op_ns, double traced_op_ns,
                      double layer_sum_ns, double tolerance,
                      WorkloadResult* result);

WorkloadResult RunServeSmall(const RunOptions& options);
WorkloadResult RunValidateLarge(const RunOptions& options);
WorkloadResult RunApproxPipeline(const RunOptions& options);

// The examples/data file `name` from the checkout the benchmark runs in;
// aborts the run with a message if it cannot be read.
std::string ReadExampleData(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
