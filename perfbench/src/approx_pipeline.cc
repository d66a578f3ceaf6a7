// approx_pipeline: the CLI's schema commands as library calls on the
// paper's families, single-threaded, no XML and no sockets.
//
// Each instance runs what `stap <command>` runs after reading its files:
// ParseSchema -> construction -> MinimizeXsd -> StEdtdFromDfaXsd ->
// SchemaToText (PrintXsd in tools/stap_tool.cc); the measure instances
// run ParseSchema -> MeasureSchema -> MeasureResult::ToJson. Inputs are
// schema texts made at set-up; only the complement instance depends on
// the seed (its random single-type schemas).
//
// Correctness, checked after the timed loop: the input language must be
// included in the minimized output (Lemma 3.3, EdtdIncludedInXsd); every
// repetition must print the same text as the warm-up run; known
// sizes hold (Theorem 3.2: 2^(n+1) types, Theorem 3.8: p1 * p2 types);
// measure must give count(upper) >= count(S) >= count(lower) per depth.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/count/measure.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"

namespace perfbench {
namespace {

using stap::DfaXsd;
using stap::Edtd;

enum class Kind { kApprox, kMerge, kIntersect, kComplement, kMeasure };

struct Instance {
  std::string id;        // metric suffix, e.g. "theorem32"
  std::string e2e_name;  // per-instance end-to-end name
  Kind kind;
  std::vector<std::string> texts;  // schema sources (one or two, or K)
  int expected_types = 0;          // 0 = no known size
};

// Counter deltas over one run of an instance; they repeat exactly.
struct Counts {
  int64_t determinize_calls = 0;
  int64_t determinize_states = 0;
  int64_t minimize_calls = 0;
  int64_t minimize_rounds = 0;
};

struct Output {
  std::vector<std::string> printed;  // one per input (K for complement)
  int types_out = 0;        // construction output, summed over inputs
  int types_minimized = 0;  // after MinimizeXsd, summed over inputs
  Counts counts;
  std::vector<DfaXsd> minimized;  // what was printed, for the oracle
  std::shared_ptr<const stap::MeasureResult> measure;  // measure only
};

Edtd Parse(const std::string& text, WorkloadResult* result) {
  stap::StatusOr<Edtd> parsed = stap::ParseSchema(text);
  if (!parsed.ok()) {
    result->Fail("ParseSchema: " + parsed.status().message());
    return Edtd();
  }
  return std::move(*parsed);
}

// The output steps every construction shares (PrintXsd).
void PrintXsd(const DfaXsd& xsd, SpanRecorder* spans, Output* out) {
  out->types_out += xsd.type_size();
  DfaXsd minimized = [&] {
    Span span(spans, "schema.minimize_xsd");
    return stap::MinimizeXsd(xsd);
  }();
  out->types_minimized += minimized.type_size();
  Edtd st = [&] {
    Span span(spans, "schema.to_stedtd");
    return stap::StEdtdFromDfaXsd(minimized);
  }();
  {
    Span span(spans, "schema.print");
    out->printed.push_back(stap::SchemaToText(st));
  }
  out->minimized.push_back(std::move(minimized));
}

// One run of one instance. `spans` is null in the untraced pass.
Output RunInstance(const Instance& instance, SpanRecorder* spans,
                   WorkloadResult* result) {
  static stap::Counter* const det_calls =
      stap::GetCounter("determinize.calls");
  static stap::Counter* const det_states =
      stap::GetCounter("determinize.states_created");
  static stap::Counter* const min_calls = stap::GetCounter("minimize.calls");
  static stap::Counter* const min_rounds =
      stap::GetCounter("minimize.rounds");
  const Counts before{det_calls->value(), det_states->value(),
                      min_calls->value(), min_rounds->value()};

  Output out;
  std::vector<Edtd> inputs;
  {
    Span span(spans, "schema.parse");
    for (const std::string& text : instance.texts) {
      inputs.push_back(Parse(text, result));
    }
  }
  switch (instance.kind) {
    case Kind::kApprox: {
      DfaXsd xsd = [&] {
        Span span(spans, "approx.construct");
        return stap::MinimalUpperApproximation(inputs[0]);
      }();
      PrintXsd(xsd, spans, &out);
      break;
    }
    case Kind::kMerge:
    case Kind::kIntersect: {
      DfaXsd xsd = [&] {
        Span span(spans, "approx.construct");
        Edtd r1 = stap::ReduceEdtd(inputs[0]);
        Edtd r2 = stap::ReduceEdtd(inputs[1]);
        return instance.kind == Kind::kMerge
                   ? stap::UpperUnion(r1, r2)
                   : stap::UpperIntersection(r1, r2);
      }();
      PrintXsd(xsd, spans, &out);
      break;
    }
    case Kind::kComplement: {
      for (const Edtd& input : inputs) {
        DfaXsd xsd = [&] {
          Span span(spans, "approx.construct");
          return stap::UpperComplement(stap::ReduceEdtd(input));
        }();
        PrintXsd(xsd, spans, &out);
      }
      break;
    }
    case Kind::kMeasure: {
      stap::StatusOr<stap::MeasureResult> measured = [&] {
        Span span(spans, "count.measure");
        return stap::MeasureSchema(inputs[0], stap::MeasureOptions(),
                                   nullptr);
      }();
      if (!measured.ok()) {
        result->Fail(instance.e2e_name + ": MeasureSchema: " +
                     measured.status().message());
        break;
      }
      out.types_out = measured->upper_states;
      {
        Span span(spans, "schema.print");
        out.printed.push_back(measured->ToJson());
      }
      out.measure =
          std::make_shared<const stap::MeasureResult>(std::move(*measured));
      break;
    }
  }
  out.counts = Counts{det_calls->value() - before.determinize_calls,
                      det_states->value() - before.determinize_states,
                      min_calls->value() - before.minimize_calls,
                      min_rounds->value() - before.minimize_rounds};
  return out;
}

// The oracle for one instance, on the output of its last repetition.
void CheckInstance(const Instance& instance, const Output& out,
                   const std::vector<std::string>& first_printed,
                   WorkloadResult* result) {
  const std::string& name = instance.e2e_name;
  if (out.printed != first_printed) {
    result->Fail(name + ": output differs between repetitions");
  }
  if (instance.expected_types != 0 &&
      out.types_minimized != instance.expected_types) {
    result->Fail(name + ": " + std::to_string(out.types_minimized) +
                 " types, expected " +
                 std::to_string(instance.expected_types));
  }
  if (instance.kind == Kind::kMeasure) {
    const stap::MeasureResult* m = out.measure.get();
    if (m == nullptr || !m->has_upper || !m->has_lower) {
      result->Fail(name + ": measure gave no upper and lower counts");
      return;
    }
    for (size_t d = 0; d < m->schema.size(); ++d) {
      if (stap::CountValue::Compare(m->upper[d], m->schema[d]) < 0 ||
          stap::CountValue::Compare(m->schema[d], m->lower[d]) < 0) {
        result->Fail(name + ": count(upper) >= count(S) >= count(lower) "
                            "fails at depth " + std::to_string(d + 1));
      }
    }
    return;
  }
  std::vector<Edtd> inputs;
  for (const std::string& text : instance.texts) {
    inputs.push_back(Parse(text, result));
  }
  // The language each printed output must contain.
  std::vector<Edtd> languages;
  switch (instance.kind) {
    case Kind::kApprox:
      languages.push_back(inputs[0]);
      break;
    case Kind::kMerge:
      languages.push_back(stap::EdtdUnion(inputs[0], inputs[1]));
      break;
    case Kind::kIntersect:
      languages.push_back(stap::EdtdIntersection(inputs[0], inputs[1]));
      break;
    case Kind::kComplement:
      for (const Edtd& input : inputs) {
        languages.push_back(stap::ComplementEdtd(
            stap::DfaXsdFromStEdtd(stap::ReduceEdtd(input))));
      }
      break;
    case Kind::kMeasure:
      break;
  }
  if (languages.size() != out.minimized.size()) {
    result->Fail(name + ": wrong number of outputs");
    return;
  }
  for (size_t i = 0; i < languages.size(); ++i) {
    if (!stap::EdtdIncludedInXsd(languages[i], out.minimized[i])) {
      result->Fail(name + ": output is not an upper approximation");
    }
  }
}

std::vector<Instance> MakeInstances(const RunOptions& options) {
  // Family sizes: Theorem 3.2 n = 8 (512 types), Theorem 3.6 n = 16,
  // Theorem 3.8 n = 12 (p1 = 13, p2 = 17): each instance runs in at most
  // a few hundred milliseconds, so a run holds dozens of samples of each.
  const int n32 = options.smoke ? 6 : 8;
  const int n36 = options.smoke ? 10 : 16;
  const int n38 = options.smoke ? 6 : 12;
  const int random_schemas = options.smoke ? 8 : 32;

  std::vector<Instance> instances;
  const std::string theorem32 = stap::SchemaToText(stap::Theorem32Family(n32));
  instances.push_back({"theorem32", "approx.theorem32_ms", Kind::kApprox,
                       {theorem32}, 1 << (n32 + 1)});
  auto [d36a, d36b] = stap::Theorem36Family(n36);
  instances.push_back({"theorem36", "merge.theorem36_ms", Kind::kMerge,
                       {stap::SchemaToText(d36a), stap::SchemaToText(d36b)},
                       0});
  auto [d38a, d38b] = stap::Theorem38Family(n38);
  // The chain periods: p1 is the first prime above n, p2 the next one.
  auto next_prime = [](int v) {
    for (++v;; ++v) {
      bool prime = v >= 2;
      for (int d = 2; d * d <= v; ++d) prime = prime && v % d != 0;
      if (prime) return v;
    }
  };
  const int p1 = next_prime(n38);
  const int p2 = next_prime(p1);
  instances.push_back({"theorem38", "intersect.theorem38_ms",
                       Kind::kIntersect,
                       {stap::SchemaToText(d38a), stap::SchemaToText(d38b)},
                       p1 * p2});
  std::mt19937 rng(static_cast<uint32_t>(options.seed));
  stap::RandomSchemaParams params;
  params.num_symbols = 4;
  params.num_types = 8;
  params.content_breadth = 3;
  Instance complement{"random", "complement.random_ms", Kind::kComplement,
                      {}, 0};
  for (int i = 0; i < random_schemas; ++i) {
    complement.texts.push_back(
        stap::SchemaToText(stap::RandomStEdtd(&rng, params)));
  }
  instances.push_back(std::move(complement));
  instances.push_back({"relaxng", "measure.relaxng_ms", Kind::kMeasure,
                       {ReadExampleData("relaxng_style.stap")}, 0});
  instances.push_back({"theorem32_measure", "measure.theorem32_ms",
                       Kind::kMeasure, {theorem32}, 0});
  return instances;
}

// Self time of the library's determinize, minimize and counting spans
// (count.* below count.measure), read from a finished session.
struct LibraryTimes {
  double determinize_ns = 0;
  double minimize_ns = 0;
  double count_ns = 0;
};

LibraryTimes LibrarySelfTimes(const stap::TraceSession& session) {
  LibraryTimes times;
  for (const stap::TraceSession::ThreadTrace& thread : session.Snapshot()) {
    struct Open {
      const std::string* name;
      int64_t start_us;
      int64_t child_us;
    };
    std::vector<Open> stack;
    for (const stap::TraceEvent& event : thread.events) {
      if (event.phase == 'B') {
        stack.push_back({&event.name, event.ts_us, 0});
        continue;
      }
      if (stack.empty()) continue;
      const Open open = stack.back();
      stack.pop_back();
      const int64_t us = event.ts_us - open.start_us;
      if (!stack.empty()) stack.back().child_us += us;
      const double self_ns = static_cast<double>(us - open.child_us) * 1e3;
      const std::string& name = *open.name;
      if (name == "determinize") {
        times.determinize_ns += self_ns;
      } else if (name == "minimize") {
        times.minimize_ns += self_ns;
      } else if (name.rfind("count.", 0) == 0 && name != "count.measure") {
        times.count_ns += self_ns;
      }
    }
  }
  return times;
}

struct TracedTotals {
  SpanRecorder spans;
  double determinize_ns = 0;
  double minimize_ns = 0;
  double count_ns = 0;
  std::vector<double> op_ns;
};

}  // namespace

WorkloadResult RunApproxPipeline(const RunOptions& options) {
  WorkloadResult result;
  std::vector<Instance> instances;
  std::vector<std::vector<std::string>> first_printed;
  // Set-up: make the inputs, then one warm-up run of every instance (it
  // also fixes the reference output each later repetition must match).
  // Repeated five times; the last one is kept.
  const double setup_s = MedianSeconds(5, [&] {
    instances = MakeInstances(options);
    first_printed.clear();
    for (const Instance& instance : instances) {
      first_printed.push_back(RunInstance(instance, nullptr, &result).printed);
    }
  });

  const size_t n = instances.size();
  const int least_rounds = options.smoke ? 1 : 3;

  // Whole rounds over the instances until the time is up. In the traced
  // run each untraced run of an instance is followed by a traced one, so
  // both see the same machine: the traced run adds the benchmark's stage
  // spans and a TraceSession for the library's own spans.
  std::vector<std::vector<double>> samples_ns(n);
  std::vector<double> round_rates;  // instance runs per second, per round
  std::vector<Output> last(n);
  std::vector<TracedTotals> traced(n);
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  while (rounds < least_rounds || SecondsSince(start) < options.seconds) {
    double round_ns = 0;
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      last[i] = RunInstance(instances[i], nullptr, &result);
      samples_ns[i].push_back(NanosSince(t0));
      round_ns += samples_ns[i].back();
      ++result.attempted;
      if (!options.trace) continue;
      stap::TraceSession session;
      const Clock::time_point t1 = Clock::now();
      session.Start();
      last[i] = RunInstance(instances[i], &traced[i].spans, &result);
      session.Stop();
      traced[i].op_ns.push_back(NanosSince(t1));
      ++result.attempted;
      const LibraryTimes library = LibrarySelfTimes(session);
      traced[i].determinize_ns += library.determinize_ns;
      traced[i].minimize_ns += library.minimize_ns;
      traced[i].count_ns += library.count_ns;
    }
    round_rates.push_back(static_cast<double>(n) * 1e9 / round_ns);
    ++rounds;
  }

  // Medians and 90th percentiles per instance, combined over the
  // instances by geometric mean, so every instance weighs the same; means
  // are kept for the accounting check, since means of parts add up.
  std::vector<double> median_ms(n);
  std::vector<double> p90_ms(n);
  double untraced_round_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    median_ms[i] = Median(samples_ns[i]) / 1e6;
    p90_ms[i] = P90(samples_ns[i]) / 1e6;
    untraced_round_ns += Mean(samples_ns[i]);
    result.AddHeadline(options, instances[i].e2e_name, median_ms[i], "ms");
  }
  result.AddHeadline(options, "pipeline.geomean_ms", GeoMean(median_ms),
                     "ms");
  result.AddDetail("samples_per_instance", rounds, "count");

  // Oracle, outside every timed region.
  for (size_t i = 0; i < n; ++i) {
    CheckInstance(instances[i], last[i], first_printed[i], &result);
  }

  if (!options.trace) {
    AddCommonMetrics(options, setup_s, 0, 0, 0, 0, &result);
    result.Add("op_p90_ms", GeoMean(p90_ms), "ms");
    result.Add("ops_per_s", SustainedRate(round_rates), "1/s");
    return result;
  }

  double traced_round_ns = 0;
  double layer_round_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    const Instance& instance = instances[i];
    const TracedTotals& t = traced[i];
    const double reps = static_cast<double>(t.op_ns.size());
    traced_round_ns += Mean(t.op_ns);
    const std::string& id = instance.id;
    auto stage_ms = [&](const char* stage) {
      return t.spans.Get(stage).total_ns / reps / 1e6;
    };
    std::vector<const char*> stages = {"schema.parse"};
    if (instance.kind == Kind::kMeasure) {
      stages.push_back("count.measure");
    } else {
      stages.insert(stages.end(), {"approx.construct", "schema.minimize_xsd",
                                   "schema.to_stedtd"});
    }
    stages.push_back("schema.print");
    for (const char* stage : stages) {
      const double ms = stage_ms(stage);
      layer_round_ns += ms * 1e6;
      result.Add(std::string(stage) + "_ms." + id, ms, "ms");
    }
    result.Add("approx.types_out." + id, last[i].types_out, "count");
    if (instance.kind != Kind::kMeasure) {
      result.Add("schema.types_minimized." + id, last[i].types_minimized,
                 "count");
    } else {
      result.Add("count.dp_ms." + id, t.count_ns / reps / 1e6, "ms");
    }
    const Counts& c = last[i].counts;
    result.Add("automata.determinize_calls." + id, c.determinize_calls,
               "count");
    result.Add("automata.determinize_states." + id, c.determinize_states,
               "count");
    result.Add("automata.minimize_calls." + id, c.minimize_calls, "count");
    result.Add("automata.minimize_rounds." + id, c.minimize_rounds, "count");
    result.Add("automata.determinize_ms." + id, t.determinize_ns / reps / 1e6,
               "ms");
    result.Add("automata.minimize_ms." + id, t.minimize_ns / reps / 1e6,
               "ms");
  }
  AddCommonMetrics(options, setup_s, untraced_round_ns, traced_round_ns,
                   layer_round_ns, /*tolerance=*/0.10, &result);
  return result;
}

}  // namespace perfbench
