// stap — command-line front end for the library.
//
// Every command is one row of kCommands: its name, positional synopsis,
// help line, arity, flags, schema precondition and handler. `stap` with no
// arguments prints the usage text generated from that table and from
// kGlobalFlags, the flags every command accepts anywhere on the line.
//
// Exit codes: 0 success or a positive answer, 1 an error or a negative
// answer, 2 a usage error, 3 an exhausted budget. Schemas use the textual
// format of schema/text_format.h (docs/FORMAT.md) unless stated otherwise;
// results are printed in the same format.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stap/approx/diff_report.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/lower_check.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/approx/witness.h"
#include "stap/base/budget.h"
#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/count/counter.h"
#include "stap/count/measure.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/regex/bkw.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/typing.h"
#include "stap/schema/xsd_io.h"
#include "stap/serve/client.h"
#include "stap/serve/server.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

enum class FlagKind {
  kSwitch,        // --json
  kInt,           // --port=N, checked against [min, max]
  kText,          // --host=H; a single-dash flag takes the next argument
  kOptionalText,  // --metrics-json[=F]
};
using enum FlagKind;

struct Flag {
  const char* name;
  FlagKind kind;
  const char* value;  // placeholder printed by Usage(), e.g. "N" or "FILE"
  const char* help;
  int64_t min = 0;
  int64_t max = 0;
  // Names what a data-bounding flag bounds (measure's --depth): a bad value
  // is then an invalid argument (exit 1), not a usage error (exit 2).
  const char* bound = nullptr;
  bool required = false;
};

const std::vector<Flag> kGlobalFlags = {
    {"--jobs", kInt, "N", "validation threads (0 = one per core)", 0, 1024},
    {"--budget-ms", kInt, "N", "kernel deadline", 0, Budget::kUnlimited},
    {"--max-states", kInt, "N", "created-state cap", 0, Budget::kUnlimited},
    {"--max-sets", kInt, "N", "frontier/subset-set cap", 0, Budget::kUnlimited},
    {"--metrics-json", kOptionalText, "F", "metrics as JSON (bare/-: stderr)"},
    {"--metrics-prom", kOptionalText, "F", "metrics as Prometheus text"},
    {"--trace-json", kOptionalText, "F", "Chrome trace of the command"},
};

// Checked decimal parse for integer flags and positional counts: garbage,
// trailing junk and out-of-range values are errors, never silently 0.
StatusOr<int64_t> CheckedInt(const std::string& text, const std::string& what,
                             int64_t min, int64_t max) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < min || parsed > max) {
    return InvalidArgumentError("invalid " + what + " '" + text +
                                "' (expected an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "])");
  }
  return static_cast<int64_t>(parsed);
}

struct Command;

// Everything a handler receives: its positional arguments, the flags given
// (global and per-command), the schemas the precondition step loaded, and
// the global budget to pass to every kernel that accepts one.
struct Invocation {
  const Command* command = nullptr;
  std::vector<std::string> args;  // positional arguments after the command
  std::map<std::string, std::string> flags;  // flag name -> value text
  std::vector<Edtd> schemas;
  std::optional<Budget> owned_budget;
  Budget* budget = nullptr;  // null = unlimited
  // Session wrapping the whole command when --trace-json is given; also
  // borrowed by `explain` for its phase table so one recording serves both.
  std::unique_ptr<TraceSession> session;
  // Registry value at session start, so `explain` can cross-check span
  // sums against counter deltas over the exact recording window.
  int64_t states_at_trace_start = 0;

  bool Has(const std::string& flag) const { return flags.count(flag) > 0; }
  // An integer flag's value (already checked by the parser) or `fallback`.
  int64_t Int(const std::string& flag, int64_t fallback) const {
    return Has(flag) ? std::strtoll(flags.at(flag).c_str(), nullptr, 10)
                     : fallback;
  }
  std::string Text(const std::string& flag, std::string fallback = "") const {
    return Has(flag) ? flags.at(flag) : fallback;
  }
  // Positional argument `index` as a checked integer, or `fallback`.
  StatusOr<int64_t> Count(size_t index, const char* what, int64_t min,
                          int64_t max, int64_t fallback = 0) const {
    if (index >= args.size()) return fallback;
    return CheckedInt(args[index], what, min, max);
  }
};

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  // Budget exhaustion is an expected, recoverable outcome (retry with a
  // larger budget); give it a distinct exit code scripts can branch on.
  return status.code() == StatusCode::kResourceExhausted ? 3 : 1;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// What the precondition step makes of one schema argument.
enum class Need {
  kLoaded,      // the schema as written
  kReduced,     // the reduced schema
  kSingleType,  // the reduced schema, which must be single-type
};
using enum Need;

// The precondition step: loads the command's leading schema arguments into
// in->schemas, one per entry of `needs`, reducing and checking each as its
// entry asks. A W3C XSD document (sniffed via LooksLikeXml) goes through
// the XSD importer, anything else through the textual-format parser; both
// charge content-model compilation, counted repetitions included, against
// the budget.
Status LoadSchemas(const std::vector<Need>& needs, Invocation* in) {
  for (size_t i = 0; i < needs.size(); ++i) {
    const std::string& path = in->args[i];
    StatusOr<std::string> text = ReadFile(path);
    if (!text.ok()) return text.status();
    StatusOr<Edtd> schema = LooksLikeXml(*text)
                                ? ImportXsd(*text, in->budget)
                                : ParseSchema(*text, nullptr, in->budget);
    if (!schema.ok()) return schema.status();
    if (needs[i] == kLoaded) {
      in->schemas.push_back(*std::move(schema));
      continue;
    }
    Edtd reduced = ReduceEdtd(*schema);
    if (needs[i] == kSingleType && !IsSingleType(reduced)) {
      return InvalidArgumentError(
          "'" + path + "' is not single-type; run 'approx' on it first");
    }
    in->schemas.push_back(std::move(reduced));
  }
  return Status();
}

// Writes `text` to `path` ("" or "-" = stderr). Returns the exit code,
// degraded to 1 on a write failure that would otherwise pass as success.
int WriteDump(const std::string& text, const std::string& path,
              int exit_code) {
  if (path.empty() || path == "-") {
    std::cerr << text << "\n";
    return exit_code;
  }
  std::ofstream out(path);
  if (!(out << text << "\n")) {
    std::cerr << "error: cannot write '" << path << "'\n";
    return exit_code == 0 ? 1 : exit_code;
  }
  return exit_code;
}

int CmdCompile(Invocation& in) {
  const std::string& source = in.args[0];
  const std::string target = in.Text("-o");
  StatusOr<std::string> text = ReadFile(source);
  if (!text.ok()) return Fail(text.status());
  if (LooksLikeArtifact(*text)) {
    return Fail(InvalidArgumentError("'" + source +
                                     "' is already a compiled artifact"));
  }
  StatusOr<CompiledSchema> schema =
      CompileSchema(*text, CompileCache::Global(), in.budget);
  if (!schema.ok()) return Fail(schema.status());
  const std::string bytes = SerializeArtifact(*schema);
  std::ofstream out(target, std::ios::binary);
  if (!out || !(out << bytes) || !out.flush()) {
    return Fail(InternalError("cannot write artifact to '" + target + "'"));
  }
  std::cout << "compiled " << source << ": " << schema->edtd.num_types()
            << " types, single-type "
            << (schema->single_type ? "yes" : "no") << ", " << bytes.size()
            << " bytes -> " << target << "\n";
  return 0;
}

// The schema is a compiled artifact (deserialized as is) or schema text,
// compiled through the process-wide content-model cache.
int CmdValidate(Invocation& in) {
  StatusOr<std::string> bytes = ReadFile(in.args[0]);
  if (!bytes.ok()) return Fail(bytes.status());
  StatusOr<CompiledSchema> schema =
      LooksLikeArtifact(*bytes)
          ? DeserializeArtifact(*bytes)
          : CompileSchema(*bytes, CompileCache::Global(), in.budget);
  if (!schema.ok()) return Fail(schema.status());
  // One document without --jobs keeps the single-document output format.
  if (in.args.size() == 2 && !in.Has("--jobs")) {
    StatusOr<std::string> xml = ReadFile(in.args[1]);
    if (!xml.ok()) return Fail(xml.status());
    DocumentVerdict verdict = ValidateDocument(*schema, *xml, in.budget);
    if (verdict.kind == DocumentVerdict::Kind::kError) {
      return Fail(Status(verdict.error_code, verdict.message));
    }
    const bool valid = verdict.kind == DocumentVerdict::Kind::kValid;
    std::cout << (valid ? "VALID\n" : "INVALID: " + verdict.message + "\n");
    return valid ? 0 : 1;
  }
  // Batch mode: one status line per document, in input order, plus a
  // summary — byte-identical output whatever the job count.
  std::vector<BatchDocument> documents(in.args.size() - 1);
  for (size_t i = 0; i < documents.size(); ++i) {
    documents[i].name = in.args[i + 1];
    StatusOr<std::string> xml = ReadFile(documents[i].name);
    // An unreadable file is a per-document ERROR line, not a batch failure.
    if (xml.ok()) {
      documents[i].xml = *std::move(xml);
    } else {
      documents[i].read_error = xml.status().message();
    }
  }
  BatchOptions batch_options;
  batch_options.jobs = static_cast<int>(in.Int("--jobs", 1));
  batch_options.budget = in.budget;
  BatchResult result = BatchValidate(*schema, documents, batch_options);
  std::cout << FormatBatchReport(documents, result);
  return result.all_valid() ? 0 : 1;
}

int CmdCheck(Invocation& in) {
  const Edtd& schema = in.schemas[0];
  Edtd reduced = ReduceEdtd(schema);
  std::cout << "types (declared):  " << schema.num_types() << "\n"
            << "types (reduced):   " << reduced.num_types() << "\n"
            << "alphabet:          " << reduced.sigma.size() << " elements\n"
            << "empty language:    "
            << (reduced.num_types() == 0 ? "yes" : "no") << "\n"
            << "single-type (EDC): "
            << (IsSingleType(reduced) ? "yes" : "no") << "\n";
  StatusOr<bool> definable = IsSingleTypeDefinable(reduced, in.budget);
  if (!definable.ok()) return Fail(definable.status());
  std::cout << "single-type definable: " << (*definable ? "yes" : "no")
            << "\n";
  // UPA (Section 5): is every content model a one-unambiguous language?
  bool upa = true;
  for (int tau = 0; tau < reduced.num_types() && upa; ++tau) {
    StatusOr<bool> one =
        IsOneUnambiguousLanguage(reduced.content[tau], in.budget);
    if (!one.ok()) return Fail(one.status());
    upa = *one;
  }
  std::cout << "UPA-expressible content models: " << (upa ? "yes" : "no")
            << "\n";
  return 0;
}

// Prints the canonical minimal form of a construction's result.
int PrintXsd(const Invocation& in, StatusOr<DfaXsd> xsd) {
  if (xsd.ok()) xsd = MinimizeXsd(*xsd, in.budget);
  if (!xsd.ok()) return Fail(xsd.status());
  // The lift to an EDTD is unbudgeted; a deadline it overran still fails.
  Edtd edtd = StEdtdFromDfaXsd(*xsd);
  Status deadline = Budget::CheckDeadline(in.budget);
  if (!deadline.ok()) return Fail(deadline);
  std::cout << SchemaToText(edtd);
  return 0;
}

int CmdIncluded(Invocation& in) {
  StatusOr<bool> included =
      IncludedInSingleType(in.schemas[0], in.schemas[1], nullptr, in.budget);
  if (!included.ok()) return Fail(included.status());
  std::cout << (*included ? "INCLUDED\n" : "NOT INCLUDED\n");
  return *included ? 0 : 1;
}

int CmdWitness(Invocation& in) {
  const Edtd& d1 = in.schemas[0];
  const DfaXsd xsd2 = DfaXsdFromStEdtd(in.schemas[1]);
  std::optional<Tree> witness = XsdInclusionWitness(d1, xsd2);
  if (!witness.has_value()) {
    std::cout << "INCLUDED (no witness)\n";
    return 0;
  }
  // Render over the merged alphabet the witness was built with.
  Alphabet merged = xsd2.sigma;
  for (int a = 0; a < d1.sigma.size(); ++a) merged.Intern(d1.sigma.Name(a));
  std::cout << ToXml(*witness, merged);
  return 1;
}

int CmdTypes(Invocation& in) {
  const Edtd& reduced = in.schemas[0];
  StatusOr<std::string> xml = ReadFile(in.args[1]);
  if (!xml.ok()) return Fail(xml.status());
  Alphabet alphabet = reduced.sigma;
  StatusOr<Tree> document = ParseXml(*xml, &alphabet);
  if (!document.ok()) return Fail(document.status());
  if (alphabet.size() != reduced.sigma.size()) {
    std::cout << "NO TYPING (undeclared elements)\n";
    return 1;
  }
  std::optional<Typing> typing = AssignTypesEdtd(reduced, *document);
  if (!typing.has_value()) {
    std::cout << "NO TYPING (document invalid)\n";
    return 1;
  }
  std::cout << typing->ToString(reduced, *document);
  if (const int64_t count = CountTypings(reduced, *document); count > 1) {
    std::cout << "(ambiguous: " << count << " distinct typings)\n";
  }
  return 0;
}

int CmdSample(Invocation& in) {
  StatusOr<int64_t> count = in.Count(1, "sample count", 1, 1000000, 1);
  if (!count.ok()) return Fail(count.status());
  if (in.schemas[0].num_types() == 0) {
    return Fail(InvalidArgumentError("schema language is empty"));
  }
  DfaXsd xsd = DfaXsdFromStEdtd(in.schemas[0]);
  std::random_device device;
  std::mt19937 rng(device());
  for (int64_t i = 0; i < *count; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng, 6);
    if (!tree.has_value()) break;
    std::cout << ToXml(*tree, xsd.sigma);
    if (i + 1 < *count) std::cout << "<!-- -->\n";
  }
  return 0;
}

int CmdCount(Invocation& in) {
  StatusOr<int64_t> depth = in.Count(1, "depth bound", 1, 1000000);
  if (!depth.ok()) return Fail(depth.status());
  StatusOr<int64_t> width = in.Count(2, "width bound", 0, 1000000);
  if (!width.ok()) return Fail(width.status());
  const CountBounds bounds{static_cast<int>(*depth), static_cast<int>(*width)};
  StatusOr<std::vector<CountValue>> counts =
      CountXsdByDepth(DfaXsdFromStEdtd(in.schemas[0]), bounds, in.budget);
  if (!counts.ok()) return Fail(counts.status());
  std::cout << counts->back().ToDouble() << "\n";
  return 0;
}

// Exact precision analytics (count/measure.h): |L(S)|, |L(upper)| and
// |L(lower)| by depth, the gained/lost documents and precision/recall. No
// side flag means both sides.
int CmdMeasure(Invocation& in) {
  MeasureOptions options;
  const bool both =
      in.Has("--both") || !(in.Has("--upper") || in.Has("--lower"));
  options.upper = both || in.Has("--upper");
  options.lower = both || in.Has("--lower");
  options.bounds.max_depth = in.Int("--depth", options.bounds.max_depth);
  options.bounds.max_width = in.Int("--width", options.bounds.max_width);
  StatusOr<MeasureResult> result =
      MeasureSchema(in.schemas[0], options, in.budget);
  if (!result.ok()) return Fail(result.status());
  std::cout << (in.Has("--json") ? result->ToJson() + "\n" : result->ToText());
  return 0;
}

int CmdExport(Invocation& in) {
  XsdExportOptions options;
  options.repair_upa = in.Has("--repair-upa");
  StatusOr<DfaXsd> minimized =
      MinimizeXsd(DfaXsdFromStEdtd(in.schemas[0]), in.budget);
  if (!minimized.ok()) return Fail(minimized.status());
  std::cout << ExportXsd(*minimized, options);
  return 0;
}

int CmdImport(Invocation& in) {
  StatusOr<std::string> xml = ReadFile(in.args[0]);
  if (!xml.ok()) return Fail(xml.status());
  StatusOr<Edtd> schema = ImportXsd(*xml, in.budget);
  if (!schema.ok()) return Fail(schema.status());
  std::cout << SchemaToText(ReduceEdtd(*schema));
  return 0;
}

// The paper's lower-bound families. The pair-valued families expose each
// member under an a/b suffix so the result is always a single schema.
const std::map<std::string, Edtd (*)(int n)> kFamilies = {
    {"theorem32", [](int n) { return Theorem32Family(n); }},
    {"theorem36a", [](int n) { return Theorem36Family(n).first; }},
    {"theorem36b", [](int n) { return Theorem36Family(n).second; }},
    {"theorem38a", [](int n) { return Theorem38Family(n).first; }},
    {"theorem38b", [](int n) { return Theorem38Family(n).second; }},
    {"theorem43a", [](int) { return Theorem43Schemas().first; }},
    {"theorem43b", [](int) { return Theorem43Schemas().second; }},
    {"theorem411", [](int) { return Theorem411Dtd(); }},
    {"counted", [](int n) { return CountedFamily(n, 2 * n); }},
};

int CmdFamily(Invocation& in) {
  StatusOr<int64_t> n = in.Count(1, "family size", 1, 1000000, 1);
  if (!n.ok()) return Fail(n.status());
  auto family = kFamilies.find(in.args[0]);
  if (family == kFamilies.end()) {
    return Fail(InvalidArgumentError("unknown family '" + in.args[0] + "'"));
  }
  std::cout << SchemaToText(family->second(static_cast<int>(*n)));
  return 0;
}

// `stap explain`: run the approximation pipeline under a trace session and
// print the per-phase provenance rollup — each phase with call count, wall
// time, and the size counters its spans recorded. Reuses the global
// --trace-json session when one is active so the same recording also lands
// in the Chrome trace; otherwise records into a throwaway local session.
int CmdExplain(Invocation& in) {
  const Edtd& schema = in.schemas[0];
  Counter* const determinize_states = GetCounter("determinize.states_created");
  Counter* const schema_calls = GetCounter("determinize.schema_calls");
  Counter* const pruned_states =
      GetCounter("determinize.schema_pruned_states");
  Counter* const pruned_transitions =
      GetCounter("determinize.schema_pruned_transitions");
  const int64_t schema_calls_before = schema_calls->value();
  const int64_t pruned_states_before = pruned_states->value();
  const int64_t pruned_transitions_before = pruned_transitions->value();
  TraceSession local;
  TraceSession* session = in.session.get();
  // The registry delta is measured over the recording window, so it is
  // comparable to the span sums whichever session records.
  int64_t states_before = in.states_at_trace_start;
  if (session == nullptr) {
    states_before = determinize_states->value();
    session = &local;
    local.Start();
  }

  // --schema-guided: run every content merge under the union-of-contents
  // context. That context is exact-mode (upper.h), so the resulting XSD
  // is identical — the flag exists to exercise and observe the
  // schema-guided path on real schemas, not to change the answer.
  UpperOptions upper_options;
  Nfa content_context(0, 0);
  if (in.Has("--schema-guided")) {
    content_context = ContentUnionContext(schema);
    upper_options.content_context = &content_context;
  }
  StatusOr<DfaXsd> xsd =
      MinimalUpperApproximation(schema, in.budget, upper_options);
  if (session == &local) local.Stop();
  // The phase table is printed even when the budget ran out: seeing where
  // the states went is most valuable exactly then.
  std::cout << TraceSession::FormatPhaseTable(session->PhaseTable());
  // Cross-check: the `states_created` args summed over every determinize
  // span (any depth) must equal the registry counter's delta over the
  // recording window — both count the same subset-construction states.
  int64_t traced_states = 0;
  for (const TraceSession::PhaseRow& row :
       session->PhaseTable(/*max_depth=*/1 << 20)) {
    if (row.name != "determinize") continue;
    for (const auto& [key, value] : row.int_args) {
      if (key == "states_created") traced_states += value;
    }
  }
  const int64_t registry_states =
      determinize_states->value() - states_before;
  std::cout << "cross-check: determinize.states_created +" << registry_states
            << " (registry), " << traced_states << " (trace spans)"
            << (registry_states == traced_states ? "" : "  MISMATCH") << "\n";
  // Schema-guided pruning summary (all deltas over this run); printed
  // whenever the guided path ran so dense runs stay byte-compatible.
  if (schema_calls->value() != schema_calls_before) {
    std::cout << "schema-guided: " << schema_calls->value() - schema_calls_before
              << " guided determinizations, "
              << pruned_states->value() - pruned_states_before
              << " subsets pruned, "
              << pruned_transitions->value() - pruned_transitions_before
              << " transitions redirected\n";
  }
  if (!xsd.ok()) return Fail(xsd.status());
  std::cout << "result: " << xsd->automaton.num_states()
            << " XSD states over " << xsd->sigma.size() << " elements\n";
  return 0;
}

// Self-pipe for signal-driven shutdown: the handler writes one byte, the
// serving thread blocks on the read end. Async-signal-safe (write only).
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void ServeSignalHandler(int /*signum*/) {
  const char byte = 1;
  // The return value is irrelevant: a full pipe means shutdown is
  // already pending.
  [[maybe_unused]] ssize_t ignored = ::write(g_shutdown_pipe[1], &byte, 1);
}

// Prints the bound address ("serving on HOST:PORT") once ready, then runs
// until SIGINT/SIGTERM, drains connections, and exits 0.
int CmdServe(Invocation& in) {
  ServeOptions options;
  options.port = in.Int("--port", options.port);
  options.schema_dir = in.Text("--schemas", options.schema_dir);
  options.max_connections =
      in.Int("--max-connections", options.max_connections);
  options.max_inflight = in.Int("--max-inflight", options.max_inflight);
  options.request_budget_ms =
      in.Int("--request-budget-ms", options.request_budget_ms);
  options.request_max_states =
      in.Int("--request-max-states", options.request_max_states);
  options.request_max_sets =
      in.Int("--request-max-sets", options.request_max_sets);
  options.access_log_path = in.Text("--access-log", options.access_log_path);
  options.slow_request_ms = in.Int("--slow-ms", options.slow_request_ms);
  options.access_log_ring = in.Int("--log-ring", options.access_log_ring);
  options.slow_ring = in.Int("--slow-ring", options.slow_ring);

  if (::pipe(g_shutdown_pipe) != 0) {
    return Fail(InternalError("cannot create the shutdown pipe"));
  }
  Server server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  // std::endl flushes, so wrapper scripts can scrape the port as soon as
  // the line appears even when stdout is a file.
  std::cout << "serving on 127.0.0.1:" << server.port() << std::endl;

  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cout << "shutting down" << std::endl;
  server.Stop();
  return 0;
}

// The /statusz document is deliberately flat ("key": number per line), so
// the operator CLI can read it without a JSON parser: find the quoted key
// and strtod whatever follows the colon.
double FindJsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

// First sample of a Prometheus exposition metric (line-anchored match).
double FindPromValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return 0;
}

// Polls /statusz and /metrics and renders a refreshing one-screen view:
// qps (both the 60s window and the poll-to-poll delta), latency
// quantiles, per-code rates, liveness, and compile-cache hits.
int CmdTop(Invocation& in) {
  const std::string host = in.Text("--host", "127.0.0.1");
  const int port = static_cast<int>(in.Int("--port", 0));
  const int64_t interval_ms = in.Int("--interval-ms", 1000);
  const int64_t count = in.Int("--count", 0);

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  double prev_requests = -1;
  double prev_cache_hits = 0;
  auto prev_time = std::chrono::steady_clock::now();
  for (int64_t iteration = 0; count == 0 || iteration < count; ++iteration) {
    if (iteration > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    StatusOr<std::string> statusz = HttpGetBody(host, port, "/statusz");
    if (!statusz.ok()) return Fail(statusz.status());
    StatusOr<std::string> metrics = HttpGetBody(host, port, "/metrics");
    if (!metrics.ok()) return Fail(metrics.status());
    const auto now = std::chrono::steady_clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - prev_time).count();
    auto stat = [&](const char* key) { return FindJsonNumber(*statusz, key); };

    const double total_requests = stat("total_requests");
    const double cache_hits = FindPromValue(*metrics, "stap_cache_hit");
    const double delta_qps =
        prev_requests >= 0 && elapsed_s > 0
            ? (total_requests - prev_requests) / elapsed_s
            : 0;

    if (tty) std::fputs("\x1b[2J\x1b[H", stdout);
    std::printf("stap top — %s:%d    up %.0fs    epoch %.0f    schemas %.0f\n",
                host.c_str(), port, stat("uptime_s"), stat("snapshot_epoch"),
                stat("schema_count"));
    std::printf(
        "requests  total %.0f    qps %.0f (window %.0fs)    qps %.0f "
        "(last %.1fs)\n",
        total_requests, stat("window_qps"), stat("window_s"), delta_qps,
        elapsed_s);
    std::printf(
        "latency   p50 %.0fµs    p95 %.0fµs    p99 %.0fµs    max %.0fµs    "
        "mean %.1fµs\n",
        stat("p50_us"), stat("p95_us"), stat("p99_us"), stat("max_us"),
        stat("mean_us"));
    std::printf(
        "codes/win ok %.0f  invalid %.0f  error %.0f  busy %.0f  "
        "exhausted %.0f  not_found %.0f\n",
        stat("window_ok"), stat("window_invalid"), stat("window_error"),
        stat("window_busy"), stat("window_exhausted"),
        stat("window_not_found"));
    std::printf(
        "liveness  conns %.0f/%.0f    inflight %.0f    cache hits %.0f "
        "(+%.0f)\n",
        stat("active_connections"), stat("max_connections"),
        stat("inflight"), cache_hits,
        prev_requests >= 0 ? cache_hits - prev_cache_hits : 0);
    std::printf("log       slow %.0f captured    %.0f lines    %.0f dropped\n",
                stat("slow_captured"), stat("access_log_lines"),
                stat("access_log_dropped"));
    std::fflush(stdout);

    prev_requests = total_requests;
    prev_cache_hits = cache_hits;
    prev_time = now;
  }
  return 0;
}

struct Command {
  const char* name;
  const char* synopsis;  // positional arguments, as printed by Usage()
  const char* help;
  int min_args;  // positional arity after the command name
  int max_args;  // -1 = unbounded
  std::vector<Flag> flags;
  std::vector<Need> schemas;  // the precondition step, per leading argument
  int (*run)(Invocation&);
};

const std::vector<Command> kCommands = {
    {"validate", "<schema> <doc...>", "validate documents (schema text or "
     "artifact)", 2, -1, {}, {}, CmdValidate},
    {"compile", "<schema>", "compile a schema to a binary artifact", 1, 1,
     {{"-o", kText, "FILE", "artifact to write", 0, 0, nullptr, true}}, {},
     CmdCompile},
    {"check", "<schema>", "report schema properties", 1, 1, {}, {kLoaded},
     CmdCheck},
    {"minimize", "<schema>", "canonical minimal XSD", 1, 1, {}, {kSingleType},
     [](Invocation& in) {
       return PrintXsd(in, DfaXsdFromStEdtd(in.schemas[0]));
     }},
    {"approx", "<schema>", "minimal upper XSD-approximation", 1, 1, {},
     {kLoaded},
     [](Invocation& in) {
       return PrintXsd(in, MinimalUpperApproximation(in.schemas[0], in.budget));
     }},
    {"merge", "<s1> <s2>", "upper approximation of the union", 2, 2, {},
     {kSingleType, kSingleType},
     [](Invocation& in) {
       return PrintXsd(in, UpperUnion(in.schemas[0], in.schemas[1], in.budget));
     }},
    {"intersect", "<s1> <s2>", "exact intersection", 2, 2, {},
     {kSingleType, kSingleType},
     [](Invocation& in) {
       return PrintXsd(in, UpperIntersection(in.schemas[0], in.schemas[1],
                                             nullptr, in.budget));
     }},
    {"diff", "<s1> <s2>", "upper approximation of s1 \\ s2", 2, 2, {},
     {kSingleType, kSingleType},
     [](Invocation& in) {
       return PrintXsd(in, UpperDifference(in.schemas[0], in.schemas[1],
                                           nullptr, in.budget));
     }},
    {"complement", "<schema>", "upper approximation of the complement", 1, 1,
     {}, {kSingleType},
     [](Invocation& in) {
       return PrintXsd(in, UpperComplement(in.schemas[0], nullptr, in.budget));
     }},
    {"lower", "<s1> <s2>", "maximal lower approximation of the union", 2, 2,
     {}, {kSingleType, kSingleType},
     [](Invocation& in) {
       return PrintXsd(in, LowerUnionFixingFirst(in.schemas[0], in.schemas[1]));
     }},
    {"included", "<s1> <s2>", "is L(s1) a subset of L(s2)?", 2, 2, {},
     {kReduced, kSingleType}, CmdIncluded},
    {"witness", "<s1> <s2>", "a document in L(s1) \\ L(s2)", 2, 2, {},
     {kLoaded, kSingleType}, CmdWitness},
    {"types", "<schema> <doc.xml>", "print the document's typing", 2, 2, {},
     {kReduced}, CmdTypes},
    {"report", "<s1> <s2>", "full comparison report", 2, 2, {},
     {kSingleType, kSingleType},
     [](Invocation& in) {
       std::cout << CompareSchemas(in.schemas[0], in.schemas[1]).ToString();
       return 0;
     }},
    {"sample", "<schema> [count]", "sample random documents", 1, 2, {},
     {kSingleType}, CmdSample},
    {"count", "<schema> <depth> <width>", "count documents within bounds", 3,
     3, {}, {kSingleType}, CmdCount},
    {"measure", "<schema>", "exact document counts of S, upper, lower", 1, 1,
     {{"--upper", kSwitch, "", "measure the upper approximation"},
      {"--lower", kSwitch, "", "measure the lower approximation"},
      {"--both", kSwitch, "", "measure both (the default)"},
      {"--depth", kInt, "D", "depth bound", 1, 64, "depth bound"},
      {"--width", kInt, "W", "width bound", 0, 64, "width bound"},
      {"--json", kSwitch, "", "print the report as JSON"}},
     {kLoaded}, CmdMeasure},
    {"export", "<schema>", "write a W3C-style .xsd document", 1, 1,
     {{"--repair-upa", kSwitch, "", "rewrite non-UPA content models"}},
     {kSingleType}, CmdExport},
    {"import", "<schema.xsd>", "read a W3C-style .xsd document", 1, 1, {}, {},
     CmdImport},
    {"family", "<name> [n]", "a paper lower-bound family (see below)", 1, 2,
     {}, {}, CmdFamily},
    {"explain", "<schema>", "approximate; print a per-phase table", 1, 1,
     {{"--schema-guided", kSwitch, "", "use the schema-guided determinizer"}},
     {kLoaded}, CmdExplain},
    {"serve", "", "validation daemon; stops on SIGINT/SIGTERM", 0, 0,
     {{"--port", kInt, "N", "listen port (0 = ephemeral)", 0, 65535},
      {"--schemas", kText, "DIR", "serve DIR/*.stapc and DIR/*.stap"},
      {"--max-connections", kInt, "N", "concurrent connections", 1, 4096},
      {"--max-inflight", kInt, "N", "requests processed at once", 0, 4096},
      {"--request-budget-ms", kInt, "N", "per-request deadline", 0, 86400000},
      {"--request-max-states", kInt, "N", "states per request", 0, 1000000000},
      {"--request-max-sets", kInt, "N", "sets per request", 0, 1000000000},
      {"--access-log", kText, "FILE", "append a JSONL line per request"},
      {"--slow-ms", kInt, "N", "capture slower requests", 0, 86400000},
      {"--log-ring", kInt, "N", "access-log ring size", 1, 1000000},
      {"--slow-ring", kInt, "N", "slow-request ring size", 1, 1000000}},
     {}, CmdServe},
    {"top", "", "live view of a serve daemon", 0, 0,
     {{"--port", kInt, "N", "daemon port", 1, 65535, nullptr, true},
      {"--host", kText, "H", "daemon host (default 127.0.0.1)"},
      {"--interval-ms", kInt, "N", "refresh interval", 10, 3600000},
      {"--count", kInt, "N", "refreshes (0 = until stopped)", 0, 1000000000}},
     {}, CmdTop},
};

std::string FlagSynopsis(const Flag& flag) {
  const std::string name = flag.name;
  if (flag.kind == kSwitch) return name;
  if (flag.kind == kOptionalText) return name + "[=" + flag.value + "]";
  return name + (name[1] == '-' ? "=" : " ") + flag.value;
}

int Usage(const std::string& problem = "") {
  std::ostringstream out;
  // One line per entry: `left` padded to a column, then `help`.
  auto line = [&out](const std::string& left, const std::string& help) {
    const int pad = std::max(2, 34 - static_cast<int>(left.size()));
    out << left << std::string(pad, ' ') << help << "\n";
  };
  if (!problem.empty()) out << "error: " << problem << "\n";
  out << "usage: stap <command> <args> [flags]\n";
  for (const Command& command : kCommands) {
    line(std::string("  ") + command.name + " " + command.synopsis,
         command.help);
    for (const Flag& flag : command.flags) {
      line("      " + FlagSynopsis(flag),
           std::string(flag.help) + (flag.required ? " (required)" : ""));
    }
  }
  out << "global flags, accepted anywhere:\n";
  for (const Flag& flag : kGlobalFlags) {
    line("  " + FlagSynopsis(flag), flag.help);
  }
  out << "families (theorem43a/b and theorem411 ignore n; counted is "
         "Item{n,2n}):";
  int i = 0;
  for (const auto& [name, make] : kFamilies) {
    out << (i++ % 5 == 0 ? "\n  " : " ") << name;
  }
  out << "\n"
         "exit codes: 0 ok, 1 error or 'no', 2 usage, 3 budget exhausted\n"
         "schema arguments accept the textual format (docs/FORMAT.md) or a\n"
         "W3C .xsd document (auto-detected by a leading '<')\n";
  std::cerr << out.str();
  return 2;
}

const Flag* FindFlag(const std::vector<Flag>& flags, const std::string& name) {
  for (const Flag& flag : flags) if (name == flag.name) return &flag;
  return nullptr;
}

// The one flag parser. Global flags are accepted anywhere; the first other
// argument names the command, whose own flags may follow it. A `--name`
// flag carries its value after '=', a single-dash flag ("-o FILE") in the
// next argument, and every value is checked against its declaration.
// Returns the exit code of the reported error, or nullopt.
std::optional<int> ParseCommandLine(const std::vector<std::string>& line,
                                    Invocation* in) {
  const Command*& command = in->command;
  for (size_t i = 0; i < line.size(); ++i) {
    const std::string& arg = line[i];
    const bool dashed = arg.rfind("--", 0) == 0;
    const std::string name = dashed ? arg.substr(0, arg.find('=')) : arg;
    const Flag* flag = FindFlag(kGlobalFlags, name);
    if (flag == nullptr && command != nullptr) {
      flag = FindFlag(command->flags, name);
    }
    if (flag == nullptr) {
      if (dashed) return Usage("unknown flag '" + name + "'");
      if (command != nullptr) {
        in->args.push_back(arg);
        continue;
      }
      for (const Command& c : kCommands) if (arg == c.name) command = &c;
      if (command == nullptr) return Usage("unknown command '" + arg + "'");
      continue;
    }
    std::optional<std::string> value;
    if (!dashed) {
      if (i + 1 == line.size()) return Usage(name + " needs a value");
      value = line[++i];
    } else if (name.size() < arg.size()) {
      value = arg.substr(name.size() + 1);
    }
    if (flag->kind == kSwitch ? value.has_value()
                              : !value && flag->kind != kOptionalText) {
      return Usage("malformed flag '" + arg + "'");
    }
    in->flags[name] = value.value_or("");
    if (flag->kind != kInt) continue;
    StatusOr<int64_t> number =
        CheckedInt(in->flags[name], flag->bound ? flag->bound : name,
                   flag->min, flag->max);
    if (!number.ok()) {
      return flag->bound ? Fail(number.status())
                         : Usage(number.status().message());
    }
  }
  if (command == nullptr) return Usage();
  const Command& c = *command;
  const int n = static_cast<int>(in->args.size());
  if (n < c.min_args || (c.max_args >= 0 && n > c.max_args)) {
    return Usage(std::string("expected: stap ") + c.name + " " + c.synopsis);
  }
  for (const Flag& flag : c.flags) {
    if (flag.required && !in->Has(flag.name)) {
      return Usage(c.name + std::string(" needs ") + FlagSynopsis(flag));
    }
  }
  return std::nullopt;
}

int Run(int argc, char** argv) {
  const std::vector<std::string> line(argv + std::min(argc, 1), argv + argc);
  Invocation in;
  if (std::optional<int> error = ParseCommandLine(line, &in)) return *error;
  if (in.Has("--budget-ms") || in.Has("--max-states") ||
      in.Has("--max-sets")) {
    in.budget = &in.owned_budget.emplace();
    if (in.Has("--budget-ms")) {
      in.budget->set_deadline_ms(in.Int("--budget-ms", 0));
    }
    in.budget->set_max_states(in.Int("--max-states", Budget::kUnlimited));
    in.budget->set_max_sets(in.Int("--max-sets", Budget::kUnlimited));
  }
  if (in.Has("--trace-json")) {
    in.session = std::make_unique<TraceSession>();
    in.session->Start();
    in.states_at_trace_start =
        GetCounter("determinize.states_created")->value();
  }
  const Status loaded = LoadSchemas(in.command->schemas, &in);
  int code = loaded.ok() ? in.command->run(in) : Fail(loaded);

  // The dumps run whatever the outcome, so a budget-stopped run still
  // reports how far it got.
  MetricsRegistry* const metrics = MetricsRegistry::Global();
  if (in.Has("--metrics-json")) {
    code = WriteDump(metrics->ToJson(), in.Text("--metrics-json"), code);
  }
  if (in.Has("--metrics-prom")) {
    code = WriteDump(metrics->ToPrometheusText(), in.Text("--metrics-prom"),
                     code);
  }
  if (in.session != nullptr) {
    in.session->Stop();
    code = WriteDump(in.session->ToChromeJson(), in.Text("--trace-json"), code);
  }
  return code;
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) { return stap::Run(argc, argv); }
