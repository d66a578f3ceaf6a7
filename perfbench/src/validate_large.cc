// validate_large: ValidateDocument on seeded documents of 50,000 element
// nodes, single thread, no sockets.
//
// The pool holds five documents for each of three schemas: the library
// schema and examples/data/docbook_lite.stap (single-type, so the DfaXsd
// path), and examples/data/relaxng_style.stap (not single-type, so the
// Edtd::Accepts path). One document of each five is invalid, with the
// violation at the last element in document order, so no early exit
// skips work. The measured loop cycles through the pool, the schemas
// taking turns.
//
// The traced run times the layers ValidateDocument is made of, called
// one by one on the same documents: the schema alphabet copy,
// ParseXmlDocument, TreeFromXmlElement, then ValidateWithDiagnostics or
// Edtd::Accepts, and freeing the DOM and the Tree. It also times
// ValidateStreaming on the same Tree, a reference no production path
// uses yet.
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "docs.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/schema/streaming.h"
#include "stap/schema/validate.h"
#include "stap/tree/xml.h"

namespace perfbench {
namespace {

constexpr int kSchemas = 3;
const char* const kSchemaNames[kSchemas] = {"library", "docbook", "relaxng"};

struct Document {
  int schema_index;  // into kSchemaNames
  const stap::CompiledSchema* schema;
  std::string xml;
  bool valid;
};

bool Valid(const stap::DocumentVerdict& verdict) {
  return verdict.kind == stap::DocumentVerdict::Kind::kValid;
}

}  // namespace

WorkloadResult RunValidateLarge(const RunOptions& options) {
  WorkloadResult result;
  const int nodes = options.smoke ? 400 : 50000;
  constexpr int kPerSchema = 5;

  std::vector<std::unique_ptr<stap::CompiledSchema>> schemas;
  std::vector<Document> pool;
  // Set-up: compile the three schemas, make the pool, validate each
  // document once (warm-up). Repeated five times; the last one is kept.
  const double setup_s = MedianSeconds(5, [&] {
    schemas.clear();
    pool.clear();
    const std::string sources[] = {kLibrarySchema,
                                   ReadExampleData("docbook_lite.stap"),
                                   ReadExampleData("relaxng_style.stap")};
    for (const std::string& source : sources) {
      stap::StatusOr<stap::CompiledSchema> compiled =
          stap::CompileSchema(source, /*cache=*/nullptr);
      if (!compiled.ok()) {
        result.Fail("CompileSchema: " + compiled.status().message());
        return;
      }
      schemas.push_back(
          std::make_unique<stap::CompiledSchema>(std::move(*compiled)));
    }
    std::mt19937_64 rng(options.seed);
    for (int i = 0; i < kPerSchema; ++i) {
      const bool valid = i != 0;
      const Flaw flaw = valid ? Flaw::kNone : Flaw::kLastRenamed;
      pool.push_back({0, schemas[0].get(), LibraryDocument(&rng, nodes, flaw),
                      valid});
      pool.push_back({1, schemas[1].get(), DocbookDocument(&rng, nodes, flaw),
                      valid});
      pool.push_back({2, schemas[2].get(), RelaxngDocument(nodes, flaw),
                      valid});
    }
    for (const Document& doc : pool) {
      stap::ValidateDocument(*doc.schema, doc.xml, nullptr);
    }
  });
  if (pool.empty()) return result;
  if (schemas[0]->single_type != true || schemas[1]->single_type != true ||
      schemas[2]->single_type != false) {
    result.Fail("schema single-type flags differ from the expected paths");
  }

  // ValidateDocument over the pool until the time is up. In the traced
  // run each untraced call is followed by a traced one and by the layers
  // one call at a time, so all of them see the same machine.
  SpanRecorder spans;
  int64_t traced_docs = 0;
  auto trace_layers = [&](const Document& doc) {
    const stap::CompiledSchema& schema = *doc.schema;
    ++traced_docs;
    result.attempted += 2;
    {
      stap::DocumentVerdict verdict = [&] {
        Span span(&spans, "io.validate_document");
        return stap::ValidateDocument(schema, doc.xml, nullptr);
      }();
      if (Valid(verdict) != doc.valid) {
        result.Fail("traced ValidateDocument verdict differs");
      }
    }
    stap::Alphabet alphabet = [&] {
      Span span(&spans, "schema.alphabet_copy");
      return schema.edtd.sigma;
    }();
    std::optional<stap::XmlElement> dom;
    {
      Span span(&spans, "tree.parse_dom");
      stap::StatusOr<stap::XmlElement> parsed =
          stap::ParseXmlDocument(doc.xml);
      if (parsed.ok()) dom = std::move(*parsed);
    }
    if (!dom.has_value()) {
      result.Fail("ParseXmlDocument failed");
      return;
    }
    std::optional<stap::Tree> tree;
    {
      Span span(&spans, "tree.to_tree");
      tree = stap::TreeFromXmlElement(*dom, &alphabet);
    }
    bool ok = false;
    if (schema.single_type) {
      Span span(&spans, "schema.xsd_validate");
      ok = stap::ValidateWithDiagnostics(schema.xsd, *tree).ok;
    } else {
      Span span(&spans, "schema.edtd_accepts");
      ok = schema.edtd.Accepts(*tree);
    }
    if (ok != doc.valid) result.Fail("layer-by-layer verdict differs");
    if (schema.single_type) {
      bool streaming_ok = false;
      {
        Span span(&spans, "schema.streaming");
        streaming_ok = stap::ValidateStreaming(schema.xsd, *tree);
      }
      if (streaming_ok != doc.valid) {
        result.Fail("ValidateStreaming verdict differs");
      }
    }
    // ValidateDocument frees its DOM and Tree before it returns.
    Span span(&spans, "tree.teardown");
    dom.reset();
    tree.reset();
  };
  std::vector<double> doc_ns[kSchemas];
  std::vector<double> pass_rates;  // documents per second, per pool pass
  double pass_ns = 0;
  double total_ns = 0;
  int64_t documents = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; documents < static_cast<int64_t>(pool.size()) ||
                     SecondsSince(start) < options.seconds;
       ++i, ++documents) {
    const Document& doc = pool[i % pool.size()];
    const Clock::time_point t0 = Clock::now();
    const stap::DocumentVerdict verdict =
        stap::ValidateDocument(*doc.schema, doc.xml, nullptr);
    const double ns = NanosSince(t0);
    doc_ns[doc.schema_index].push_back(ns);
    total_ns += ns;
    pass_ns += ns;
    if ((i + 1) % pool.size() == 0) {
      pass_rates.push_back(static_cast<double>(pool.size()) * 1e9 / pass_ns);
      pass_ns = 0;
    }
    ++result.attempted;
    if (Valid(verdict) != doc.valid) {
      result.Fail("ValidateDocument verdict differs from the generated one: " +
                  verdict.message);
    }
    if (options.trace) trace_layers(doc);
  }
  // Medians and 90th percentiles per schema, combined over the schemas by
  // geometric mean, so the three weigh the same whatever their speed; the
  // mean is kept for the accounting check.
  std::vector<double> median_ms;
  std::vector<double> p90_ms;
  for (int k = 0; k < kSchemas; ++k) {
    median_ms.push_back(Median(doc_ns[k]) / 1e6);
    p90_ms.push_back(P90(doc_ns[k]) / 1e6);
    result.AddDetail(std::string("validate.doc_p50_ms.") + kSchemaNames[k],
                     median_ms.back(), "ms");
  }
  result.AddHeadline(options, "validate.nodes_per_s",
                     static_cast<double>(nodes) *
                         static_cast<double>(documents) / (total_ns / 1e9),
                     "1/s");
  result.AddHeadline(options, "validate.doc_p50_ms", GeoMean(median_ms), "ms");
  result.AddDetail("validate.documents", static_cast<double>(documents),
                   "count");
  result.AddDetail("validate.nodes_per_document", nodes, "count");

  if (!options.trace) {
    AddCommonMetrics(options, setup_s, 0, 0, 0, 0, &result);
    result.Add("op_p90_ms", GeoMean(p90_ms), "ms");
    result.Add("ops_per_s", SustainedRate(pass_rates), "1/s");
    return result;
  }

  const double traced_nodes =
      static_cast<double>(nodes) * static_cast<double>(traced_docs);
  auto per_node = [&](const char* name) {
    return spans.Get(name).total_ns / traced_nodes;
  };
  // Per node of the documents that took the span's path: the validators
  // each see only their schemas' documents.
  auto per_own_node = [&](const char* name) {
    const SpanRecorder::Totals t = spans.Get(name);
    return t.count > 0 ? t.total_ns / (static_cast<double>(nodes) *
                                       static_cast<double>(t.count))
                       : 0;
  };
  const double layers = per_node("schema.alphabet_copy") +
                        per_node("tree.parse_dom") +
                        per_node("tree.to_tree") +
                        per_node("tree.teardown") +
                        per_node("schema.xsd_validate") +
                        per_node("schema.edtd_accepts");
  result.Add("tree.parse_dom_ns_per_node", per_node("tree.parse_dom"), "ns");
  result.Add("tree.to_tree_ns_per_node", per_node("tree.to_tree"), "ns");
  result.Add("tree.teardown_ns_per_node", per_node("tree.teardown"), "ns");
  result.Add("schema.xsd_validate_ns_per_node",
             per_own_node("schema.xsd_validate"), "ns");
  result.Add("schema.edtd_accepts_ns_per_node",
             per_own_node("schema.edtd_accepts"), "ns");
  result.Add("schema.alphabet_copy_ns_per_node",
             per_node("schema.alphabet_copy"), "ns");
  result.Add("io.validate_document_ns_per_node",
             per_node("io.validate_document"), "ns");
  result.Add("schema.streaming_ns_per_node", per_own_node("schema.streaming"),
             "ns");
  // Per document: the end-to-end figure is the untraced mean time of
  // ValidateDocument, the layers are the calls it is made of.
  AddCommonMetrics(options, setup_s,
                   total_ns / static_cast<double>(documents),
                   per_node("io.validate_document") * nodes, layers * nodes,
                   /*tolerance=*/0.15, &result);
  return result;
}

}  // namespace perfbench
