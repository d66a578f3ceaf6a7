#include "stap/io/batch_validate.h"

#include <sstream>
#include <utility>

#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/schema/validate.h"
#include "stap/tree/xml.h"

namespace stap {

DocumentVerdict ValidateDocument(const CompiledSchema& schema,
                                 std::string_view xml, Budget* budget) {
  DocumentVerdict verdict;
  Status deadline = Budget::CheckDeadline(budget);
  if (!deadline.ok()) {
    verdict.kind = DocumentVerdict::Kind::kError;
    verdict.message = deadline.message();
    verdict.error_code = deadline.code();
    return verdict;
  }
  // Per-document alphabet copy: ParseXml interns new names, and the
  // shared schema must stay immutable under the sweep.
  Alphabet alphabet = schema.edtd.sigma;
  StatusOr<Tree> tree = ParseXml(xml, &alphabet);
  if (!tree.ok()) {
    verdict.kind = DocumentVerdict::Kind::kError;
    verdict.message = tree.status().message();
    verdict.error_code = tree.status().code();
    return verdict;
  }
  // The pre-parse deadline check alone lets one huge document blow the
  // shared deadline unboundedly: charge the tree against the state quota
  // and re-sample the clock before walking it, so an oversized document
  // is cut off here instead of after an arbitrarily long validation.
  Status charged = Budget::ChargeStates(budget, tree->NumNodes());
  if (charged.ok()) charged = Budget::CheckDeadline(budget);
  if (!charged.ok()) {
    verdict.kind = DocumentVerdict::Kind::kError;
    verdict.message = charged.message();
    verdict.error_code = charged.code();
    return verdict;
  }
  if (alphabet.size() != schema.edtd.sigma.size()) {
    verdict.kind = DocumentVerdict::Kind::kInvalid;
    verdict.message = "document uses elements the schema does not declare";
    return verdict;
  }
  ValidationResult result;
  if (schema.single_type) {
    result = ValidateWithDiagnostics(schema.xsd, *tree);
  } else if (!schema.edtd.Accepts(*tree)) {
    result = {false, {}, "document not in the schema language"};
  }
  verdict.kind = result.ok ? DocumentVerdict::Kind::kValid
                           : DocumentVerdict::Kind::kInvalid;
  verdict.message = std::move(result.message);
  return verdict;
}

namespace {

DocumentVerdict ValidateOne(const CompiledSchema& schema,
                            const BatchDocument& document, Budget* budget) {
  if (!document.read_error.empty()) {
    DocumentVerdict verdict;
    verdict.kind = DocumentVerdict::Kind::kError;
    verdict.message = document.read_error;
    verdict.error_code = StatusCode::kNotFound;
    return verdict;
  }
  return ValidateDocument(schema, document.xml, budget);
}

}  // namespace

BatchResult BatchValidate(const CompiledSchema& schema,
                          const std::vector<BatchDocument>& documents,
                          const BatchOptions& options) {
  ScopedSpan span("batch.validate");
  const int n = static_cast<int>(documents.size());
  span.AddArg("documents", n);
  BatchResult result;
  result.verdicts.resize(documents.size());

  const int jobs =
      options.jobs <= 0 ? ThreadPool::DefaultThreads() : options.jobs;
  span.AddArg("jobs", jobs);
  auto validate_index = [&](int i) {
    result.verdicts[i] = ValidateOne(schema, documents[i], options.budget);
  };
  if (jobs <= 1) {
    ThreadPool::ParallelFor(nullptr, n, validate_index);
  } else {
    // The calling thread participates in ParallelFor, so jobs - 1
    // workers gives `jobs` threads draining the batch.
    ThreadPool pool(jobs - 1);
    pool.ParallelFor(n, validate_index);
  }

  for (const DocumentVerdict& verdict : result.verdicts) {
    switch (verdict.kind) {
      case DocumentVerdict::Kind::kValid:
        ++result.num_valid;
        break;
      case DocumentVerdict::Kind::kInvalid:
        ++result.num_invalid;
        break;
      case DocumentVerdict::Kind::kError:
        ++result.num_errors;
        break;
    }
  }
  GetCounter("batch.documents")->Increment(n);
  GetCounter("batch.valid")->Increment(result.num_valid);
  GetCounter("batch.invalid")->Increment(result.num_invalid);
  GetCounter("batch.errors")->Increment(result.num_errors);
  return result;
}

std::string FormatBatchReport(const std::vector<BatchDocument>& documents,
                              const BatchResult& result) {
  std::ostringstream os;
  for (size_t i = 0; i < documents.size(); ++i) {
    const DocumentVerdict& verdict = result.verdicts[i];
    os << documents[i].name << ": ";
    switch (verdict.kind) {
      case DocumentVerdict::Kind::kValid:
        os << "VALID";
        break;
      case DocumentVerdict::Kind::kInvalid:
        os << "INVALID: " << verdict.message;
        break;
      case DocumentVerdict::Kind::kError:
        os << "ERROR: " << verdict.message;
        break;
    }
    os << "\n";
  }
  os << documents.size() << " documents: " << result.num_valid << " valid, "
     << result.num_invalid << " invalid, " << result.num_errors
     << " errors\n";
  return os.str();
}

}  // namespace stap
