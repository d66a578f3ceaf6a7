// Validation with diagnostics.
//
// Plain membership tests live on the schema types (Dtd::Accepts,
// Edtd::Accepts, DfaXsd::Accepts); this header adds diagnostic validation
// that reports *where* a document violates an XSD — the node whose child
// string fails its content model — which the examples use to show
// data-integration error behavior.
#ifndef STAP_SCHEMA_VALIDATE_H_
#define STAP_SCHEMA_VALIDATE_H_

#include <string>
#include <vector>

#include "stap/schema/single_type.h"
#include "stap/tree/tree.h"

namespace stap {

struct ValidationResult {
  bool ok = true;
  TreePath violation_path;  // meaningful only when !ok
  std::string message;      // human-readable reason
};

// One StreamingValidator pass over `tree`, reporting the first violation
// in document order (of start and end tags), as a streaming reader sees it.
ValidationResult ValidateWithDiagnostics(const DfaXsd& xsd, const Tree& tree);

}  // namespace stap

#endif  // STAP_SCHEMA_VALIDATE_H_
