#include "stap/schema/validate.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "stap/schema/streaming.h"

namespace stap {

namespace {

// Diagnostics on wide elements stay bounded: child strings longer than
// this are truncated with an ellipsis and a count of the omitted tail.
constexpr size_t kMaxFormattedSymbols = 32;

// Labels outside the alphabet (hand-built trees) print as their id.
std::string SymbolName(const Alphabet& alphabet, int symbol) {
  return symbol >= 0 && symbol < alphabet.size() ? alphabet.Name(symbol)
                                                 : "#" + std::to_string(symbol);
}

std::string FormatWord(const Word& word, const Alphabet& alphabet) {
  std::ostringstream os;
  os << "[";
  const size_t shown = std::min(word.size(), kMaxFormattedSymbols);
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) os << " ";
    os << SymbolName(alphabet, word[i]);
  }
  if (word.size() > shown) {
    // State the full length explicitly: a bare ellipsis is too easy to
    // overlook, and a truncated witness that reads as complete sends
    // people debugging the wrong child string.
    os << " ... (+" << word.size() - shown << " more; " << word.size()
       << " symbols total)";
  }
  os << "]";
  return os.str();
}

}  // namespace

ValidationResult ValidateWithDiagnostics(const DfaXsd& xsd, const Tree& tree) {
  ValidationResult result;
  StreamingValidator validator(&xsd);
  if (ValidateTree(tree, &validator)) return result;
  const Violation& violation = validator.violation();
  result.ok = false;
  result.violation_path = violation.path;
  const Tree& node = tree.At(violation.path);
  switch (violation.kind) {
    case Violation::Kind::kRootNotAllowed:
      result.message = "root element is not an allowed start symbol";
      break;
    case Violation::Kind::kRootUndeclared:
      result.message = "root element has no declaration";
      break;
    case Violation::Kind::kUndeclared:
      result.message = "element <" + SymbolName(xsd.sigma, node.label) +
                       "> is not declared in this context";
      break;
    default:  // kContent; a Tree produces no kMalformed event sequence
      result.message =
          "child string " +
          FormatWord(tree.ChildString(violation.path), xsd.sigma) +
          " of element <" + SymbolName(xsd.sigma, node.label) +
          "> does not match its content model";
  }
  return result;
}

}  // namespace stap
