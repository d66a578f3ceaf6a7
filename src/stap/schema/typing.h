// Type assignments (typings) of documents.
//
// A tree satisfies an EDTD when *some* typing exists (Definition 2.2);
// this module materializes typings: the unique one for single-type
// schemas (where the ancestor string determines the type — the essence of
// EDC), and the count/one-witness interface for general EDTDs, whose
// typings can be ambiguous.
#ifndef STAP_SCHEMA_TYPING_H_
#define STAP_SCHEMA_TYPING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

// A typing maps each node, in pre-order (document order of the start
// tags), to a type id.
struct Typing {
  std::vector<TreePath> paths;
  std::vector<int> types;  // parallel to paths

  std::string ToString(const Edtd& schema, const Tree& tree) const;
};

// The unique typing of `tree` under the single-type schema, or nullopt if
// the document is invalid. One StreamingValidator pass.
std::optional<Typing> AssignTypes(const DfaXsd& xsd, const Tree& tree);

// Some typing of `tree` under an arbitrary EDTD, or nullopt. Per-node
// typing counts in one bottom-up pass, then one top-down choice pass.
std::optional<Typing> AssignTypesEdtd(const Edtd& edtd, const Tree& tree);

// The number of distinct typings of `tree` under `edtd` (its *typing
// ambiguity*); single-type schemas always report 0 or 1. Saturates at
// `cap`.
int64_t CountTypings(const Edtd& edtd, const Tree& tree,
                     int64_t cap = int64_t{1} << 40);

}  // namespace stap

#endif  // STAP_SCHEMA_TYPING_H_
