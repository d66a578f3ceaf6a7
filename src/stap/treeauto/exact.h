// Exact decision procedures on EDTDs via binary tree automata.
//
// These are the classical EXPTIME routes (Theorem 2.13's flavor): encode,
// determinize bottom-up, complement, product, test emptiness. They serve
// as ground truth for the polynomial algorithms of Section 3 and as the
// baseline in benchmark E6.
//
// The determinization charges `budget` per subset and the product search
// per interned pair, and both check the deadline as they go, so a
// budgeted call ends with kResourceExhausted instead of running on. A
// null budget is unlimited and never fails.
#ifndef STAP_TREEAUTO_EXACT_H_
#define STAP_TREEAUTO_EXACT_H_

#include <optional>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/tree/tree.h"

namespace stap {

// L(d1) ⊆ L(d2)? Worst-case exponential in |d2|.
StatusOr<bool> EdtdIncludedInExact(const Edtd& d1, const Edtd& d2,
                                   Budget* budget);

// L(d1) == L(d2)?
StatusOr<bool> EdtdEquivalentExact(const Edtd& d1, const Edtd& d2,
                                   Budget* budget);

// A witness unranked tree in L(d1) \ L(d2), if any (smallest found by the
// bottom-up search, not necessarily globally minimal).
StatusOr<std::optional<Tree>> EdtdInclusionCounterexample(const Edtd& d1,
                                                          const Edtd& d2,
                                                          Budget* budget);

}  // namespace stap

#endif  // STAP_TREEAUTO_EXACT_H_
