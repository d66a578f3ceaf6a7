// Minimization of single-type schemas (paper's reference [20]).
//
// The minimal DFA-based XSD for a single-type language is unique: it is
// the quotient of the (reduced) type automaton under the coarsest
// equivalence that respects state labels, content languages, and
// successors. MinimizeXsd computes it in polynomial time — reduction,
// one content minimization per kept state, and Hopcroft refinement in
// O(|Σ| n log n) for n states — and the paper uses this to deliver
// "optimal representations of optimal approximations".
#ifndef STAP_SCHEMA_MINIMIZE_H_
#define STAP_SCHEMA_MINIMIZE_H_

#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/single_type.h"

namespace stap {

// Returns the canonical minimal DfaXsd for L(xsd): reduced, merged,
// content DFAs minimized, states in BFS order. Structural equality of two
// minimized XSDs (XsdStructurallyEqual) decides language equivalence.
DfaXsd MinimizeXsd(const DfaXsd& xsd);

// Budgeted variant: the wall-clock deadline is checked before any work,
// by every content minimization and every few hundred refinement
// splitters. Nothing here grows a state count, so the state and set
// quotas are not charged. A null budget is unlimited.
StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& xsd, Budget* budget);

// Minimizes `xsd` relative to an ambient sibling-word constraint: every
// content DFA is re-canonicalized schema-guided under `sibling_context`
// (automata/determinize.h), so two states whose content languages differ
// only on context-dead words fall into the same block and merge. The
// result is the canonical minimal XSD for the *restricted* schema — it
// validates exactly like `xsd` on documents all of whose child words are
// context-live, and rejects some documents outside the context that
// `xsd` accepted. A context that kills some content language entirely
// makes that type childless-only or unproductive; the reduction pass
// then prunes it like any other unproductive type.
StatusOr<DfaXsd> MinimizeXsdUnderContext(const DfaXsd& xsd,
                                         const Nfa& sibling_context,
                                         Budget* budget = nullptr);

// Field-by-field comparison (alphabets must match by name).
bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b);

}  // namespace stap

#endif  // STAP_SCHEMA_MINIMIZE_H_
