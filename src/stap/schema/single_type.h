// DFA-based XSDs (paper, Definition 2.8) and the linear-time conversions
// to and from single-type EDTDs (Proposition 2.9).
//
// A DfaXsd is a state-labeled DFA over Σ (state 0 = q_init, no finals)
// plus, for every non-initial state, a content language over Σ, plus the
// allowed root symbols. It admits one-pass top-down validation, which is
// what the EDC constraint buys in XML Schema.
#ifndef STAP_SCHEMA_SINGLE_TYPE_H_
#define STAP_SCHEMA_SINGLE_TYPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/regex/ast.h"
#include "stap/schema/edtd.h"
#include "stap/tree/tree.h"

namespace stap {

struct DfaXsd {
  Alphabet sigma;
  std::vector<int> start_symbols;  // sorted set S_d ⊆ Σ

  // State-labeled DFA over Σ; state 0 is q_init. Finality is unused.
  Dfa automaton{1, 0};
  std::vector<int> state_label;  // kNoSymbol for q_init

  std::vector<Dfa> content;  // per state, over Σ; content[0] is unused

  // Optional per-state content provenance (over Σ), mirroring
  // Edtd::content_source: empty or sized num_states(), entry-wise
  // nullable, and non-null entries denote the same language as the
  // corresponding content DFA. Preserves counted repetition across
  // compile → export round trips.
  std::vector<RegexPtr> content_source;

  // Number of types (non-initial states) — the paper's type-size measure.
  int type_size() const { return automaton.num_states() - 1; }

  int64_t Size() const;

  // One-pass top-down validation (the EDC payoff): the tree replayed
  // into a StreamingValidator, one automaton state per open element.
  bool Accepts(const Tree& tree) const;

  void CheckWellFormed() const;

  std::string ToString() const;
};

// Prop. 2.9 conversions. DfaXsdFromStEdtd requires IsSingleType(edtd)
// (checked). Both are relabelings: type δ(q, a) ↔ symbol a. Each content
// is minimized once over Σ — O(|content| · |Σ|), never a determinization
// or a minimization over the type alphabet. StEdtdFromDfaXsd restricts
// content[q] to the symbols with a transition from q and writes it, BFS
// numbered by lifted type id, into a dense table over all types: that
// table, O(|content| · #types) per type, is the one cost left quadratic
// in the type count.
DfaXsd DfaXsdFromStEdtd(const Edtd& edtd);
Edtd StEdtdFromDfaXsd(const DfaXsd& xsd);

}  // namespace stap

#endif  // STAP_SCHEMA_SINGLE_TYPE_H_
