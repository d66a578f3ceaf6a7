// Extended DTDs (paper, Definition 2.2).
//
// An EDTD is a DTD over a type alphabet ∆ together with a labeling
// μ : ∆ -> Σ. EDTDs capture exactly the unranked regular tree languages;
// single-type EDTDs (Definition 2.4) are the XSD abstraction.
//
// Content models d(τ) are regular languages over ∆, stored as DFAs whose
// alphabet is the type alphabet. Most algorithms assume a *reduced* EDTD
// (Proviso 2.3): every type occurs in some accepted tree. Use
// ReduceEdtd() from schema/reduce.h to establish that invariant.
#ifndef STAP_SCHEMA_EDTD_H_
#define STAP_SCHEMA_EDTD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/regex/ast.h"
#include "stap/schema/dtd.h"
#include "stap/tree/tree.h"

namespace stap {

struct Edtd {
  Alphabet sigma;                // Σ
  Alphabet types;                // ∆ (names, for printing)
  std::vector<int> mu;           // μ : type id -> symbol id
  std::vector<int> start_types;  // sorted set S_d ⊆ ∆
  std::vector<Dfa> content;      // content[τ] over ∆

  // Optional content-model provenance: the regex (over ∆) each content
  // DFA was compiled from, preserving counted repetition r{n,m} that the
  // DFA expands away. Either empty (no provenance) or sized num_types(),
  // entry-wise nullable. Invariant: content_source[τ] != nullptr implies
  // L(content_source[τ]) == L(content[τ]). Transformations that cannot
  // maintain the invariant null the entry; consumers (export, printing)
  // must treat it as a hint, never as the ground truth.
  std::vector<RegexPtr> content_source;

  // Views a DTD as the EDTD with one type per symbol.
  static Edtd FromDtd(const Dtd& dtd);

  int num_types() const { return static_cast<int>(mu.size()); }
  int num_symbols() const { return sigma.size(); }

  // |Σ| + size of the underlying DTD over ∆ (paper's size measure).
  int64_t Size() const;

  // Membership test: does some typing of `tree` satisfy the schema?
  // One streaming pass of EdtdValidator (the bottom-up type-set
  // evaluation, pruned top-down), polynomial in |tree| * |this|.
  bool Accepts(const Tree& tree) const;

  // The set of types assignable to the root of `subtree` when it occurs
  // as a subtree (ignores start_types). Sorted.
  std::vector<int> PossibleTypes(const Tree& subtree) const;

  // The set of types occurring in some word of L(content[tau]); sorted.
  // This is the transition relation of the type automaton (Def. 2.5).
  std::vector<int> OccurringTypes(int tau) const;

  // Structural sanity checks (sizes agree, ids in range).
  void CheckWellFormed() const;

  std::string ToString() const;
};

}  // namespace stap

#endif  // STAP_SCHEMA_EDTD_H_
