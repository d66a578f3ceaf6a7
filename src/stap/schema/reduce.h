// EDTD reduction (paper, Proviso 2.3).
//
// An EDTD is reduced when every type is used by some accepted tree, i.e.
// every type is reachable from a start type and productive (derives at
// least one finite tree). All approximation algorithms assume reduced
// inputs; ReduceEdtd establishes the property in polynomial time without
// changing the language.
#ifndef STAP_SCHEMA_REDUCE_H_
#define STAP_SCHEMA_REDUCE_H_

#include <functional>
#include <vector>

#include "stap/automata/dfa.h"
#include "stap/schema/edtd.h"

namespace stap {

// The productive and reachable states of a tree grammar whose state q has
// content language content[q] and, on content symbol a, its child in state
// next(q, a) (kNoState if none). ReduceEdtd passes next(τ, τ') = τ' and the
// start types as roots; MinimizeXsd passes δ and the states δ(q_init, a)
// of the start symbols a. Productivity is a worklist fixpoint: a state's
// content is searched once, then again only when one of its children
// turns productive, so the cost is O(Σ_q |content[q]| · (1 + #children))
// rather than a sweep of every content per newly productive state.
struct UsefulStates {
  std::vector<int> kept;  // ascending
  // Per kept state: its content restricted to the symbols leading to
  // productive states, trimmed.
  std::vector<Dfa> content;
};
UsefulStates FindUsefulStates(const std::vector<Dfa>& content,
                              const std::function<int(int, int)>& next,
                              const std::vector<int>& roots);

// Returns an equivalent reduced EDTD: useless types removed, type ids
// renumbered densely, content DFAs restricted to surviving types, trimmed,
// and minimized. An EDTD for the empty language comes back with zero types.
Edtd ReduceEdtd(const Edtd& edtd);

// True if every type is reachable and productive (and content DFAs carry
// no transition on a useless type).
bool IsReduced(const Edtd& edtd);

}  // namespace stap

#endif  // STAP_SCHEMA_REDUCE_H_
