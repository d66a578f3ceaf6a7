#include "stap/schema/minimize.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/state_set_hash.h"
#include "stap/base/check.h"
#include "stap/schema/reduce.h"

namespace stap {

namespace {

// Splitters handled between two deadline checks.
constexpr int64_t kSplittersPerDeadlineCheck = 256;

// Hopcroft's partition refinement. Refines `block` (ids below
// `num_blocks`) to the coarsest partition whose members reach one block
// on every symbol, a missing transition reaching a virtual sink that
// forms a block of its own. Splitters are (block, symbol) pairs on a
// worklist; when a block splits, a pending splitter of it is kept for
// both halves and otherwise only the smaller half is queued, so each
// transition is scanned O(log n) times. Returns the number of block ids
// now in use (the sink's included); only the wall-clock deadline can
// exhaust, checked every kSplittersPerDeadlineCheck splitters.
StatusOr<int> RefinePartition(const Dfa& automaton, std::vector<int>* block,
                              int num_blocks, Budget* budget) {
  const int n = automaton.num_states();
  const int k = automaton.num_symbols();
  const int sink = n;
  auto target = [&](int q, int a) {
    int r = automaton.Next(q, a);
    return r == kNoState ? sink : r;
  };

  // preds[pred_start[a * (n + 1) + r] ...]: the states with δ(·, a) = r.
  const size_t slots = static_cast<size_t>(k) * (n + 1);
  std::vector<int> pred_start(slots + 1, 0);
  for (int q = 0; q < n; ++q) {
    for (int a = 0; a < k; ++a) {
      ++pred_start[static_cast<size_t>(a) * (n + 1) + target(q, a) + 1];
    }
  }
  for (size_t i = 0; i < slots; ++i) pred_start[i + 1] += pred_start[i];
  std::vector<int> preds(pred_start[slots]);
  {
    std::vector<int> cursor(pred_start.begin(), pred_start.end() - 1);
    for (int q = 0; q < n; ++q) {
      for (int a = 0; a < k; ++a) {
        preds[cursor[static_cast<size_t>(a) * (n + 1) + target(q, a)]++] = q;
      }
    }
  }

  // The partition: block b holds elems[first[b] .. end[b]); during a
  // split its marked members gather in elems[first[b] .. mid[b]).
  std::vector<int> block_of = *block;
  block_of.push_back(num_blocks);  // the sink
  int num_ids = num_blocks + 1;
  std::vector<int> first(n + 1, 0), end(n + 1, 0);
  for (int q = 0; q <= n; ++q) ++end[block_of[q]];
  for (int b = 1; b < num_ids; ++b) end[b] += end[b - 1];
  std::vector<int> elems(n + 1), loc(n + 1);
  for (int q = n; q >= 0; --q) {
    loc[q] = --end[block_of[q]];
    elems[loc[q]] = q;
  }
  for (int b = 0; b < num_ids; ++b) {
    first[b] = end[b];
    end[b] = b + 1 < num_ids ? end[b + 1] : n + 1;
  }
  std::vector<int> mid = first;

  std::vector<std::pair<int, int>> pending;
  std::vector<bool> queued(static_cast<size_t>(n + 1) * k, false);
  auto enqueue = [&](int b, int a) {
    queued[static_cast<size_t>(b) * k + a] = true;
    pending.emplace_back(b, a);
  };
  for (int b = 0; b < num_ids; ++b) {
    for (int a = 0; a < k; ++a) enqueue(b, a);
  }

  std::vector<int> splitter, touched;
  for (int64_t handled = 0; !pending.empty(); ++handled) {
    if (handled % kSplittersPerDeadlineCheck == 0) {
      STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    }
    const auto [c, a] = pending.back();
    pending.pop_back();
    queued[static_cast<size_t>(c) * k + a] = false;
    splitter.assign(elems.begin() + first[c], elems.begin() + end[c]);
    for (int r : splitter) {
      const size_t slot = static_cast<size_t>(a) * (n + 1) + r;
      for (int i = pred_start[slot]; i < pred_start[slot + 1]; ++i) {
        const int p = preds[i];
        const int b = block_of[p];
        if (mid[b] == first[b]) touched.push_back(b);
        const int other = elems[mid[b]];
        std::swap(elems[loc[p]], elems[mid[b]]);
        std::swap(loc[p], loc[other]);
        ++mid[b];
      }
    }
    for (int b : touched) {
      if (mid[b] == end[b]) {
        mid[b] = first[b];
        continue;
      }
      // The marked members become block nb.
      const int nb = num_ids++;
      first[nb] = first[b];
      end[nb] = mid[b];
      mid[nb] = first[nb];
      first[b] = mid[b] = end[nb];
      for (int i = first[nb]; i < end[nb]; ++i) block_of[elems[i]] = nb;
      const bool nb_smaller = end[nb] - first[nb] <= end[b] - first[b];
      for (int x = 0; x < k; ++x) {
        if (queued[static_cast<size_t>(b) * k + x]) {
          enqueue(nb, x);
        } else {
          enqueue(nb_smaller ? nb : b, x);
        }
      }
    }
    touched.clear();
  }
  block_of.pop_back();
  *block = std::move(block_of);
  return num_ids;
}

}  // namespace

DfaXsd MinimizeXsd(const DfaXsd& input) {
  StatusOr<DfaXsd> result = MinimizeXsd(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& input, Budget* budget) {
  STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
  input.CheckWellFormed();
  const int num_symbols = input.sigma.size();
  const int init = input.automaton.initial();

  // Step 1: reduce. Keep the productive states reachable from the start
  // symbols, q_init first (as state 0) and the rest in state order, with
  // minimized restricted contents. Transitions survive only on symbols
  // the content uses, and from q_init only on start symbols whose state
  // is kept. q_init's content is unused, so it has no successors here.
  std::vector<int> roots;
  for (int a : input.start_symbols) {
    int q = input.automaton.Next(init, a);
    if (q != kNoState) roots.push_back(q);
  }
  UsefulStates useful = FindUsefulStates(
      input.content,
      [&](int q, int a) {
        return q == init ? kNoState : input.automaton.Next(q, a);
      },
      roots);
  const int n = static_cast<int>(useful.kept.size()) + 1;
  std::vector<int> state_of(input.automaton.num_states(), kNoState);
  state_of[init] = 0;
  for (int i = 1; i < n; ++i) state_of[useful.kept[i - 1]] = i;
  // The kept child of state q on symbol a, renumbered, or kNoState.
  auto child = [&](int q, int a) {
    int r = input.automaton.Next(q, a);
    return r == kNoState ? kNoState : state_of[r];
  };

  DfaXsd xsd;
  xsd.sigma = input.sigma;
  xsd.automaton = Dfa(n, num_symbols);
  xsd.state_label.assign(n, kNoSymbol);
  xsd.content.assign(n, Dfa::EmptyLanguage(num_symbols));
  if (!input.content_source.empty()) xsd.content_source.resize(n);
  for (int a : input.start_symbols) {
    if (child(init, a) == kNoState) continue;
    xsd.start_symbols.push_back(a);
    xsd.automaton.SetTransition(0, a, child(init, a));
  }
  std::vector<int> symbol_map(num_symbols);
  for (int i = 1; i < n; ++i) {
    const int q = useful.kept[i - 1];
    const Dfa& content = useful.content[i - 1];
    xsd.state_label[i] = input.state_label[q];
    for (int s = 0; s < content.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (content.Next(s, a) != kNoState) {
          xsd.automaton.SetTransition(i, a, child(q, a));
        }
      }
    }
    StatusOr<Dfa> minimal = Minimize(content, budget);
    if (!minimal.ok()) return minimal.status();
    xsd.content[i] = *std::move(minimal);
    if (!input.content_source.empty() && input.content_source[q] != nullptr) {
      // A source mentioning a symbol whose state was dropped substitutes
      // to nullptr: the restricted content may differ from it there.
      for (int a = 0; a < num_symbols; ++a) {
        symbol_map[a] = child(q, a) == kNoState ? kNoSymbol : a;
      }
      xsd.content_source[i] =
          Regex::Substitute(input.content_source[q], symbol_map);
    }
  }

  // Step 2: initial partition by (label, content language). Content DFAs
  // are canonical minimal automata here, so structural equality decides
  // language equality: the key spells out the label and the whole DFA.
  // q_init always forms its own block (the empty key).
  std::unordered_map<std::vector<int>, int, IntVectorHash> block_ids;
  std::vector<int> block(n);
  block[0] = 0;
  block_ids.emplace(std::vector<int>(), 0);
  std::vector<int> key;
  for (int q = 1; q < n; ++q) {
    const Dfa& content = xsd.content[q];
    key = {xsd.state_label[q], content.num_states(), content.initial()};
    for (int s = 0; s < content.num_states(); ++s) {
      key.push_back(content.IsFinal(s));
      for (int a = 0; a < num_symbols; ++a) key.push_back(content.Next(s, a));
    }
    auto [it, inserted] = block_ids.emplace(key, block_ids.size());
    block[q] = it->second;
  }
  int num_blocks = static_cast<int>(block_ids.size());

  // Step 3: refine by successor blocks until stable (Hopcroft).
  StatusOr<int> refined =
      RefinePartition(xsd.automaton, &block, num_blocks, budget);
  if (!refined.ok()) return refined.status();
  num_blocks = *refined;

  // Step 4: the quotient, its blocks numbered in BFS order from q_init's
  // block (symbols ascending). Members of a block agree on label, content
  // and successor blocks, so the first-found member builds the block.
  std::vector<int> block_state(num_blocks, kNoState);
  std::vector<int> member = {0};
  block_state[block[0]] = 0;
  for (size_t b = 0; b < member.size(); ++b) {
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(member[b], a);
      if (r != kNoState && block_state[block[r]] == kNoState) {
        block_state[block[r]] = static_cast<int>(member.size());
        member.push_back(r);
      }
    }
  }
  const int m = static_cast<int>(member.size());
  DfaXsd result;
  result.sigma = xsd.sigma;
  result.start_symbols = xsd.start_symbols;
  result.automaton = Dfa(m, num_symbols);
  result.state_label.resize(m);
  result.content.resize(m);
  for (int b = 0; b < m; ++b) {
    const int q = member[b];
    result.state_label[b] = xsd.state_label[q];
    result.content[b] = std::move(xsd.content[q]);
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState) {
        result.automaton.SetTransition(b, a, block_state[block[r]]);
      }
    }
  }
  if (!xsd.content_source.empty()) {
    // Merged states share one content language (the initial partition
    // keys on it), so any member's provenance serves the block; the last
    // one with provenance, in state order, is taken.
    result.content_source.resize(m);
    for (int q = 0; q < n; ++q) {
      if (xsd.content_source[q] != nullptr) {
        result.content_source[block_state[block[q]]] = xsd.content_source[q];
      }
    }
  }
  result.CheckWellFormed();
  return result;
}

StatusOr<DfaXsd> MinimizeXsdUnderContext(const DfaXsd& input,
                                         const Nfa& sibling_context,
                                         Budget* budget) {
  if (sibling_context.num_symbols() != input.sigma.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "sibling_context alphabet does not match the XSD");
  }
  // Re-canonicalize every content DFA schema-guided: subsets reachable
  // only on context-dead child words collapse into the sink, and the
  // minimization quotients the result, so contents that agree on every
  // context-live word become structurally identical. MinimizeXsd's
  // block partition then merges the states they label.
  DfaXsd xsd = input;
  // Context-guided re-canonicalization rewrites the content languages
  // themselves, so any counted-source provenance would go stale.
  xsd.content_source.clear();
  const int init = xsd.automaton.initial();
  for (int q = 0; q < xsd.automaton.num_states(); ++q) {
    if (q == init) continue;
    StatusOr<Dfa> content =
        MinimizeNfa(xsd.content[q].ToNfa(), &sibling_context, budget);
    if (!content.ok()) return content.status();
    xsd.content[q] = *std::move(content);
  }
  return MinimizeXsd(xsd, budget);
}

bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b) {
  return a.sigma == b.sigma && a.start_symbols == b.start_symbols &&
         a.automaton == b.automaton && a.state_label == b.state_label &&
         a.content == b.content;
}

}  // namespace stap
