#include "stap/schema/minimize.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/state_set_hash.h"
#include "stap/base/check.h"
#include "stap/schema/reduce.h"

namespace stap {

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
  // language equality. q_init always forms its own block.
  std::unordered_map<std::string, int> block_ids;
  std::vector<int> block(n);
  block[0] = 0;
  block_ids.emplace("", 0);
  for (int q = 1; q < n; ++q) {
    std::string key =
        std::to_string(xsd.state_label[q]) + "\n" + xsd.content[q].ToString();
    auto [it, inserted] = block_ids.emplace(std::move(key), block_ids.size());
    block[q] = it->second;
  }
  int num_blocks = static_cast<int>(block_ids.size());

  // Step 3: refine by successor blocks until stable (hashed signatures,
  // as in automata/minimize.cc). Refinement never grows the state count,
  // so only the wall-clock deadline can exhaust; checked once per round.
  std::vector<int> signature;
  while (true) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    std::unordered_map<std::vector<int>, int, IntVectorHash> signature_ids;
    signature_ids.reserve(static_cast<size_t>(n));
    std::vector<int> next_block(n);
    for (int q = 0; q < n; ++q) {
      signature.clear();
      signature.reserve(num_symbols + 1);
      signature.push_back(block[q]);
      for (int a = 0; a < num_symbols; ++a) {
        int r = xsd.automaton.Next(q, a);
        signature.push_back(r == kNoState ? -1 : block[r]);
      }
      auto [it, inserted] =
          signature_ids.emplace(std::move(signature), signature_ids.size());
      next_block[q] = it->second;
    }
    int next_num = static_cast<int>(signature_ids.size());
    block = std::move(next_block);
    if (next_num == num_blocks) break;
    num_blocks = next_num;
  }

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
