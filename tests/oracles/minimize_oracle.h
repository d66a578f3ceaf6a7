// Test-only oracles for XSD minimization and EDTD reduction, built the
// long way: MinimizeXsd round-trips through the stEDTD view
// (StEdtdFromDfaXsd -> ReduceEdtd -> DfaXsdFromStEdtd), drops transitions
// the content never uses, partitions on content strings, builds the
// quotient and renumbers it in BFS order; ReduceEdtd runs its own
// productive fixpoint and reachability walk. minimize_differential_test
// requires the library to produce the same schemas, provenance included.
#ifndef STAP_TESTS_ORACLES_MINIMIZE_ORACLE_H_
#define STAP_TESTS_ORACLES_MINIMIZE_ORACLE_H_

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/state_set_hash.h"
#include "stap/base/budget.h"
#include "stap/base/check.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {
namespace oracle {

namespace {

// Drops all transitions on symbols not in `allowed` and trims.
Dfa RestrictToSymbols(const Dfa& dfa, const std::vector<bool>& allowed) {
  Dfa result(dfa.num_states(), dfa.num_symbols());
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (!allowed[a]) continue;
      int r = dfa.Next(q, a);
      if (r != kNoState) result.SetTransition(q, a, r);
    }
  }
  return result.Trimmed();
}

// Renumbers the symbols of `dfa` according to `remap` (old id -> new id or
// kNoSymbol) into an automaton over `new_size` symbols.
Dfa RemapSymbols(const Dfa& dfa, const std::vector<int>& remap, int new_size) {
  Dfa result(std::max(dfa.num_states(), 1), new_size);
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (remap[a] == kNoSymbol) continue;
      int r = dfa.Next(q, a);
      if (r != kNoState) result.SetTransition(q, remap[a], r);
    }
  }
  return result;
}

}  // namespace

inline Edtd ReduceEdtd(const Edtd& input) {
  input.CheckWellFormed();
  const int n = input.num_types();

  // Productive types: fixpoint from below. A type is productive if its
  // content language contains a word over productive types.
  std::vector<bool> productive(n, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int tau = 0; tau < n; ++tau) {
      if (productive[tau]) continue;
      if (!RestrictToSymbols(input.content[tau], productive).IsEmpty()) {
        productive[tau] = true;
        changed = true;
      }
    }
  }

  // Restrict all content models to productive types, then compute
  // reachability from the start types over "occurs in some accepted word".
  std::vector<Dfa> restricted(n);
  for (int tau = 0; tau < n; ++tau) {
    restricted[tau] = RestrictToSymbols(input.content[tau], productive);
  }
  std::vector<bool> reachable(n, false);
  std::vector<int> stack;
  for (int tau : input.start_types) {
    if (productive[tau] && !reachable[tau]) {
      reachable[tau] = true;
      stack.push_back(tau);
    }
  }
  while (!stack.empty()) {
    int tau = stack.back();
    stack.pop_back();
    const Dfa& dfa = restricted[tau];
    // All transitions of the trimmed, restricted DFA are useful, so any
    // transition symbol occurs in some accepted word.
    for (int q = 0; q < dfa.num_states(); ++q) {
      for (int t = 0; t < n; ++t) {
        if (dfa.Next(q, t) != kNoState && !reachable[t]) {
          reachable[t] = true;
          stack.push_back(t);
        }
      }
    }
  }

  // Keep reachable-and-productive types; renumber densely.
  std::vector<int> remap(n, kNoSymbol);
  Alphabet new_types;
  for (int tau = 0; tau < n; ++tau) {
    if (reachable[tau] && productive[tau]) {
      remap[tau] = new_types.Intern(input.types.Name(tau));
    }
  }
  const int new_n = new_types.size();

  Edtd result;
  result.sigma = input.sigma;
  result.types = new_types;
  result.mu.resize(new_n);
  result.content.resize(new_n);
  if (!input.content_source.empty()) result.content_source.resize(new_n);
  for (int tau = 0; tau < n; ++tau) {
    if (remap[tau] == kNoSymbol) continue;
    result.mu[remap[tau]] = input.mu[tau];
    result.content[remap[tau]] =
        Minimize(RemapSymbols(restricted[tau], remap, new_n));
    if (!input.content_source.empty() &&
        input.content_source[tau] != nullptr) {
      // A source mentioning a dropped (unproductive/unreachable) type
      // substitutes to nullptr: restricting the content language could
      // change it there, so the provenance is no longer trustworthy.
      result.content_source[remap[tau]] =
          Regex::Substitute(input.content_source[tau], remap);
    }
  }
  for (int tau : input.start_types) {
    if (remap[tau] != kNoSymbol) {
      StateSetInsert(result.start_types, remap[tau]);
    }
  }
  result.CheckWellFormed();
  return result;
}

namespace {

// Removes automaton transitions on symbols that never occur in the source
// state's content language (they can never be exercised by a valid
// document and would otherwise block state merging).
DfaXsd DropUselessTransitions(const DfaXsd& xsd) {
  DfaXsd result = xsd;
  const int num_symbols = xsd.sigma.size();
  const int init = xsd.automaton.initial();
  for (int q = 0; q < xsd.automaton.num_states(); ++q) {
    if (q == init) continue;
    Dfa trimmed = xsd.content[q].Trimmed();
    std::vector<bool> occurs(num_symbols, false);
    for (int s = 0; s < trimmed.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (trimmed.Next(s, a) != kNoState) occurs[a] = true;
      }
    }
    for (int a = 0; a < num_symbols; ++a) {
      if (!occurs[a]) result.automaton.SetTransition(q, a, kNoState);
    }
  }
  // From q_init only start symbols matter.
  for (int a = 0; a < num_symbols; ++a) {
    if (!StateSetContains(xsd.start_symbols, a)) {
      result.automaton.SetTransition(init, a, kNoState);
    }
  }
  return result;
}

// BFS canonical renumbering (q_init becomes state 0).
DfaXsd Canonicalize(const DfaXsd& xsd) {
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  const int init = xsd.automaton.initial();
  std::vector<int> remap(n, kNoState);
  std::vector<int> order = {init};
  remap[init] = 0;
  std::deque<int> queue = {init};
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState && remap[r] == kNoState) {
        remap[r] = static_cast<int>(order.size());
        order.push_back(r);
        queue.push_back(r);
      }
    }
  }
  DfaXsd result;
  result.sigma = xsd.sigma;
  result.start_symbols = xsd.start_symbols;
  result.automaton = Dfa(static_cast<int>(order.size()), num_symbols);
  result.automaton.SetInitial(0);
  result.state_label.resize(order.size());
  result.content.resize(order.size(), Dfa::EmptyLanguage(num_symbols));
  if (!xsd.content_source.empty()) result.content_source.resize(order.size());
  for (int q : order) {
    result.state_label[remap[q]] = xsd.state_label[q];
    result.content[remap[q]] = xsd.content[q];
    if (!xsd.content_source.empty()) {
      result.content_source[remap[q]] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState && remap[r] != kNoState) {
        result.automaton.SetTransition(remap[q], a, remap[r]);
      }
    }
  }
  return result;
}

}  // namespace

inline StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& input, Budget* budget) {
  // Step 1: reduce through the EDTD view; this prunes unproductive and
  // unreachable states and canonicalizes every content DFA.
  Edtd reduced = ReduceEdtd(StEdtdFromDfaXsd(input));
  DfaXsd xsd = DropUselessTransitions(DfaXsdFromStEdtd(reduced));
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();

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

  // Step 4: build the quotient.
  DfaXsd quotient;
  quotient.sigma = xsd.sigma;
  quotient.start_symbols = xsd.start_symbols;
  // Renumber blocks so that q_init's block is 0.
  std::vector<int> block_state(num_blocks, kNoState);
  int next_id = 0;
  block_state[block[0]] = next_id++;
  for (int q = 1; q < n; ++q) {
    if (block_state[block[q]] == kNoState) block_state[block[q]] = next_id++;
  }
  quotient.automaton = Dfa(num_blocks, num_symbols);
  quotient.automaton.SetInitial(0);
  quotient.state_label.assign(num_blocks, kNoSymbol);
  quotient.content.assign(num_blocks, Dfa::EmptyLanguage(num_symbols));
  if (!xsd.content_source.empty()) quotient.content_source.resize(num_blocks);
  for (int q = 0; q < n; ++q) {
    int b = block_state[block[q]];
    quotient.state_label[b] = xsd.state_label[q];
    quotient.content[b] = xsd.content[q];
    if (!xsd.content_source.empty() && xsd.content_source[q] != nullptr) {
      // Merged states share one content language (the initial partition
      // keys on it), so any member's provenance serves the block.
      quotient.content_source[b] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState) {
        quotient.automaton.SetTransition(b, a, block_state[block[r]]);
      }
    }
  }

  DfaXsd result = Canonicalize(quotient);
  result.CheckWellFormed();
  return result;
}

inline DfaXsd MinimizeXsd(const DfaXsd& input) {
  StatusOr<DfaXsd> result = MinimizeXsd(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

}  // namespace oracle
}  // namespace stap

#endif  // STAP_TESTS_ORACLES_MINIMIZE_ORACLE_H_
