#include "stap/schema/reduce.h"

#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"

namespace stap {

namespace {

// Drops the transitions of `dfa` on symbols a with !allowed(a) and trims.
template <typename Allowed>
Dfa RestrictToSymbols(const Dfa& dfa, Allowed allowed) {
  Dfa result(dfa.num_states(), dfa.num_symbols());
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState && allowed(a)) result.SetTransition(q, a, r);
    }
  }
  return result.Trimmed();
}

// True if `dfa` accepts a word over the symbols a with allowed(a): a
// search over those transitions from the initial state. `seen` is
// scratch, resized as needed.
template <typename Allowed>
bool AcceptsSomeWord(const Dfa& dfa, Allowed allowed,
                     std::vector<bool>* seen) {
  if (dfa.num_states() == 0) return false;
  seen->assign(dfa.num_states(), false);
  std::vector<int> stack = {dfa.initial()};
  (*seen)[dfa.initial()] = true;
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    if (dfa.IsFinal(s)) return true;
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      int r = dfa.Next(s, a);
      if (r != kNoState && !(*seen)[r] && allowed(a)) {
        (*seen)[r] = true;
        stack.push_back(r);
      }
    }
  }
  return false;
}

}  // namespace

UsefulStates FindUsefulStates(const std::vector<Dfa>& content,
                              const std::function<int(int, int)>& next,
                              const std::vector<int>& roots) {
  const int n = static_cast<int>(content.size());
  std::vector<bool> productive(n, false);
  auto allowed_from = [&](int q) {
    return [&, q](int a) {
      int r = next(q, a);
      return r != kNoState && productive[r];
    };
  };
  auto restricted = [&](int q) {
    return RestrictToSymbols(content[q], allowed_from(q));
  };

  // Productive states: the least fixpoint, by a worklist. parents[r] lists
  // the states whose content has a transition leading to child r; a state
  // is re-checked only when one of its children has become productive, so
  // each content is searched at most once per distinct child.
  std::vector<std::vector<int>> parents(n);
  std::vector<int> last_parent(n, kNoState);
  for (int q = 0; q < n; ++q) {
    const Dfa& dfa = content[q];
    for (int s = 0; s < dfa.num_states(); ++s) {
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        if (dfa.Next(s, a) == kNoState) continue;
        int r = next(q, a);
        if (r != kNoState && last_parent[r] != q) {
          last_parent[r] = q;
          parents[r].push_back(q);
        }
      }
    }
  }
  std::vector<bool> seen;
  std::vector<int> worklist;
  auto check = [&](int q) {
    if (!productive[q] &&
        AcceptsSomeWord(content[q], allowed_from(q), &seen)) {
      productive[q] = true;
      worklist.push_back(q);
    }
  };
  for (int q = 0; q < n; ++q) check(q);
  while (!worklist.empty()) {
    const int r = worklist.back();
    worklist.pop_back();
    for (int q : parents[r]) check(q);
  }

  // Reachability from the roots over "occurs in some accepted word": every
  // transition of a trimmed, restricted DFA lies on an accepted word, and
  // leads to a productive state.
  std::vector<Dfa> useful(n);
  std::vector<bool> reachable(n, false);
  std::vector<int> stack = roots;
  while (!stack.empty()) {
    const int q = stack.back();
    stack.pop_back();
    if (!productive[q] || reachable[q]) continue;
    reachable[q] = true;
    useful[q] = restricted(q);
    for (int s = 0; s < useful[q].num_states(); ++s) {
      for (int a = 0; a < useful[q].num_symbols(); ++a) {
        if (useful[q].Next(s, a) != kNoState) stack.push_back(next(q, a));
      }
    }
  }

  UsefulStates result;
  for (int q = 0; q < n; ++q) {
    if (!reachable[q]) continue;
    result.kept.push_back(q);
    result.content.push_back(std::move(useful[q]));
  }
  return result;
}

Edtd ReduceEdtd(const Edtd& input) {
  input.CheckWellFormed();
  UsefulStates useful = FindUsefulStates(
      input.content, [](int, int tau) { return tau; }, input.start_types);
  const std::vector<int>& kept = useful.kept;
  const int new_n = static_cast<int>(kept.size());
  std::vector<int> remap(input.num_types(), kNoSymbol);
  for (int i = 0; i < new_n; ++i) remap[kept[i]] = i;

  Edtd result;
  result.sigma = input.sigma;
  if (!input.content_source.empty()) result.content_source.resize(new_n);
  for (int i = 0; i < new_n; ++i) {
    const int tau = kept[i];
    result.types.Intern(input.types.Name(tau));
    result.mu.push_back(input.mu[tau]);
    // `kept` maps each new type id to its old id.
    result.content.push_back(
        Minimize(InverseHomomorphism(useful.content[i], kept, new_n)));
    if (!input.content_source.empty() &&
        input.content_source[tau] != nullptr) {
      // A source mentioning a dropped (unproductive/unreachable) type
      // substitutes to nullptr: restricting the content language could
      // change it there, so the provenance is no longer trustworthy.
      result.content_source[i] =
          Regex::Substitute(input.content_source[tau], remap);
    }
  }
  for (int tau : input.start_types) {
    if (remap[tau] != kNoSymbol) StateSetInsert(result.start_types, remap[tau]);
  }
  result.CheckWellFormed();
  return result;
}

bool IsReduced(const Edtd& edtd) {
  return ReduceEdtd(edtd).num_types() == edtd.num_types();
}

}  // namespace stap
