#include "stap/schema/typing.h"

#include <sstream>

#include "stap/base/check.h"
#include "stap/schema/streaming.h"

namespace stap {

namespace {

// Saturating arithmetic for typing counts.
int64_t SatAdd(int64_t a, int64_t b, int64_t cap) {
  return a > cap - b ? cap : a + b;
}

int64_t SatMul(int64_t a, int64_t b, int64_t cap) {
  if (a == 0 || b == 0) return 0;
  if (a > cap / b) return cap;
  return a * b;
}

// Per-node typing counts: counts[tau] = number of typings of a node
// labeled `label` whose root gets type tau (0 when µ(tau) mismatches or no
// typing exists), from the counts of its children.
std::vector<int64_t> TypingCounts(
    const Edtd& edtd, int label,
    const std::vector<std::vector<int64_t>>& child_counts, int64_t cap) {
  const int n = edtd.num_types();
  std::vector<int64_t> result(n, 0);
  for (int tau = 0; tau < n; ++tau) {
    if (edtd.mu[tau] != label) continue;
    const Dfa& dfa = edtd.content[tau];
    if (dfa.num_states() == 0) continue;
    // Weighted path count through the content DFA: weight of symbol t at
    // child position i is child_counts[i][t].
    std::vector<int64_t> weight_in_state(dfa.num_states(), 0);
    weight_in_state[dfa.initial()] = 1;
    for (const std::vector<int64_t>& child : child_counts) {
      std::vector<int64_t> next(dfa.num_states(), 0);
      for (int s = 0; s < dfa.num_states(); ++s) {
        if (weight_in_state[s] == 0) continue;
        for (int t = 0; t < n; ++t) {
          if (child[t] == 0) continue;
          int r = dfa.Next(s, t);
          if (r == kNoState) continue;
          next[r] = SatAdd(next[r],
                           SatMul(weight_in_state[s], child[t], cap), cap);
        }
      }
      weight_in_state = std::move(next);
    }
    int64_t total = 0;
    for (int s = 0; s < dfa.num_states(); ++s) {
      if (dfa.IsFinal(s)) total = SatAdd(total, weight_in_state[s], cap);
    }
    result[tau] = total;
  }
  return result;
}

// Consumes ValidateTree's events and stores the typing counts of every
// node, numbered in pre-order: each node's counts are computed once, when
// it closes, from its children's.
struct NodeCounts {
  const Edtd& edtd;
  int64_t cap;
  std::vector<int> labels = {};
  std::vector<std::vector<size_t>> children = {};
  std::vector<std::vector<int64_t>> counts = {};
  std::vector<size_t> open = {};  // the open elements

  bool StartElement(int symbol) {
    if (!open.empty()) children[open.back()].push_back(labels.size());
    open.push_back(labels.size());
    labels.push_back(symbol);
    children.emplace_back();
    counts.emplace_back();
    return true;
  }
  bool EndElement() {
    const size_t node = open.back();
    open.pop_back();
    counts[node] = TypingCounts(edtd, labels[node], ChildCounts(node), cap);
    return true;
  }
  bool EndDocument() { return true; }

  std::vector<std::vector<int64_t>> ChildCounts(size_t node) const {
    std::vector<std::vector<int64_t>> child_counts;
    for (size_t c : children[node]) child_counts.push_back(counts[c]);
    return child_counts;
  }
};

// Extracts one typing with `root_type` at the root, top-down over the
// stored counts. In pre-order a node's type and path are set by its
// parent before the node is reached.
Typing ExtractTyping(const Edtd& edtd, const NodeCounts& all, int root_type) {
  const int n = edtd.num_types();
  Typing typing;
  typing.paths.resize(all.labels.size());
  typing.types.assign(all.labels.size(), root_type);
  for (size_t node = 0; node < all.labels.size(); ++node) {
    const std::vector<std::vector<int64_t>> child_counts =
        all.ChildCounts(node);
    // Choose child types: walk the content DFA keeping only states from
    // which acceptance with the remaining children is possible. reachable
    // sets are computed right-to-left.
    const Dfa& dfa = edtd.content[typing.types[node]];
    const int k = static_cast<int>(child_counts.size());
    // viable[i] = states from which children i..k-1 can be consumed.
    std::vector<std::vector<bool>> viable(
        k + 1, std::vector<bool>(dfa.num_states(), false));
    for (int s = 0; s < dfa.num_states(); ++s) {
      viable[k][s] = dfa.IsFinal(s);
    }
    for (int i = k - 1; i >= 0; --i) {
      for (int s = 0; s < dfa.num_states(); ++s) {
        for (int t = 0; t < n && !viable[i][s]; ++t) {
          if (child_counts[i][t] == 0) continue;
          int r = dfa.Next(s, t);
          if (r != kNoState && viable[i + 1][r]) viable[i][s] = true;
        }
      }
    }
    int state = dfa.initial();
    STAP_CHECK(viable[0][state]);
    for (int i = 0; i < k; ++i) {
      int chosen = -1;
      for (int t = 0; t < n; ++t) {
        if (child_counts[i][t] == 0) continue;
        int r = dfa.Next(state, t);
        if (r != kNoState && viable[i + 1][r]) {
          chosen = t;
          state = r;
          break;
        }
      }
      STAP_CHECK(chosen >= 0);
      const size_t child = all.children[node][i];
      typing.types[child] = chosen;
      typing.paths[child] = typing.paths[node];
      typing.paths[child].push_back(i);
    }
  }
  return typing;
}

// Records each element's XSD state, in pre-order, as ValidateTree opens
// it.
struct TypeRecorder {
  StreamingValidator validator;
  Typing* typing;

  bool StartElement(int symbol) {
    if (!validator.StartElement(symbol)) return false;
    typing->paths.push_back(validator.path());
    typing->types.push_back(validator.state() - 1);
    return true;
  }
  bool EndElement() { return validator.EndElement(); }
  bool EndDocument() { return validator.EndDocument(); }
};

}  // namespace

std::string Typing::ToString(const Edtd& schema, const Tree& tree) const {
  std::ostringstream os;
  for (size_t i = 0; i < paths.size(); ++i) {
    os << schema.sigma.Name(tree.At(paths[i]).label) << "@[";
    for (size_t j = 0; j < paths[i].size(); ++j) {
      if (j > 0) os << ".";
      os << paths[i][j];
    }
    os << "] : " << schema.types.Name(types[i]) << "\n";
  }
  return os.str();
}

std::optional<Typing> AssignTypes(const DfaXsd& xsd, const Tree& tree) {
  Typing typing;
  TypeRecorder recorder{StreamingValidator(&xsd), &typing};
  if (!ValidateTree(tree, &recorder)) return std::nullopt;
  return typing;
}

std::optional<Typing> AssignTypesEdtd(const Edtd& edtd, const Tree& tree) {
  NodeCounts all{edtd, int64_t{1} << 40};
  ValidateTree(tree, &all);
  for (int tau : edtd.start_types) {
    if (all.counts[0][tau] > 0) return ExtractTyping(edtd, all, tau);
  }
  return std::nullopt;
}

int64_t CountTypings(const Edtd& edtd, const Tree& tree, int64_t cap) {
  NodeCounts all{edtd, cap};
  ValidateTree(tree, &all);
  int64_t total = 0;
  for (int tau : edtd.start_types) {
    total = SatAdd(total, all.counts[0][tau], cap);
  }
  return total;
}

}  // namespace stap
