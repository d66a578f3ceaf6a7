// The validation core: two SAX-style validators, fed StartElement /
// EndElement / EndDocument in document order with O(depth) memory and
// latched on the first violation (later events keep returning false, so
// callers can drain their parser), and the one Tree→events driver.
// StreamingValidator runs a DfaXsd top-down with one (type, content-state)
// pair per open element, the EDC payoff (Section 1, Prop. 2.9);
// EdtdValidator runs any EDTD (Def. 2.2) with the set of pairs still
// possible, as only the subtree settles an element's type.
//
//   StreamingValidator v(&xsd);
//   v.StartElement(book); v.StartElement(title); v.EndElement();
//   v.EndElement();
//   bool ok = v.EndDocument();
#ifndef STAP_SCHEMA_STREAMING_H_
#define STAP_SCHEMA_STREAMING_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/schema/single_type.h"
#include "stap/tree/tree.h"

namespace stap {

struct Violation {
  enum class Kind {
    kNone,
    kRootNotAllowed,  // the root's label is not a start symbol
    kRootUndeclared,  // the root's start symbol has no type
    kUndeclared,      // the element is not declared in its parent's context
    kContent,         // the element's child string fails its content model
    kMalformed,       // a second root, or EndElement with nothing open
  };
  Kind kind = Kind::kNone;
  TreePath path;  // the offending element
};

class StreamingValidator {
 public:
  // `xsd` must be well-formed (DfaXsd::CheckWellFormed) and outlive the
  // validator.
  explicit StreamingValidator(const DfaXsd* xsd);

  // Feeds the opening tag of an element labeled `symbol`. Returns ok().
  bool StartElement(int symbol);

  // Feeds a closing tag. Returns ok().
  bool EndElement();

  // True after the (single) root element closed with no violations.
  bool EndDocument();

  // False once any violation has been seen.
  bool ok() const { return ok_; }

  // The first violation (kind kNone while ok()).
  const Violation& violation() const { return violation_; }

  // Number of currently open elements.
  int depth() const { return static_cast<int>(stack_.size()); }

  // The XSD state and the path of the innermost open element.
  int state() const { return stack_.back().xsd_state; }
  TreePath path() const { return Path(stack_.size() - 1); }

 private:
  struct Frame {
    int xsd_state;      // type of the open element
    int content_state;  // run of its content DFA over the children so far
    int num_children;   // children opened so far
  };

  // The path of the element with `length` ancestors on the stack.
  TreePath Path(size_t length) const;
  bool Fail(Violation::Kind kind, size_t path_length);

  const DfaXsd* xsd_;
  std::vector<Frame> stack_;
  Violation violation_;
  bool ok_ = true;
  bool saw_root_ = false;
};

// Validates against an EDTD whose content models d(τ) are `Content`
// automata over the types: Dfa for Edtd and Dtd, Nfa for EdtdNfa.
template <typename Content>
class EdtdValidator {
 public:
  // `mu` labels types, `content[τ]` is d(τ), and the root may take the
  // types in `root_types` (sorted). All three must outlive the validator.
  EdtdValidator(const std::vector<int>& mu,
                const std::vector<Content>& content,
                const std::vector<int>& root_types)
      : mu_(mu), content_(content), root_types_(root_types) {}

  // Keeps the types with this label that some parent pair can step on
  // (the root: the root types).
  bool StartElement(int symbol) {
    if (!ok_ || (begin_.empty() && saw_root_)) return ok_ = false;
    const size_t begin = pairs_.size();
    const size_t parent = begin_.empty() ? begin : begin_.back();
    for (int tau = 0; tau < static_cast<int>(mu_.size()); ++tau) {
      if (mu_[tau] != symbol) continue;
      bool usable = begin_.empty() && StateSetContains(root_types_, tau);
      for (size_t i = parent; i < begin && !usable; ++i) {
        ForEachNext(content_[pairs_[i].first], pairs_[i].second, tau,
                    [&](int) { usable = true; });
      }
      if (usable) {
        ForEachInitial(content_[tau],
                       [&](int q) { pairs_.emplace_back(tau, q); });
      }
    }
    if (pairs_.size() == begin) return ok_ = false;
    begin_.push_back(begin);
    saw_root_ = true;
    return true;
  }

  // The types with a final state are the element's accepted types; they
  // advance the parent's pairs (never to the empty set: some parent pair
  // could step on each of them when the element opened).
  bool EndElement() {
    if (!ok_ || begin_.empty()) return ok_ = false;
    const size_t begin = begin_.back();
    begin_.pop_back();
    std::vector<int>& accepted = begin_.empty() ? root_types_out_ : accepted_;
    accepted.clear();
    for (size_t i = begin; i < pairs_.size(); ++i) {
      const auto [type, state] = pairs_[i];
      // Sets are sorted by type, so repeats are adjacent.
      if (content_[type].IsFinal(state) &&
          (accepted.empty() || accepted.back() != type)) {
        accepted.push_back(type);
      }
    }
    pairs_.resize(begin);
    if (accepted.empty()) return ok_ = false;
    if (begin_.empty()) return true;  // the root closed
    next_pairs_.clear();
    for (size_t i = begin_.back(); i < pairs_.size(); ++i) {
      const auto [type, state] = pairs_[i];
      for (int tau : accepted) {
        ForEachNext(content_[type], state, tau,
                    [&](int r) { next_pairs_.emplace_back(type, r); });
      }
    }
    std::sort(next_pairs_.begin(), next_pairs_.end());
    next_pairs_.erase(std::unique(next_pairs_.begin(), next_pairs_.end()),
                      next_pairs_.end());
    pairs_.resize(begin_.back());
    pairs_.insert(pairs_.end(), next_pairs_.begin(), next_pairs_.end());
    return true;
  }

  bool EndDocument() const { return ok_ && saw_root_ && begin_.empty(); }

  // After the root closed: its accepted types. Sorted.
  const std::vector<int>& root_types() const { return root_types_out_; }

 private:
  // Dfa and Nfa behind one interface: f(q) per initial state, f(r) per
  // successor r of q on t.
  template <typename F>
  static void ForEachInitial(const Dfa& dfa, F f) {
    if (dfa.num_states() > 0) f(dfa.initial());
  }
  template <typename F>
  static void ForEachInitial(const Nfa& nfa, F f) {
    for (int q : nfa.initial()) f(q);
  }
  template <typename F>
  static void ForEachNext(const Dfa& dfa, int q, int t, F f) {
    if (dfa.Next(q, t) != kNoState) f(dfa.Next(q, t));
  }
  template <typename F>
  static void ForEachNext(const Nfa& nfa, int q, int t, F f) {
    for (int r : nfa.Next(q, t)) f(r);
  }

  const std::vector<int>& mu_;
  const std::vector<Content>& content_;
  const std::vector<int>& root_types_;
  // The open elements' (type, state) sets, stacked, each sorted: element d
  // owns pairs_[begin_[d], begin_[d + 1]).
  std::vector<std::pair<int, int>> pairs_;
  std::vector<size_t> begin_;
  std::vector<int> accepted_;                    // scratch
  std::vector<std::pair<int, int>> next_pairs_;  // scratch
  std::vector<int> root_types_out_;
  bool ok_ = true;
  bool saw_root_ = false;
};

// Replays `tree` into `validator` in document order on an explicit stack
// (documents may be deeper than the call stack allows), stopping at the
// first rejected event. Returns EndDocument().
template <typename Validator>
bool ValidateTree(const Tree& tree, Validator* validator) {
  if (!validator->StartElement(tree.label)) return false;
  std::vector<std::pair<const Tree*, size_t>> stack = {{&tree, 0}};
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child == node->children.size()) {
      if (!validator->EndElement()) return false;
      stack.pop_back();
    } else {
      const Tree& child = node->children[next_child++];
      if (!validator->StartElement(child.label)) return false;
      stack.emplace_back(&child, 0);
    }
  }
  return validator->EndDocument();
}

// Validates a materialized tree through the streaming interface.
bool ValidateStreaming(const DfaXsd& xsd, const Tree& tree);

}  // namespace stap

#endif  // STAP_SCHEMA_STREAMING_H_
