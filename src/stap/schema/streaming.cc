#include "stap/schema/streaming.h"

#include <cstdint>

#include "stap/base/check.h"

namespace stap {

StreamingValidator::StreamingValidator(const DfaXsd* xsd) : xsd_(xsd) {
  STAP_CHECK(xsd != nullptr);
}

TreePath StreamingValidator::Path(size_t length) const {
  TreePath path(length);
  for (size_t i = 0; i < length; ++i) path[i] = stack_[i].num_children - 1;
  return path;
}

bool StreamingValidator::Fail(Violation::Kind kind, size_t path_length) {
  ok_ = false;
  violation_.kind = kind;
  violation_.path = Path(path_length);
  return false;
}

bool StreamingValidator::StartElement(int symbol) {
  using Kind = Violation::Kind;
  if (!ok_) return false;
  // The child's path ends at its parent's num_children - 1.
  if (!stack_.empty()) ++stack_.back().num_children;
  // Reject-before-negativity matters: a negative symbol promoted into an
  // unsigned comparison would wrap to a huge value and could never be
  // caught below, so test the sign first and compare magnitudes in an
  // unsigned domain that is correct whatever integer type size() returns.
  if (symbol < 0 ||
      static_cast<uint64_t>(symbol) >=
          static_cast<uint64_t>(xsd_->sigma.size())) {
    return Fail(stack_.empty() ? Kind::kRootNotAllowed : Kind::kUndeclared,
                stack_.size());
  }
  if (stack_.empty()) {
    // Root element: one per document, from the start symbols.
    if (saw_root_ || !StateSetContains(xsd_->start_symbols, symbol)) {
      return Fail(saw_root_ ? Kind::kMalformed : Kind::kRootNotAllowed, 0);
    }
    saw_root_ = true;
  } else {
    // Advance the parent's content run.
    Frame& parent = stack_.back();
    if (parent.content_state == kNoState) {
      return Fail(Kind::kContent, stack_.size() - 1);
    }
    parent.content_state =
        xsd_->content[parent.xsd_state].Next(parent.content_state, symbol);
    if (parent.content_state == kNoState) {
      return Fail(Kind::kContent, stack_.size() - 1);
    }
  }
  int from = stack_.empty() ? xsd_->automaton.initial() : stack_.back().xsd_state;
  int state = xsd_->automaton.Next(from, symbol);
  if (state == kNoState) {
    return Fail(stack_.empty() ? Kind::kRootUndeclared : Kind::kUndeclared,
                stack_.size());
  }
  const Dfa& content = xsd_->content[state];
  stack_.push_back(Frame{
      state, content.num_states() > 0 ? content.initial() : kNoState, 0});
  return true;
}

bool StreamingValidator::EndElement() {
  if (!ok_) return false;
  if (stack_.empty()) return Fail(Violation::Kind::kMalformed, 0);
  const Frame& frame = stack_.back();
  if (frame.content_state == kNoState ||
      !xsd_->content[frame.xsd_state].IsFinal(frame.content_state)) {
    return Fail(Violation::Kind::kContent, stack_.size() - 1);
  }
  stack_.pop_back();
  return true;
}

bool StreamingValidator::EndDocument() {
  return ok_ && saw_root_ && stack_.empty();
}

bool ValidateStreaming(const DfaXsd& xsd, const Tree& tree) {
  StreamingValidator validator(&xsd);
  return ValidateTree(tree, &validator);
}

}  // namespace stap
