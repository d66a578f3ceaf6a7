#include "stap/schema/single_type.h"

#include <algorithm>
#include <sstream>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/schema/streaming.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

// Copies the canonical minimal `dfa` over Σ to the type alphabet, symbol
// a becoming type type_of[a], and renumbers its states in BFS order with
// the types ascending. `symbols` lists every symbol `dfa` uses, in
// ascending order of type_of. The relabeling is injective, so the result
// is the canonical minimal DFA of the lifted language — exactly what
// Minimize returns for it — at O(|dfa| · |symbols|) instead of a
// minimization over the type alphabet.
Dfa LiftToTypes(const Dfa& dfa, const std::vector<int>& symbols,
                const std::vector<int>& type_of, int num_types) {
  std::vector<int> remap(dfa.num_states(), kNoState);
  std::vector<int> order = {dfa.initial()};
  remap[dfa.initial()] = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    for (int a : symbols) {
      int r = dfa.Next(order[i], a);
      if (r != kNoState && remap[r] == kNoState) {
        remap[r] = static_cast<int>(order.size());
        order.push_back(r);
      }
    }
  }
  Dfa lifted(static_cast<int>(order.size()), num_types);
  for (size_t s = 0; s < order.size(); ++s) {
    lifted.SetFinal(static_cast<int>(s), dfa.IsFinal(order[s]));
    for (int a : symbols) {
      int r = dfa.Next(order[s], a);
      if (r != kNoState) {
        lifted.SetTransition(static_cast<int>(s), type_of[a], remap[r]);
      }
    }
  }
  return lifted;
}

}  // namespace

int64_t DfaXsd::Size() const {
  int64_t total = sigma.size() + static_cast<int64_t>(start_symbols.size()) +
                  automaton.Size();
  for (size_t q = 0; q < content.size(); ++q) {
    if (static_cast<int>(q) == automaton.initial()) continue;
    total += content[q].Size();
  }
  return total;
}

bool DfaXsd::Accepts(const Tree& tree) const {
  StreamingValidator validator(this);
  return ValidateTree(tree, &validator);
}

void DfaXsd::CheckWellFormed() const {
  STAP_CHECK(automaton.num_states() >= 1);
  const int init = automaton.initial();
  STAP_CHECK(init >= 0 && init < automaton.num_states());
  STAP_CHECK(static_cast<int>(state_label.size()) == automaton.num_states());
  STAP_CHECK(static_cast<int>(content.size()) == automaton.num_states());
  STAP_CHECK(state_label[init] == kNoSymbol);
  STAP_CHECK(automaton.num_symbols() == sigma.size());
  for (int q = 0; q < automaton.num_states(); ++q) {
    for (int a = 0; a < sigma.size(); ++a) {
      int r = automaton.Next(q, a);
      if (r != kNoState) {
        STAP_CHECK(r != init);  // q_init has no incoming transitions
        STAP_CHECK(state_label[r] == a);  // state-labeled
      }
    }
    if (q != init) STAP_CHECK(content[q].num_symbols() == sigma.size());
  }
  STAP_CHECK(content_source.empty() ||
             static_cast<int>(content_source.size()) == automaton.num_states());
  for (const RegexPtr& source : content_source) {
    if (source != nullptr) STAP_CHECK(source->MaxSymbol() < sigma.size());
  }
}

std::string DfaXsd::ToString() const {
  std::ostringstream os;
  os << "DfaXsd start={";
  for (size_t i = 0; i < start_symbols.size(); ++i) {
    if (i > 0) os << ",";
    os << sigma.Name(start_symbols[i]);
  }
  os << "} states=" << automaton.num_states() << "\n";
  for (int q = 0; q < automaton.num_states(); ++q) {
    if (q == automaton.initial()) continue;
    os << "  state " << q << " [" << sigma.Name(state_label[q])
       << "] content DFA(" << content[q].num_states() << ")\n";
  }
  return os.str();
}

DfaXsd DfaXsdFromStEdtd(const Edtd& edtd) {
  TypeAutomaton type_automaton = BuildTypeAutomaton(edtd);
  STAP_CHECK(type_automaton.IsDeterministic());
  const int num_symbols = edtd.num_symbols();

  DfaXsd xsd;
  xsd.sigma = edtd.sigma;
  for (int tau : edtd.start_types) {
    StateSetInsert(xsd.start_symbols, edtd.mu[tau]);
  }

  // The deterministic type automaton becomes the XSD automaton verbatim:
  // state 0 = q_init, state 1 + τ = type τ.
  const Nfa& nfa = type_automaton.nfa;
  Dfa automaton(nfa.num_states(), nfa.num_symbols());
  automaton.SetInitial(0);
  for (int q = 0; q < nfa.num_states(); ++q) {
    for (int a = 0; a < nfa.num_symbols(); ++a) {
      const StateSet& next = nfa.Next(q, a);
      STAP_CHECK(next.size() <= 1);
      if (!next.empty()) automaton.SetTransition(q, a, next[0]);
    }
  }
  xsd.automaton = std::move(automaton);
  xsd.state_label = type_automaton.state_label;

  xsd.content.resize(nfa.num_states(), Dfa::EmptyLanguage(num_symbols));
  std::vector<int> type_of_symbol(num_symbols);
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    // μ(d(τ)): the homomorphic image of the content model. Because the
    // schema is single-type, every word of d(τ) uses only the types
    // δ(τ, a), one per symbol, so the image is d(τ) read through
    // a ↦ δ(τ, a): already deterministic, minimized over Σ.
    const int q = TypeAutomaton::StateOfType(tau);
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      type_of_symbol[a] =
          r == kNoState ? kNoSymbol : TypeAutomaton::TypeOfState(r);
    }
    xsd.content[q] = Minimize(
        InverseHomomorphism(edtd.content[tau], type_of_symbol, num_symbols));
  }
  if (!edtd.content_source.empty()) {
    // Substituting μ into the source regex is exactly the homomorphic
    // image at the syntax level, so the provenance invariant carries over.
    xsd.content_source.resize(nfa.num_states());
    for (int tau = 0; tau < edtd.num_types(); ++tau) {
      if (edtd.content_source[tau] == nullptr) continue;
      xsd.content_source[TypeAutomaton::StateOfType(tau)] =
          Regex::Substitute(edtd.content_source[tau], edtd.mu);
    }
  }
  xsd.CheckWellFormed();
  return xsd;
}

Edtd StEdtdFromDfaXsd(const DfaXsd& xsd) {
  xsd.CheckWellFormed();
  const int num_states = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  const int init = xsd.automaton.initial();

  // Types are the non-initial states, numbered in state order. With the
  // usual layout (q_init = 0) this keeps the historical mapping "type of
  // state q is q - 1".
  std::vector<int> type_of_state(num_states, -1);
  std::vector<int> state_of_type;
  state_of_type.reserve(num_states > 0 ? num_states - 1 : 0);
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    type_of_state[q] = static_cast<int>(state_of_type.size());
    state_of_type.push_back(q);
  }
  const int num_types = static_cast<int>(state_of_type.size());

  Edtd edtd;
  edtd.sigma = xsd.sigma;
  for (int q : state_of_type) {
    edtd.types.Intern(xsd.sigma.Name(xsd.state_label[q]) + "@" +
                      std::to_string(q));
    edtd.mu.push_back(xsd.state_label[q]);
  }

  for (int a : xsd.start_symbols) {
    int q = xsd.automaton.Next(init, a);
    if (q != kNoState) StateSetInsert(edtd.start_types, type_of_state[q]);
  }

  edtd.content.reserve(num_types);
  std::vector<int> symbol_to_type(num_symbols);
  std::vector<int> allowed(num_symbols);
  std::vector<int> symbols_by_type;
  for (int q : state_of_type) {
    // Lift content[q] from Σ to types: δ(q, ·) is deterministic, so each
    // symbol a lifts to at most one type, the type of δ(q, a). Symbols
    // without that transition are dropped, the rest keep their
    // transitions, so the lift is a relabeling of the restricted content.
    symbols_by_type.clear();
    for (int a = 0; a < num_symbols; ++a) {
      int next = xsd.automaton.Next(q, a);
      symbol_to_type[a] = next == kNoState ? kNoSymbol : type_of_state[next];
      allowed[a] = next == kNoState ? kNoSymbol : a;
      if (next != kNoState) symbols_by_type.push_back(a);
    }
    std::sort(symbols_by_type.begin(), symbols_by_type.end(),
              [&](int a, int b) {
                return symbol_to_type[a] < symbol_to_type[b];
              });
    Dfa restricted =
        Minimize(InverseHomomorphism(xsd.content[q], allowed, num_symbols));
    edtd.content.push_back(
        LiftToTypes(restricted, symbols_by_type, symbol_to_type, num_types));
    if (!xsd.content_source.empty()) {
      // Substituting the same map into the source regex picks the unique
      // preimage word-by-word. A source mentioning a symbol with no
      // transition from q substitutes to nullptr (provenance dropped).
      edtd.content_source.push_back(
          xsd.content_source[q] == nullptr
              ? nullptr
              : Regex::Substitute(xsd.content_source[q], symbol_to_type));
    }
  }
  edtd.CheckWellFormed();
  return edtd;
}

}  // namespace stap
