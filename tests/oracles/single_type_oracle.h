// Test-only oracles for the Prop. 2.9 conversions, built the long way:
// StEdtdFromDfaXsd lifts every content DFA to a dense table over the type
// alphabet and minimizes it there; DfaXsdFromStEdtd takes the μ-image of
// every content as an NFA and determinizes and minimizes it.
// minimize_differential_test requires the library to produce the same
// schemas, provenance included.
#ifndef STAP_TESTS_ORACLES_SINGLE_TYPE_ORACLE_H_
#define STAP_TESTS_ORACLES_SINGLE_TYPE_ORACLE_H_

#include <string>
#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"

namespace stap {
namespace oracle {

inline DfaXsd DfaXsdFromStEdtd(const Edtd& edtd) {
  TypeAutomaton type_automaton = BuildTypeAutomaton(edtd);
  STAP_CHECK(type_automaton.IsDeterministic());

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

  xsd.content.resize(nfa.num_states(), Dfa::EmptyLanguage(edtd.num_symbols()));
  for (int tau = 0; tau < edtd.num_types(); ++tau) {
    // μ(d(τ)): the homomorphic image of the content model. Because the
    // schema is single-type, μ is injective on the types occurring in
    // d(τ), so the image stays deterministic; determinize-and-minimize
    // is cheap and also canonicalizes.
    Nfa image = HomomorphicImage(edtd.content[tau].Trimmed(), edtd.mu,
                                 edtd.num_symbols());
    xsd.content[TypeAutomaton::StateOfType(tau)] = MinimizeNfa(image);
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

inline Edtd StEdtdFromDfaXsd(const DfaXsd& xsd) {
  xsd.CheckWellFormed();
  const int num_states = xsd.automaton.num_states();
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
  for (int q : state_of_type) {
    // Lift content[q] from Σ to types: symbol a becomes the unique type
    // reached via δ(q, a) when that transition exists.
    std::vector<int> type_to_symbol(num_types, kNoSymbol);
    for (int tau = 0; tau < num_types; ++tau) {
      int a = xsd.state_label[state_of_type[tau]];
      if (xsd.automaton.Next(q, a) == state_of_type[tau]) {
        type_to_symbol[tau] = a;
      }
    }
    edtd.content.push_back(Minimize(
        InverseHomomorphism(xsd.content[q], type_to_symbol, num_types)));
    if (!xsd.content_source.empty()) {
      // δ(q, ·) is deterministic, so each symbol lifts to at most one
      // type; substituting that map into the source regex picks the
      // unique preimage word-by-word. A source mentioning a symbol with
      // no transition from q substitutes to nullptr (provenance dropped).
      std::vector<int> symbol_to_type(xsd.sigma.size(), kNoSymbol);
      for (int a = 0; a < xsd.sigma.size(); ++a) {
        int next = xsd.automaton.Next(q, a);
        if (next != kNoState) symbol_to_type[a] = type_of_state[next];
      }
      edtd.content_source.push_back(
          xsd.content_source[q] == nullptr
              ? nullptr
              : Regex::Substitute(xsd.content_source[q], symbol_to_type));
    }
  }
  edtd.CheckWellFormed();
  return edtd;
}

}  // namespace oracle
}  // namespace stap

#endif  // STAP_TESTS_ORACLES_SINGLE_TYPE_ORACLE_H_
