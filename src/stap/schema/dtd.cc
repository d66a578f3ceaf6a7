#include "stap/schema/dtd.h"

#include <numeric>
#include <sstream>

#include "stap/schema/streaming.h"

namespace stap {

Dtd Dtd::LeafOnly(const Alphabet& sigma) {
  Dtd dtd;
  dtd.sigma = sigma;
  dtd.content.assign(sigma.size(), Dfa::EpsilonOnly(sigma.size()));
  return dtd;
}

int64_t Dtd::Size() const {
  int64_t total = sigma.size() + static_cast<int64_t>(start_symbols.size());
  for (const Dfa& dfa : content) total += dfa.Size();
  return total;
}

bool Dtd::Accepts(const Tree& tree) const {
  // An EDTD whose types are its labels.
  std::vector<int> identity(num_symbols());
  std::iota(identity.begin(), identity.end(), 0);
  EdtdValidator<Dfa> validator(identity, content, start_symbols);
  return ValidateTree(tree, &validator);
}

std::string Dtd::ToString() const {
  std::ostringstream os;
  os << "DTD start={";
  for (size_t i = 0; i < start_symbols.size(); ++i) {
    if (i > 0) os << ",";
    os << sigma.Name(start_symbols[i]);
  }
  os << "}\n";
  for (int a = 0; a < num_symbols(); ++a) {
    os << sigma.Name(a) << " -> DFA(" << content[a].num_states()
       << " states)\n";
  }
  return os.str();
}

}  // namespace stap
