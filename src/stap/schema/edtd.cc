#include "stap/schema/edtd.h"

#include <numeric>
#include <sstream>

#include "stap/base/check.h"
#include "stap/schema/streaming.h"

namespace stap {

Edtd Edtd::FromDtd(const Dtd& dtd) {
  Edtd edtd;
  edtd.sigma = dtd.sigma;
  edtd.types = dtd.sigma;  // one type per symbol, same names
  edtd.mu.resize(dtd.num_symbols());
  for (int a = 0; a < dtd.num_symbols(); ++a) edtd.mu[a] = a;
  edtd.start_types = dtd.start_symbols;
  edtd.content = dtd.content;  // type ids coincide with symbol ids
  return edtd;
}

int64_t Edtd::Size() const {
  int64_t total = sigma.size() + num_types() +
                  static_cast<int64_t>(start_types.size());
  for (const Dfa& dfa : content) total += dfa.Size();
  return total;
}

std::vector<int> Edtd::PossibleTypes(const Tree& subtree) const {
  std::vector<int> all_types(num_types());
  std::iota(all_types.begin(), all_types.end(), 0);
  EdtdValidator<Dfa> validator(mu, content, all_types);
  if (!ValidateTree(subtree, &validator)) return {};
  return validator.root_types();
}

bool Edtd::Accepts(const Tree& tree) const {
  EdtdValidator<Dfa> validator(mu, content, start_types);
  return ValidateTree(tree, &validator);
}

std::vector<int> Edtd::OccurringTypes(int tau) const {
  STAP_CHECK(tau >= 0 && tau < num_types());
  Dfa trimmed = content[tau].Trimmed();
  std::vector<bool> occurs(num_types(), false);
  for (int q = 0; q < trimmed.num_states(); ++q) {
    for (int t = 0; t < num_types(); ++t) {
      if (trimmed.Next(q, t) != kNoState) occurs[t] = true;
    }
  }
  std::vector<int> result;
  for (int t = 0; t < num_types(); ++t) {
    if (occurs[t]) result.push_back(t);
  }
  return result;
}

void Edtd::CheckWellFormed() const {
  STAP_CHECK(static_cast<int>(mu.size()) == types.size());
  STAP_CHECK(static_cast<int>(content.size()) == num_types());
  for (int tau = 0; tau < num_types(); ++tau) {
    STAP_CHECK(mu[tau] >= 0 && mu[tau] < num_symbols());
    STAP_CHECK(content[tau].num_symbols() == num_types());
  }
  for (int tau : start_types) {
    STAP_CHECK(tau >= 0 && tau < num_types());
  }
  STAP_CHECK(content_source.empty() ||
             static_cast<int>(content_source.size()) == num_types());
  for (const RegexPtr& source : content_source) {
    if (source != nullptr) STAP_CHECK(source->MaxSymbol() < num_types());
  }
}

std::string Edtd::ToString() const {
  std::ostringstream os;
  os << "EDTD start={";
  for (size_t i = 0; i < start_types.size(); ++i) {
    if (i > 0) os << ",";
    os << types.Name(start_types[i]);
  }
  os << "}\n";
  for (int tau = 0; tau < num_types(); ++tau) {
    os << "  " << types.Name(tau) << " [" << sigma.Name(mu[tau])
       << "] -> DFA(" << content[tau].num_states() << " states)\n";
  }
  return os.str();
}

}  // namespace stap
