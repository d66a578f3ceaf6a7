// Differential tests for the schema canonicalization stage: XSD
// minimization, EDTD reduction and the Prop. 2.9 conversions. The library
// must produce exactly what the oracles in oracles/minimize_oracle.h and
// oracles/single_type_oracle.h produce — the same automaton, labels,
// start symbols and content DFAs (XsdStructurallyEqual, or the EDTD's
// fields), and the same content provenance — on random schemas, on
// hand-mutated XSDs that carry useless states and transitions, on counted
// content, on the paper's Theorem 3.2/3.6/3.8 constructions and on a
// long chain that defeats a pass-by-pass productivity fixpoint. Seeded
// (see test_seed.h): --seed=N / STAP_SEED=N replays any failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "oracles/minimize_oracle.h"
#include "oracles/single_type_oracle.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// An empty provenance vector records nothing, like one full of nullptr.
std::string SourceString(const std::vector<RegexPtr>& sources, size_t i,
                         const Alphabet& alphabet) {
  if (sources.empty() || sources[i] == nullptr) return "<none>";
  return sources[i]->ToString(alphabet);
}

::testing::AssertionResult SameSources(const std::vector<RegexPtr>& actual,
                                       const std::vector<RegexPtr>& expected,
                                       size_t size, const Alphabet& alphabet) {
  for (size_t i = 0; i < size; ++i) {
    std::string a = SourceString(actual, i, alphabet);
    std::string e = SourceString(expected, i, alphabet);
    if (a != e) {
      return ::testing::AssertionFailure()
             << "provenance of " << i << ": " << a << " vs oracle " << e;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult MinimizeMatchesOracle(const DfaXsd& input) {
  DfaXsd expected = oracle::MinimizeXsd(input);
  DfaXsd actual = MinimizeXsd(input);
  if (!XsdStructurallyEqual(actual, expected)) {
    return ::testing::AssertionFailure() << "library " << actual.ToString()
                                         << "oracle " << expected.ToString();
  }
  return SameSources(actual.content_source, expected.content_source,
                     actual.automaton.num_states(), actual.sigma);
}

::testing::AssertionResult ReduceMatchesOracle(const Edtd& input) {
  Edtd expected = oracle::ReduceEdtd(input);
  Edtd actual = ReduceEdtd(input);
  if (!(actual.sigma == expected.sigma && actual.types == expected.types &&
        actual.mu == expected.mu && actual.content == expected.content &&
        actual.start_types == expected.start_types)) {
    return ::testing::AssertionFailure()
           << "library keeps " << actual.num_types() << " types, oracle "
           << expected.num_types();
  }
  return SameSources(actual.content_source, expected.content_source,
                     actual.num_types(), actual.types);
}

::testing::AssertionResult LiftMatchesOracle(const DfaXsd& input) {
  Edtd expected = oracle::StEdtdFromDfaXsd(input);
  Edtd actual = StEdtdFromDfaXsd(input);
  if (!(actual.sigma == expected.sigma && actual.types == expected.types &&
        actual.mu == expected.mu && actual.content == expected.content &&
        actual.start_types == expected.start_types)) {
    return ::testing::AssertionFailure() << "lift of " << input.ToString()
                                         << "library " << actual.ToString()
                                         << "oracle " << expected.ToString();
  }
  if (actual.content_source.size() != expected.content_source.size()) {
    return ::testing::AssertionFailure() << "provenance sizes differ";
  }
  return SameSources(actual.content_source, expected.content_source,
                     actual.num_types(), actual.types);
}

::testing::AssertionResult ConversionMatchesOracle(const Edtd& input) {
  DfaXsd expected = oracle::DfaXsdFromStEdtd(input);
  DfaXsd actual = DfaXsdFromStEdtd(input);
  if (!XsdStructurallyEqual(actual, expected)) {
    return ::testing::AssertionFailure() << "library " << actual.ToString()
                                         << "oracle " << expected.ToString();
  }
  if (actual.content_source.size() != expected.content_source.size()) {
    return ::testing::AssertionFailure() << "provenance sizes differ";
  }
  return SameSources(actual.content_source, expected.content_source,
                     actual.automaton.num_states(), actual.sigma);
}

// Appends `extra` fresh states to `xsd`: no transitions, empty content,
// label 0 until the caller sets one.
DfaXsd WithExtraStates(const DfaXsd& xsd, int extra) {
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  DfaXsd result = xsd;
  result.automaton = Dfa(n + extra, num_symbols);
  result.automaton.SetInitial(xsd.automaton.initial());
  for (int q = 0; q < n; ++q) {
    for (int a = 0; a < num_symbols; ++a) {
      result.automaton.SetTransition(q, a, xsd.automaton.Next(q, a));
    }
  }
  result.state_label.resize(n + extra, 0);
  result.content.resize(n + extra, Dfa::EmptyLanguage(num_symbols));
  if (!result.content_source.empty()) result.content_source.resize(n + extra);
  return result;
}

// A random non-initial state, or kNoState if there is none.
int RandomType(const DfaXsd& xsd, std::mt19937* rng) {
  const int n = xsd.automaton.num_states();
  if (n < 2) return kNoState;
  int q = static_cast<int>((*rng)() % (n - 1));
  return q >= xsd.automaton.initial() ? q + 1 : q;
}

// Lets state q's content also accept the one-child word `a`, keeping its
// provenance honest.
void AllowChild(DfaXsd* xsd, int q, int a) {
  const int num_symbols = xsd->sigma.size();
  xsd->content[q] = DfaProduct(xsd->content[q],
                               Dfa::FromWords({{a}}, num_symbols), BoolOp::kOr);
  if (!xsd->content_source.empty()) xsd->content_source[q] = nullptr;
}

// A state labeled `a` that needs an `a` child in the same state: it
// derives no finite tree. Hung below a random state on `a` when free.
DfaXsd AddUnproductiveState(const DfaXsd& xsd, std::mt19937* rng) {
  const int a = static_cast<int>((*rng)() % xsd.sigma.size());
  DfaXsd result = WithExtraStates(xsd, 1);
  const int p = xsd.automaton.num_states();
  result.state_label[p] = a;
  result.content[p] = Dfa::FromWords({{a}}, xsd.sigma.size());
  result.automaton.SetTransition(p, a, p);
  int q = RandomType(xsd, rng);
  if (q != kNoState && result.automaton.Next(q, a) == kNoState) {
    result.automaton.SetTransition(q, a, p);
    AllowChild(&result, q, a);
  }
  return result;
}

// A productive leaf state nothing points to.
DfaXsd AddUnreachableState(const DfaXsd& xsd, std::mt19937* rng) {
  DfaXsd result = WithExtraStates(xsd, 1);
  const int p = xsd.automaton.num_states();
  result.state_label[p] = static_cast<int>((*rng)() % xsd.sigma.size());
  result.content[p] = Dfa::EpsilonOnly(xsd.sigma.size());
  return result;
}

// Removes one transition a content still mentions: the words using that
// child have no state to validate it and drop out of the language.
DfaXsd DropTransition(const DfaXsd& xsd, std::mt19937* rng) {
  DfaXsd result = xsd;
  int q = RandomType(xsd, rng);
  if (q == kNoState) return result;
  std::vector<int> symbols;
  for (int a = 0; a < xsd.sigma.size(); ++a) {
    if (xsd.automaton.Next(q, a) != kNoState) symbols.push_back(a);
  }
  if (symbols.empty()) return result;
  result.automaton.SetTransition(q, symbols[(*rng)() % symbols.size()],
                                 kNoState);
  return result;
}

// Adds a transition between two random states where the label of the
// target has none yet; mostly the content of the source never uses it.
DfaXsd AddTransition(const DfaXsd& xsd, std::mt19937* rng) {
  DfaXsd result = xsd;
  for (int attempt = 0; attempt < 8; ++attempt) {
    int q = RandomType(xsd, rng);
    int r = RandomType(xsd, rng);
    if (q == kNoState || r == kNoState) return result;
    const int a = xsd.state_label[r];
    if (result.automaton.Next(q, a) != kNoState) continue;
    result.automaton.SetTransition(q, a, r);
    return result;
  }
  return result;
}

// Renumbers the states by a random permutation, moving q_init too.
DfaXsd PermuteStates(const DfaXsd& xsd, std::mt19937* rng) {
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), *rng);
  DfaXsd result = xsd;
  result.automaton = Dfa(n, num_symbols);
  result.automaton.SetInitial(perm[xsd.automaton.initial()]);
  for (int q = 0; q < n; ++q) {
    result.state_label[perm[q]] = xsd.state_label[q];
    result.content[perm[q]] = xsd.content[q];
    if (!xsd.content_source.empty()) {
      result.content_source[perm[q]] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState) result.automaton.SetTransition(perm[q], a, perm[r]);
    }
  }
  return result;
}

// Clones a state and points one of its incoming transitions at the clone:
// two equivalent states that minimization must merge again. The clone's
// provenance is respelled (r | r), so which member a block takes its
// provenance from shows in the output.
DfaXsd DuplicateState(const DfaXsd& xsd, std::mt19937* rng) {
  const int p = RandomType(xsd, rng);
  if (p == kNoState) return xsd;
  DfaXsd result = WithExtraStates(xsd, 1);
  const int clone = xsd.automaton.num_states();
  result.state_label[clone] = xsd.state_label[p];
  result.content[clone] = xsd.content[p];
  if (!xsd.content_source.empty() && xsd.content_source[p] != nullptr) {
    result.content_source[clone] =
        Regex::Union({xsd.content_source[p], xsd.content_source[p]});
  }
  for (int a = 0; a < xsd.sigma.size(); ++a) {
    result.automaton.SetTransition(clone, a, xsd.automaton.Next(p, a));
  }
  std::vector<int> sources;
  for (int q = 0; q < xsd.automaton.num_states(); ++q) {
    if (xsd.automaton.Next(q, xsd.state_label[p]) == p) sources.push_back(q);
  }
  if (!sources.empty()) {
    result.automaton.SetTransition(sources[(*rng)() % sources.size()],
                                   xsd.state_label[p], clone);
  }
  return result;
}

// Lets a state's content also accept the one-child word `a` for a symbol
// a it has no transition on: the lift must drop that word. Provenance
// stays honest (r | a), so the lift must drop it too.
DfaXsd AddContentWithoutTransition(const DfaXsd& xsd, std::mt19937* rng) {
  DfaXsd result = xsd;
  const int q = RandomType(xsd, rng);
  if (q == kNoState) return result;
  std::vector<int> missing;
  for (int a = 0; a < xsd.sigma.size(); ++a) {
    if (xsd.automaton.Next(q, a) == kNoState) missing.push_back(a);
  }
  if (missing.empty()) return result;
  const int a = missing[(*rng)() % missing.size()];
  result.content[q] =
      DfaProduct(xsd.content[q], Dfa::FromWords({{a}}, xsd.sigma.size()),
                 BoolOp::kOr);
  if (!xsd.content_source.empty() && xsd.content_source[q] != nullptr) {
    result.content_source[q] =
        Regex::Union({xsd.content_source[q], Regex::Symbol(a)});
  }
  return result;
}

// Empties a state's content language.
DfaXsd EmptyContent(const DfaXsd& xsd, std::mt19937* rng) {
  DfaXsd result = xsd;
  const int q = RandomType(xsd, rng);
  if (q == kNoState) return result;
  result.content[q] = Dfa::EmptyLanguage(xsd.sigma.size());
  if (!result.content_source.empty()) {
    result.content_source[q] = Regex::EmptySet();
  }
  return result;
}

// Gives a type's content a dead state entered on a random type: the
// language and the set of occurring types stay the same, so the schema
// stays single-type, but the untrimmed content names a type that the
// conversion to an XSD must not read.
Edtd AddDeadContentState(const Edtd& edtd, std::mt19937* rng) {
  Edtd result = edtd;
  const int tau = static_cast<int>((*rng)() % edtd.num_types());
  Dfa& content = result.content[tau];
  const int dead = content.AddState();
  for (int s = 0; s < dead; ++s) {
    const int t = static_cast<int>((*rng)() % edtd.num_types());
    if (content.Next(s, t) == kNoState) {
      content.SetTransition(s, t, dead);
      break;
    }
  }
  return result;
}

DfaXsd Mutate(const DfaXsd& xsd, std::mt19937* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return AddUnproductiveState(xsd, rng);
    case 1:
      return AddUnreachableState(xsd, rng);
    case 2:
      return DropTransition(xsd, rng);
    case 3:
      return AddTransition(xsd, rng);
    case 4:
      return PermuteStates(xsd, rng);
    default:
      return DuplicateState(xsd, rng);
  }
}

// A random XSD whose `n` types are copies of `shapes` random shapes: a
// shape fixes a label, the symbols with a child (the content is every
// word over them) and, per such symbol, the shape of that child; each
// copy points at a random copy of that child shape. Copies of one shape
// are equivalent, and shapes often are too, so refinement has to find
// both which copies merge and which shapes only look alike.
DfaXsd RandomCopiedShapes(std::mt19937* rng, int num_symbols, int shapes,
                          int n) {
  DfaXsd xsd;
  for (int a = 0; a < num_symbols; ++a) {
    xsd.sigma.Intern(std::string(1, static_cast<char>('a' + a)));
  }
  std::vector<int> shape_label(shapes);
  std::vector<std::vector<int>> shape_child(shapes,
                                            std::vector<int>(num_symbols));
  std::vector<std::vector<int>> shapes_by_label(num_symbols);
  for (int s = 0; s < shapes; ++s) {
    shape_label[s] = static_cast<int>((*rng)() % num_symbols);
    shapes_by_label[shape_label[s]].push_back(s);
  }
  for (int s = 0; s < shapes; ++s) {
    for (int a = 0; a < num_symbols; ++a) {
      const std::vector<int>& targets = shapes_by_label[a];
      shape_child[s][a] = targets.empty() || (*rng)() % 4 == 0
                              ? kNoState
                              : targets[(*rng)() % targets.size()];
    }
  }
  // State 0 is q_init; state i >= 1 copies shape (i - 1) % shapes.
  std::vector<std::vector<int>> copies(shapes);
  for (int q = 1; q <= n; ++q) copies[(q - 1) % shapes].push_back(q);
  auto random_copy = [&](int shape) {
    return copies[shape][(*rng)() % copies[shape].size()];
  };
  xsd.automaton = Dfa(n + 1, num_symbols);
  xsd.state_label.assign(n + 1, kNoSymbol);
  xsd.content.assign(n + 1, Dfa::EmptyLanguage(num_symbols));
  for (int a = 0; a < num_symbols; ++a) {
    const std::vector<int>& roots = shapes_by_label[a];
    if (roots.empty()) continue;
    xsd.start_symbols.push_back(a);
    xsd.automaton.SetTransition(
        0, a, random_copy(roots[(*rng)() % roots.size()]));
  }
  for (int q = 1; q <= n; ++q) {
    const int s = (q - 1) % shapes;
    xsd.state_label[q] = shape_label[s];
    Dfa content = Dfa::EpsilonOnly(num_symbols);
    for (int a = 0; a < num_symbols; ++a) {
      if (shape_child[s][a] == kNoState) continue;
      xsd.automaton.SetTransition(q, a, random_copy(shape_child[s][a]));
      content.SetTransition(0, a, 0);
    }
    xsd.content[q] = content;
  }
  xsd.CheckWellFormed();
  return xsd;
}

// A chain T0 -> T1 -> ... of `length` types on one label, only the last
// a leaf: productivity flows from the highest type id down, one type per
// pass of a fixpoint that sweeps the types in order.
Edtd ChainSchema(int length) {
  SchemaBuilder builder;
  for (int i = 0; i + 1 < length; ++i) {
    builder.AddType("T" + std::to_string(i), "a",
                    "T" + std::to_string(i + 1) + "+");
  }
  builder.AddType("T" + std::to_string(length - 1), "a", "%");
  builder.AddStart("T0");
  return builder.Build();
}

TEST(MinimizeDifferentialTest, RandomSingleTypeSchemas) {
  for (int iter = 0; iter < 200; ++iter) {
    std::mt19937 rng(MixSeed(100 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 7);
    params.repeat_percent = iter % 2 == 0 ? 0 : 30;
    Edtd edtd = RandomStEdtd(&rng, params);
    EXPECT_TRUE(ReduceMatchesOracle(edtd)) << "iter " << iter;
    DfaXsd xsd = DfaXsdFromStEdtd(edtd);
    EXPECT_TRUE(MinimizeMatchesOracle(xsd)) << "iter " << iter;
  }
}

TEST(MinimizeDifferentialTest, RandomEdtdReduction) {
  for (int iter = 0; iter < 200; ++iter) {
    std::mt19937 rng(MixSeed(300 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 8);
    params.epsilon_percent = static_cast<int>(rng() % 100);
    params.repeat_percent = iter % 3 == 0 ? 40 : 0;
    EXPECT_TRUE(ReduceMatchesOracle(RandomEdtd(&rng, params)))
        << "iter " << iter;
  }
}

TEST(MinimizeDifferentialTest, RandomRefinements) {
  for (int iter = 0; iter < 300; ++iter) {
    std::mt19937 rng(MixSeed(1700 + iter));
    const int num_symbols = 1 + static_cast<int>(rng() % 3);
    const int shapes = 2 + static_cast<int>(rng() % 12);
    const int n = shapes * (1 + static_cast<int>(rng() % 4));
    DfaXsd xsd = RandomCopiedShapes(&rng, num_symbols, shapes, n);
    EXPECT_TRUE(MinimizeMatchesOracle(xsd)) << "iter " << iter;
    EXPECT_TRUE(LiftMatchesOracle(xsd)) << "iter " << iter;
  }
}

TEST(MinimizeDifferentialTest, MutatedXsds) {
  for (int iter = 0; iter < 300; ++iter) {
    std::mt19937 rng(MixSeed(500 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 6);
    params.repeat_percent = iter % 2 == 0 ? 0 : 30;
    DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < mutations; ++i) {
      xsd = Mutate(xsd, &rng);
      xsd.CheckWellFormed();
    }
    EXPECT_TRUE(MinimizeMatchesOracle(xsd)) << "iter " << iter;
  }
}

TEST(MinimizeDifferentialTest, CountedProvenance) {
  for (auto [low, high] : {std::pair{0, 1}, {1, 3}, {2, 5}, {3, 3}}) {
    Edtd counted = CountedFamily(low, high);
    EXPECT_TRUE(ReduceMatchesOracle(counted)) << low << ".." << high;
    DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(counted));
    ASSERT_TRUE(MinimizeMatchesOracle(xsd)) << low << ".." << high;
    // The counted bounds (at least Field{1,3}) survive minimization.
    DfaXsd minimized = MinimizeXsd(xsd);
    bool counted_source = false;
    for (const RegexPtr& source : minimized.content_source) {
      counted_source |= source != nullptr && source->ContainsRepeat();
    }
    EXPECT_TRUE(counted_source) << low << ".." << high;
    std::mt19937 rng(MixSeed(700 + low * 10 + high));
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(MinimizeMatchesOracle(DuplicateState(xsd, &rng)));
      EXPECT_TRUE(MinimizeMatchesOracle(PermuteStates(xsd, &rng)));
    }
  }
}

TEST(MinimizeDifferentialTest, PaperConstructions) {
  for (int n = 1; n <= 6; ++n) {
    EXPECT_TRUE(
        MinimizeMatchesOracle(MinimalUpperApproximation(Theorem32Family(n))))
        << "theorem 3.2, n=" << n;
    auto [d36a, d36b] = Theorem36Family(n);
    EXPECT_TRUE(MinimizeMatchesOracle(UpperUnion(d36a, d36b)))
        << "theorem 3.6, n=" << n;
    if (n > 4) continue;  // Theorem 3.8 grows exponentially in n
    auto [d38a, d38b] = Theorem38Family(n);
    EXPECT_TRUE(MinimizeMatchesOracle(UpperIntersection(d38a, d38b)))
        << "theorem 3.8, n=" << n;
  }
}

TEST(MinimizeDifferentialTest, Theorem38Shapes) {
  // Theorem 3.8's cyclic chains of prime length p1 < p2: productivity
  // flows against type order, and refinement separates one state per
  // round. Their intersection has p1 * p2 types (221 at n = 12).
  for (int n : {20, 30}) {
    auto [d38a, d38b] = Theorem38Family(n);
    for (const Edtd& chain : {d38a, d38b}) {
      EXPECT_TRUE(ReduceMatchesOracle(chain)) << "theorem 3.8, n=" << n;
      EXPECT_TRUE(MinimizeMatchesOracle(DfaXsdFromStEdtd(chain)))
          << "theorem 3.8, n=" << n;
    }
  }
  auto [d38a, d38b] = Theorem38Family(12);
  EXPECT_TRUE(MinimizeMatchesOracle(
      UpperIntersection(ReduceEdtd(d38a), ReduceEdtd(d38b))));
}

TEST(MinimizeDifferentialTest, LongChains) {
  // The oracles sweep all types once per newly productive type, cubic on
  // a chain, so they check the shorter one.
  Edtd chain = ChainSchema(200);
  EXPECT_TRUE(ReduceMatchesOracle(chain));
  EXPECT_TRUE(MinimizeMatchesOracle(DfaXsdFromStEdtd(chain)));

  // At 1,000 types the expected outputs are known: every type is useful
  // and no two are equivalent (each has its own distance to the leaf),
  // so reduction only minimizes the contents and minimization returns
  // the converted XSD, already in BFS order.
  chain = ChainSchema(1000);
  Edtd reduced = ReduceEdtd(chain);
  EXPECT_TRUE(reduced.types == chain.types && reduced.mu == chain.mu &&
              reduced.start_types == chain.start_types);
  for (int tau = 0; tau < chain.num_types(); ++tau) {
    ASSERT_EQ(reduced.content[tau], Minimize(chain.content[tau])) << tau;
  }
  EXPECT_TRUE(SameSources(reduced.content_source, chain.content_source,
                          chain.num_types(), chain.types));
  DfaXsd xsd = DfaXsdFromStEdtd(chain);
  DfaXsd minimized = MinimizeXsd(xsd);
  EXPECT_TRUE(XsdStructurallyEqual(minimized, xsd));
  EXPECT_TRUE(SameSources(minimized.content_source, xsd.content_source,
                          xsd.automaton.num_states(), xsd.sigma));
}

TEST(LiftDifferentialTest, ConvertedAndMinimizedSchemas) {
  for (int iter = 0; iter < 200; ++iter) {
    std::mt19937 rng(MixSeed(900 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 7);
    params.repeat_percent = iter % 2 == 0 ? 0 : 30;
    Edtd edtd = RandomStEdtd(&rng, params);
    EXPECT_TRUE(ConversionMatchesOracle(edtd)) << "iter " << iter;
    DfaXsd xsd = DfaXsdFromStEdtd(edtd);
    EXPECT_TRUE(LiftMatchesOracle(xsd)) << "iter " << iter;
    EXPECT_TRUE(LiftMatchesOracle(MinimizeXsd(xsd))) << "iter " << iter;
  }
}

TEST(LiftDifferentialTest, UnminimizedXsds) {
  for (int iter = 0; iter < 300; ++iter) {
    std::mt19937 rng(MixSeed(1100 + iter));
    RandomSchemaParams params;
    params.num_symbols = 2 + static_cast<int>(rng() % 3);
    params.num_types = 2 + static_cast<int>(rng() % 6);
    params.repeat_percent = iter % 2 == 0 ? 0 : 30;
    DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < mutations; ++i) {
      switch (rng() % 5) {
        case 0:
          xsd = AddContentWithoutTransition(xsd, &rng);
          break;
        case 1:
          xsd = PermuteStates(xsd, &rng);
          break;
        case 2:
          xsd = EmptyContent(xsd, &rng);
          break;
        case 3:
          xsd = AddUnreachableState(xsd, &rng);
          break;
        default:
          xsd = Mutate(xsd, &rng);
          break;
      }
      xsd.CheckWellFormed();
    }
    EXPECT_TRUE(LiftMatchesOracle(xsd)) << "iter " << iter;
    // Every lift is single-type, and its conversion back reads only the
    // types each content actually uses.
    Edtd lifted = StEdtdFromDfaXsd(xsd);
    EXPECT_TRUE(ConversionMatchesOracle(lifted)) << "iter " << iter;
    EXPECT_TRUE(ConversionMatchesOracle(AddDeadContentState(lifted, &rng)))
        << "iter " << iter;
  }
}

TEST(LiftDifferentialTest, CountedProvenance) {
  for (auto [low, high] : {std::pair{0, 1}, {1, 3}, {2, 5}, {3, 3}}) {
    Edtd counted = CountedFamily(low, high);
    EXPECT_TRUE(ConversionMatchesOracle(ReduceEdtd(counted)))
        << low << ".." << high;
    DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(counted));
    EXPECT_TRUE(LiftMatchesOracle(xsd)) << low << ".." << high;
    EXPECT_TRUE(LiftMatchesOracle(MinimizeXsd(xsd))) << low << ".." << high;
    std::mt19937 rng(MixSeed(1500 + low * 10 + high));
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(LiftMatchesOracle(AddContentWithoutTransition(xsd, &rng)));
      EXPECT_TRUE(LiftMatchesOracle(PermuteStates(xsd, &rng)));
    }
  }
}

TEST(LiftDifferentialTest, PaperConstructions) {
  for (int n = 1; n <= 6; ++n) {
    DfaXsd upper = MinimizeXsd(MinimalUpperApproximation(Theorem32Family(n)));
    EXPECT_TRUE(LiftMatchesOracle(upper)) << "theorem 3.2, n=" << n;
    auto [d36a, d36b] = Theorem36Family(n);
    EXPECT_TRUE(LiftMatchesOracle(UpperUnion(d36a, d36b)))
        << "theorem 3.6, n=" << n;
  }
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
