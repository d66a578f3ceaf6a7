// Differential tests for the streaming one-pass validator: on random
// single-type schemas, ValidateStreaming must agree with every other
// validation route (DfaXsd::Accepts, ValidateWithDiagnostics, and the
// EDTD obtained by converting the XSD back), on valid documents, on
// random mutations of valid documents, and on arbitrary enumerated
// trees. A second group drives the event API directly with malformed
// sequences — out-of-range symbols, a second root, EndElement with
// nothing open — which no tree-shaped input can produce. A third checks
// the EDTD validator (Edtd/EdtdNfa::Accepts, Edtd::PossibleTypes) and
// typing counts on random non-single-type EDTDs against the exact
// tree-automaton path: the binary encoding run through BtaFromEdtd.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/nfa_schema.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/streaming.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/typing.h"
#include "stap/schema/validate.h"
#include "stap/tree/enumerate.h"
#include "stap/treeauto/encoding.h"
#include "test_seed.h"

namespace stap {
namespace {

using test::MixSeed;

// Every node of `tree` in pre-order, as mutable pointers.
std::vector<Tree*> CollectNodes(Tree* tree) {
  std::vector<Tree*> nodes;
  std::vector<Tree*> stack = {tree};
  while (!stack.empty()) {
    Tree* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (Tree& child : node->children) stack.push_back(&child);
  }
  return nodes;
}

// One random structural edit: relabel a node, drop a child, or duplicate
// a child. The result may or may not still be valid — the point is that
// all validators agree on whichever it is.
Tree Mutate(const Tree& original, std::mt19937* rng, int num_symbols) {
  Tree tree = original;
  std::vector<Tree*> nodes = CollectNodes(&tree);
  Tree* node = nodes[(*rng)() % nodes.size()];
  switch ((*rng)() % 3) {
    case 0:
      node->label = static_cast<int>((*rng)() % num_symbols);
      break;
    case 1:
      if (!node->children.empty()) {
        node->children.erase(node->children.begin() +
                             (*rng)() % node->children.size());
      }
      break;
    default:
      if (!node->children.empty()) {
        const Tree& child = node->children[(*rng)() % node->children.size()];
        node->children.push_back(child);
      }
      break;
  }
  return tree;
}

void ExpectAllValidatorsAgree(const DfaXsd& xsd, const Edtd& round_trip,
                              const Tree& tree) {
  const bool expected = xsd.Accepts(tree);
  EXPECT_EQ(ValidateStreaming(xsd, tree), expected)
      << tree.ToString(xsd.sigma);
  EXPECT_EQ(ValidateWithDiagnostics(xsd, tree).ok, expected)
      << tree.ToString(xsd.sigma);
  EXPECT_EQ(round_trip.Accepts(tree), expected) << tree.ToString(xsd.sigma);
}

class StreamingDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingDifferentialTest, AgreesOnRandomSchemasAndTrees) {
  std::mt19937 rng(MixSeed(GetParam()));
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 5;
  params.content_breadth = 2;
  DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  Edtd round_trip = StEdtdFromDfaXsd(xsd);

  // Sampled members, then mutated members.
  for (int i = 0; i < 8; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng, 5);
    ASSERT_TRUE(tree.has_value());
    EXPECT_TRUE(ValidateStreaming(xsd, *tree)) << tree->ToString(xsd.sigma);
    ExpectAllValidatorsAgree(xsd, round_trip, *tree);
    Tree mutated = Mutate(*tree, &rng, params.num_symbols);
    for (int j = 0; j < 3; ++j) {
      ExpectAllValidatorsAgree(xsd, round_trip, mutated);
      mutated = Mutate(mutated, &rng, params.num_symbols);
    }
  }
  // Exhaustive small trees, valid or not.
  for (const Tree& tree : EnumerateTrees({3, 2, params.num_symbols})) {
    ExpectAllValidatorsAgree(xsd, round_trip, tree);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingDifferentialTest,
                         ::testing::Range(0, 25));

// A random member of L(edtd) rooted at type `tau`, or nullopt: each node
// takes its children's types along a random accepting run of its content
// DFA (at most three children, stopping at a final state with
// probability 1/2), and only leaves are built below `depth` levels.
std::optional<Tree> SampleEdtdTree(const Edtd& edtd, int tau, int depth,
                                   std::mt19937* rng) {
  constexpr size_t kMaxWidth = 3;
  const Dfa& dfa = edtd.content[tau];
  if (dfa.num_states() == 0) return std::nullopt;
  Word child_types;
  int state = dfa.initial();
  while (true) {
    const bool can_grow = depth > 0 && child_types.size() < kMaxWidth;
    if (dfa.IsFinal(state) && (!can_grow || (*rng)() % 2 == 0)) break;
    if (!can_grow) return std::nullopt;
    std::vector<int> moves;
    for (int t = 0; t < edtd.num_types(); ++t) {
      if (dfa.Next(state, t) != kNoState) moves.push_back(t);
    }
    if (moves.empty()) return std::nullopt;
    const int t = moves[(*rng)() % moves.size()];
    child_types.push_back(t);
    state = dfa.Next(state, t);
  }
  Tree tree(edtd.mu[tau]);
  for (int t : child_types) {
    std::optional<Tree> child = SampleEdtdTree(edtd, t, depth - 1, rng);
    if (!child.has_value()) return std::nullopt;
    tree.children.push_back(std::move(*child));
  }
  return tree;
}

class EdtdValidatorDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(EdtdValidatorDifferentialTest, AgreesWithTreeAutomatonPath) {
  std::mt19937 rng(MixSeed(1000 + GetParam()));
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 5;
  params.content_breadth = 2;
  Edtd edtd = RandomEdtd(&rng, params);
  for (int tries = 0; IsSingleType(edtd) && tries < 100; ++tries) {
    edtd = RandomEdtd(&rng, params);
  }
  ASSERT_FALSE(IsSingleType(edtd));
  const EdtdNfa nfa_view = EdtdNfa::FromEdtd(edtd);
  // Bta states 0..num_types-1 mean "the subtree has type τ", whatever
  // the start types; the start types are its final states.
  const Bta bta = BtaFromEdtd(edtd);

  auto expect_agree = [&](const Tree& tree) {
    const Tree binary = EncodeBinary(tree, edtd.num_symbols());
    std::vector<int> possible;
    for (int q : bta.EvalStates(binary)) {
      if (q < edtd.num_types()) possible.push_back(q);
    }
    const bool accepted = bta.Accepts(binary);
    EXPECT_EQ(edtd.PossibleTypes(tree), possible) << tree.ToString(edtd.sigma);
    EXPECT_EQ(edtd.Accepts(tree), accepted) << tree.ToString(edtd.sigma);
    EXPECT_EQ(nfa_view.Accepts(tree), accepted) << tree.ToString(edtd.sigma);
    EXPECT_EQ(CountTypings(edtd, tree) > 0, accepted)
        << tree.ToString(edtd.sigma);
  };

  // Sampled members, then mutated members.
  int members = 0;
  for (int attempt = 0; attempt < 200 && members < 8; ++attempt) {
    const int root = edtd.start_types[rng() % edtd.start_types.size()];
    std::optional<Tree> tree = SampleEdtdTree(edtd, root, 4, &rng);
    if (!tree.has_value()) continue;
    ++members;
    EXPECT_TRUE(edtd.Accepts(*tree)) << tree->ToString(edtd.sigma);
    expect_agree(*tree);
    Tree mutated = Mutate(*tree, &rng, params.num_symbols);
    for (int j = 0; j < 3; ++j) {
      expect_agree(mutated);
      mutated = Mutate(mutated, &rng, params.num_symbols);
    }
  }
  EXPECT_GT(members, 0);
  // Exhaustive small trees, valid or not.
  for (const Tree& tree : EnumerateTrees({3, 2, params.num_symbols})) {
    expect_agree(tree);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdtdValidatorDifferentialTest,
                         ::testing::Range(0, 25));

DfaXsd ChainXsd() {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R?");
  builder.AddStart("R");
  return DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
}

TEST(StreamingMalformedTest, EndElementWithNothingOpen) {
  DfaXsd xsd = ChainXsd();
  StreamingValidator v(&xsd);
  EXPECT_FALSE(v.EndElement());
  EXPECT_FALSE(v.ok());
  // The rejection latches: a well-formed continuation cannot revive it.
  EXPECT_FALSE(v.StartElement(0));
  EXPECT_FALSE(v.EndDocument());
}

TEST(StreamingMalformedTest, SecondRootIsRejected) {
  DfaXsd xsd = ChainXsd();
  StreamingValidator v(&xsd);
  EXPECT_TRUE(v.StartElement(0));
  EXPECT_TRUE(v.EndElement());
  EXPECT_TRUE(v.EndDocument());  // complete document so far
  EXPECT_FALSE(v.StartElement(0));
  EXPECT_FALSE(v.EndDocument());
}

TEST(StreamingMalformedTest, OutOfRangeSymbolsAreRejectedNotIndexed) {
  DfaXsd xsd = ChainXsd();
  const int bogus[] = {-1, -1000000, xsd.sigma.size(), xsd.sigma.size() + 7,
                       1 << 30};
  for (int symbol : bogus) {
    {
      StreamingValidator v(&xsd);
      EXPECT_FALSE(v.StartElement(symbol)) << symbol;
      EXPECT_FALSE(v.ok()) << symbol;
    }
    {
      // Mid-document, where the parent's content run is live.
      StreamingValidator v(&xsd);
      ASSERT_TRUE(v.StartElement(0));
      EXPECT_FALSE(v.StartElement(symbol)) << symbol;
      EXPECT_FALSE(v.ok()) << symbol;
    }
    // The same labels in a tree: the diagnostic names them by id.
    ValidationResult result =
        ValidateWithDiagnostics(xsd, Tree(0, {Tree(symbol)}));
    EXPECT_FALSE(result.ok) << symbol;
    EXPECT_EQ(result.violation_path, TreePath{0}) << symbol;
    EXPECT_NE(result.message.find("<#" + std::to_string(symbol) + ">"),
              std::string::npos)
        << result.message;
  }
}

TEST(StreamingMalformedTest, UnclosedElementFailsOnlyAtEndDocument) {
  DfaXsd xsd = ChainXsd();
  StreamingValidator v(&xsd);
  EXPECT_TRUE(v.StartElement(0));
  EXPECT_TRUE(v.StartElement(0));
  EXPECT_TRUE(v.EndElement());
  EXPECT_TRUE(v.ok());          // no violation yet...
  EXPECT_FALSE(v.EndDocument());  // ...but the root is still open
}

TEST(StreamingDeepDocumentTest, ValidatesPathDeeperThanTheCallStack) {
  // A 200k-deep chain of <a> elements: recursion over the document would
  // overflow the stack, so this doubles as a regression test for the
  // explicit-stack event generation in ValidateStreaming.
  DfaXsd xsd = ChainXsd();
  constexpr int kDepth = 200000;
  StreamingValidator v(&xsd);
  for (int i = 0; i < kDepth; ++i) ASSERT_TRUE(v.StartElement(0));
  EXPECT_EQ(v.depth(), kDepth);
  for (int i = 0; i < kDepth; ++i) ASSERT_TRUE(v.EndElement());
  EXPECT_TRUE(v.EndDocument());

  Tree deep(0);
  for (int i = 1; i < kDepth; ++i) {
    Tree next(0);
    next.children.push_back(std::move(deep));
    deep = std::move(next);
  }
  EXPECT_TRUE(ValidateStreaming(xsd, deep));
  EXPECT_TRUE(ValidateWithDiagnostics(xsd, deep).ok);
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
