// Tests for type assignments (schema/typing.h).
#include <gtest/gtest.h>

#include <random>

#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/typing.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

Edtd ContextSchema() {
  SchemaBuilder builder;
  builder.AddType("Root", "a", "Left Right");
  builder.AddType("Left", "l", "X1?");
  builder.AddType("Right", "r", "X2?");
  builder.AddType("X1", "x", "%");
  builder.AddType("X2", "x", "%");
  builder.AddStart("Root");
  return ReduceEdtd(builder.Build());
}

TEST(TypingTest, SingleTypeAssignmentIsDeterminedByContext) {
  Edtd schema = ContextSchema();
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  Alphabet& s = xsd.sigma;
  int a = s.Find("a"), l = s.Find("l"), r = s.Find("r"), x = s.Find("x");
  Tree doc(a, {Tree(l, {Tree(x)}), Tree(r, {Tree(x)})});
  std::optional<Typing> typing = AssignTypes(xsd, doc);
  ASSERT_TRUE(typing.has_value());
  ASSERT_EQ(typing->paths.size(), 5u);
  // The two x-nodes receive different types, keyed by their ancestors.
  Edtd view = StEdtdFromDfaXsd(xsd);
  int type_left_x = -1, type_right_x = -1;
  for (size_t i = 0; i < typing->paths.size(); ++i) {
    if (typing->paths[i] == TreePath{0, 0}) type_left_x = typing->types[i];
    if (typing->paths[i] == TreePath{1, 0}) type_right_x = typing->types[i];
  }
  ASSERT_GE(type_left_x, 0);
  ASSERT_GE(type_right_x, 0);
  EXPECT_NE(type_left_x, type_right_x);
  EXPECT_EQ(view.mu[type_left_x], x);
  EXPECT_EQ(view.mu[type_right_x], x);
  // Invalid documents yield no typing.
  EXPECT_FALSE(AssignTypes(xsd, Tree(a)).has_value());
  EXPECT_FALSE(AssignTypes(xsd, Tree(x)).has_value());
}

TEST(TypingTest, EdtdTypingExistsIffAccepted) {
  Edtd schema = ContextSchema();
  for (const Tree& tree : EnumerateTrees({3, 2, schema.sigma.size()})) {
    std::optional<Typing> typing = AssignTypesEdtd(schema, tree);
    EXPECT_EQ(typing.has_value(), schema.Accepts(tree))
        << tree.ToString(schema.sigma);
    if (typing.has_value()) {
      EXPECT_EQ(typing->paths.size(),
                static_cast<size_t>(tree.NumNodes()));
    }
  }
}

TEST(TypingTest, ExtractedTypingsAreConsistent) {
  // Verify the extracted typing satisfies the schema: each node's
  // children types form a word in its content language.
  Edtd schema = ContextSchema();
  Alphabet& s = schema.sigma;
  Tree doc(s.Find("a"), {Tree(s.Find("l"), {Tree(s.Find("x"))}),
                         Tree(s.Find("r"))});
  std::optional<Typing> typing = AssignTypesEdtd(schema, doc);
  ASSERT_TRUE(typing.has_value());
  // Index types by path for lookup.
  auto type_at = [&](const TreePath& path) {
    for (size_t i = 0; i < typing->paths.size(); ++i) {
      if (typing->paths[i] == path) return typing->types[i];
    }
    return -1;
  };
  for (const TreePath& path : doc.AllPaths()) {
    int tau = type_at(path);
    ASSERT_GE(tau, 0);
    EXPECT_EQ(schema.mu[tau], doc.At(path).label);
    Word child_types;
    const Tree& node = doc.At(path);
    for (size_t i = 0; i < node.children.size(); ++i) {
      TreePath child = path;
      child.push_back(static_cast<int>(i));
      child_types.push_back(type_at(child));
    }
    EXPECT_TRUE(schema.content[tau].Accepts(child_types));
  }
}

TEST(TypingTest, TypingsListNodesInPreOrder) {
  Edtd schema = ContextSchema();
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  Alphabet& s = schema.sigma;
  int a = s.Find("a"), l = s.Find("l"), r = s.Find("r"), x = s.Find("x");
  // Breadth-first order would list [1] before [0, 0].
  Tree doc(a, {Tree(l, {Tree(x)}), Tree(r, {Tree(x)})});
  const std::vector<TreePath> pre_order = {{}, {0}, {0, 0}, {1}, {1, 0}};
  std::optional<Typing> xsd_typing = AssignTypes(xsd, doc);
  ASSERT_TRUE(xsd_typing.has_value());
  EXPECT_EQ(xsd_typing->paths, pre_order);
  std::optional<Typing> edtd_typing = AssignTypesEdtd(schema, doc);
  ASSERT_TRUE(edtd_typing.has_value());
  EXPECT_EQ(edtd_typing->paths, pre_order);
  EXPECT_EQ(edtd_typing->types,
            (std::vector<int>{schema.types.Find("Root"),
                              schema.types.Find("Left"),
                              schema.types.Find("X1"),
                              schema.types.Find("Right"),
                              schema.types.Find("X2")}));
}

TEST(TypingTest, AmbiguityCounting) {
  // Two interchangeable types for the same leaf: 2 typings per leaf.
  SchemaBuilder builder;
  builder.AddType("R", "r", "(A1 | A2) (A1 | A2)");
  builder.AddType("A1", "a", "%");
  builder.AddType("A2", "a", "%");
  builder.AddStart("R");
  Edtd schema = builder.Build();
  int r = schema.sigma.Find("r"), a = schema.sigma.Find("a");
  Tree doc(r, {Tree(a), Tree(a)});
  EXPECT_EQ(CountTypings(schema, doc), 4);
  EXPECT_EQ(CountTypings(schema, Tree(r)), 0);
  EXPECT_EQ(CountTypings(schema, Tree(a)), 0);
}

TEST(TypingTest, SingleTypeSchemasAreUnambiguous) {
  Edtd schema = ContextSchema();
  ASSERT_TRUE(IsSingleType(schema));
  for (const Tree& tree : EnumerateTrees({3, 2, schema.sigma.size()})) {
    int64_t count = CountTypings(schema, tree);
    EXPECT_EQ(count, schema.Accepts(tree) ? 1 : 0)
        << tree.ToString(schema.sigma);
  }
}

// Property: for random single-type schemas, XSD typing and EDTD typing
// agree on existence, and single-type counting is 0/1.
class TypingRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TypingRandomTest, XsdAndEdtdTypingsAgree) {
  std::mt19937 rng(GetParam() * 1723 + 9);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd schema = RandomStEdtd(&rng, params);
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    bool accepted = schema.Accepts(tree);
    EXPECT_EQ(AssignTypes(xsd, tree).has_value(), accepted);
    EXPECT_EQ(AssignTypesEdtd(schema, tree).has_value(), accepted);
    EXPECT_EQ(CountTypings(schema, tree), accepted ? 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypingRandomTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace stap
