// Robustness tests: parsers and renderers must reject malformed input
// with Status errors (never crash), and renderer output must stay
// re-parseable under mutation-free round trips.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "stap/automata/dot.h"
#include "stap/io/artifact.h"
#include "stap/io/batch_validate.h"
#include "stap/regex/parser.h"
#include "stap/schema/builder.h"
#include "stap/schema/dtd_io.h"
#include "stap/schema/nfa_schema.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/streaming.h"
#include "stap/schema/text_format.h"
#include "stap/schema/type_automaton.h"
#include "stap/schema/typing.h"
#include "stap/schema/validate.h"
#include "stap/schema/xsd_io.h"
#include "stap/tree/xml.h"

namespace stap {
namespace {

// Deterministic pseudo-random printable garbage.
std::string Garbage(std::mt19937* rng, int length) {
  static constexpr char kChars[] =
      "<>/=\"' \n\tabcxyz%~|()*+?#!ELEMENT:->startype";
  std::string result;
  for (int i = 0; i < length; ++i) {
    result += kChars[(*rng)() % (sizeof(kChars) - 1)];
  }
  return result;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, ParsersNeverCrashOnGarbage) {
  std::mt19937 rng(GetParam() * 2246822519u + 3266489917u);
  for (int round = 0; round < 50; ++round) {
    std::string input = Garbage(&rng, 1 + static_cast<int>(rng() % 120));
    Alphabet alphabet;
    (void)ParseXml(input, &alphabet);
    (void)ParseXmlDocument(input);
    (void)ParseSchema(input);
    (void)ParseSchemaNfa(input);
    (void)ParseDtd(input);
    (void)ImportXsd(input);
    Alphabet regex_alphabet;
    (void)ParseRegex(input, &regex_alphabet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 10));

TEST(FuzzTest, TruncationsOfValidInputsFailCleanly) {
  const std::string schema =
      "start Lib\n"
      "type Lib : library -> Book*\n"
      "type Book : book -> %\n";
  for (size_t cut = 0; cut < schema.size(); ++cut) {
    (void)ParseSchema(schema.substr(0, cut));  // must not crash
  }
  const std::string xml = "<a x=\"1\"><b/><c/></a>";
  for (size_t cut = 0; cut < xml.size(); ++cut) {
    (void)ParseXmlDocument(xml.substr(0, cut));
  }
  const std::string dtd = "<!ELEMENT a (b | c)*><!ELEMENT b EMPTY>"
                          "<!ELEMENT c EMPTY>";
  for (size_t cut = 0; cut < dtd.size(); ++cut) {
    (void)ParseDtd(dtd.substr(0, cut));
  }
}

// Validation walks (tree and streaming) and the Tree special members must
// all be iterative: a path-shaped document deeper than the OS stack limit
// would otherwise crash in validation or even in the Tree destructor.
TEST(DeepDocumentTest, PathTreeDepth150kValidatesWithoutStackOverflow) {
  SchemaBuilder builder;
  builder.AddType("X", "x", "X | Y | %");
  builder.AddType("Y", "y", "%");
  builder.AddStart("X");
  Edtd edtd = ReduceEdtd(builder.Build());
  DfaXsd xsd = DfaXsdFromStEdtd(edtd);
  const int x = xsd.sigma.Find("x");
  const int y = xsd.sigma.Find("y");

  constexpr int kDepth = 150000;
  Word deep_word(kDepth, x);
  deep_word.push_back(y);
  Tree deep = Tree::Unary(deep_word);
  EXPECT_EQ(deep.Depth(), kDepth + 1);
  EXPECT_EQ(deep.NumNodes(), kDepth + 1);
  EXPECT_TRUE(xsd.Accepts(deep));
  EXPECT_TRUE(ValidateWithDiagnostics(xsd, deep).ok);
  EXPECT_TRUE(ValidateStreaming(xsd, deep));

  // An interior <y> violates its (empty) content model kDepth/2 levels
  // below the root; the walk must descend that far to find it.
  Word broken_word = deep_word;
  broken_word[kDepth / 2] = y;
  Tree broken = Tree::Unary(broken_word);
  EXPECT_FALSE(xsd.Accepts(broken));
  ValidationResult result = ValidateWithDiagnostics(xsd, broken);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(static_cast<int>(result.violation_path.size()), kDepth / 2);
  EXPECT_FALSE(ValidateStreaming(xsd, broken));
  // `deep` and `broken` are destroyed here; the iterative ~Tree keeps that
  // from recursing kDepth frames deep.
}

// A non-single-type schema: the root's type (R1 or R2) is only settled by
// the leaf at the bottom of the <s> chain, so every validator has to carry
// candidate types through the whole depth.
constexpr char kTwoChainsSchema[] = R"(
start R1 R2
type R1 : r -> Sub1
type R2 : r -> Sub2
type Sub1 : s -> Sub1 | X
type Sub2 : s -> Sub2 | Y
type X : x -> %
type Y : y -> %
)";

// The labels r s^depth x, with <x> in place of the <s> at depth/2 when
// `broken` (an <x> must be a leaf).
Word TwoChainsWord(const Alphabet& sigma, int depth, bool broken) {
  Word word(depth + 2, sigma.Find("s"));
  word.front() = sigma.Find("r");
  word.back() = sigma.Find("x");
  if (broken) word[depth / 2] = sigma.Find("x");
  return word;
}

std::string TwoChainsXml(int depth, bool broken) {
  auto name = [&](int i) -> std::string {
    return broken && i == depth / 2 ? "x" : "s";
  };
  std::string xml = "<r>";
  for (int i = 1; i <= depth; ++i) xml += "<" + name(i) + ">";
  xml += "<x/>";
  for (int i = depth; i >= 1; --i) xml += "</" + name(i) + ">";
  return xml + "</r>";
}

TEST(DeepDocumentTest, NonSingleTypeDepth150kValidatesWithoutStackOverflow) {
  constexpr int kDepth = 150000;
  StatusOr<Edtd> parsed = ParseSchema(kTwoChainsSchema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Edtd edtd = ReduceEdtd(*parsed);
  ASSERT_FALSE(IsSingleType(edtd));
  StatusOr<EdtdNfa> nfa_schema = ParseSchemaNfa(kTwoChainsSchema);
  ASSERT_TRUE(nfa_schema.ok()) << nfa_schema.status();
  StatusOr<Dtd> dtd = ParseDtd(
      "<!ELEMENT r (s)> <!ELEMENT s (s | x | y)> <!ELEMENT x EMPTY> "
      "<!ELEMENT y EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  StatusOr<CompiledSchema> compiled = CompileSchema(kTwoChainsSchema, nullptr);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_FALSE(compiled->single_type);

  for (bool broken : {false, true}) {
    SCOPED_TRACE(broken ? "violation at depth/2" : "valid");
    const Tree tree = Tree::Unary(TwoChainsWord(edtd.sigma, kDepth, broken));
    EXPECT_EQ(edtd.Accepts(tree), !broken);
    EXPECT_EQ(edtd.PossibleTypes(tree),
              broken ? std::vector<int>{}
                     : std::vector<int>{edtd.types.Find("R1")});
    const Tree nfa_tree =
        Tree::Unary(TwoChainsWord(nfa_schema->sigma, kDepth, broken));
    EXPECT_EQ(nfa_schema->Accepts(nfa_tree), !broken);
    const Tree dtd_tree =
        Tree::Unary(TwoChainsWord(dtd->sigma, kDepth, broken));
    EXPECT_EQ(dtd->Accepts(dtd_tree), !broken);
    EXPECT_EQ(CountTypings(edtd, tree), broken ? 0 : 1);
    DocumentVerdict verdict =
        ValidateDocument(*compiled, TwoChainsXml(kDepth, broken), nullptr);
    EXPECT_EQ(verdict.kind, broken ? DocumentVerdict::Kind::kInvalid
                                   : DocumentVerdict::Kind::kValid)
        << verdict.message;
  }
}

// The XML reader feeds the validators at the CLI surface, so it has to
// survive the same depths they do: parsing, DOM-to-tree conversion, and
// XmlElement teardown are all iterative.
TEST(DeepDocumentTest, ParsesDepth150kXmlWithoutStackOverflow) {
  constexpr int kDepth = 150000;
  std::string xml;
  xml.reserve(kDepth * 9 + 8);
  for (int i = 0; i < kDepth; ++i) xml += "<x>";
  xml += "<y/>";
  for (int i = 0; i < kDepth; ++i) xml += "</x>";

  Alphabet alphabet;
  StatusOr<Tree> tree = ParseXml(xml, &alphabet);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Depth(), kDepth + 1);
  EXPECT_EQ(tree->NumNodes(), kDepth + 1);

  StatusOr<XmlElement> document = ParseXmlDocument(xml);
  ASSERT_TRUE(document.ok());

  // Unbalanced nesting must still fail cleanly at depth.
  std::string truncated = xml.substr(0, xml.size() - 4);
  EXPECT_FALSE(ParseXml(truncated, &alphabet).ok());
  // `tree` and `document` are torn down here without recursing.
}

TEST(DotTest, RendersDfaAndNfa) {
  Alphabet alphabet({"a", "b"});
  Dfa dfa(2, 2);
  dfa.SetTransition(0, 0, 1);
  dfa.SetTransition(1, 1, 1);
  dfa.SetFinal(1);
  std::string dot = DfaToDot(dfa, &alphabet);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("q0 -> q1 [label=\"a\"]"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);

  Nfa nfa(2, 2);
  nfa.AddInitial(0);
  nfa.AddTransition(0, 1, 0);
  nfa.AddTransition(0, 1, 1);
  nfa.SetFinal(1);
  std::string nfa_dot = NfaToDot(nfa);  // raw symbol ids
  EXPECT_NE(nfa_dot.find("q0 -> q1 [label=\"1\"]"), std::string::npos);
}

}  // namespace
}  // namespace stap
