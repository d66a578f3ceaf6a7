#include "docs.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace perfbench {
namespace {

int Uniform(std::mt19937_64* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

// Element-only XML writer that remembers the last element it opened: the
// last element in document order, always a leaf, so it can be renamed.
class XmlWriter {
 public:
  void Open(const char* name) {
    Mark(name);
    out_ += '<';
    out_ += name;
    out_ += '>';
  }
  void Close(const char* name) {
    out_ += "</";
    out_ += name;
    out_ += '>';
  }
  void Leaf(const char* name) {
    Mark(name);
    out_ += '<';
    out_ += name;
    out_ += "/>";
  }
  void RenameLast(const char* name) {
    out_.replace(last_ + 1, std::strlen(last_name_), name);
  }
  std::string Take() { return std::move(out_); }

 private:
  void Mark(const char* name) {
    last_ = out_.size();
    last_name_ = name;
  }

  std::string out_;
  size_t last_ = 0;
  const char* last_name_ = "";
};

void LibraryBook(std::mt19937_64* rng, int size, Flaw flaw, XmlWriter* w) {
  const int sections = Uniform(rng, 0, (size - 2) / 2);
  const int chapters = size - 2 - sections;
  std::vector<bool> has_section(chapters, false);
  std::fill(has_section.begin(), has_section.begin() + sections, true);
  std::shuffle(has_section.begin(), has_section.end(), *rng);
  auto chapter = [&](int i) {
    if (!has_section[i]) {
      w->Leaf("chapter");
      return;
    }
    w->Open("chapter");
    w->Leaf("section");
    w->Close("chapter");
  };
  w->Open("book");
  int first = 0;
  switch (flaw) {
    case Flaw::kMissingTitle:
      w->Leaf("chapter");
      break;
    case Flaw::kWrongOrder:
      chapter(0);
      first = 1;
      w->Leaf("title");
      break;
    case Flaw::kUndeclared:
      w->Leaf("appendix");
      break;
    default:
      w->Leaf("title");
      break;
  }
  for (int i = first; i < chapters; ++i) chapter(i);
  w->Close("book");
}

// Splits `total` nodes into parts of [lo, hi] nodes (the last part takes
// any remainder), never leaving a remainder below `lo`.
std::vector<int> Split(std::mt19937_64* rng, int total, int lo, int hi) {
  std::vector<int> parts;
  int left = total;
  while (left > 0) {
    int part = std::min(Uniform(rng, lo, hi), left);
    if (left - part < lo) part = left;
    parts.push_back(part);
    left -= part;
  }
  return parts;
}

// Paragraph inline counts; a section's own paragraphs, then subsections.
struct Section {
  std::vector<int> paras;
  std::vector<std::vector<int>> subsections;
};

// A section of exactly `size` >= 3 nodes: title, paragraphs, then
// subsections (section2: title para+); leftover nodes become inline
// children of the current last paragraph.
Section MakeSection(std::mt19937_64* rng, int size) {
  Section section;
  section.paras.push_back(0);
  int left = size - 3;
  while (left > 0) {
    const int roll = Uniform(rng, 0, 99);
    std::vector<int>& paras = section.subsections.empty()
                                  ? section.paras
                                  : section.subsections.back();
    if (roll < 12 && left >= 3) {
      section.subsections.push_back({0});
      left -= 3;
    } else if (roll < 40) {
      paras.push_back(0);
      left -= 1;
    } else {
      ++paras.back();
      left -= 1;
    }
  }
  return section;
}

void Paras(std::mt19937_64* rng, const std::vector<int>& paras,
           XmlWriter* w) {
  for (int inline_children : paras) {
    if (inline_children == 0) {
      w->Leaf("para");
      continue;
    }
    w->Open("para");
    for (int i = 0; i < inline_children; ++i) {
      w->Leaf(Uniform(rng, 0, 1) == 0 ? "emphasis" : "link");
    }
    w->Close("para");
  }
}

}  // namespace

std::string LibraryDocument(std::mt19937_64* rng, int nodes, Flaw flaw) {
  XmlWriter w;
  w.Open("library");
  const std::vector<int> books = Split(rng, nodes - 1, 3, 10);
  for (size_t i = 0; i < books.size(); ++i) {
    const bool last = i + 1 == books.size();
    LibraryBook(rng, books[i],
                last && flaw != Flaw::kLastRenamed ? flaw : Flaw::kNone, &w);
  }
  if (flaw == Flaw::kLastRenamed) w.RenameLast("title");
  w.Close("library");
  return w.Take();
}

std::string DocbookDocument(std::mt19937_64* rng, int nodes, Flaw flaw) {
  XmlWriter w;
  w.Open("article");
  // Fixed-shape info block: 12 nodes.
  w.Open("info");
  w.Leaf("title");
  for (int a = 0; a < 2; ++a) {
    w.Open("author");
    w.Leaf("personname");
    w.Leaf("affiliation");
    w.Close("author");
  }
  w.Open("abstract");
  w.Open("para");
  w.Leaf("emphasis");
  w.Leaf("link");
  w.Close("para");
  w.Close("abstract");
  w.Close("info");
  for (int size : Split(rng, nodes - 13, 20, 400)) {
    const Section section = MakeSection(rng, size);
    w.Open("section");
    w.Leaf("title");
    Paras(rng, section.paras, &w);
    for (const std::vector<int>& sub : section.subsections) {
      w.Open("section2");
      w.Leaf("title");
      Paras(rng, sub, &w);
      w.Close("section2");
    }
    w.Close("section");
  }
  if (flaw == Flaw::kLastRenamed) w.RenameLast("title");
  w.Close("article");
  return w.Take();
}

std::string RelaxngDocument(int nodes, Flaw flaw) {
  XmlWriter w;
  w.Open("response");
  w.Open("payload");
  for (int i = 0; i < nodes - 4; ++i) w.Leaf("record");
  w.Close("payload");
  w.Open("status");
  w.Leaf(flaw == Flaw::kLastRenamed ? "failed" : "done");
  w.Close("status");
  w.Close("response");
  return w.Take();
}

}  // namespace perfbench
