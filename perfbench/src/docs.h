// Seeded XML document generators for the validation workloads. Every
// document has exactly the requested number of element nodes, and its
// verdict is fixed by construction (the flaw it carries, if any), never
// by asking a validator.
#ifndef PERFBENCH_DOCS_H_
#define PERFBENCH_DOCS_H_

#include <random>
#include <string>

namespace perfbench {

// The library schema the serve workload registers as "@bench".
inline constexpr const char kLibrarySchema[] =
    "start Lib\n"
    "type Lib     : library -> Book*\n"
    "type Book    : book    -> Title Chapter+\n"
    "type Title   : title   -> %\n"
    "type Chapter : chapter -> (Section | %)\n"
    "type Section : section -> %\n";

enum class Flaw {
  kNone,
  kMissingTitle,    // the last book has no title (a chapter instead)
  kWrongOrder,      // the last book's first chapter precedes its title
  kUndeclared,      // the last book's title is an undeclared element
  kLastRenamed,     // the last element in document order is misnamed
};

// A document of kLibrarySchema with `nodes` >= 4 elements.
std::string LibraryDocument(std::mt19937_64* rng, int nodes, Flaw flaw);

// A document of examples/data/docbook_lite.stap with `nodes` >= 40
// elements; kLastRenamed turns the last element into a <title>, which no
// content model allows there.
std::string DocbookDocument(std::mt19937_64* rng, int nodes, Flaw flaw);

// A success response of examples/data/relaxng_style.stap with `nodes` >= 5
// elements (nodes - 4 records); kLastRenamed reports <failed/> status
// under a success payload, which only the non-single-type typing rejects.
std::string RelaxngDocument(int nodes, Flaw flaw);

}  // namespace perfbench

#endif  // PERFBENCH_DOCS_H_
