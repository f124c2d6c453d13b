// Reproduces Table 1: "Comparison of the Checkpointing Abstraction
// Levels" — the paper's qualitative design-space table (Section 2.1),
// annotated with where this repository's implementations sit.
//
// This table is definitional rather than measured; reproducing it
// keeps the per-table index complete and documents the design-space
// position of each engine we built.
#include "bench/bench_util.h"

using namespace ickpt;
using namespace ickpt::bench;

int main() {
  TextTable table("Table 1 - Checkpointing abstraction levels");
  table.set_header({"Level", "Transparency", "Portability",
                    "Checkpoint size", "Interval flexibility",
                    "Granularity"});
  table.add_row({"Application (library support)", "Low", "High", "Low",
                 "Low", "Data structure"});
  table.add_row({"Application (compiler support)", "Medium", "High",
                 "Medium", "Low", "Data structure"});
  table.add_row({"Run-time library", "Medium", "Medium", "High", "High",
                 "Memory segment"});
  table.add_row({"Operating system", "High", "Low", "High", "High",
                 "Memory page"});
  table.add_row({"Hardware", "High", "Very low", "High", "High",
                 "Cache line"});
  finish(table, "table1_design_space.csv");

  TextTable ours("Where this repository's engines sit");
  ours.set_header({"Engine", "Level"});
  ours.add_row({"mprotect + SIGSEGV (paper's mechanism)",
                "run-time library over OS paging"});
  ours.add_row({"explicit notification",
                "application with library support"});
  ours.print(std::cout);

  std::cout << "the paper's position: OS-level page-granular tracking "
               "offers the transparency and interval flexibility that "
               "autonomic checkpointing needs (Section 2.1)\n";
  return 0;
}
