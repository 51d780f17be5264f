// Reproduces Table I: average number of protectors each algorithm needs to
// protect EVERY bridge end under the DOAM model (LCRB-D).
//
// Paper's rows (for reference; decimals are averages over repeated trials):
//   Hep/15233/308     1%: SCBG 32.9  Prox 25.3   MaxDeg 140.6
//                     5%: SCBG 42.1  Prox 74.3   MaxDeg 147.8
//                    10%: SCBG 48.9  Prox 133.8  MaxDeg 152.6
//   Email/36692/80    5%: SCBG 6.2   Prox 43.7   MaxDeg 72.7
//                    10%: SCBG 8.2   Prox 46.9   MaxDeg 79.3
//                    20%: SCBG 13.8  Prox 62.9   MaxDeg 91.1
//   Email/36692/2631  1%: SCBG 20.4  Prox 289.3  MaxDeg 1208.8
//                     5%: SCBG 50.9  Prox 1067.6 MaxDeg 1350.2
//                    10%: SCBG 68.4  Prox 1422.6 MaxDeg 1683.8
//
// Expected shape: SCBG smallest everywhere except possibly Hep at 1% (tiny
// |R| lets Proximity win by a hair); SCBG's cost grows far slower with |R|;
// Proximity < MaxDegree.
#include <iostream>

#include "common.h"

#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcrb::bench;
  BenchContext ctx =
      parse_context(argc, argv, "Table I — protectors needed under DOAM", /*default_scale=*/0.5);

  lcrb::TextTable table;
  table.set_header(
      {"Dataset/|N|/|C|", "|R|", "SCBG", "Proximity", "MaxDegree"});

  struct Block {
    Dataset ds;
    std::vector<double> fractions;
  };
  std::vector<Block> blocks;
  blocks.push_back({make_hep_dataset(ctx), {0.01, 0.05, 0.10}});
  blocks.push_back({make_email_small_dataset(ctx), {0.05, 0.10, 0.20}});
  blocks.push_back({make_email_large_dataset(ctx), {0.01, 0.05, 0.10}});

  for (const Block& b : blocks) {
    for (double f : b.fractions) {
      const TableOneRow row = run_table1_row(b.ds, ctx, f);
      table.add_values(row.dataset, row.rumor_label, lcrb::fixed(row.scbg),
                       lcrb::fixed(row.proximity), lcrb::fixed(row.maxdegree));
    }
  }
  table.print(std::cout);
  std::cout << "\n(averages over " << ctx.trials
            << " rumor re-draws; Proximity order re-randomized per trial;\n"
            << " costs are minimal covering prefixes under the analytic DOAM "
               "protection test)\n";
  return 0;
}
