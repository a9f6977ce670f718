// Table 1: Poisson truncation points s0 for threshold epsilon and mean
// lambda. Paper values: (1e-9, 10) -> 35, (1e-9, 20) -> 53, (1e-9, 50) -> 99.

#include <iostream>

#include "bench_common.h"
#include "stats/poisson.h"
#include "util/table.h"

using namespace crowdprice;

int main(int argc, char** argv) {
  bench::Init(argc, argv);
  std::cout << "=== Table 1: truncation point s0 by threshold and Poisson mean ===\n\n";
  Table table({"threshold", "lambda", "s0 (ours)", "s0 (paper)"});
  struct Row {
    double epsilon;
    double lambda;
    int paper;
  };
  const Row rows[] = {{1e-9, 10.0, 35}, {1e-9, 20.0, 53}, {1e-9, 50.0, 99}};
  bool all_match = true;
  for (const Row& row : rows) {
    int s0;
    BENCH_ASSIGN(s0, stats::PoissonTruncationPoint(row.lambda, row.epsilon));
    all_match = all_match && s0 == row.paper;
    bench::DieOnError(table.AddRow({StringF("%.0e", row.epsilon),
                                    StringF("%.0f", row.lambda),
                                    StringF("%d", s0),
                                    StringF("%d", row.paper)}),
                      "table row");
  }
  table.Print(std::cout);
  std::cout << "\n";
  bench::CheckExact(all_match,
                    "s0 values match the paper's Table 1 exactly");

  // Extended sweep (beyond the paper): s0 grows ~ lambda + O(sqrt(lambda)).
  Table sweep({"lambda", "s0(1e-6)", "s0(1e-9)", "s0(1e-12)"});
  bool monotone = true;
  int prev9 = 0;
  for (double lambda : {1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 2000.0}) {
    int s6, s9, s12;
    BENCH_ASSIGN(s6, stats::PoissonTruncationPoint(lambda, 1e-6));
    BENCH_ASSIGN(s9, stats::PoissonTruncationPoint(lambda, 1e-9));
    BENCH_ASSIGN(s12, stats::PoissonTruncationPoint(lambda, 1e-12));
    monotone = monotone && s6 <= s9 && s9 <= s12 && s9 >= prev9;
    prev9 = s9;
    bench::DieOnError(
        sweep.AddRow({StringF("%.0f", lambda), StringF("%d", s6),
                      StringF("%d", s9), StringF("%d", s12)}),
        "sweep row");
  }
  std::cout << "\nExtended sweep:\n";
  sweep.Print(std::cout);
  bench::Check(monotone, "s0 is monotone in lambda and in 1/epsilon");
  return bench::Finish();
}
