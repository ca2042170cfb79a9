// Exact order statistics over raw per-sample measurements.
//
// The engine's LatencyHistogram answers percentiles with bucket upper
// bounds, so its p50 jumps between bucket edges from run to run and its
// p99 can exceed the largest sample. The benchmark keeps every sample and
// computes nearest-rank percentiles instead: the result is always one of
// the samples, and p100 is the maximum.

#ifndef XTC_PERFBENCH_PERCENTILE_H_
#define XTC_PERFBENCH_PERCENTILE_H_

#include <vector>

namespace xtc::perfbench {

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (q in [0, 1]). Reorders `samples`; 0 when empty.
double Percentile(std::vector<double>& samples, double q);

}  // namespace xtc::perfbench

#endif  // XTC_PERFBENCH_PERCENTILE_H_
