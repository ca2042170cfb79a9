#include "percentile.h"

#include <algorithm>
#include <cmath>

namespace xtc::perfbench {

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  const double rank =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

}  // namespace xtc::perfbench
