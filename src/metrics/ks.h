// Kolmogorov-Smirnov statistic between a data distribution and a histogram.
//
// The paper's quality metric (§6.2): D = max over x of |F1(x) - F2(x)|,
// where F1 is the CDF of the original data and F2 the CDF of the histogram
// approximation. "It is the maximum error in selectivity of a range
// predicate posed against the histogram rather than the original data."
//
// Both distributions are evaluated under the continuous-value convention of
// the histogram model (integer value v occupies [v, v+1)), so an exact
// histogram has KS = 0. Each CDF is normalized by its own total mass. F1 and
// F2 are both piecewise linear; their difference attains its maximum at a
// breakpoint of either function, so the exact supremum is found by scanning
// the union of breakpoints (all integer cell borders adjacent to data plus
// all model piece borders). F2 is read from the model compiled once to
// its CompiledSnapshot arena, the library's one estimator.

#ifndef DYNHIST_METRICS_KS_H_
#define DYNHIST_METRICS_KS_H_

#include "src/data/frequency_vector.h"
#include "src/histogram/model.h"

namespace dynhist {

/// Exact KS statistic between the ground-truth distribution and a histogram
/// model. Returns a value in [0, 1]; 0 for an exact match. An empty model
/// against empty data is 0; an empty model against nonempty data is 1.
double KsStatistic(const FrequencyVector& truth, const HistogramModel& model);

/// Exact KS statistic between two histogram models (used to verify that
/// distributed superposition is lossless, §8).
double KsBetweenModels(const HistogramModel& a, const HistogramModel& b);

}  // namespace dynhist

#endif  // DYNHIST_METRICS_KS_H_
