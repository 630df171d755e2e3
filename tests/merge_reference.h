// Pre-sweep reference implementations of the §8 merge, kept only as the
// parity baseline of merge_pipeline_test and micro_merge_pipeline. The
// library's merge is distributed::SnapshotMerger (one k-way border sweep
// plus a piece-slice SSBM); these are the paper-literal constructions it
// replaced, and both are proportional to the attribute domain or to
// ranges x models rather than to the inputs' piece counts.

#ifndef DYNHIST_TESTS_MERGE_REFERENCE_H_
#define DYNHIST_TESTS_MERGE_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/histogram/model.h"

namespace dynhist::reference {

/// Range-scan superposition: enumerates the elementary ranges between
/// the union of all borders and integrates every model over each
/// (O(ranges * models * log pieces)). Drops zero-mass ranges, so its
/// support can be smaller than the union of the inputs' supports; masses
/// and CDF are identical to distributed::Superimpose.
HistogramModel SuperimposeLegacy(const std::vector<HistogramModel>& models);

/// Per-integer-cell reduction: rasterizes `model` to expected counts per
/// cell [v, v+1) and runs SSBM over the cells ("treat the histogram as a
/// data set", §8, literally). O(domain log domain). Cells below 1e-12
/// mass are empty space.
HistogramModel ReduceCellsWithSsbm(const HistogramModel& model,
                                   std::int64_t buckets);

}  // namespace dynhist::reference

#endif  // DYNHIST_TESTS_MERGE_REFERENCE_H_
