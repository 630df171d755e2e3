#include "src/histogram/driver.h"

#include "src/common/check.h"

namespace dynhist {

namespace {

void ApplyOne(const UpdateOp& op, Histogram* histogram,
              FrequencyVector* truth) {
  switch (op.kind) {
    case UpdateOp::Kind::kInsert:
      histogram->Insert(op.value);
      truth->Insert(op.value);
      break;
    case UpdateOp::Kind::kDelete: {
      const std::int64_t live = truth->Count(op.value);
      DH_CHECK(live > 0);
      histogram->Delete(op.value, live);
      truth->Delete(op.value);
      break;
    }
    case UpdateOp::Kind::kFeedback:
      // An observation about the data, not a change to it: the truth
      // vector stays as it is.
      histogram->ApplyFeedback(op.value, op.hi, op.actual);
      break;
  }
}

}  // namespace

void Replay(const UpdateStream& stream, Histogram* histogram,
            FrequencyVector* truth) {
  for (const UpdateOp& op : stream) ApplyOne(op, histogram, truth);
}

void ReplayWithCheckpoints(const UpdateStream& stream, Histogram* histogram,
                           FrequencyVector* truth, int checkpoints,
                           const ReplayObserver& observer) {
  DH_CHECK(checkpoints >= 1);
  const std::size_t n = stream.size();
  std::size_t next_checkpoint = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ApplyOne(stream[i], histogram, truth);
    // Fire whenever we cross the next checkpoint boundary (and at the end).
    const std::size_t due =
        next_checkpoint * n / static_cast<std::size_t>(checkpoints);
    if (i + 1 >= due &&
        next_checkpoint <= static_cast<std::size_t>(checkpoints)) {
      observer(static_cast<double>(i + 1) / static_cast<double>(n),
               *histogram, *truth);
      ++next_checkpoint;
    }
  }
}

}  // namespace dynhist
