#include "src/histogram/driver.h"

#include <gtest/gtest.h>

#include "src/histogram/dynamic_vopt.h"
#include "src/histogram/st_feedback.h"
#include "tests/test_util.h"

namespace dynhist {
namespace {

UpdateStream SmallStream() {
  UpdateStream stream;
  for (std::int64_t v = 0; v < 100; ++v) {
    stream.push_back(UpdateOp::Insert(v % 17));
  }
  for (std::int64_t v = 0; v < 40; ++v) {
    stream.push_back(UpdateOp::Delete(v % 17));
  }
  return stream;
}

DynamicVOptConfig Config() {
  return {.buckets = 8, .policy = DeviationPolicy::kAbsolute};
}

TEST(DriverTest, ReplayKeepsHistogramAndTruthInLockStep) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  Replay(SmallStream(), &h, &truth);
  EXPECT_EQ(truth.TotalCount(), 60);
  EXPECT_NEAR(h.TotalCount(), 60.0, 1e-9);
}

TEST(DriverTest, CheckpointsFireInOrderWithFinalFraction) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  std::vector<double> fractions;
  ReplayWithCheckpoints(SmallStream(), &h, &truth, 7,
                        [&](double fraction, const Histogram&,
                            const FrequencyVector&) {
                          fractions.push_back(fraction);
                        });
  ASSERT_EQ(fractions.size(), 7u);
  for (std::size_t i = 1; i < fractions.size(); ++i) {
    EXPECT_GT(fractions[i], fractions[i - 1]);
  }
  EXPECT_DOUBLE_EQ(fractions.back(), 1.0);
}

TEST(DriverTest, CheckpointObserverSeesConsistentState) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  ReplayWithCheckpoints(
      SmallStream(), &h, &truth, 5,
      [&](double /*fraction*/, const Histogram& hist,
          const FrequencyVector& data) {
        // The histogram's count must match the truth's at every checkpoint.
        EXPECT_NEAR(hist.TotalCount(),
                    static_cast<double>(data.TotalCount()), 1e-9);
      });
}

TEST(DriverTest, SingleCheckpointIsJustTheEnd) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  int calls = 0;
  ReplayWithCheckpoints(SmallStream(), &h, &truth, 1,
                        [&](double fraction, const Histogram&,
                            const FrequencyVector&) {
                          ++calls;
                          EXPECT_DOUBLE_EQ(fraction, 1.0);
                        });
  EXPECT_EQ(calls, 1);
}

// Inserts interleaved with query-feedback observations over [0, 99].
UpdateStream StreamWithFeedback() {
  UpdateStream stream;
  for (std::int64_t v = 0; v < 300; ++v) {
    stream.push_back(UpdateOp::Insert((v * 37) % 100));
    if (v % 10 == 9) {
      const std::int64_t lo = (v * 13) % 80;
      stream.push_back(UpdateOp::Feedback(lo, lo + 19, 60.0));
    }
  }
  return stream;
}

TEST(DriverTest, ReplayRoutesFeedbackToTheHistogram) {
  const StFeedbackConfig config = {.buckets = 8,
                                   .domain_lo = 0,
                                   .domain_hi = 99,
                                   .restructure_every = 10};
  const UpdateStream stream = StreamWithFeedback();
  StFeedbackHistogram replayed(config);
  FrequencyVector truth(100);
  Replay(stream, &replayed, &truth);

  StFeedbackHistogram direct(config);
  for (const UpdateOp& op : stream) {
    if (op.kind == UpdateOp::Kind::kFeedback) {
      direct.ApplyFeedback(op.value, op.hi, op.actual);
    } else {
      direct.Insert(op.value);
    }
  }
  EXPECT_EQ(replayed.feedback_count(), 30u);
  EXPECT_TRUE(testing::ModelsBitIdentical(replayed.Model(), direct.Model()));
  // Feedback observes the data; it does not change it.
  EXPECT_EQ(truth.TotalCount(), 300);
}

TEST(DriverTest, FeedbackIsANoOpForDataDrivenHistograms) {
  const UpdateStream stream = StreamWithFeedback();
  UpdateStream inserts_only;
  for (const UpdateOp& op : stream) {
    if (op.kind != UpdateOp::Kind::kFeedback) inserts_only.push_back(op);
  }
  DynamicVOptHistogram with_feedback(Config());
  DynamicVOptHistogram without_feedback(Config());
  FrequencyVector truth_with(100);
  FrequencyVector truth_without(100);
  Replay(stream, &with_feedback, &truth_with);
  Replay(inserts_only, &without_feedback, &truth_without);
  EXPECT_TRUE(testing::ModelsBitIdentical(with_feedback.Model(),
                                          without_feedback.Model()));
  EXPECT_EQ(truth_with.TotalCount(), truth_without.TotalCount());
}

TEST(DriverDeathTest, DeleteOfAbsentValueIsRejected) {
  DynamicVOptHistogram h(Config());
  FrequencyVector truth(20);
  const UpdateStream bad = {UpdateOp::Delete(5)};
  EXPECT_DEATH(Replay(bad, &h, &truth), "DH_CHECK");
}

}  // namespace
}  // namespace dynhist
