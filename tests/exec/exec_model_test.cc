#include "exec/exec_model.h"

#include <gtest/gtest.h>

#include "metrics/stats.h"
#include "sched/task.h"

namespace lpfps::exec {
namespace {

sched::Task task_with_bcet(double bcet_ratio) {
  return sched::make_task("t", 1000, 1000, 100.0, 100.0 * bcet_ratio);
}

TEST(ClampedGaussian, AlwaysWithinBounds) {
  Rng rng(2);
  const ClampedGaussianModel model;
  const sched::Task t = task_with_bcet(0.1);
  for (int i = 0; i < 20'000; ++i) {
    const Work w = model.sample(t, rng);
    EXPECT_GE(w, t.bcet);
    EXPECT_LE(w, t.wcet);
  }
}

TEST(ClampedGaussian, DegeneratesToWcetWhenBcetEqualsWcet) {
  Rng rng(3);
  const ClampedGaussianModel model;
  const sched::Task t = task_with_bcet(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(model.sample(t, rng), 100.0);
  }
}

TEST(ClampedGaussian, MeanMatchesEquation4) {
  // m = (BCET + WCET) / 2; clamping at +-3 sigma barely moves the mean.
  Rng rng(4);
  const ClampedGaussianModel model;
  const sched::Task t = task_with_bcet(0.4);
  metrics::Summary summary;
  for (int i = 0; i < 50'000; ++i) summary.add(model.sample(t, rng));
  EXPECT_NEAR(summary.mean(), (t.bcet + t.wcet) / 2.0, 0.3);
}

TEST(ClampedGaussian, StddevMatchesEquation5) {
  // sigma = (WCET - BCET) / 6 = 10 for bcet_ratio 0.4.
  Rng rng(5);
  const ClampedGaussianModel model;
  const sched::Task t = task_with_bcet(0.4);
  metrics::Summary summary;
  for (int i = 0; i < 50'000; ++i) summary.add(model.sample(t, rng));
  EXPECT_NEAR(summary.stddev(), (t.wcet - t.bcet) / 6.0, 0.3);
}

TEST(Uniform, CoversTheWholeInterval) {
  Rng rng(6);
  const UniformModel model;
  const sched::Task t = task_with_bcet(0.2);
  metrics::Summary summary;
  for (int i = 0; i < 20'000; ++i) {
    const Work w = model.sample(t, rng);
    EXPECT_GE(w, t.bcet);
    EXPECT_LE(w, t.wcet);
    summary.add(w);
  }
  EXPECT_NEAR(summary.mean(), 60.0, 1.0);
  EXPECT_LT(summary.min(), 25.0);
  EXPECT_GT(summary.max(), 95.0);
}

TEST(Bimodal, SamplesClusterAtBothEnds) {
  Rng rng(7);
  const BimodalModel model(0.5);
  const sched::Task t = task_with_bcet(0.2);
  int low = 0;
  int high = 0;
  for (int i = 0; i < 10'000; ++i) {
    const Work w = model.sample(t, rng);
    EXPECT_GE(w, t.bcet);
    EXPECT_LE(w, t.wcet);
    if (w < 40.0) ++low;
    if (w > 80.0) ++high;
  }
  EXPECT_GT(low, 3000);
  EXPECT_GT(high, 3000);
}

TEST(Bimodal, ProbabilityParameterRespected) {
  Rng rng(8);
  const BimodalModel model(0.9);
  const sched::Task t = task_with_bcet(0.2);
  int low = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    if (model.sample(t, rng) < 60.0) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.9, 0.03);
}

TEST(Models, NamesAreDistinct) {
  EXPECT_EQ(ClampedGaussianModel().name(), "gaussian");
  EXPECT_EQ(UniformModel().name(), "uniform");
  EXPECT_EQ(BimodalModel().name(), "bimodal");
}

}  // namespace
}  // namespace lpfps::exec
