#include "faults/faults.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace lpfps::faults {
namespace {

TEST(OverrunFault, EnabledNeedsBothProbabilityAndMagnitude) {
  EXPECT_FALSE(OverrunFault{}.enabled());
  EXPECT_FALSE((OverrunFault{0.5, 0.0}).enabled());
  EXPECT_FALSE((OverrunFault{0.0, 0.5}).enabled());
  EXPECT_TRUE((OverrunFault{0.5, 0.5}).enabled());
}

TEST(OverrunFault, ValidateRejectsOutOfDomainParameters) {
  EXPECT_NO_THROW((OverrunFault{0.0, 0.0}).validate());
  EXPECT_NO_THROW((OverrunFault{1.0, 2.0}).validate());
  EXPECT_THROW((OverrunFault{-0.1, 0.5}).validate(), std::logic_error);
  EXPECT_THROW((OverrunFault{1.1, 0.5}).validate(), std::logic_error);
  EXPECT_THROW((OverrunFault{0.5, -0.5}).validate(), std::logic_error);
}

/// The message `validate` throws for `fault`, or "" when it passes.
std::string rejection(const OverrunFault& fault) {
  try {
    fault.validate();
  } catch (const std::logic_error& error) {
    return error.what();
  }
  return "";
}

TEST(OverrunFault, RejectionsNameTheFieldAndTheValue) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(rejection({nan, 0.5}),
            "overrun probability must lie in [0, 1], got nan");
  EXPECT_EQ(rejection({1.5, 0.5}),
            "overrun probability must lie in [0, 1], got 1.5");
  EXPECT_EQ(rejection({0.5, nan}),
            "overrun magnitude must be finite and non-negative, got nan");
  EXPECT_EQ(rejection({0.5, inf}),
            "overrun magnitude must be finite and non-negative, got inf");
  EXPECT_EQ(rejection({0.5, -0.25}),
            "overrun magnitude must be finite and non-negative, got -0.25");
  EXPECT_EQ(rejection({0.5, 1e300}), "");

  FaultPlan plan;
  plan.overruns = {{0.5, 0.5}, {0.5, 0.5}};
  try {
    plan.validate(3);
    ADD_FAILURE() << "two entries accepted for three tasks";
  } catch (const std::logic_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "FaultPlan::overruns must be empty, a single broadcast entry, "
              "or one entry per task (3), got 2 entries");
  }
}

TEST(FaultPlan, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.overruns_enabled());
  EXPECT_NO_THROW(plan.validate(3));
  // The resolved spec for any task is disabled.
  EXPECT_FALSE(plan.overrun_for(0).enabled());
  EXPECT_FALSE(plan.overrun_for(7).enabled());
}

TEST(FaultPlan, SingleEntryBroadcastsToEveryTask) {
  FaultPlan plan;
  plan.overruns = {{0.5, 1.0}};
  EXPECT_TRUE(plan.overruns_enabled());
  EXPECT_NO_THROW(plan.validate(4));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(plan.overrun_for(i).probability, 0.5);
    EXPECT_DOUBLE_EQ(plan.overrun_for(i).magnitude, 1.0);
  }
}

TEST(FaultPlan, PerTaskEntriesResolveByIndex) {
  FaultPlan plan;
  plan.overruns = {{0.0, 0.0}, {1.0, 0.25}, {0.5, 0.5}};
  EXPECT_NO_THROW(plan.validate(3));
  EXPECT_FALSE(plan.overrun_for(0).enabled());
  EXPECT_DOUBLE_EQ(plan.overrun_for(1).magnitude, 0.25);
  EXPECT_DOUBLE_EQ(plan.overrun_for(2).probability, 0.5);
}

TEST(FaultPlan, ValidateRejectsMismatchedOverrunCount) {
  FaultPlan plan;
  plan.overruns = {{0.5, 0.5}, {0.5, 0.5}};
  EXPECT_NO_THROW(plan.validate(2));
  EXPECT_THROW(plan.validate(3), std::logic_error);
  EXPECT_THROW(plan.validate(1), std::logic_error);
}

TEST(ContainmentPolicy, EnabledByActionOrFallback) {
  EXPECT_FALSE(ContainmentPolicy{}.enabled());
  ContainmentPolicy kill;
  kill.on_overrun = OverrunAction::kKill;
  EXPECT_TRUE(kill.enabled());
  ContainmentPolicy safe;
  safe.safe_mode_fallback = true;
  EXPECT_TRUE(safe.enabled());
}

TEST(OverrunAction, ToStringNamesEveryAction) {
  EXPECT_EQ(std::string(to_string(OverrunAction::kNone)), "none");
  EXPECT_EQ(std::string(to_string(OverrunAction::kKill)), "kill");
}

}  // namespace
}  // namespace lpfps::faults
