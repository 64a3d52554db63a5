#include "faults/faults.h"

#include <gtest/gtest.h>

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

TEST(RampFault, EnabledOnlyWhenSlowerThanSpec) {
  EXPECT_FALSE(RampFault{}.enabled());
  EXPECT_FALSE((RampFault{1.0}).enabled());
  EXPECT_TRUE((RampFault{0.5}).enabled());
  EXPECT_THROW((RampFault{0.0}).validate(), std::logic_error);
  EXPECT_THROW((RampFault{1.5}).validate(), std::logic_error);
  EXPECT_NO_THROW((RampFault{0.25}).validate());
}

TEST(WakeupFault, EnabledNeedsProbabilityAndDelay) {
  EXPECT_FALSE(WakeupFault{}.enabled());
  EXPECT_TRUE((WakeupFault{0.3, 5.0}).enabled());
  EXPECT_THROW((WakeupFault{1.5, 5.0}).validate(), std::logic_error);
  EXPECT_THROW((WakeupFault{0.5, -1.0}).validate(), std::logic_error);
}

TEST(FaultPlan, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
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
  EXPECT_TRUE(plan.any());
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
