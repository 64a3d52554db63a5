// io/admission_io.h — the decision CSV row: field set, formatting, and
// the accounting-exclusion convention.
#include "io/admission_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace lpfps::io {
namespace {

admission::Decision sample_decision() {
  admission::Decision d;
  d.kind = admission::RequestKind::kAdd;
  d.admitted = true;
  d.min_level = 17;
  d.min_safe_mhz = 25.0;
  d.min_safe_ratio = 0.25;
  d.wcet_headroom = 1.5;
  d.fingerprint = 0xdeadbeefcafef00dull;
  d.task_count = 5;
  d.utilization = 0.62;
  return d;
}

TEST(AdmissionIo, HeaderMatchesRowFieldCount) {
  const std::string header = admission_csv_header();
  const std::string row = admission_csv_row(sample_decision());
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
  EXPECT_EQ(header.back(), '\n');
  EXPECT_EQ(row.back(), '\n');
}

TEST(AdmissionIo, RowRendersDecisionFields) {
  EXPECT_EQ(admission_csv_row(sample_decision()),
            "add,1,17,25,0.25,1.5,deadbeefcafef00d,5,0.62\n");

  admission::Decision rejected;
  rejected.kind = admission::RequestKind::kMutate;
  rejected.admitted = false;
  rejected.fingerprint = 1;
  rejected.task_count = 3;
  rejected.utilization = 0.5;
  EXPECT_EQ(admission_csv_row(rejected),
            "mutate,0,-1,0,0,0,0000000000000001,3,0.5\n");
}

TEST(AdmissionIo, AccountingIsExcludedFromTheRow) {
  // Two decisions that differ only in accounting must render equal:
  // that is what lets the differential suite hash rows across arms.
  admission::Decision a = sample_decision();
  admission::Decision b = sample_decision();
  b.cache_hit = true;
  b.stationary = true;
  b.tasks_reanalyzed = 99;
  b.tasks_seeded = 42;
  b.levels_probed = 7;
  b.headroom_probes = 23;
  b.bound_clears = 17;
  EXPECT_EQ(admission_csv_row(a), admission_csv_row(b));
}

TEST(AdmissionIo, DoublesRoundTripExactly) {
  admission::Decision d = sample_decision();
  d.utilization = 0.1 + 0.2;  // 0.30000000000000004: %.17g keeps it.
  const std::string row = admission_csv_row(d);
  EXPECT_NE(row.find("0.30000000000000004"), std::string::npos);
}

}  // namespace
}  // namespace lpfps::io
