// CSV rendering of admission decisions.
//
// The row carries only *decision* fields — what was decided, not how
// (admitted, minimum safe frequency, WCET-scaling headroom, candidate
// fingerprint, set size/utilization).
// Accounting (tasks reanalyzed, levels probed, bound clears) is excluded
// by the same convention that keeps cycle-detection counters out of
// io::result_csv_row: the differential suite hashes these rows to
// assert that the incremental and from-scratch arms decide
// identically, and an accounting field in the row would make equal
// decisions hash unequal.  Doubles are rendered with %.17g so distinct
// bit patterns always render distinctly (round-trip exact).
#pragma once

#include <string>

#include "admission/types.h"

namespace lpfps::io {

std::string admission_csv_header();
std::string admission_csv_row(const admission::Decision& decision);

}  // namespace lpfps::io
