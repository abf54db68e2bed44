// RateMeter edge cases: bin-boundary placement, mean over empty and
// partial windows, and dense storage that grows only to the highest bin.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/time.hpp"
#include "stats/rate_meter.hpp"

namespace trim::stats {
namespace {

using sim::SimTime;

TEST(RateMeterEdge, BinBoundaryAddsLandInTheLaterBin) {
  RateMeter meter{SimTime::millis(10)};
  meter.add(SimTime::millis(10) - SimTime::nanos(1), 1000);  // last ns of bin 0
  meter.add(SimTime::millis(10), 2000);                      // first ns of bin 1
  const auto series = meter.series_mbps();
  ASSERT_EQ(series.size(), 2u);
  // 1000 B over a 10 ms bin = 0.8 Mbps; 2000 B = 1.6 Mbps.
  EXPECT_DOUBLE_EQ(series.samples()[0].value, 0.8);
  EXPECT_DOUBLE_EQ(series.samples()[1].value, 1.6);
  EXPECT_EQ(series.samples()[1].at, SimTime::millis(10));
}

TEST(RateMeterEdge, MeanRejectsEmptyInterval) {
  RateMeter meter{SimTime::millis(10)};
  meter.add(SimTime::zero(), 1000);
  EXPECT_THROW(meter.mean_mbps(SimTime::millis(5), SimTime::millis(5)),
               std::invalid_argument);
  EXPECT_THROW(meter.mean_mbps(SimTime::millis(6), SimTime::millis(5)),
               std::invalid_argument);
}

TEST(RateMeterEdge, MeanOverPartialWindowCountsTouchedBins) {
  RateMeter meter{SimTime::millis(10)};
  meter.add(SimTime::zero(), 1000);        // bin 0
  meter.add(SimTime::millis(10), 2000);    // bin 1
  meter.add(SimTime::millis(20), 4000);    // bin 2
  // A window ending mid-bin still includes that whole bin's bytes (bin
  // resolution), normalized by the requested wall time.
  const double mean = meter.mean_mbps(SimTime::zero(), SimTime::millis(15));
  EXPECT_DOUBLE_EQ(mean, (1000.0 + 2000.0) * 8.0 / 0.015 / 1e6);
  // A window past all data returns the full byte count over the span.
  const double all = meter.mean_mbps(SimTime::zero(), SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(all, 7000.0 * 8.0 / 1.0 / 1e6);
}

TEST(RateMeterEdge, DenseStorageStillGrowsOnlyToHighestBin) {
  RateMeter meter{SimTime::millis(10)};
  meter.add(SimTime::millis(250), 100);  // bin 25
  EXPECT_EQ(meter.series_mbps().size(), 26u);
  meter.add(SimTime::millis(30), 100);  // earlier bin: no growth
  EXPECT_EQ(meter.series_mbps().size(), 26u);
}

}  // namespace
}  // namespace trim::stats
