#include <gtest/gtest.h>

#include "stats/cdf.hpp"
#include "stats/rate_meter.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/time_series.hpp"

namespace trim::stats {
namespace {

using sim::SimTime;

// ---------- TimeSeries ----------

TEST(TimeSeries, RecordsAndReportsExtremes) {
  TimeSeries ts;
  ts.record(SimTime::millis(1), 5.0);
  ts.record(SimTime::millis(2), 9.0);
  ts.record(SimTime::millis(3), 1.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.max_value(), 9.0);
  EXPECT_DOUBLE_EQ(ts.min_value(), 1.0);
}

TEST(TimeSeries, TimeWeightedMeanIsStepIntegral) {
  TimeSeries ts;
  // 10 for 1 ms, then 20 for 3 ms => (10*1 + 20*3)/4 = 17.5
  ts.record(SimTime::millis(0), 10.0);
  ts.record(SimTime::millis(1), 20.0);
  ts.record(SimTime::millis(4), 0.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(), 17.5);
}

TEST(TimeSeries, ValueAtUsesStepInterpolation) {
  TimeSeries ts;
  ts.record(SimTime::millis(1), 10.0);
  ts.record(SimTime::millis(5), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(0)), 10.0);  // before first
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(3)), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(5)), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(9)), 20.0);
}

TEST(TimeSeries, DownsampleBoundsPointCount) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.record(SimTime::micros(i), i);
  const auto small = ts.downsampled(100);
  EXPECT_LE(small.size(), 101u);  // every k-th sample plus the endpoint
  EXPECT_GE(small.size(), 90u);
  EXPECT_DOUBLE_EQ(small.samples().front().value, 0.0);
}

TEST(TimeSeries, DownsamplePreservesTheFinalSample) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.record(SimTime::micros(i), i);
  ts.record(SimTime::micros(1000), 777.0);  // endpoint spike
  const auto small = ts.downsampled(100);
  EXPECT_DOUBLE_EQ(small.samples().back().value, 777.0);
  // No limit means an identical copy.
  EXPECT_EQ(ts.downsampled(0).size(), ts.size());
}

TEST(TimeSeries, EmptyAndSingleSampleEdgeCases) {
  TimeSeries ts;
  EXPECT_THROW(ts.max_value(), std::logic_error);
  EXPECT_THROW(ts.min_value(), std::logic_error);
  EXPECT_THROW(ts.time_weighted_mean(), std::logic_error);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::zero()), 0.0);  // empty: no throw
  EXPECT_TRUE(ts.downsampled(10).empty());

  ts.record(SimTime::millis(2), 4.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(1)), 4.0);  // before first
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(2)), 4.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::millis(9)), 4.0);  // after last
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(), 4.0);
}

TEST(TimeSeries, ChunkedStorageStaysContiguousAcrossBoundaries) {
  // Cross several 4096-sample chunk boundaries and verify the span view
  // and the queries still see one ordered series.
  TimeSeries ts;
  const int n = 3 * 4096 + 17;
  for (int i = 0; i < n; ++i) ts.record(SimTime::micros(i), i);
  const auto view = ts.samples();
  ASSERT_EQ(view.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(view[i].value, i);
  EXPECT_DOUBLE_EQ(ts.max_value(), n - 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(SimTime::micros(5000)), 5000.0);
  // The view cache must refresh after further appends.
  ts.record(SimTime::micros(n), 12345.0);
  EXPECT_DOUBLE_EQ(ts.samples().back().value, 12345.0);
}

// ---------- RateMeter ----------

TEST(RateMeter, ComputesMbpsPerBin) {
  RateMeter meter{SimTime::millis(10)};
  meter.add(SimTime::millis(5), 125'000);   // 1e6 bits in a 10 ms bin = 100 Mbps
  meter.add(SimTime::millis(15), 250'000);  // 200 Mbps
  const auto series = meter.series_mbps();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series.samples()[0].value, 100.0, 1e-9);
  EXPECT_NEAR(series.samples()[1].value, 200.0, 1e-9);
}

TEST(RateMeter, MeanOverWindow) {
  RateMeter meter{SimTime::millis(10)};
  for (int i = 0; i < 10; ++i) meter.add(SimTime::millis(10 * i), 125'000);
  // 1.25 MB over 100 ms = 100 Mbps.
  EXPECT_NEAR(meter.mean_mbps(SimTime::zero(), SimTime::millis(100)), 100.0, 1e-9);
  EXPECT_EQ(meter.total_bytes(), 1'250'000u);
}

TEST(RateMeter, RejectsBadInput) {
  RateMeter meter{SimTime::millis(10)};
  EXPECT_THROW(meter.add(SimTime::zero() - SimTime::millis(1), 10), std::invalid_argument);
  EXPECT_THROW(meter.mean_mbps(SimTime::millis(5), SimTime::millis(5)),
               std::invalid_argument);
}

// ---------- Cdf ----------

TEST(Cdf, QuantilesOfKnownData) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 50.5);
}

TEST(Cdf, FractionLeqMatchesDefinition) {
  Cdf cdf;
  cdf.add_all(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.fraction_leq(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_leq(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_leq(10.0), 1.0);
}

TEST(Cdf, InterleavedAddAndQuery) {
  Cdf cdf;
  cdf.add(5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  cdf.add(1.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
}

TEST(Cdf, ToTableHasRequestedRows) {
  Cdf cdf;
  for (int i = 0; i < 50; ++i) cdf.add(i);
  const auto table = cdf.to_table(5);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);
}

TEST(Cdf, EmptyThrows) {
  Cdf cdf;
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
  EXPECT_THROW(cdf.mean(), std::logic_error);
}

// ---------- Summary ----------

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(JainIndex, PerfectAndSkewedShares) {
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<double>{10, 10, 10, 10}), 1.0);
  // One flow hogs everything: index -> 1/n.
  EXPECT_NEAR(jain_fairness_index(std::vector<double>{100, 0, 0, 0}), 0.25, 1e-9);
  EXPECT_THROW(jain_fairness_index({}), std::invalid_argument);
}

// ---------- Table ----------

TEST(Table, RendersAlignedAscii) {
  Table t{{"proto", "act"}};
  t.add_row({"TCP", "162.3"});
  t.add_row({"TCP-TRIM", "2.2"});
  const auto out = t.render();
  EXPECT_NE(out.find("| TCP      |"), std::string::npos);
  EXPECT_NE(out.find("| TCP-TRIM |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(42), "42");
}

}  // namespace
}  // namespace trim::stats
