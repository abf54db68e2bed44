#include <gtest/gtest.h>

#include "stats/flow_stats.hpp"

namespace trim::stats {
namespace {

using sim::SimTime;

TEST(FlowStats, MessageLifecycle) {
  FlowStats fs;
  const auto id = fs.begin_message(1000, SimTime::millis(10));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(fs.completed_messages(), 0u);
  EXPECT_EQ(fs.incomplete_messages(), 1u);
  fs.complete_message(id, SimTime::millis(25));
  EXPECT_EQ(fs.completed_messages(), 1u);
  EXPECT_EQ(fs.incomplete_messages(), 0u);
  const auto times = fs.completed_message_times();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], SimTime::millis(15));
}

TEST(FlowStats, IdsAreSequential) {
  FlowStats fs;
  EXPECT_EQ(fs.begin_message(1, SimTime::zero()), 0u);
  EXPECT_EQ(fs.begin_message(2, SimTime::zero()), 1u);
  EXPECT_EQ(fs.begin_message(3, SimTime::zero()), 2u);
  EXPECT_EQ(fs.messages().size(), 3u);
  EXPECT_EQ(fs.messages()[1].bytes, 2u);
}

TEST(FlowStats, CompletedTimesSkipUnfinished) {
  FlowStats fs;
  fs.begin_message(1, SimTime::zero());
  const auto b = fs.begin_message(2, SimTime::millis(1));
  fs.complete_message(b, SimTime::millis(3));
  EXPECT_EQ(fs.completed_message_times().size(), 1u);
  EXPECT_EQ(fs.completed_messages(), 1u);
  EXPECT_EQ(fs.incomplete_messages(), 1u);
}

TEST(FlowStats, DoubleCompletionThrows) {
  FlowStats fs;
  const auto id = fs.begin_message(1, SimTime::zero());
  fs.complete_message(id, SimTime::millis(1));
  EXPECT_THROW(fs.complete_message(id, SimTime::millis(2)), std::logic_error);
  EXPECT_THROW(fs.complete_message(99, SimTime::millis(2)), std::out_of_range);
  EXPECT_EQ(fs.completed_messages(), 1u);  // a rejected completion is not counted
}

TEST(MessageRecord, CompletionTimeArithmetic) {
  MessageRecord rec;
  rec.start = SimTime::millis(100);
  rec.completed = SimTime::millis(142);
  EXPECT_TRUE(rec.done());
  EXPECT_EQ(rec.completion_time(), SimTime::millis(42));
}

}  // namespace
}  // namespace trim::stats
