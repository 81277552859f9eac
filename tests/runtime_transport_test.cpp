// Transport-plane unit tests: the in-process transport contract — arrival
// scheduling at NetworkModel transfer times and fault fates per hop.
#include "runtime/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "net/network_model.hpp"
#include "runtime/event_engine.hpp"

namespace sel::runtime {
namespace {

class InProcTransportTest : public ::testing::Test {
 protected:
  static Message hop(std::uint64_t msg, std::uint32_t from, std::uint32_t to,
                     double send_s) {
    Message m;
    m.msg = msg;
    m.from = from;
    m.to = to;
    m.payload_bytes = 1000.0;
    m.send_s = send_s;
    return m;
  }

  net::NetworkModel net_{16, 7};
};

TEST_F(InProcTransportTest, ArrivalLandsAtTransferTime) {
  EventEngine engine;
  Transport t(engine, net_);
  std::vector<Arrival> arrivals;
  const auto outcome = t.send(
      hop(1, 0, 1, 0.0), [&arrivals](const Arrival& a) {
        arrivals.push_back(a);
      });
  EXPECT_FALSE(outcome.dropped);
  EXPECT_EQ(outcome.copies, 1u);
  const double expected = net_.transfer_time_s(0, 1, 1000.0, 1);
  EXPECT_DOUBLE_EQ(outcome.arrive_s, expected);
  // Never synchronous: the completion fires from the event engine.
  ASSERT_TRUE(arrivals.empty());
  engine.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0].arrive_s, expected);
  EXPECT_EQ(arrivals[0].receiver, fault::ReceiveState::kOk);
}

TEST_F(InProcTransportTest, DroppedHopProducesNoArrival) {
  EventEngine engine;
  fault::FaultSpec spec;
  spec.drop = 1.0;
  fault::FaultPlan plan(spec, 11, 16);
  Transport t(engine, net_, &plan);
  int arrivals = 0;
  const auto outcome =
      t.send(hop(1, 0, 1, 0.0), [&arrivals](const Arrival&) { ++arrivals; });
  EXPECT_TRUE(outcome.dropped);
  EXPECT_EQ(outcome.copies, 0u);
  EXPECT_GT(outcome.arrive_s, 0.0);  // when it would have landed
  EXPECT_EQ(engine.run(), 0u);
  EXPECT_EQ(arrivals, 0);
}

TEST_F(InProcTransportTest, DuplicatedHopArrivesTwiceUnlessCollapsed) {
  EventEngine engine;
  fault::FaultSpec spec;
  spec.duplicate = 1.0;
  fault::FaultPlan plan(spec, 11, 16);
  Transport t(engine, net_, &plan);
  int arrivals = 0;
  const auto outcome =
      t.send(hop(1, 0, 1, 0.0), [&arrivals](const Arrival&) { ++arrivals; });
  EXPECT_EQ(outcome.copies, 2u);
  engine.run();
  EXPECT_EQ(arrivals, 2);

  auto collapsed_hop = hop(2, 0, 1, engine.now_s());
  collapsed_hop.collapse_duplicates = true;
  int collapsed = 0;
  const auto c = t.send(collapsed_hop,
                        [&collapsed](const Arrival&) { ++collapsed; });
  EXPECT_EQ(c.copies, 1u);
  engine.run();
  EXPECT_EQ(collapsed, 1);
}

TEST_F(InProcTransportTest, ReceiverStateIsDrawnAtArrival) {
  EventEngine engine;
  fault::FaultSpec spec;
  spec.stall = 1.0;
  spec.stall_s = 5.0;
  fault::FaultPlan plan(spec, 11, 16);
  Transport t(engine, net_, &plan);
  std::vector<Arrival> arrivals;
  t.send(hop(1, 0, 1, 0.0),
         [&arrivals](const Arrival& a) { arrivals.push_back(a); });
  engine.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].receiver, fault::ReceiveState::kStalled);
}

TEST_F(InProcTransportTest, UplinkShareSlowsTransfers) {
  EventEngine engine;
  Transport t(engine, net_);
  auto shared = hop(1, 0, 1, 0.0);
  shared.uplink_share = 4;
  const auto slow = t.send(shared, [](const Arrival&) {});
  const auto fast = t.send(hop(2, 0, 1, 0.0), [](const Arrival&) {});
  EXPECT_GT(slow.arrive_s, fast.arrive_s);
  engine.run();
}

}  // namespace
}  // namespace sel::runtime
