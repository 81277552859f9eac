// Transport-plane unit tests: the in-process transport contract — arrival
// times at NetworkModel transfer times, fault fates per hop drawn at send,
// receiver states drawn when an arrival fires.
#include "runtime/transport.hpp"

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "net/network_model.hpp"

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
  Transport t(net_);
  const Message m = hop(1, 0, 1, 2.0);
  const double expected = net_.transfer_time_s(0, 1, 1000.0, 1);
  EXPECT_DOUBLE_EQ(t.transfer_time_s(m), expected);
  const auto outcome = t.send(m);
  EXPECT_FALSE(outcome.dropped);
  EXPECT_EQ(outcome.copies, 1u);
  EXPECT_DOUBLE_EQ(outcome.arrive_s, 2.0 + expected);
  // A caller that cached the transfer time gets the same arrival, bit for
  // bit.
  EXPECT_EQ(t.send(m, t.transfer_time_s(m)).arrive_s, outcome.arrive_s);
  EXPECT_EQ(t.receive(m.msg, m.to, outcome.arrive_s),
            fault::ReceiveState::kOk);
}

TEST_F(InProcTransportTest, DroppedHopProducesNoArrival) {
  fault::FaultSpec spec;
  spec.drop = 1.0;
  fault::FaultPlan plan(spec, 11, 16);
  Transport t(net_, &plan);
  const auto outcome = t.send(hop(1, 0, 1, 0.0));
  EXPECT_TRUE(outcome.dropped);
  EXPECT_EQ(outcome.copies, 0u);
  EXPECT_GT(outcome.arrive_s, 0.0);  // when it would have landed
}

TEST_F(InProcTransportTest, DuplicatedHopArrivesTwiceUnlessCollapsed) {
  fault::FaultSpec spec;
  spec.duplicate = 1.0;
  fault::FaultPlan plan(spec, 11, 16);
  Transport t(net_, &plan);
  EXPECT_EQ(t.send(hop(1, 0, 1, 0.0)).copies, 2u);

  auto collapsed_hop = hop(2, 0, 1, 0.0);
  collapsed_hop.collapse_duplicates = true;
  EXPECT_EQ(t.send(collapsed_hop).copies, 1u);
}

TEST_F(InProcTransportTest, ReceiverStateIsDrawnAtArrival) {
  fault::FaultSpec spec;
  spec.stall = 1.0;
  spec.stall_s = 5.0;
  fault::FaultPlan plan(spec, 11, 16);
  Transport t(net_, &plan);
  const Message m = hop(1, 0, 1, 0.0);
  const auto outcome = t.send(m);
  ASSERT_EQ(outcome.copies, 1u);
  EXPECT_EQ(t.receive(m.msg, m.to, outcome.arrive_s),
            fault::ReceiveState::kStalled);
}

TEST_F(InProcTransportTest, UplinkShareSlowsTransfers) {
  Transport t(net_);
  auto shared = hop(1, 0, 1, 0.0);
  shared.uplink_share = 4;
  const auto slow = t.send(shared);
  const auto fast = t.send(hop(2, 0, 1, 0.0));
  EXPECT_GT(slow.arrive_s, fast.arrive_s);
}

}  // namespace
}  // namespace sel::runtime
