// Tests for the mini-ORB: invocation/reply matching, duplicate-reply
// suppression, and timed remote method invocations.
#include <gtest/gtest.h>

#include "app/testbed.hpp"
#include "testbed_util.hpp"

namespace cts::orb {
namespace {

using app::Testbed;
using app::TestbedConfig;

TEST(RmiClientTest, InvokeReceivesReply) {
  Testbed tb({});
  tb.start();
  Bytes reply;
  bool got = false;
  tb.client().invoke(app::make_get_time_request(), [&](const Bytes& r) {
    reply = r;
    got = true;
  });
  ASSERT_TRUE(run_until(tb, [&] { return got; }, 10'000'000));
  EXPECT_FALSE(reply.empty());
  EXPECT_EQ(tb.client().replies(), 1u);
}

TEST(RmiClientTest, ConcurrentInvocationsMatchBySequence) {
  Testbed tb({});
  tb.start();
  std::map<MsgSeqNum, std::uint64_t> counters;
  int got = 0;
  for (int i = 0; i < 5; ++i) {
    const auto seq = tb.client().invoke(app::make_get_counter_request(), [&, i](const Bytes& r) {
      BytesReader rd(r);
      (void)i;
      ++got;
      counters[static_cast<MsgSeqNum>(got)] = rd.u64();
    });
    (void)seq;
  }
  ASSERT_TRUE(run_until(tb, [&] { return got == 5; }, 20'000'000));
  EXPECT_EQ(tb.client().invocations(), 5u);
}

TEST(RmiClientTest, TimedInvocationSucceedsWhenServerIsUp) {
  Testbed tb({});
  tb.start();
  bool got = false, timed_out = false;
  tb.client().invoke(
      app::make_get_time_request(), [&](const Bytes&) { got = true; },
      /*timeout_us=*/50'000, [&] { timed_out = true; });
  tb.sim().run_for(100'000);
  EXPECT_TRUE(got);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(tb.client().timeouts(), 0u);
}

TEST(RmiClientTest, TimedInvocationTimesOutWhenAllServersDead) {
  Testbed tb({});
  tb.start();
  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  tb.sim().run_for(100'000);

  bool got = false, timed_out = false;
  tb.client().invoke(
      app::make_get_time_request(), [&](const Bytes&) { got = true; },
      /*timeout_us=*/30'000, [&] { timed_out = true; });
  tb.sim().run_for(200'000);
  EXPECT_FALSE(got);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(tb.client().timeouts(), 1u);
}

TEST(RmiClientTest, LateReplyAfterTimeoutIsDiscarded) {
  // Partition the client away, let the invocation time out, then heal: the
  // reply eventually arrives but must not fire the (consumed) callback.
  Testbed tb({});
  tb.start();
  int replies = 0, timeouts = 0;
  tb.net().partition({{NodeId{0}}, {NodeId{1}, NodeId{2}, NodeId{3}}});
  tb.client().invoke(
      app::make_get_time_request(), [&](const Bytes&) { ++replies; },
      /*timeout_us=*/20'000, [&] { ++timeouts; });
  tb.sim().run_for(100'000);
  EXPECT_EQ(timeouts, 1);
  tb.net().heal();
  bool got2 = false;
  tb.client().invoke(app::make_get_counter_request(), [&](const Bytes&) { got2 = true; });
  ASSERT_TRUE(run_until(tb, [&] { return got2; }, 20'000'000));
  // The first invocation's reply arrived after the merge but its callback
  // was consumed by the timeout: it must NOT fire.
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(timeouts, 1);
}

sim::Task timed_call(Testbed& tb, Micros timeout, std::optional<Bytes>& out, bool& done) {
  out = co_await tb.client().call_with_timeout(app::make_get_time_request(), timeout);
  done = true;
}

TEST(RmiClientTest, AwaitableTimedCallReturnsValue) {
  Testbed tb({});
  tb.start();
  std::optional<Bytes> out;
  bool done = false;
  timed_call(tb, 100'000, out, done);
  ASSERT_TRUE(run_until(tb, [&] { return done; }, 10'000'000));
  EXPECT_TRUE(out.has_value());
}

TEST(RmiClientTest, AwaitableTimedCallReturnsNulloptOnTimeout) {
  Testbed tb({});
  tb.start();
  for (std::uint32_t s = 0; s < 3; ++s) tb.crash_server(s);
  std::optional<Bytes> out = Bytes{1};  // sentinel: must be overwritten
  bool done = false;
  timed_call(tb, 30'000, out, done);
  ASSERT_TRUE(run_until(tb, [&] { return done; }, 10'000'000));
  EXPECT_FALSE(out.has_value());
}

TEST(RmiClientTest, ReplicatedClientGroupInvokesOnce) {
  // The paper's client is unreplicated, but the connection machinery
  // supports replicated clients for free: two client replicas issue the
  // SAME logical invocation (same conn, tag, seq); duplicate suppression
  // collapses the copies, the server processes once, and the reply reaches
  // both client replicas.
  TestbedConfig cfg;
  cfg.servers = 2;  // nodes n1, n2; we add client replicas on n0 and... n0 only has one
  Testbed tb(cfg);
  tb.start();

  // Build a second client endpoint ON SERVER NODE n2's host (any host can
  // also run a client replica of the same client group).
  orb::RmiClient client2(tb.sim(), tb.gcs_of(tb.server_node(1)), app::TestbedIds::kClientGroup,
                         app::TestbedIds::kServerGroup, app::TestbedIds::kRequestConn);

  int got1 = 0, got2 = 0;
  tb.client().invoke(app::make_get_time_request(), [&](const Bytes&) { ++got1; });
  client2.invoke(app::make_get_time_request(), [&](const Bytes&) { ++got2; });
  ASSERT_TRUE(run_until(tb, [&] { return got1 == 1 && got2 == 1; }, 30'000'000));
  tb.sim().run_for(2'000'000);

  // The server group processed the logical invocation exactly once.
  std::uint64_t processed = 0;
  for (std::uint32_t s = 0; s < 2; ++s) {
    processed = std::max(processed, tb.server(s).stats().requests_processed);
  }
  EXPECT_EQ(processed, 1u);
  // And at most one request copy reached the wire (suppression), at least one.
  const auto wire = tb.gcs_of(0).stats().on_wire(gcs::MsgType::kUserRequest) +
                    tb.gcs_of(tb.server_node(1)).stats().on_wire(gcs::MsgType::kUserRequest);
  EXPECT_GE(wire, 1u);
  EXPECT_LE(wire, 2u);
}

TEST(RmiClientTest, SurvivesOneServerCrashTransparently) {
  // Active replication: any replica's reply serves the client; a single
  // crash is invisible apart from latency.
  Testbed tb({});
  tb.start();
  bool got = false;
  tb.crash_server(1);
  tb.client().invoke(app::make_get_time_request(), [&](const Bytes&) { got = true; });
  ASSERT_TRUE(run_until(tb, [&] { return got; }, 30'000'000));
}

}  // namespace
}  // namespace cts::orb
