// Tests for the replicated session manager: deterministic ids, TTL
// renewal, deterministic reaping, and consistency across faults.
#include <gtest/gtest.h>

#include "app/session_manager.hpp"
#include "app/testbed.hpp"
#include "testbed_util.hpp"

namespace cts::app {
namespace {

struct SessionBed {
  Testbed tb;

  explicit SessionBed(std::uint64_t seed = 1,
                      replication::ReplicationStyle style = replication::ReplicationStyle::kActive)
      : tb(make_cfg(seed, style)) {
    tb.start();
  }

  static TestbedConfig make_cfg(std::uint64_t seed, replication::ReplicationStyle style) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.style = style;
    cfg.factory = session_manager_factory();
    return cfg;
  }

  SessionReply call(Bytes request, Micros budget = 30'000'000) {
    const Bytes r = call_and_wait(tb, std::move(request), budget);
    return r.empty() ? SessionReply{} : SessionReply::parse(r);
  }

  SessionManagerApp& app(std::uint32_t s) {
    return static_cast<SessionManagerApp&>(tb.server(s).app());
  }

  void expect_identical() {
    tb.sim().run_for(2'000'000);
    for (std::uint32_t s = 1; s < 3; ++s) {
      if (!tb.clock_of(tb.server_node(s)).alive()) continue;
      EXPECT_EQ(app(s).state_digest(), app(0).state_digest()) << "replica " << s;
    }
  }
};

TEST(SessionManagerTest, OpenReturnsIdAndExpiry) {
  SessionBed sb;
  const SessionReply r = sb.call(session_open(50'000));
  EXPECT_EQ(r.status, SessionStatus::kOk);
  EXPECT_NE(r.session_id, 0u);
  EXPECT_GT(r.stamp, 0);
  sb.expect_identical();
}

TEST(SessionManagerTest, QueryFindsOpenSession) {
  SessionBed sb;
  const auto open = sb.call(session_open(1'000'000));
  const auto q = sb.call(session_query(open.session_id));
  EXPECT_EQ(q.status, SessionStatus::kOk);
  EXPECT_EQ(q.session_id, open.session_id);
}

TEST(SessionManagerTest, CloseTerminates) {
  SessionBed sb;
  const auto open = sb.call(session_open(1'000'000));
  EXPECT_EQ(sb.call(session_close(open.session_id)).status, SessionStatus::kOk);
  EXPECT_EQ(sb.call(session_query(open.session_id)).status, SessionStatus::kUnknownSession);
  EXPECT_EQ(sb.call(session_close(open.session_id)).status, SessionStatus::kUnknownSession);
}

// Reaping is lazy: an idle session outlives its deadline until the next
// request reads the group clock, which reaps it at the same stream position
// at every replica before deciding.
TEST(SessionManagerTest, IdleSessionIsReapedAtTheSameGroupTimeEverywhere) {
  SessionBed sb;
  const auto open = sb.call(session_open(20'000));
  sb.tb.sim().run_for(200'000);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sb.app(s).sessions_reaped(), 0u) << "replica " << s << ": nothing read the clock";
  }
  EXPECT_EQ(sb.call(session_query(open.session_id)).status, SessionStatus::kUnknownSession);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sb.app(s).sessions_reaped(), 1u) << "replica " << s;
  }
  sb.expect_identical();
}

TEST(SessionManagerTest, TouchExtendsTheDeadline) {
  SessionBed sb;
  const auto open = sb.call(session_open(30'000));
  // Keep touching within the ttl; the session must survive well past the
  // original deadline.
  for (int i = 0; i < 5; ++i) {
    sb.tb.sim().run_for(15'000);
    EXPECT_EQ(sb.call(session_touch(open.session_id)).status, SessionStatus::kOk) << i;
  }
  EXPECT_EQ(sb.call(session_query(open.session_id)).status, SessionStatus::kOk);
  // Then stop touching: it reaps.
  sb.tb.sim().run_for(200'000);
  EXPECT_EQ(sb.call(session_query(open.session_id)).status, SessionStatus::kUnknownSession);
  sb.expect_identical();
}

TEST(SessionManagerTest, SessionIdsAreUniqueAndDeterministic) {
  SessionBed sb;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto r = sb.call(session_open(10'000'000));
    EXPECT_TRUE(ids.insert(r.session_id).second) << "duplicate session id";
  }
  sb.expect_identical();  // digests include the ids: identical => same ids
}

TEST(SessionManagerTest, CountTracksLiveSessions) {
  SessionBed sb;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(sb.call(session_open(10'000'000)).session_id);
  EXPECT_EQ(sb.call(session_count()).live_count, 4u);
  sb.call(session_close(ids[0]));
  sb.call(session_close(ids[1]));
  EXPECT_EQ(sb.call(session_count()).live_count, 2u);
}

TEST(SessionManagerTest, SurvivesRecoveryWithLiveSessions) {
  SessionBed sb;
  const auto keep = sb.call(session_open(60'000'000));
  const auto doomed = sb.call(session_open(25'000));
  sb.tb.crash_server(2);
  sb.tb.sim().run_for(100'000);  // doomed expires while replica 3 is down
  bool recovered = false;
  sb.tb.restart_server(2, [&] { recovered = true; });
  const Micros deadline = sb.tb.sim().now() + 300'000'000;
  while (!recovered && sb.tb.sim().now() < deadline) {
    sb.tb.sim().run_until(sb.tb.sim().now() + 10'000);
  }
  ASSERT_TRUE(recovered);
  EXPECT_EQ(sb.call(session_query(keep.session_id)).status, SessionStatus::kOk);
  EXPECT_EQ(sb.call(session_query(doomed.session_id)).status, SessionStatus::kUnknownSession);
  sb.expect_identical();
}

// Short sessions keep expiring while a replica crashes, restarts and takes
// a state transfer; every replica must end with the same sessions and the
// same reap count.  A restarted replica used to mint ids from a generator
// count of 0, so sessions opened after its restart had other ids there.
TEST(SessionManagerTest, SessionTtlsStayConsistentAcrossCrashAndRestart) {
  SessionBed sb(5);
  FailStopCheck fail_stop{sb.tb};
  std::vector<std::uint64_t> ids;
  int answered = 0;
  auto issue = [&](int i) {
    Bytes req;
    if (i % 3 == 0 || ids.empty()) {
      req = session_open(5'000 + 3'000 * (i % 7));
    } else if (i % 3 == 1) {
      req = session_touch(ids[static_cast<std::size_t>(i) % ids.size()]);
    } else {
      req = session_query(ids[static_cast<std::size_t>(i) % ids.size()]);
    }
    sb.tb.client().invoke(std::move(req), [&](const Bytes& r) {
      ++answered;
      const SessionReply rep = SessionReply::parse(r);
      if (rep.status == SessionStatus::kOk && rep.session_id != 0) ids.push_back(rep.session_id);
    });
  };
  bool recovered = false;
  for (int i = 0; i < 120; ++i) {
    if (i == 30) sb.tb.crash_server(1);
    if (i == 60) sb.tb.restart_server(1, [&] { recovered = true; });
    issue(i);
    sb.tb.sim().run_for(2'000);
  }
  ASSERT_TRUE(run_until(sb.tb, [&] { return recovered && answered == 120; }, 300'000'000));
  // The restarted replica mints the same id as the others: the id
  // generator's count travels in the checkpoint.
  EXPECT_EQ(sb.call(session_open(60'000'000)).status, SessionStatus::kOk);
  EXPECT_GT(sb.call(session_count()).live_count, 0u);
  sb.tb.sim().run_for(2'000'000);
  for (std::uint32_t s = 1; s < 3; ++s) {
    EXPECT_EQ(sb.app(s).state_digest(), sb.app(0).state_digest()) << "replica " << s;
    EXPECT_EQ(sb.app(s).sessions_reaped(), sb.app(0).sessions_reaped()) << "replica " << s;
  }
  EXPECT_GT(sb.app(0).sessions_reaped(), 0u);
}

TEST(SessionManagerTest, FailoverKeepsSessionDecisionsConsistent) {
  SessionBed sb(3, replication::ReplicationStyle::kSemiActive);
  const auto open = sb.call(session_open(60'000'000));
  for (std::uint32_t s = 0; s < 3; ++s) {
    if (sb.tb.server(s).is_primary()) sb.tb.crash_server(s);
  }
  sb.tb.sim().run_for(2'000'000);
  EXPECT_EQ(sb.call(session_query(open.session_id)).status, SessionStatus::kOk);
  EXPECT_EQ(sb.call(session_touch(open.session_id)).status, SessionStatus::kOk);
}

TEST(SessionManagerTest, BadRequestsRejected) {
  SessionBed sb;
  EXPECT_EQ(sb.call(session_open(0)).status, SessionStatus::kBadRequest);
  EXPECT_EQ(sb.call(Bytes{77}).status, SessionStatus::kBadRequest);
  sb.expect_identical();
}

}  // namespace
}  // namespace cts::app
