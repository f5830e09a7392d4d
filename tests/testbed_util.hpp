// Helpers shared by the tests that drive a Testbed by hand: run until a
// condition holds, make one blocking call, run a closed-loop client, and
// check the fail-stop tripwire.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "app/testbed.hpp"

namespace cts::app {

/// Run the simulation in 10 ms steps until `pred` holds or `budget` runs out.
inline bool run_until(Testbed& tb, const std::function<bool()>& pred, Micros budget) {
  const Micros deadline = tb.sim().now() + budget;
  while (tb.sim().now() < deadline) {
    tb.sim().run_until(tb.sim().now() + 10'000);
    if (pred()) return true;
  }
  return pred();
}

/// Invoke `request` on the testbed's client and run until the reply
/// arrives.  Returns the reply, or no bytes if `budget` ran out.
inline Bytes call_and_wait(Testbed& tb, Bytes request, Micros budget = 30'000'000) {
  Bytes out;
  bool done = false;
  tb.client().invoke(std::move(request), [&](const Bytes& r) {
    out = r;
    done = true;
  });
  EXPECT_TRUE(run_until(tb, [&] { return done; }, budget)) << "request timed out";
  return out;
}

/// Closed-loop time-server client: think, call, keep the reply.
inline sim::Task drive_client(Testbed& tb, int invocations, std::vector<Bytes>& replies,
                              Micros think_us = 500) {
  for (int i = 0; i < invocations; ++i) {
    co_await tb.sim().delay(think_us);
    replies.push_back(co_await tb.client().call(make_get_time_request()));
  }
}

// The lifecycle-scope fail-stop tripwire: no server may read its hardware
// clock while crashed (scope shutdown cancels every timer and destroys
// every suspended frame the node owned, so nothing is left to read it).
// RAII so every test exit path checks it.
struct FailStopCheck {
  Testbed& tb;
  ~FailStopCheck() {
    for (std::uint32_t s = 0; s < tb.server_count(); ++s) {
      EXPECT_EQ(tb.clock_of(tb.server_node(s)).reads_after_failure(), 0u)
          << "server " << s << " read its clock while crashed";
    }
  }
};

}  // namespace cts::app
