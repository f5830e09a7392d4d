// Example: a replicated key-value store whose leases live on the group
// clock.
//
// Two services compete for ownership of a configuration key.  Lease grant,
// refusal, hand-off after expiry, and write fencing are all decided with
// group-clock readings, so the three replicas of the store agree on every
// decision — including the exact group time at which the lease expires —
// even though their hardware clocks disagree by hundreds of milliseconds.
//
// Run: ./build/examples/kv_leases
#include <cstdio>

#include "app/kv_store.hpp"
#include "app/testbed.hpp"

using namespace cts;
using namespace cts::app;

namespace {

KvReply call(Testbed& tb, Bytes req) {
  KvReply out;
  bool done = false;
  tb.client().invoke(std::move(req), [&](const Bytes& r) {
    out = KvReply::parse(r);
    done = true;
  });
  while (!done) tb.sim().run_until(tb.sim().now() + 10'000);
  return out;
}

}  // namespace

int main() {
  std::printf("== Replicated KV store with group-clock leases ==\n\n");

  TestbedConfig cfg;
  cfg.factory = kv_store_factory();
  cfg.max_clock_offset_us = 400'000;
  Testbed tb(cfg);
  tb.start();

  constexpr std::uint64_t kServiceA = 0xA;
  constexpr std::uint64_t kServiceB = 0xB;

  std::printf("service A acquires 'config' for 30ms of group time...\n");
  KvReply r = call(tb, kv_acquire("config", kServiceA, 30'000));
  std::printf("  -> %s (expires at group time ...%lld)\n", to_string(r.status),
              (long long)(r.lease_expiry % 1'000'000));

  std::printf("service A writes under its lease...\n");
  r = call(tb, kv_put("config", "A-settings", kServiceA));
  std::printf("  -> %s (version %llu)\n", to_string(r.status), (unsigned long long)r.version);

  std::printf("service B tries to write -> fenced:\n");
  r = call(tb, kv_put("config", "B-settings", kServiceB));
  std::printf("  -> %s\n", to_string(r.status));

  std::printf("service B tries to acquire -> refused:\n");
  r = call(tb, kv_acquire("config", kServiceB, 30'000));
  std::printf("  -> %s\n", to_string(r.status));

  std::printf("\n...40ms of simulated time passes; the lease expires at the SAME group\n"
              "time at every replica (deterministic timers)...\n\n");
  tb.sim().run_for(40'000);

  std::printf("service B acquires again -> granted:\n");
  r = call(tb, kv_acquire("config", kServiceB, 30'000));
  std::printf("  -> %s\n", to_string(r.status));

  r = call(tb, kv_put("config", "B-settings", kServiceB));
  std::printf("service B writes -> %s (version %llu)\n", to_string(r.status),
              (unsigned long long)r.version);

  // Final consistency check across replicas.
  tb.sim().run_for(2'000'000);
  bool identical = true;
  for (std::uint32_t s = 1; s < 3; ++s) {
    identical &= tb.server(s).app().state_digest() == tb.server(0).app().state_digest();
  }
  std::printf("\nexpired leases observed per replica: %llu / %llu / %llu (must match)\n",
              (unsigned long long)static_cast<KvStoreApp&>(tb.server(0).app()).leases_expired(),
              (unsigned long long)static_cast<KvStoreApp&>(tb.server(1).app()).leases_expired(),
              (unsigned long long)static_cast<KvStoreApp&>(tb.server(2).app()).leases_expired());
  std::printf("replica state digests identical: %s\n", identical ? "YES" : "NO (bug!)");
  return identical ? 0 : 1;
}
