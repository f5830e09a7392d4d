// Allocation-accounting tests for the hot-path overhaul: this binary
// replaces the global operator new/delete with byte-counting versions and
// asserts the zero-copy / allocation-free contracts directly:
//
//   * a broadcast allocates the payload buffer ONCE, shared read-only by
//     every receiver (historically: one copy per receiver plus one per
//     scheduled delivery closure);
//   * a unicast send allocates the payload once, not twice (the historical
//     double copy: caller -> send() -> deliver closure);
//   * scheduling events whose closures fit InlineFn's 48-byte inline buffer
//     allocates nothing at steady state (the event arena is warm);
//   * an unfragmented GCS send sizes its wire buffer once.
//
// Every measurement runs after a warm-up round so one-time arena growth
// (event-heap slots, NIC queues) is excluded; what remains is the per-send
// cost the tentpole optimizes.  The counters live in this test binary only;
// nothing in the library links against them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "gcs/gcs.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_payload_sized_allocs{0};  // >= kPayloadThreshold

constexpr std::size_t kPayloadThreshold = 1300;  // just under the 1400B MTU payloads below

void note_alloc(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n >= kPayloadThreshold) g_payload_sized_allocs.fetch_add(1, std::memory_order_relaxed);
}

struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t bytes;
  std::uint64_t payload_sized;
};

AllocSnapshot snap() {
  return {g_alloc_calls.load(), g_alloc_bytes.load(), g_payload_sized_allocs.load()};
}

}  // namespace

// GCC pairs new-expressions with the replaced operator delete below and
// (wrongly) warns that free() does not match; malloc/free is exactly what
// both replacements use.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  note_alloc(n);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  note_alloc(n);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cts::net {
namespace {

TEST(AllocTest, BroadcastPayloadAllocatedOnceForAllReceivers) {
  sim::Simulator sim{1};
  NetworkConfig cfg;
  Network net(sim, cfg);
  std::size_t delivered = 0;
  std::size_t delivered_bytes = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    net.attach(NodeId{i}, [&](NodeId, const SharedBytes& b) {
      ++delivered;
      delivered_bytes += b.size();
    });
  }
  net.broadcast(NodeId{0}, Bytes(1400, 0x5a));  // warm-up: grows arenas once
  sim.run();
  ASSERT_EQ(delivered, 8u);

  const AllocSnapshot before = snap();
  net.broadcast(NodeId{0}, Bytes(1400, 0x5a));
  sim.run();
  const AllocSnapshot after = snap();
  ASSERT_EQ(delivered, 16u);
  ASSERT_EQ(delivered_bytes, 16u * 1400u);
  // Exactly one payload-sized buffer: the Bytes constructed above.  Every
  // receiver observed the same refcounted allocation.
  EXPECT_EQ(after.payload_sized - before.payload_sized, 1u);
}

TEST(AllocTest, UnicastPayloadAllocatedOnceNotTwice) {
  sim::Simulator sim{1};
  NetworkConfig cfg;
  Network net(sim, cfg);
  std::size_t delivered_bytes = 0;
  net.attach(NodeId{0}, [&](NodeId, const SharedBytes&) {});
  net.attach(NodeId{1}, [&](NodeId, const SharedBytes& b) { delivered_bytes += b.size(); });
  net.send(NodeId{0}, NodeId{1}, Bytes(2048, 0x11));  // warm-up
  sim.run();
  ASSERT_EQ(delivered_bytes, 2048u);

  const AllocSnapshot before = snap();
  net.send(NodeId{0}, NodeId{1}, Bytes(2048, 0x11));
  sim.run();
  const AllocSnapshot after = snap();
  ASSERT_EQ(delivered_bytes, 2u * 2048u);
  // The historical path copied the payload into the deliver closure on top
  // of the caller's buffer; the SharedBytes path allocates exactly once.
  EXPECT_EQ(after.payload_sized - before.payload_sized, 1u);
}

TEST(AllocTest, InlineEventSchedulingIsAllocationFreeAtSteadyState) {
  sim::Simulator sim{1};
  std::uint64_t fired = 0;
  struct Capture {  // the counter pointer + 32 bytes of payload = 40 bytes
    std::uint64_t* fired;
    std::uint64_t pad[4];
  };
  static_assert(sizeof(Capture) <= sim::InlineFn::kInlineSize);
  auto schedule_round = [&] {
    for (int i = 0; i < 256; ++i) {
      sim.after(static_cast<cts::Micros>(i % 7),
                [c = Capture{&fired, {1, 2, 3, 4}}] { ++*c.fired; });
    }
    sim.run();
  };
  schedule_round();  // warm-up: grows the heap array and slot arena once
  const AllocSnapshot before = snap();
  schedule_round();
  const AllocSnapshot after = snap();
  EXPECT_EQ(fired, 512u);
  EXPECT_EQ(after.calls - before.calls, 0u)
      << "scheduling inline-capture events allocated " << (after.bytes - before.bytes)
      << " bytes at steady state";
}

TEST(AllocTest, BroadcastDeliveryClosuresDoNotAllocateAtSteadyState) {
  // End-to-end: after warm-up, a broadcast's per-receiver deliveries ride
  // entirely on inline closures + the shared payload.  Handing the payload
  // in by move leaves only the SharedBytes control block as a permissible
  // small allocation; the buffer itself is moved, the closures are inline.
  sim::Simulator sim{1};
  NetworkConfig cfg;
  Network net(sim, cfg);
  std::size_t delivered = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    net.attach(NodeId{i}, [&](NodeId, const SharedBytes&) { ++delivered; });
  }
  Bytes payload(1400, 0x33);
  net.broadcast(NodeId{0}, payload);  // warm-up (copies: payload reused below)
  sim.run();
  const AllocSnapshot before = snap();
  net.broadcast(NodeId{0}, std::move(payload));
  sim.run();
  const AllocSnapshot after = snap();
  ASSERT_EQ(delivered, 16u);
  EXPECT_EQ(after.payload_sized - before.payload_sized, 0u);
  EXPECT_LE(after.calls - before.calls, 2u)
      << "broadcast delivery allocated " << (after.bytes - before.bytes) << " bytes";
}

TEST(AllocTest, UnfragmentedGcsSendAllocatesAFixedSmallNumberOfTimes) {
  // Two nodes form a ring; node 0 multicasts 200-byte messages.  The send
  // itself (not the delivery) allocates the wire buffer once, reserved to
  // header + payload, plus the message's Totem handle list.  Growing the
  // wire buffer field by field used to reallocate it several times.
  sim::Simulator sim{1};
  Network net(sim, {});
  totem::TotemConfig tcfg;
  tcfg.universe = {NodeId{0}, NodeId{1}};
  std::vector<std::unique_ptr<totem::TotemNode>> totems;
  std::vector<std::unique_ptr<gcs::GcsEndpoint>> eps;
  for (std::uint32_t i = 0; i < 2; ++i) {
    totems.push_back(std::make_unique<totem::TotemNode>(sim, net, NodeId{i}, tcfg));
    eps.push_back(std::make_unique<gcs::GcsEndpoint>(sim, *totems.back()));
    totems.back()->start();
  }
  std::size_t delivered = 0;
  eps[1]->subscribe(GroupId{1}, [&](const gcs::Message&) { ++delivered; });
  sim.run_for(100'000);

  MsgSeqNum seq = 0;
  const auto message = [&] {
    gcs::Message m;
    m.hdr.type = gcs::MsgType::kUserRequest;
    m.hdr.src_grp = GroupId{2};
    m.hdr.dst_grp = GroupId{1};
    m.hdr.conn = ConnectionId{1};
    m.hdr.seq = ++seq;
    m.payload = Bytes(200, 0x42);
    return m;
  };
  for (int i = 0; i < 8; ++i) {  // warm-up: grows the pending and send queues
    eps[0]->send(message());
    sim.run_for(10'000);
  }
  ASSERT_EQ(delivered, 8u);

  gcs::Message m = message();
  const AllocSnapshot before = snap();
  eps[0]->send(std::move(m));
  const AllocSnapshot after = snap();
  EXPECT_EQ(after.calls - before.calls, 2u)
      << "one send allocated " << (after.bytes - before.bytes) << " bytes";
  sim.run_for(10'000);
  EXPECT_EQ(delivered, 9u);
}

}  // namespace
}  // namespace cts::net
