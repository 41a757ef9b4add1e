// The idle-transmitter fast path and the rearm_current primitive: a packet
// passes straight through only where plain enqueue would accept it into an
// empty queue, the depth an enqueue tap reads includes the admitted packet
// whether it passed through or was queued, and rearm_current fires at
// exactly the times repeated schedule_in calls would.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace fatih::sim {
namespace {

using util::Duration;
using util::NodeId;
using util::SimTime;

Packet packet_of(std::uint32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

TEST(DropTailQueue, PassThroughOnlyWhenEmptyAndFitting) {
  DropTailQueue q(2000);
  EXPECT_TRUE(q.pass_through(packet_of(1000), {}));
  EXPECT_TRUE(q.pass_through(packet_of(2000), {}));  // exact fit
  EXPECT_FALSE(q.pass_through(packet_of(2001), {}));
  // Control packets bypass the byte limit, exactly as enqueue admits them.
  Packet ctl = packet_of(5000);
  ctl.hdr.proto = Protocol::kControl;
  EXPECT_TRUE(q.pass_through(ctl, {}));
  // Occupied queue: never pass through (FIFO order would be violated).
  q.enqueue(packet_of(100), {});
  EXPECT_FALSE(q.pass_through(packet_of(100), {}));
}

// Two routers connected by one duplex link (same shape as network_test).
struct Pair {
  Network net{1};
  Router* a;
  Router* b;

  explicit Pair(LinkConfig cfg = {}) {
    a = &net.add_router("a");
    b = &net.add_router("b");
    net.connect(a->id(), b->id(), cfg);
    a->set_route(b->id(), 0);
    b->set_route(a->id(), 0);
    a->set_processing_delay(Duration::micros(10), {});
    b->set_processing_delay(Duration::micros(10), {});
  }

  Packet make(NodeId src, NodeId dst, std::uint32_t payload) {
    PacketHeader hdr;
    hdr.src = src;
    hdr.dst = dst;
    return net.make_packet(hdr, payload);
  }
};

TEST(Interface, LastAdmitDepthTracksBothPaths) {
  // Enqueue taps read last_admit_depth_bytes() (the pass-through fast path
  // never parks the packet in the queue object, so queue().byte_length()
  // would under-report). The depth must include the admitted packet on
  // every admission path.
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = Duration::millis(1);
  Pair p(cfg);
  Interface* out = p.a->interface_to(p.b->id());
  std::vector<std::size_t> depths;
  out->add_enqueue_tap(
      [&](const Packet&, SimTime) { depths.push_back(out->last_admit_depth_bytes()); });
  p.net.sim().schedule_at(SimTime::origin(), [&] {
    // First send: idle transmitter, pass-through; depth = its own bytes.
    // Next two: transmitter busy, genuinely queued; depth accumulates.
    p.a->originate(p.make(p.a->id(), p.b->id(), 960));
    p.a->originate(p.make(p.a->id(), p.b->id(), 960));
    p.a->originate(p.make(p.a->id(), p.b->id(), 960));
  });
  p.net.sim().run();
  ASSERT_EQ(depths.size(), 3u);
  EXPECT_EQ(depths[0], 1000u);
  EXPECT_EQ(depths[1], 1000u);  // first queued packet, queue was empty
  EXPECT_EQ(depths[2], 2000u);
}

TEST(Simulator, RearmCurrentMatchesScheduleInTimes) {
  // A self-rearming event must fire at exactly the times the equivalent
  // schedule_in chain produces, and keep its callable alive across
  // firings.
  std::vector<SimTime> rearm_times;
  std::vector<SimTime> chain_times;
  {
    Simulator sim;
    int remaining = 5;
    sim.schedule_in(Duration::millis(10), [&] {
      rearm_times.push_back(sim.now());
      if (--remaining > 0) sim.rearm_current(Duration::millis(10));
    });
    sim.run();
  }
  {
    Simulator sim;
    int remaining = 5;
    std::function<void()> tick = [&] {
      chain_times.push_back(sim.now());
      if (--remaining > 0) sim.schedule_in(Duration::millis(10), [&] { tick(); });
    };
    sim.schedule_in(Duration::millis(10), [&] { tick(); });
    sim.run();
  }
  EXPECT_EQ(rearm_times, chain_times);
  ASSERT_EQ(rearm_times.size(), 5u);
}

TEST(Simulator, RearmCurrentInterleavesWithOtherEvents) {
  // Rearmed events keep FIFO fairness with fresh events scheduled for the
  // same instant: the (time, seq) stream is identical to schedule_in's.
  Simulator sim;
  std::vector<int> order;
  int fires = 0;
  sim.schedule_in(Duration::millis(1), [&] {
    order.push_back(0);
    if (++fires < 3) {
      // Fresh event for the same future instant, scheduled BEFORE the
      // rearm: it must fire first there (lower seq).
      sim.schedule_in(Duration::millis(1), [&] { order.push_back(1); });
      sim.rearm_current(Duration::millis(1));
    }
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0}));
}

}  // namespace
}  // namespace fatih::sim
