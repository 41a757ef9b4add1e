// Unit tests for the observability layer: TraceSink ring/sampling
// semantics, Timeline queries, and the sim-layer wiring (queue samples,
// drop-code mapping).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"

namespace fatih {
namespace {

using obs::TraceCategory;
using obs::TraceCode;
using obs::TraceConfig;
using obs::TraceEvent;
using obs::TraceSink;
using obs::TraceSource;
using util::Duration;
using util::NodeId;
using util::SimTime;

// ----------------------------------------------------------------------
// The kDrop trace-code block must mirror sim::DropReason in order: the
// sim layer maps between them with an offset-preserving switch.

constexpr int kDropBase = static_cast<int>(TraceCode::kDropCongestion);
static_assert(static_cast<int>(TraceCode::kDropCongestion) ==
              kDropBase + static_cast<int>(sim::DropReason::kCongestion));
static_assert(static_cast<int>(TraceCode::kDropRedEarly) ==
              kDropBase + static_cast<int>(sim::DropReason::kRedEarly));
static_assert(static_cast<int>(TraceCode::kDropMalicious) ==
              kDropBase + static_cast<int>(sim::DropReason::kMalicious));
static_assert(static_cast<int>(TraceCode::kDropTtlExpired) ==
              kDropBase + static_cast<int>(sim::DropReason::kTtlExpired));
static_assert(static_cast<int>(TraceCode::kDropNoRoute) ==
              kDropBase + static_cast<int>(sim::DropReason::kNoRoute));
static_assert(static_cast<int>(TraceCode::kDropLinkFault) ==
              kDropBase + static_cast<int>(sim::DropReason::kLinkFault));
static_assert(static_cast<int>(TraceCode::kDropLinkDown) ==
              kDropBase + static_cast<int>(sim::DropReason::kLinkDown));
static_assert(static_cast<int>(TraceCode::kDropNodeDown) ==
              kDropBase + static_cast<int>(sim::DropReason::kNodeDown));

// ----------------------------------------------------------------------
// TraceSink

TEST(TraceSink, StampsSequenceInEmitOrder) {
  TraceSink sink;
  sink.annotate(SimTime::from_seconds(1), "first");
  sink.annotate(SimTime::from_seconds(2), "second");
  sink.drop(SimTime::from_seconds(3), TraceCode::kDropCongestion, 0, 1, 42);
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 3U);
  EXPECT_EQ(evs[0].seq, 0U);
  EXPECT_EQ(evs[1].seq, 1U);
  EXPECT_EQ(evs[2].seq, 2U);
  EXPECT_STREQ(evs[0].note_c_str(), "first");
  EXPECT_EQ(evs[2].category, TraceCategory::kDrop);
  EXPECT_EQ(evs[2].value, 42U);
  EXPECT_EQ(sink.recorded(), 3U);
  EXPECT_EQ(sink.overwritten(), 0U);
}

TEST(TraceSink, RingOverwritesOldestPastCapacity) {
  TraceConfig cfg;
  cfg.capacity = 4;
  TraceSink sink(cfg);
  for (int i = 0; i < 10; ++i) {
    sink.round_event(SimTime::from_seconds(i), TraceSource::kPi2, TraceCode::kRoundOpen, i);
  }
  EXPECT_EQ(sink.size(), 4U);
  EXPECT_EQ(sink.recorded(), 10U);
  EXPECT_EQ(sink.overwritten(), 6U);
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 4U);
  // Oldest-first: the survivors are rounds 6..9 in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].round, static_cast<std::int64_t>(6 + i));
    EXPECT_EQ(evs[i].seq, 6 + i);
  }
}

TEST(TraceSink, DisabledCategoryRecordsNothing) {
  TraceConfig cfg;
  cfg.enabled[static_cast<std::size_t>(TraceCategory::kDrop)] = false;
  TraceSink sink(cfg);
  sink.drop(SimTime::from_seconds(1), TraceCode::kDropNoRoute, 0, 1, 7);
  EXPECT_EQ(sink.recorded(), 0U);
  EXPECT_EQ(sink.size(), 0U);
  sink.queue_depth(SimTime::from_seconds(1), 0, 1, 10, 0.5);
  EXPECT_EQ(sink.size(), 1U);
  EXPECT_FALSE(sink.enabled(TraceCategory::kDrop));
  EXPECT_TRUE(sink.enabled(TraceCategory::kQueue));
}

TEST(TraceSink, ClearResetsEverythingButConfig) {
  TraceConfig cfg;
  cfg.capacity = 4;
  TraceSink sink(cfg);
  for (int i = 0; i < 6; ++i) sink.annotate(SimTime::from_seconds(i), "a");
  sink.clear();
  EXPECT_EQ(sink.size(), 0U);
  EXPECT_EQ(sink.recorded(), 0U);
  EXPECT_EQ(sink.config().capacity, 4U);
  sink.annotate(SimTime::from_seconds(9), "after");
  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 1U);
  EXPECT_EQ(evs[0].seq, 0U);  // sequence restarts
}

TEST(TraceSink, NoteTruncatesAtRecordSize) {
  TraceEvent ev;
  const std::string longish(100, 'x');
  ev.set_note(longish.c_str());
  EXPECT_EQ(std::strlen(ev.note_c_str()), ev.note.size() - 1);
  ev.set_note(nullptr);
  EXPECT_STREQ(ev.note_c_str(), "");
}

TEST(TraceSink, JsonlIsDeterministicAndShaped) {
  const auto fill = [](TraceSink& s) {
    s.annotate(SimTime::from_seconds(1.5), "ATTACK on");
    s.suspicion(SimTime::from_seconds(2), TraceSource::kPik2, 0, 1, 3, 3, 5, 0.97, "timeout");
  };
  TraceSink a;
  TraceSink b;
  fill(a);
  fill(b);
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
  const std::string out = a.to_jsonl();
  EXPECT_NE(out.find("\"t_ns\":1500000000"), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"suspicion\""), std::string::npos);
  EXPECT_NE(out.find("\"note\":\"timeout\""), std::string::npos);
  EXPECT_NE(out.find("\"note\":\"ATTACK on\""), std::string::npos);
  // One line per retained event.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

// ----------------------------------------------------------------------
// Timeline

TEST(Timeline, SelectsFiltersAndOrders) {
  TraceSink sink;
  sink.annotate(SimTime::from_seconds(1), "COMMISSION");
  sink.route(SimTime::from_seconds(2), TraceCode::kSpfRun, 0, util::kInvalidNode, 1);
  sink.route(SimTime::from_seconds(3), TraceCode::kRouteChange, 0, util::kInvalidNode, 1);
  sink.route(SimTime::from_seconds(4), TraceCode::kRouteChange, 1, util::kInvalidNode, 1);
  obs::Timeline tl(sink);
  EXPECT_EQ(tl.events().size(), 4U);
  EXPECT_EQ(tl.select(TraceCategory::kRoute).size(), 3U);
  const auto changes = tl.select(TraceCategory::kRoute, TraceCode::kRouteChange);
  ASSERT_EQ(changes.size(), 2U);
  EXPECT_EQ(changes[0].a, 0U);
  EXPECT_EQ(changes[1].a, 1U);
  ASSERT_TRUE(tl.first(TraceCategory::kRoute, TraceCode::kRouteChange).has_value());
  EXPECT_EQ(tl.first(TraceCategory::kRoute, TraceCode::kRouteChange)->at,
            SimTime::from_seconds(3));
  EXPECT_EQ(tl.last(TraceCategory::kRoute, TraceCode::kRouteChange)->at,
            SimTime::from_seconds(4));
  EXPECT_FALSE(tl.first(TraceCategory::kSuspicion).has_value());
}

TEST(Timeline, DescribesWithCustomNames) {
  TraceSink sink;
  sink.suspicion(SimTime::from_seconds(5), TraceSource::kPi2, 0, 1, 1, 1, 4, 0.91, "tv-mismatch");
  sink.route(SimTime::from_seconds(6), TraceCode::kRouteChange, 2);
  obs::Timeline tl(sink, [](NodeId n) { return "node-" + std::to_string(n); });
  const auto evs = tl.events();
  ASSERT_EQ(evs.size(), 2U);
  const std::string detect = tl.describe(evs[0]);
  EXPECT_NE(detect.find("DETECT"), std::string::npos);
  EXPECT_NE(detect.find("node-0"), std::string::npos);
  EXPECT_NE(detect.find("tv-mismatch"), std::string::npos);
  const std::string reroute = tl.describe(evs[1]);
  EXPECT_NE(reroute.find("REROUTE"), std::string::npos);
  EXPECT_NE(reroute.find("node-2"), std::string::npos);
}

TEST(Timeline, EntriesMergeCategoriesInTimeOrder) {
  TraceSink sink;
  sink.annotate(SimTime::from_seconds(1), "ATTACK on");
  sink.route(SimTime::from_seconds(2), TraceCode::kRouteChange, 0);
  sink.suspicion(SimTime::from_seconds(3), TraceSource::kChi, 1, 1, 2, 2, 7, 0.99, "z-test");
  obs::Timeline tl(sink);
  const auto entries = tl.entries(
      {TraceCategory::kAnnotation, TraceCategory::kSuspicion, TraceCategory::kRoute});
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].label, "ATTACK on");
  EXPECT_LE(entries[0].at, entries[1].at);
  EXPECT_LE(entries[1].at, entries[2].at);
  const std::string json = obs::Timeline::to_json(entries);
  EXPECT_NE(json.find("\"t\": 1.000000"), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"ATTACK on\""), std::string::npos);
  EXPECT_EQ(obs::Timeline::to_json({}), "[]");
}

// ----------------------------------------------------------------------
// Sim wiring: with a sink on the simulator, the per-packet paths trace a
// queue sample per enqueue and each drop under its reason's code.
// Compiled-out builds (-DFATIH_TRACE=0) have no emit points to test.

#if FATIH_TRACE
struct WiredPair {
  sim::Network net{1};
  sim::Router* a;
  sim::Router* b;
  TraceSink sink;

  explicit WiredPair(sim::LinkConfig cfg = {}) {
    a = &net.add_router("a");
    b = &net.add_router("b");
    net.connect(a->id(), b->id(), cfg);
    a->set_route(b->id(), 0);
    b->set_route(a->id(), 0);
    net.sim().set_trace(&sink);
  }

  sim::Packet make(std::uint32_t payload) {
    sim::PacketHeader hdr;
    hdr.src = a->id();
    hdr.dst = b->id();
    return net.make_packet(hdr, payload);
  }
};

TEST(SimWiring, EachEnqueueTracesOneQueueSample) {
  WiredPair p;
  p.net.sim().schedule_at(SimTime::origin(), [&] {
    p.a->originate(p.make(100));
    p.a->originate(p.make(100));
  });
  p.net.sim().run();
  // One queue-depth sample per enqueue.
  obs::Timeline tl(p.sink);
  EXPECT_EQ(tl.select(TraceCategory::kQueue).size(), 2U);
}

TEST(SimWiring, TtlDropTracesItsReason) {
  WiredPair p;
  sim::Packet pkt = p.make(100);
  pkt.hdr.ttl = 1;  // expires at the first router
  p.net.sim().schedule_at(SimTime::origin(), [&] { p.a->originate(pkt); });
  p.net.sim().run();
  obs::Timeline tl(p.sink);
  const auto drop = tl.first(TraceCategory::kDrop);
  ASSERT_TRUE(drop.has_value());
  EXPECT_EQ(drop->code, TraceCode::kDropTtlExpired);
  EXPECT_EQ(tl.select(TraceCategory::kDrop).size(), 1U);
}

TEST(SimWiring, DetachIsSafe) {
  WiredPair p;
  p.net.sim().set_trace(nullptr);
  p.net.sim().schedule_at(SimTime::origin(), [&] { p.a->originate(p.make(100)); });
  p.net.sim().run();  // must not crash; nothing recorded
  EXPECT_EQ(p.sink.size(), 0U);
}
#endif  // FATIH_TRACE

}  // namespace
}  // namespace fatih
