// Distributed link-state routing over the simulated network.
//
// A small OSPF analogue, faithful to the pieces the detection system
// depends on (dissertation §4.1, §5.3.1):
//   * hello-based neighbor discovery,
//   * sequence-numbered, signed LSAs flooded robustly (Perlman §3.7 style:
//     re-flood on every interface except the incoming one, duplicate
//     suppression by (origin, seq)),
//   * per-router SPF with the Zebra-style spf_delay / spf_hold timers that
//     shape the Fatih reaction time in Fig. 5.7,
//   * suspicion alerts: a detection engine calls announce_suspicion(); the
//     signed alert is flooded, and every correct router excludes the
//     suspected path-segment from its routing fabric via policy routes
//     (§2.4.3 response).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/mac.hpp"
#include "routing/graph.hpp"
#include "routing/segments.hpp"
#include "sim/network.hpp"
#include "util/time.hpp"

namespace fatih::routing {

/// Control payload kinds in the 0x10xx range (routing subsystem).
inline constexpr std::uint16_t kKindHello = 0x1001;
inline constexpr std::uint16_t kKindLsa = 0x1002;
inline constexpr std::uint16_t kKindAlert = 0x1003;

/// Periodic neighbor-discovery beacon.
struct HelloPayload final : sim::ControlPayload {
  util::NodeId from = util::kInvalidNode;
  [[nodiscard]] std::uint16_t kind() const override { return kKindHello; }
};

/// A link-state advertisement: origin's neighbor list, signed.
struct LsaPayload final : sim::ControlPayload {
  util::NodeId origin = util::kInvalidNode;
  std::uint32_t seq = 0;
  std::vector<Topology::Edge> neighbors;
  crypto::SignedEnvelope envelope;  ///< signature over (origin, seq, neighbors)
  [[nodiscard]] std::uint16_t kind() const override { return kKindLsa; }
};

/// A flooded failure-detection announcement: "reporter suspects segment".
struct AlertPayload final : sim::ControlPayload {
  util::NodeId reporter = util::kInvalidNode;
  PathSegment segment;
  util::TimeInterval interval;
  crypto::SignedEnvelope envelope;  ///< signature over (reporter, segment, interval)
  [[nodiscard]] std::uint16_t kind() const override { return kKindAlert; }
};

struct LinkStateConfig {
  util::Duration hello_interval = util::Duration::seconds(10);
  /// A neighbor not heard from for this long is declared dead and its
  /// adjacency withdrawn (OSPF RouterDeadInterval; default 4x hello).
  util::Duration dead_interval = util::Duration::seconds(40);
  /// Delay from a triggering event to SPF (Zebra default 5 s).
  util::Duration spf_delay = util::Duration::seconds(5);
  /// Minimum spacing between consecutive SPF runs (Zebra default 10 s).
  util::Duration spf_hold = util::Duration::seconds(10);
  /// Minimum spacing between LSA originations of one router.
  util::Duration lsa_min_interval = util::Duration::seconds(1);
  /// How long an applied alert's duplicate-suppression record outlives the
  /// end of the alert's accusation interval before being evicted.
  util::Duration alert_memory = util::Duration::seconds(300);
};

/// The routing daemon collection: one per-router state machine, driven by
/// the shared simulator.
class LinkStateRouting {
 public:
  LinkStateRouting(sim::Network& net, const crypto::KeyRegistry& keys, LinkStateConfig config);

  /// Begins hello emission and neighbor-liveness scanning on every
  /// router. Hosts neither send hellos nor originate LSAs: routers
  /// advertise host-attached interfaces unconditionally as stub links.
  void start();

  /// Called by a local detection engine at `reporter`: floods a signed
  /// alert and applies the exclusion locally.
  void announce_suspicion(util::NodeId reporter, const PathSegment& segment,
                          util::TimeInterval interval);

  /// Per-router introspection (for tests and the Fig. 5.7 bench).
  [[nodiscard]] bool converged(util::NodeId r) const;
  [[nodiscard]] std::size_t spf_runs(util::NodeId r) const;
  [[nodiscard]] const std::vector<PathSegment>& banned_segments(util::NodeId r) const;
  [[nodiscard]] const Topology& topology_view(util::NodeId r) const;

  /// Reconvergence introspection: when router r's installed routes last
  /// actually changed (not merely when SPF ran), and how many times they
  /// have changed. Lets experiments measure reconvergence time as
  /// max over routers of (last_route_change - failure time).
  [[nodiscard]] util::SimTime last_route_change(util::NodeId r) const;
  [[nodiscard]] std::size_t route_changes(util::NodeId r) const;
  /// Current neighbor set (adjacencies that are up) of router r.
  [[nodiscard]] const std::set<util::NodeId>& neighbors(util::NodeId r) const;
  /// Size of the alert duplicate-suppression memory (bounded by eviction).
  [[nodiscard]] std::size_t seen_alert_count(util::NodeId r) const;

  /// Invoked after a router installs routes that differ from what it had
  /// before (an actual routing-table change, not every SPF run). Hooks
  /// accumulate: the epoch keeper and an experiment logger can coexist.
  using RouteChangeHook = std::function<void(util::NodeId router, util::SimTime when)>;
  void add_route_change_hook(RouteChangeHook hook) {
    route_change_hooks_.push_back(std::move(hook));
  }

  /// Protocol-fault injection: router r's daemon stops re-flooding LSAs
  /// and alerts (it still receives). Robust flooding must survive this as
  /// long as the good-path condition holds (§3.7).
  void suppress_flooding_at(util::NodeId r) { suppressed_.insert(r); }

 private:
  struct Daemon {
    util::NodeId id = util::kInvalidNode;
    bool is_router = false;
    std::set<util::NodeId> neighbors_up;
    /// Last hello heard from each live neighbor, for dead-interval expiry.
    std::map<util::NodeId, util::SimTime> last_hello;
    // LSDB: origin -> (seq, neighbor list).
    std::map<util::NodeId, LsaPayload> lsdb;
    std::uint32_t own_seq = 0;
    util::SimTime last_lsa = util::SimTime::origin() - util::Duration::seconds(3600);
    bool lsa_pending = false;
    // SPF scheduling.
    bool spf_scheduled = false;
    bool spf_ran_once = false;
    util::SimTime last_spf = util::SimTime::origin() - util::Duration::seconds(3600);
    std::size_t spf_count = 0;
    // Reconvergence introspection: fingerprint of the installed tables and
    // when it last changed.
    std::uint64_t route_signature = 0;
    util::SimTime last_route_change = util::SimTime::origin();
    std::size_t route_change_count = 0;
    // Response state. seen_alerts maps the duplicate-suppression key to
    // the alert's interval end so old records can be evicted by age.
    std::vector<PathSegment> banned;
    std::map<std::pair<util::NodeId, PathSegment>, util::SimTime> seen_alerts;
    Topology view;
  };

  void send_hello(util::NodeId n);
  void scan_neighbors(util::NodeId n);
  void on_control(util::NodeId n, const sim::Packet& p, util::NodeId prev);
  void originate_lsa(util::NodeId n);
  /// Database exchange on a newly formed adjacency: unicasts n's whole
  /// LSDB to `peer` so a restarted router relearns the fabric.
  void synchronize_lsdb(util::NodeId n, util::NodeId peer);
  void flood(util::NodeId n, std::shared_ptr<const sim::ControlPayload> payload,
             std::uint32_t bytes, util::NodeId except_peer);
  void schedule_spf(util::NodeId n);
  void run_spf(util::NodeId n);
  void accept_alert(util::NodeId n, const AlertPayload& alert);
  /// Remembers (and ages out) an alert's duplicate-suppression record.
  /// Returns false if the alert was already known.
  bool remember_alert(Daemon& d, const AlertPayload& alert);
  /// Soft-state reset after a router restart (keeps own_seq monotonic so
  /// fresh LSAs supersede pre-crash ones everywhere).
  void reset_soft_state(util::NodeId n);

  [[nodiscard]] static std::vector<std::byte> lsa_bytes(const LsaPayload& lsa);
  [[nodiscard]] static std::vector<std::byte> alert_bytes(const AlertPayload& alert);

  sim::Network& net_;
  const crypto::KeyRegistry& keys_;
  LinkStateConfig config_;
  std::set<util::NodeId> suppressed_;
  std::vector<Daemon> daemons_;
  std::vector<RouteChangeHook> route_change_hooks_;
};

}  // namespace fatih::routing
