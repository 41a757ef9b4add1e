// State-overhead comparison (dissertation §5.1.1 / §5.2.1 numbers):
// counters per router maintained by WATCHERS (7 per neighbor per
// destination), Protocol Pi2 (one counter per monitored segment, under the
// WATCHERS-equivalent conservation-of-flow summary) and Protocol Pi(k+2)
// (two counters per monitored segment, one per direction).
//
// Published reference points (measured Sprintlink map): WATCHERS ~13,605
// average / 99,225 max; Pi2 at k=2: 216 avg / 2,172 max; Pi(k+2) at k=2:
// 232 avg / 496 max; at k=7: 616 avg / 626 max. Our topology is the
// generated topo::sprintlink() graph (same routers, links and mean degree
// as the map), so the shape (orders of magnitude and the Pi(k+2)
// saturation) is the comparable quantity.
#include <algorithm>
#include <cstdio>

#include "bench/pr_stats.hpp"

using namespace fatih;
using namespace fatih::bench;

namespace {

void run(const char* name, const topo::TopoParams& params) {
  const routing::Topology graph = routing::generated_topology(topo::generate(params));
  const std::size_t n = graph.node_count();
  std::printf("# %s: %zu routers, %zu links\n", name, n, graph.edge_count() / 2);

  // WATCHERS: 7 counters x degree x destinations.
  double watchers_avg = 0;
  std::size_t watchers_max = 0;
  for (util::NodeId r = 0; r < n; ++r) {
    const std::size_t counters = 7 * graph.degree(r) * n;
    watchers_avg += static_cast<double>(counters);
    watchers_max = std::max(watchers_max, counters);
  }
  watchers_avg /= static_cast<double>(n);
  std::printf("%-22s %12s %12s\n", "protocol", "avg", "max");
  std::printf("%-22s %12.0f %12zu\n", "WATCHERS", watchers_avg, watchers_max);

  const auto paths = all_used_paths(graph);
  for (std::size_t k : {std::size_t{2}, std::size_t{7}}) {
    const auto counts = count_pr(paths, n, k);
    const auto pi2 = summarize(counts.pi2);
    const auto pik2 = summarize(counts.pik2);
    // One counter per directed monitored segment (the paper's "two
    // counters per path-segment, one for each direction" — our |Pr|
    // already counts the two directions separately).
    std::printf("Pi2     (k=%zu)         %12.0f %12zu\n", k, pi2.average, pi2.max);
    std::printf("Pi(k+2) (k=%zu)         %12.0f %12zu\n", k, pik2.average, pik2.max);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Table (SS5.1.1/5.2.1): per-router counter state ==\n\n");
  run("Sprintlink-like", topo::sprintlink());
  run("EBONE-like", topo::ebone());
  return 0;
}
