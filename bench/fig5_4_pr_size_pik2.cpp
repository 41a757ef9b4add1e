// Figure 5.4 reproduction: size of Pr per router for Protocol Pi(k+2) as
// a function of k, on the same topologies as Fig. 5.2.
//
// Paper shape to match: values far below Pi2's (Fig. 5.2) because only
// segment ENDS monitor, and |Pr| is bounded by O(min(R^(k+1), N)) — it
// saturates as k grows, at 2(N-1-deg r) per router r (Sprintlink: 616
// average, 626 max).
#include <cstdio>

#include "bench/pr_stats.hpp"

using namespace fatih;
using namespace fatih::bench;

namespace {

void run(const char* name, const topo::TopoParams& params) {
  const routing::Topology graph = routing::generated_topology(topo::generate(params));
  std::printf("# %s: %zu routers, %zu links\n", name, graph.node_count(),
              graph.edge_count() / 2);
  const auto paths = all_used_paths(graph);
  std::printf("%-4s %10s %10s %10s\n", "k", "max|Pr|", "avg|Pr|", "med|Pr|");
  for (std::size_t k = 1; k <= 8; ++k) {
    const auto counts = count_pr(paths, graph.node_count(), k);
    const auto stats = summarize(counts.pik2);
    std::printf("%-4zu %10zu %10.1f %10.1f\n", k, stats.max, stats.average, stats.median);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Figure 5.4: |Pr| per router under Protocol Pi(k+2) ==\n\n");
  run("Sprintlink-like", topo::sprintlink());
  run("EBONE-like", topo::ebone());
  return 0;
}
