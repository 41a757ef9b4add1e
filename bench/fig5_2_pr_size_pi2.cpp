// Figure 5.2 reproduction: size of Pr (path-segments monitored per router)
// for Protocol Pi2 as a function of the AdjacentFault(k) bound, on the
// generated Sprintlink-like and EBONE-like topologies (topo::sprintlink(),
// topo::ebone()).
//
// Paper shape to match: |Pr| grows steeply with k (the theoretical bound
// is O(k * R^(k+1))) but stays far below it; e.g. for Sprintlink at k=2
// the average is a few hundred, the max a few thousand.
#include <cstdio>

#include "bench/pr_stats.hpp"

using namespace fatih;
using namespace fatih::bench;

namespace {

void run(const char* name, const topo::TopoParams& params) {
  const routing::Topology graph = routing::generated_topology(topo::generate(params));
  double mean_degree = static_cast<double>(graph.edge_count()) /
                       static_cast<double>(graph.node_count());
  std::printf("# %s: %zu routers, %zu links, mean degree %.2f\n", name, graph.node_count(),
              graph.edge_count() / 2, mean_degree);
  const auto paths = all_used_paths(graph);
  std::printf("%-4s %10s %10s %10s\n", "k", "max|Pr|", "avg|Pr|", "med|Pr|");
  for (std::size_t k = 1; k <= 8; ++k) {
    const auto counts = count_pr(paths, graph.node_count(), k);
    const auto stats = summarize(counts.pi2);
    std::printf("%-4zu %10zu %10.1f %10.1f\n", k, stats.max, stats.average, stats.median);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Figure 5.2: |Pr| per router under Protocol Pi2 ==\n\n");
  run("Sprintlink-like", topo::sprintlink());
  run("EBONE-like", topo::ebone());
  return 0;
}
