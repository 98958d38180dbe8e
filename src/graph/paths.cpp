#include "graph/paths.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "common/check.hpp"
#include "graph/components.hpp"

namespace ppo::graph {

std::vector<std::uint32_t> bfs_distances(GraphView g, NodeId source,
                                         const NodeMask& mask) {
  const std::size_t n = g.num_nodes();
  PPO_CHECK_MSG(source < n, "BFS source out of range");
  PPO_CHECK_MSG(mask.contains(source), "BFS source excluded by mask");
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.neighbors(u)) {
      if (!mask.contains(v) || dist[v] != kUnreachable) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

namespace {

/// Nodes of the largest component of the mask-induced subgraph.
std::vector<NodeId> largest_component_nodes(GraphView g,
                                            const NodeMask& mask) {
  const Components comps = connected_components(g, mask);
  const std::uint32_t target = comps.largest();
  std::vector<NodeId> nodes;
  if (target == Components::kExcluded) return nodes;
  nodes.reserve(comps.largest_size());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (comps.component_of[v] == target) nodes.push_back(v);
  return nodes;
}

/// Mean BFS distance from `sources` to every other node they reach
/// within `mask`. Up to 64 sources advance level by level in one
/// traversal, one bit per source: a node's `seen` word holds the
/// sources that reached it, and each frontier entry carries the bits
/// that reached its node at the current level. One level visits each
/// frontier node's edges once for the whole batch, where per-source
/// BFS visited them once per source. Every distance is a whole number,
/// so `level x (sources newly reaching a node)` sums exactly in the
/// double and the result equals the per-source BFS mean bit for bit.
double mean_distance_from_sources(GraphView g, const NodeMask& mask,
                                  const std::vector<NodeId>& sources) {
  constexpr std::size_t kBatch = 64;
  const std::size_t n = g.num_nodes();
  std::vector<std::uint64_t> seen(n), next(n);  // reused across batches
  std::vector<std::pair<NodeId, std::uint64_t>> frontier, reached;
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t first = 0; first < sources.size(); first += kBatch) {
    const std::size_t batch = std::min(kBatch, sources.size() - first);
    std::fill(seen.begin(), seen.end(), 0);
    frontier.clear();
    for (std::size_t b = 0; b < batch; ++b) {
      const NodeId s = sources[first + b];
      if (seen[s] == 0) frontier.emplace_back(s, 0);
      seen[s] |= std::uint64_t{1} << b;
    }
    for (auto& [u, bits] : frontier) bits = seen[u];

    for (std::uint64_t level = 1; !frontier.empty(); ++level) {
      reached.clear();
      for (const auto& [u, bits] : frontier) {
        for (NodeId v : g.neighbors(u)) {
          if (!mask.contains(v)) continue;
          const std::uint64_t fresh = bits & ~seen[v];
          if (fresh == 0) continue;
          if (next[v] == 0) reached.emplace_back(v, 0);
          next[v] |= fresh;
        }
      }
      for (auto& [v, bits] : reached) {
        bits = next[v];
        next[v] = 0;
        seen[v] |= bits;
        const auto count = static_cast<std::uint64_t>(std::popcount(bits));
        total += static_cast<double>(level * count);
        pairs += count;
      }
      frontier.swap(reached);
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

}  // namespace

double average_path_length(GraphView g, Rng& rng, const NodeMask& mask,
                           std::size_t sample_sources,
                           std::size_t exact_threshold) {
  std::vector<NodeId> nodes = largest_component_nodes(g, mask);
  if (nodes.size() <= 1) return 0.0;

  // Restrict BFS to the largest component so stray fragments of the
  // masked graph cannot contaminate the average.
  NodeMask comp_mask(g.num_nodes(), false);
  for (NodeId v : nodes) comp_mask.set(v, true);

  std::vector<NodeId> sources;
  if (nodes.size() <= exact_threshold || sample_sources >= nodes.size()) {
    sources = nodes;
  } else {
    sources = rng.sample(nodes, sample_sources);
  }
  return mean_distance_from_sources(g, comp_mask, sources);
}

double normalized_average_path_length(GraphView g, Rng& rng,
                                      std::size_t total_nodes,
                                      const NodeMask& mask,
                                      std::size_t sample_sources) {
  PPO_CHECK_MSG(total_nodes > 0, "total_nodes must be positive");
  const std::vector<NodeId> nodes = largest_component_nodes(g, mask);
  if (nodes.size() <= 1) {
    // A trivial largest component carries no path information; report
    // the maximal penalty (one hop scaled by the full graph).
    return static_cast<double>(total_nodes);
  }
  const double apl = average_path_length(g, rng, mask, sample_sources);
  return apl / static_cast<double>(nodes.size()) *
         static_cast<double>(total_nodes);
}

std::uint32_t diameter_estimate(GraphView g, Rng& rng,
                                const NodeMask& mask, std::size_t sweeps) {
  const std::vector<NodeId> nodes = largest_component_nodes(g, mask);
  if (nodes.size() <= 1) return 0;
  NodeMask comp_mask(g.num_nodes(), false);
  for (NodeId v : nodes) comp_mask.set(v, true);

  std::uint32_t best = 0;
  NodeId start = nodes[rng.uniform_u64(nodes.size())];
  for (std::size_t i = 0; i < sweeps; ++i) {
    const auto dist = bfs_distances(g, start, comp_mask);
    NodeId farthest = start;
    std::uint32_t far_dist = 0;
    for (NodeId v : nodes) {
      if (dist[v] != kUnreachable && dist[v] > far_dist) {
        far_dist = dist[v];
        farthest = v;
      }
    }
    best = std::max(best, far_dist);
    start = farthest;
  }
  return best;
}

}  // namespace ppo::graph
