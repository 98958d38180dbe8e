// BFS distances, average path length and the paper's normalized
// path-length metric (§IV-C).
#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/paths.hpp"

namespace ppo::graph {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, UnreachableMarked) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, MaskBlocksTraversal) {
  const Graph g = path_graph(5);
  NodeMask mask(5, true);
  mask.set(2, false);
  const auto dist = bfs_distances(g, 0, mask);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, ExcludedSourceThrows) {
  const Graph g = path_graph(3);
  NodeMask mask(3, false);
  EXPECT_THROW(bfs_distances(g, 0, mask), CheckError);
}

TEST(AveragePathLength, CompleteGraphIsOne) {
  Rng rng(1);
  const Graph g = complete(8);
  EXPECT_NEAR(average_path_length(g, rng), 1.0, 1e-12);
}

TEST(AveragePathLength, PathGraphExact) {
  Rng rng(1);
  // Path on 4 nodes: distances 1,2,3,1,2,1 -> mean = 10/6.
  const Graph g = path_graph(4);
  EXPECT_NEAR(average_path_length(g, rng), 10.0 / 6.0, 1e-12);
}

TEST(AveragePathLength, UsesLargestComponentOnly) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);  // path of 4
  g.add_edge(4, 5);  // separate pair
  Rng rng(1);
  EXPECT_NEAR(average_path_length(g, rng), 10.0 / 6.0, 1e-12);
}

TEST(AveragePathLength, SampledEstimateCloseToExact) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnm(600, 3000, rng);
  Rng r1(11), r2(11);
  const double exact = average_path_length(g, r1, {}, 0, 10'000);
  const double sampled = average_path_length(g, r2, {}, 64, 10);
  EXPECT_NEAR(sampled, exact, exact * 0.05);
}

/// average_path_length's definition computed the long way: the same
/// largest component and the same sources (drawn from an identical RNG
/// state), then one BFS per source, summing each distance on its own.
double per_source_bfs_apl(GraphView g, Rng& rng, const NodeMask& mask,
                          std::size_t sample_sources,
                          std::size_t exact_threshold) {
  const Components comps = connected_components(g, mask);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (comps.largest() != Components::kExcluded &&
        comps.component_of[v] == comps.largest())
      nodes.push_back(v);
  if (nodes.size() <= 1) return 0.0;
  NodeMask comp_mask(g.num_nodes(), false);
  for (NodeId v : nodes) comp_mask.set(v, true);
  const std::vector<NodeId> sources =
      nodes.size() <= exact_threshold || sample_sources >= nodes.size()
          ? nodes
          : rng.sample(nodes, sample_sources);
  double total = 0.0;
  std::size_t pairs = 0;
  for (NodeId s : sources) {
    const auto dist = bfs_distances(g, s, comp_mask);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == s || dist[v] == kUnreachable) continue;
      total += dist[v];
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

// The batched traversal sums whole-number distances, so it must equal
// the per-source BFS result exactly — not approximately — for every
// batch shape: one source, a partial batch, exactly one full batch,
// one past it, several batches, and all component nodes.
TEST(AveragePathLength, BitParallelMatchesPerSourceBfs) {
  Rng gen(2024);
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"er", erdos_renyi_gnm(500, 2000, gen)});
  cases.push_back({"er-fragmented", erdos_renyi_gnm(600, 420, gen)});
  cases.push_back({"holme-kim", holme_kim(500, 3, 0.6, gen)});
  cases.push_back({"holme-kim-sparse", holme_kim(300, 1, 0.2, gen)});
  for (const Case& c : cases) {
    const std::size_t n = c.g.num_nodes();
    NodeMask masked(n, true);
    for (NodeId v = 0; v < n; ++v)
      if (gen.uniform_u64(5) == 0) masked.set(v, false);
    for (const NodeMask& m : {NodeMask{}, masked}) {
      for (const std::size_t sources : {1, 48, 64, 65, 200}) {
        Rng a(sources * 31 + n), b(sources * 31 + n);
        EXPECT_EQ(average_path_length(c.g, a, m, sources, 0),
                  per_source_bfs_apl(c.g, b, m, sources, 0))
            << c.name << " sources=" << sources << " masked=" << !m.empty();
      }
      Rng a(7), b(7);  // exact threshold: every component node a source
      EXPECT_EQ(average_path_length(c.g, a, m, 64, 10'000),
                per_source_bfs_apl(c.g, b, m, 64, 10'000))
          << c.name << " exact masked=" << !m.empty();
    }
  }
}

TEST(NormalizedPathLength, EqualsScaledAplWhenConnected) {
  Rng rng(1);
  const Graph g = complete(10);
  // APL = 1, LCC = 10, total = 10 -> normalized = 1.
  EXPECT_NEAR(normalized_average_path_length(g, rng, 10), 1.0, 1e-12);
}

TEST(NormalizedPathLength, PenalizesFragmentation) {
  // Largest component has 3 of 12 total nodes: a short APL measured in
  // the fragment must be scaled up by 12/3.
  Graph g(12);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Rng rng(1);
  const double apl = 4.0 / 3.0;  // distances 1,2,1 in the triangle path
  EXPECT_NEAR(normalized_average_path_length(g, rng, 12), apl / 3.0 * 12.0,
              1e-12);
}

TEST(NormalizedPathLength, TrivialComponentGetsMaxPenalty) {
  const Graph g(5);  // all isolated
  Rng rng(1);
  EXPECT_DOUBLE_EQ(normalized_average_path_length(g, rng, 5), 5.0);
}

TEST(DiameterEstimate, PathGraph) {
  const Graph g = path_graph(9);
  Rng rng(3);
  EXPECT_EQ(diameter_estimate(g, rng), 8u);
}

TEST(DiameterEstimate, RandomGraphIsSmall) {
  Rng rng(5);
  const Graph g = erdos_renyi_gnm(500, 5000, rng);
  Rng r(3);
  const auto d = diameter_estimate(g, r);
  EXPECT_GE(d, 2u);
  EXPECT_LE(d, 8u);
}

TEST(MaskedDegree, CountsOnlyIncludedNeighbors) {
  const Graph g = star(4);
  NodeMask mask(5, true);
  mask.set(1, false);
  mask.set(2, false);
  EXPECT_EQ(masked_degree(g, 0, mask), 2u);
  EXPECT_EQ(masked_degree(g, 3, mask), 1u);
}

TEST(DegreeHistogram, StarGraph) {
  const Graph g = star(5);
  const auto h = degree_histogram(g);
  EXPECT_EQ(h.count(5), 1u);  // hub
  EXPECT_EQ(h.count(1), 5u);  // leaves
  EXPECT_EQ(h.total(), 6u);
}

}  // namespace
}  // namespace ppo::graph
