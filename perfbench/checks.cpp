#include "checks.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

// Figure 3 shape tolerances. An overlay may read above its trust graph
// only by sampling noise; "near zero" follows the paper's reading of
// its own figure (overlay and random curves hug the axis).
constexpr double kWorseTolerance = 0.01;
constexpr double kOverlayNearZero = 0.05;
constexpr double kOverlayNearZeroFromAlpha = 0.5;
constexpr double kRandomNearZero = 0.02;

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

bool has_check(const Failures& failures, const std::string& check) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const Failure& f) { return f.check == check; });
}

/// Records a self-test failure unless `mutated` tripped `check`.
void expect_rejected(const char* mutation, const std::string& check,
                     const Failures& mutated, Failures& failures) {
  if (!has_check(mutated, check))
    failures.push_back({"selftest", cat("mutation '", mutation,
                                        "' was not rejected by ", check)});
}

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }
  std::uint32_t find(std::uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }
  std::size_t size_of(std::uint32_t v) { return size_[find(v)]; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::size_t> size_;
};

const std::vector<double>* series(const Fig3Table& table,
                                  const std::string& name) {
  for (std::size_t i = 0; i < table.names.size(); ++i)
    if (table.names[i] == name && i < table.values.size() &&
        table.values[i].size() == table.alphas.size())
      return &table.values[i];
  return nullptr;
}

}  // namespace

double fraction_disconnected(std::size_t nodes, const std::vector<Edge>& edges,
                             const std::vector<char>& online) {
  UnionFind uf(nodes);
  for (const auto& [u, v] : edges)
    if (u < nodes && v < nodes && online[u] && online[v]) uf.unite(u, v);
  std::size_t online_nodes = 0;
  std::size_t largest = 0;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    if (!online[v]) continue;
    ++online_nodes;
    largest = std::max(largest, uf.size_of(v));
  }
  if (online_nodes == 0) return 0.0;
  return static_cast<double>(online_nodes - largest) /
         static_cast<double>(online_nodes);
}

void check_overlay(const OverlayOutput& out, const TrustInput& trust,
                   Failures& failures) {
  const std::size_t n = trust.nodes;
  const auto& e = out.edges;
  for (std::size_t i = 0; i < e.size(); ++i) {
    const auto [u, v] = e[i];
    if (u >= n || v >= n) {
      failures.push_back({"edge_range", cat("edge ", i, " (", u, ",", v,
                                            ") has an endpoint >= ", n)});
      return;
    }
    if (u >= v) {
      failures.push_back(
          {"edge_orientation", cat("edge ", i, " (", u, ",", v, ") not u < v")});
      return;
    }
    if (i > 0 && e[i - 1] == e[i]) {
      failures.push_back(
          {"duplicate_edge", cat("edge (", u, ",", v, ") listed twice")});
      return;
    }
    if (i > 0 && e[i] < e[i - 1]) {
      failures.push_back({"edge_order", cat("edge ", i, " out of order")});
      return;
    }
  }

  // Both lists are sorted: one merge walk finds every missing trust edge.
  std::size_t missing = 0;
  std::size_t j = 0;
  for (const Edge& t : trust.edges) {
    while (j < e.size() && e[j] < t) ++j;
    if (j == e.size() || e[j] != t) ++missing;
  }
  if (missing > 0)
    failures.push_back({"trust_edge_missing",
                        cat(missing, " of ", trust.edges.size(),
                            " trust edges absent from the overlay")});

  std::size_t slot_budget = 0;
  for (const std::uint32_t d : trust.degree)
    if (trust.target_links > d) slot_budget += trust.target_links - d;
  const std::size_t extra =
      e.size() > trust.edges.size() ? e.size() - trust.edges.size() : 0;
  if (extra > slot_budget)
    failures.push_back({"size_bound", cat(extra, " pseudonym links exceed the ",
                                          slot_budget, "-slot budget")});

  if (out.online.size() != n) {
    failures.push_back({"online_count", cat("online mask covers ",
                                            out.online.size(), " of ", n,
                                            " nodes")});
    return;
  }
  const auto mask_count = static_cast<std::size_t>(
      std::count_if(out.online.begin(), out.online.end(),
                    [](char c) { return c != 0; }));
  if (mask_count != out.online_count)
    failures.push_back({"online_count", cat("program reports ", out.online_count,
                                            " online, mask holds ", mask_count)});

  const double own = fraction_disconnected(n, e, out.online);
  if (own != out.fraction_disconnected)
    failures.push_back({"fraction_disconnected",
                        cat("program ", out.fraction_disconnected,
                            ", own union-find ", own)});
}

void check_equal(const char* check, const std::string& what,
                 std::uint64_t expected, std::uint64_t got,
                 Failures& failures) {
  if (expected != got)
    failures.push_back(
        {check, cat(what, ": expected ", expected, ", got ", got)});
}

void check_fig3_shape(const Fig3Table& table, Failures& failures) {
  static const std::pair<const char*, const char*> kPairs[] = {
      {"overlay-f1.0", "trust-f1.0"}, {"overlay-f0.5", "trust-f0.5"}};
  const std::vector<double>* random = series(table, "random");
  if (random == nullptr) {
    failures.push_back({"fig3_shape", "series 'random' missing"});
    return;
  }
  for (const auto& [overlay_name, trust_name] : kPairs) {
    const std::vector<double>* overlay = series(table, overlay_name);
    const std::vector<double>* trust = series(table, trust_name);
    if (overlay == nullptr || trust == nullptr) {
      failures.push_back({"fig3_shape", cat("series '", overlay_name,
                                            "' or '", trust_name, "' missing")});
      continue;
    }
    for (std::size_t a = 0; a < table.alphas.size(); ++a) {
      const double alpha = table.alphas[a];
      if ((*overlay)[a] > (*trust)[a] + kWorseTolerance)
        failures.push_back({"fig3_overlay_worse",
                            cat(overlay_name, " ", (*overlay)[a], " > ",
                                trust_name, " ", (*trust)[a], " at alpha ",
                                alpha)});
      if (alpha >= kOverlayNearZeroFromAlpha &&
          (*overlay)[a] > kOverlayNearZero)
        failures.push_back({"fig3_overlay_not_near_zero",
                            cat(overlay_name, " ", (*overlay)[a], " at alpha ",
                                alpha)});
    }
  }
  for (std::size_t a = 0; a < table.alphas.size(); ++a)
    if ((*random)[a] > kRandomNearZero)
      failures.push_back({"fig3_random_not_near_zero",
                          cat("random ", (*random)[a], " at alpha ",
                              table.alphas[a])});
}

void selftest_overlay(const OverlayOutput& out, const TrustInput& trust,
                      Failures& failures) {
  if (trust.edges.empty() || out.edges.empty()) {
    failures.push_back({"selftest", "no edges to mutate"});
    return;
  }
  {
    OverlayOutput m = out;
    const Edge victim = trust.edges[trust.edges.size() / 2];
    const auto it = std::find(m.edges.begin(), m.edges.end(), victim);
    if (it == m.edges.end()) {
      failures.push_back({"selftest", "trust edge to drop is not listed"});
    } else {
      m.edges.erase(it);
      Failures got;
      check_overlay(m, trust, got);
      expect_rejected("dropped trust edge", "trust_edge_missing", got,
                      failures);
    }
  }
  {
    OverlayOutput m = out;
    const std::size_t k = m.edges.size() / 2;
    m.edges.insert(m.edges.begin() + static_cast<std::ptrdiff_t>(k),
                   m.edges[k]);
    Failures got;
    check_overlay(m, trust, got);
    expect_rejected("duplicated edge", "duplicate_edge", got, failures);
  }
  {
    OverlayOutput m = out;
    m.online_count += 1;
    Failures got;
    check_overlay(m, trust, got);
    expect_rejected("wrong online count", "online_count", got, failures);
  }
  {
    OverlayOutput m = out;
    const auto online = std::max<std::size_t>(1, m.online_count);
    m.fraction_disconnected += 1.0 / static_cast<double>(online);
    Failures got;
    check_overlay(m, trust, got);
    expect_rejected("wrong fraction_disconnected", "fraction_disconnected",
                    got, failures);
  }
  {
    TrustInput t = trust;
    t.target_links = 0;
    Failures got;
    check_overlay(out, t, got);
    expect_rejected("zero slot budget", "size_bound", got, failures);
  }
}

void selftest_fingerprint(std::uint64_t fingerprint, Failures& failures) {
  Failures got;
  check_equal("fingerprint", "mutated", fingerprint, fingerprint ^ 1, got);
  expect_rejected("wrong fingerprint", "fingerprint", got, failures);
}

void selftest_fig3(const Fig3Table& table, Failures& failures) {
  Fig3Table m = table;
  for (std::size_t i = 0; i < m.names.size(); ++i) {
    if (m.names[i] != "overlay-f0.5") continue;
    const std::vector<double>* trust = series(table, "trust-f0.5");
    if (trust == nullptr || m.values[i].empty()) break;
    m.values[i][0] = (*trust)[0] + 0.1;
  }
  Failures got;
  check_fig3_shape(m, got);
  expect_rejected("overlay worse than trust graph", "fig3_overlay_worse", got,
                  failures);
}

}  // namespace perfbench
