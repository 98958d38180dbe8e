// Output checks the benchmark computes on its own. This file and
// checks.cpp include no program header: every check recomputes its
// expectation from the program's raw outputs (edge list, online mask,
// reported figures) or tests a property the method must have, so a
// fault in the program's own measurement code cannot vouch for itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/// One violated property: `check` names it (stable, used by the
/// mutation self-test), `detail` says what was seen.
struct Failure {
  std::string check;
  std::string detail;
};
using Failures = std::vector<Failure>;

/// The trust graph the overlay was built on, as plain data.
struct TrustInput {
  std::size_t nodes = 0;
  std::vector<Edge> edges;             // u < v, sorted, each edge once
  std::vector<std::uint32_t> degree;   // per node
  std::size_t target_links = 0;        // overlay parameter
};

/// What a run returned at its horizon, as the program reported it.
struct OverlayOutput {
  std::vector<Edge> edges;       // the overlay edge list
  std::vector<char> online;      // online mask, one entry per node
  std::size_t online_count = 0;  // the program's online count
  double fraction_disconnected = 0.0;  // the program's Figure 3 value
};

/// Fraction of online nodes outside the largest component of the
/// subgraph the online nodes induce on `edges` (own union-find).
double fraction_disconnected(std::size_t nodes, const std::vector<Edge>& edges,
                             const std::vector<char>& online);

/// Edge list well-formed (sorted, u < v, no duplicates, endpoints in
/// range), every trust edge present, pseudonym links within the slot
/// budget sum_u max(0, target_links - deg_trust(u)), online count equal
/// to the mask's, and fraction_disconnected equal to the own value.
void check_overlay(const OverlayOutput& out, const TrustInput& trust,
                   Failures& failures);

void check_equal(const char* check, const std::string& what,
                 std::uint64_t expected, std::uint64_t got,
                 Failures& failures);

/// A Figure 3 table: one row of values per series, on the alpha axis.
struct Fig3Table {
  std::vector<double> alphas;
  std::vector<std::string> names;
  std::vector<std::vector<double>> values;  // values[series][alpha]
};

/// The paper's Figure 3 shape: each overlay no worse than its trust
/// graph at every alpha, overlays near zero for alpha >= 0.5, the
/// random reference near zero everywhere.
void check_fig3_shape(const Fig3Table& table, Failures& failures);

/// Mutation self-tests: each feeds a corrupted copy of real outputs to
/// the checks above and records a failure when the corruption is not
/// rejected by the check meant to catch it.
void selftest_overlay(const OverlayOutput& out, const TrustInput& trust,
                      Failures& failures);
void selftest_fingerprint(std::uint64_t fingerprint, Failures& failures);
void selftest_fig3(const Fig3Table& table, Failures& failures);

}  // namespace perfbench
