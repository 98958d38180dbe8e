// Orchestrates the full overlay-maintenance service inside the
// simulator: N protocol nodes built from a trust graph, churn-driven
// online/offline transitions, the ideal privacy-preserving transport,
// and snapshotting for the paper's metrics.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/engine.hpp"
#include "adversary/plan.hpp"
#include "churn/churn_driver.hpp"
#include "common/arena.hpp"
#include "churn/churn_model.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_transport.hpp"
#include "graph/graph.hpp"
#include "inference/observer.hpp"
#include "metrics/protocol_health.hpp"
#include "overlay/edge_view.hpp"
#include "overlay/node.hpp"
#include "overlay/params.hpp"
#include "privacylink/mix_transport.hpp"
#include "privacylink/pseudonym_service.hpp"
#include "privacylink/transport.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"

namespace ppo::overlay {

struct OverlayServiceOptions {
  OverlayParams params{};
  privacylink::TransportOptions transport{};

  /// Full-stack mode: protocol messages ride real onion circuits
  /// through a MixNetwork instead of the ideal transport. Expensive;
  /// for small-scale validation and demos (see DESIGN.md).
  bool use_mix_network = false;
  privacylink::MixOptions mix{};
  privacylink::MixTransportOptions mix_transport{};

  /// Fault-injection extension: when set and enabled(), the transport
  /// is wrapped in a FaultyTransport applying this plan. An absent or
  /// inert plan leaves the simulation bit-identical to an unwrapped
  /// run (the fault stream has its own seed).
  std::optional<fault::FaultPlan> link_faults{};

  /// Byzantine-adversary extension (§III-E): when set and enabled(),
  /// an AdversaryEngine intercepts the shuffle send seams and drives
  /// the plan's attacker roles. An absent or zero-fraction plan skips
  /// engine construction entirely, so the run stays bit-identical to
  /// the unwrapped baseline (the engine draws only from plan-derived
  /// streams, never from the service RNG).
  std::optional<adversary::AdversaryPlan> adversary{};

  /// Link-privacy measurement extension (§III): when set and
  /// enabled(), a passive ObserverAdversary records the shuffle
  /// traffic its observation model can see. Purely read-only at the
  /// same send seams — it never perturbs the trajectory — and a
  /// zero-coverage plan skips construction entirely, keeping the run
  /// bit-identical to one with no plan at all.
  std::optional<inference::ObserverPlan> observer{};
};

class OverlayService final : public NodeEnvironment {
 public:
  /// `trust_graph` defines the initial membership (one node per
  /// vertex) and the trusted links; the service keeps its own copy so
  /// members can be added later (see add_member).
  OverlayService(sim::Simulator& sim, const graph::Graph& trust_graph,
                 const churn::ChurnModel& churn_model,
                 OverlayServiceOptions options, Rng rng);

  /// Heterogeneous churn: node v follows *churn_models[v] (size must
  /// equal the trust graph's node count). Models must outlive the
  /// service.
  OverlayService(sim::Simulator& sim, const graph::Graph& trust_graph,
                 std::vector<const churn::ChurnModel*> churn_models,
                 OverlayServiceOptions options, Rng rng);

  /// Extension beyond the paper (§II-B leaves mutable trust graphs as
  /// future work; node/edge ADDITION "does not raise privacy
  /// concerns"): a new user joins with trust edges to the existing
  /// members who invited them. The node comes online immediately and
  /// integrates through the normal protocol. Requires start().
  NodeId add_member(const std::vector<NodeId>& trusted_neighbors);

  /// Samples initial online states and schedules churn + shuffle
  /// ticks (each node with a random phase inside the period).
  void start();

  // --- NodeEnvironment ---
  sim::Time now() const override { return sim_.now(); }
  bool is_online(NodeId node) const override {
    return churn_.is_online(node);
  }
  PseudonymRecord mint_pseudonym(NodeId owner, double lifetime) override;
  std::optional<NodeId> resolve(PseudonymValue value) override;

  /// Pseudonym-service availability toggle, driven by a FaultInjector
  /// blackout schedule: while unavailable, protocol-level resolution
  /// (NodeEnvironment::resolve) fails. Metric snapshots keep their
  /// omniscient view. Minting stays local (see fault_injector.hpp).
  void set_pseudonym_service_available(bool available) {
    pseudonym_service_available_ = available;
  }
  bool pseudonym_service_available() const {
    return pseudonym_service_available_;
  }
  void send_shuffle_request(NodeId from, NodeId to,
                            std::vector<PseudonymRecord> set) override;
  void send_shuffle_response(NodeId from, NodeId to,
                             std::vector<PseudonymRecord> set) override;
  void schedule(double delay, sim::EventFn fn) override;
  /// Real ticket of the most recent schedule() (timer journaling —
  /// restored one-shot timers must keep their original seq so ties at
  /// equal fire time replay in the original order).
  sim::EventTicket last_scheduled() const override {
    return sim_.last_ticket();
  }

  // --- inspection ---
  std::size_t num_nodes() const { return nodes_.size(); }
  const graph::Graph& trust_graph() const { return trust_graph_; }
  const graph::NodeMask& online_mask() const { return churn_.online_mask(); }
  std::size_t online_count() const { return churn_.online_count(); }
  OverlayNode& node(NodeId id) { return nodes_[id]; }
  const OverlayNode& node(NodeId id) const { return nodes_[id]; }
  churn::ChurnDriver& churn_driver() { return churn_; }
  /// The transport protocol messages go through (the fault wrapper
  /// when link_faults is enabled, the bare transport otherwise).
  const privacylink::LinkTransport& transport() const { return *link_; }
  const privacylink::PseudonymService& pseudonym_service() const {
    return pseudonyms_;
  }
  /// The mix network backing the transport (mix mode only).
  const privacylink::MixNetwork* mix_network() const { return mix_.get(); }
  /// Mutable access for fault-injection hooks (relay crash/revive).
  privacylink::MixNetwork* mutable_mix_network() { return mix_.get(); }
  /// The fault wrapper, if link_faults was set and enabled.
  const fault::FaultyTransport* fault_transport() const {
    return faulty_.get();
  }
  /// The adversary engine, if an enabled plan was set.
  const adversary::AdversaryEngine* adversary_engine() const {
    return engine_.get();
  }
  /// The passive observer, if an enabled plan was set.
  const inference::ObserverAdversary* observer() const {
    return observer_.get();
  }

  /// The current overlay graph over ALL nodes (online and offline):
  /// trust edges plus an edge {u, v} whenever u holds a live
  /// pseudonym of v. Metrics mask it with online_mask().
  graph::Graph overlay_snapshot();

  /// The same edge set as overlay_snapshot(), normalized (u < v,
  /// sorted, deduplicated) without materializing a Graph: per-node
  /// resolved-target slices are memoized across calls and re-derived
  /// only when the node's sampler mutated or an expiry passed (see
  /// edge_view.hpp). The span is valid until the next call. This is
  /// the measurement loop's path; feed it to
  /// CsrGraph::assign_from_edges or StreamingConnectivity.
  std::span<const std::pair<graph::NodeId, graph::NodeId>> overlay_edges();
  const OverlayEdgeView& edge_view() const { return edge_view_; }

  /// The nodes `v` can currently reach over its own links (n.links):
  /// trusted neighbors plus the owners of its live sampled
  /// pseudonyms. What an application layer on top of the overlay
  /// sends to (it addresses the LINKS; the identities here are
  /// simulator-level bookkeeping).
  std::vector<NodeId> current_peers(NodeId v);

  /// Aggregated per-node accounting.
  SlotSampler::ReplacementCounters total_replacements() const;
  OverlayNode::Counters total_counters() const;

  /// Protocol + transport degradation rollup for figure reports.
  metrics::ProtocolHealth protocol_health() const;

  /// Arena bytes reserved for all per-node hot state (cache entries,
  /// sampler slot arrays, pending-exchange blocks) — the numerator of
  /// the bytes-per-node telemetry in the crawl-scale reports.
  std::size_t node_state_bytes() const { return arena_.bytes_reserved(); }

  /// --- checkpoint/restore -------------------------------------------
  /// True when this configuration's full state can be snapshotted:
  /// ideal transport only (no mix network), and a fault plan whose
  /// deliveries are single-stage (no jitter/reorder).
  bool checkpointable() const {
    return !options_.use_mix_network &&
           (faulty_ == nullptr || faulty_->plan_checkpointable());
  }

  /// Arms the in-flight delivery journal on the transport stack. Must
  /// be called before start() (or restore_from_checkpoint()); aborts
  /// when !checkpointable().
  void enable_checkpointing();

  /// Serializes the complete mutable state (simulator clock/sequence,
  /// every RNG stream, node hot state, pending timers and in-flight
  /// messages). Call only at a quiescent point, after run_until
  /// returned. Requires enable_checkpointing().
  void save_checkpoint(ckpt::Writer& w) const;

  /// Counterpart: call INSTEAD of start(), on a freshly constructed
  /// service over the same graph/options/seed, after
  /// enable_checkpointing(). Overwrites all mutable state and
  /// re-registers every pending event at its original canonical queue
  /// position. Throws ckpt::ParseError on any inconsistency.
  void restore_from_checkpoint(ckpt::Reader& r);

  /// Drops journal entries whose deliveries have already executed
  /// (bounds memory on long runs; call between windows).
  void prune_checkpoint_journal() {
    if (journal_) journal_->prune(sim_.now());
  }

 private:
  /// Starts one node's periodic shuffle schedule.
  void start_ticks(NodeId v);

  /// Builds the adversary engine when an enabled plan is configured.
  void init_adversary();

  /// Sampler slots of honest nodes currently resolving to an attacker
  /// (the eclipse-capture measure; 0 without an engine).
  std::uint64_t count_eclipsed_slots() const;

  /// Serializes everything a delivery closure needs so it can be
  /// rebuilt after a restore (checkpoint journal payload recipe).
  std::string encode_delivery(
      bool is_response, NodeId from, NodeId to,
      const std::vector<PseudonymRecord>& set,
      const std::optional<inference::PendingObservation>& observed) const;
  sim::EventFn decode_delivery(const std::string& blob);

  sim::Simulator& sim_;
  graph::Graph trust_graph_;  // owned: add_member mutates it
  OverlayServiceOptions options_;
  Rng rng_;
  privacylink::PseudonymService pseudonyms_;
  churn::ChurnDriver churn_;
  std::unique_ptr<privacylink::MixNetwork> mix_;  // mix mode only
  std::unique_ptr<privacylink::LinkTransport> transport_;  // bare inner
  std::unique_ptr<fault::FaultyTransport> faulty_;  // optional wrapper
  privacylink::LinkTransport* link_ = nullptr;  // what sends go through
  /// Typed view of transport_ in ideal-transport mode (checkpointing;
  /// null in mix mode).
  privacylink::Transport* bare_ = nullptr;
  std::unique_ptr<privacylink::DeliveryJournal> journal_;
  bool pseudonym_service_available_ = true;
  std::unique_ptr<adversary::AdversaryEngine> engine_;  // optional
  std::unique_ptr<inference::ObserverAdversary> observer_;  // optional
  /// Backs every node's hot state (cache entries, sampler slot
  /// arrays, pending-exchange blocks). Declared before nodes_ so it
  /// outlives them; allocation happens only at node construction, so
  /// sharded workers never touch it concurrently.
  Arena arena_;
  /// Nodes by value: the per-node containers the hot path walks live
  /// in arena_, and the node objects themselves are chunk-allocated
  /// instead of one heap object per node. A deque (not a vector)
  /// because add_member grows it while node-scheduled timer lambdas
  /// hold pointers to live nodes — deque push_back never relocates
  /// existing elements.
  std::deque<OverlayNode> nodes_;
  std::vector<sim::PeriodicTask> ticks_;
  /// Memoized overlay-edge enumeration (overlay_edges()).
  OverlayEdgeView edge_view_;
  bool started_ = false;
};

}  // namespace ppo::overlay
