// SimCluster — the full simulated deployment driving an experiment.
//
// Owns the discrete-event simulator, the network, the membership
// directory, the churn driver and one node per process (an EpTO Process,
// a balls-and-bins baseline instance, or a fixed-sequencer instance, plus
// its PSS). Exposed as a class (rather than hidden behind runExperiment)
// so integration tests can step the simulation and inspect live state.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "adapt/controller.h"
#include "baselines/balls_bins_broadcast.h"
#include "baselines/pbcast.h"
#include "baselines/sequencer.h"
#include "core/ingress_guard.h"
#include "core/process.h"
#include "fault/adversary.h"
#include "metrics/delivery_tracker.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "pss/basalt.h"
#include "pss/cyclon.h"
#include "sim/churn.h"
#include "sim/membership.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace epto::workload {

/// PSS gossip traffic shares the simulated network with the balls.
struct ShuffleRequestMsg {
  pss::CyclonView entries;
};
struct ShuffleReplyMsg {
  pss::CyclonView entries;
};
struct GossipPushMsg {
  pss::DescriptorView buffer;
};
struct GossipReplyMsg {
  pss::DescriptorView buffer;
};
struct BasaltRequestMsg {
  std::vector<ProcessId> candidates;
};
struct BasaltReplyMsg {
  std::vector<ProcessId> candidates;
};

using NetMessage =
    std::variant<BallPtr, ShuffleRequestMsg, ShuffleReplyMsg, GossipPushMsg,
                 GossipReplyMsg, BasaltRequestMsg, BasaltReplyMsg,
                 baselines::SubmitMessage, baselines::StampedMessage>;

class SimCluster {
 public:
  explicit SimCluster(const ExperimentConfig& config);

  /// Execute the whole schedule: warmup, broadcast window, drain.
  void run();

  /// Judge the run (call after run()).
  [[nodiscard]] ExperimentResult result() const;

  // --- introspection for tests -------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] const sim::MembershipDirectory& membership() const noexcept {
    return membership_;
  }
  [[nodiscard]] const metrics::DeliveryTracker& tracker() const noexcept { return tracker_; }
  [[nodiscard]] const std::vector<RoundSample>& roundSamples() const noexcept {
    return roundSamples_;
  }
  [[nodiscard]] const obs::Registry& metricsRegistry() const noexcept { return registry_; }
  /// The cluster-wide latency decomposition sink every EpTO node reports
  /// into (obs/latency.h). Tests install a hook before run().
  [[nodiscard]] obs::LatencyRecorder& latencyRecorder() noexcept {
    return latencyRecorder_;
  }
  /// Null when the experiment has no fault plan.
  [[nodiscard]] const fault::FaultController* faultController() const noexcept {
    return faults_.get();
  }
  /// Null when the experiment has no adversary plan.
  [[nodiscard]] const fault::AdversaryController* adversaryController() const noexcept {
    return adversary_.get();
  }
  /// Mean fraction of Byzantine ids across honest PSS views right now
  /// (0 with no adversary). See ExperimentResult::viewPoisonFraction.
  [[nodiscard]] double viewPoisonFraction() const;
  [[nodiscard]] std::size_t liveNodeCount() const noexcept { return liveNodes_; }
  [[nodiscard]] Timestamp broadcastWindowEnd() const noexcept { return broadcastEnd_; }
  /// Per-node pending (received-but-undelivered) events — §8.4 surface.
  [[nodiscard]] std::vector<Event> pendingEventsOf(ProcessId id) const;

 private:
  struct Node {
    ProcessId id = 0;
    double speedFactor = 1.0;
    bool stallNoted = false;  ///< current fault-plan stall window entered.
    util::Rng rng;
    std::shared_ptr<PeerSampler> sampler;
    std::shared_ptr<pss::Cyclon> cyclon;      // aliases sampler for PssKind::Cyclon
    std::shared_ptr<pss::GenericPss> generic; // aliases sampler for PssKind::Generic
    std::shared_ptr<pss::Basalt> basalt;      // aliases sampler for PssKind::Basalt
    std::unique_ptr<Process> epto;
    std::unique_ptr<baselines::BallsBinsBroadcast> ballsBins;
    std::unique_ptr<baselines::SequencerProcess> sequencer;
    std::unique_ptr<baselines::PbcastProcess> pbcast;
    /// Adversary state (fault/adversary.h). A Byzantine node runs no
    /// protocol instance and no PSS — it is pure attacker.
    bool byzantine = false;
    std::uint32_t nextJunkSeq = 0;
    /// Captured honest balls awaiting stale replay: (ball, captured at).
    std::vector<std::pair<BallPtr, Timestamp>> replayBuffer;
    /// Honest-node ingress hardening (null when the guard is off).
    std::unique_ptr<core::IngressGuard> guard;
    /// Per-node feedback controller (null unless config.adaptive.enabled).
    std::unique_ptr<adapt::FeedbackController> controller;
    /// Dissemination ballsReceived at the last controller round, for the
    /// per-round arrival delta the loss estimate feeds on.
    std::uint64_t lastBallsReceived = 0;
  };

  /// The live node with this id, or null once it left (or never was).
  [[nodiscard]] Node* findNode(ProcessId id) noexcept {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  [[nodiscard]] const Node* findNode(ProcessId id) const noexcept {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  void spawnNode();
  void addNode(Node node);
  void killNode(ProcessId id);
  void scheduleRound(ProcessId id);
  void runRound(Node& node);
  void runAdversaryRound(Node& node);
  /// Up to `count` honest victims (never the attacker, never Byzantine).
  [[nodiscard]] std::vector<ProcessId> sampleHonestVictims(Node& node,
                                                           std::size_t count);
  /// The attacker's id followed by its accomplices, capped at `limit` —
  /// the payload of every poisoned PSS exchange.
  [[nodiscard]] std::vector<ProcessId> poisonIds(const Node& node,
                                                 std::size_t limit) const;
  [[nodiscard]] Event makeJunkEvent(Node& node, bool forgeLineage);
  /// Sum of all honest guards' verdict counters.
  [[nodiscard]] core::IngressStats aggregateIngressStats() const;
  void sampleRound(const Node& node, const Process::RoundOutput& out);
  void maybeBroadcast(Node& node);
  void doBroadcast(Node& node);
  void onMessage(ProcessId from, ProcessId to, const NetMessage& message);
  void sendSequencerOutgoing(ProcessId from,
                             const std::vector<baselines::SequencerProcess::Outgoing>& outs);
  [[nodiscard]] DeliverFn makeDeliverFn(ProcessId id);

  ExperimentConfig config_;
  std::size_t fanout_ = 0;
  std::uint32_t ttl_ = 0;
  Timestamp warmupEnd_ = 0;
  Timestamp broadcastEnd_ = 0;
  Timestamp runEnd_ = 0;

  util::Rng masterRng_;
  sim::Simulator simulator_;
  sim::MembershipDirectory membership_;
  /// Constructed before network_ (which captures a pointer to it).
  std::unique_ptr<fault::FaultController> faults_;
  /// Constructed before the spawn loop (spawnNode consults it).
  std::unique_ptr<fault::AdversaryController> adversary_;
  sim::SimNetwork<NetMessage> network_;
  metrics::DeliveryTracker tracker_;
  std::unique_ptr<sim::ChurnDriver> churn_;

  /// Run-wide observability: per-round histograms always, RoundSamples
  /// when config.metricsSampleEvery > 0 (see experiment.h).
  obs::Registry registry_;
  /// Constructed after registry_ (it registers its histograms there).
  obs::LatencyRecorder latencyRecorder_{registry_};
  obs::Histogram* ballSizeHist_ = nullptr;    // owned by registry_
  obs::Histogram* fanoutHist_ = nullptr;
  obs::Histogram* bufferHist_ = nullptr;
  std::vector<RoundSample> roundSamples_;

  /// Indexed by id, null once the node left. Ids are dense (nextId_++),
  /// so lookup is one index, and iteration runs in id order. Each Node is
  /// its own allocation, so a Node& survives spawns that grow the table.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t liveNodes_ = 0;
  std::unordered_map<ProcessId, metrics::ProcessLifetime> lifetimes_;
  /// Perturbed-process plan (ExperimentConfig::PausePlan), resolved.
  std::unordered_set<ProcessId> pausedIds_;
  Timestamp pauseStart_ = 0;
  Timestamp pauseEnd_ = 0;
  std::vector<ProcessId> staticMembers_;  // FixedSequencer only
  ProcessId nextId_ = 0;

  /// Broadcast instants by packed EventId, kept when speculation is on so
  /// speculative-delivery latency can be measured against the true
  /// broadcast time regardless of clock mode.
  std::unordered_map<std::uint64_t, Timestamp> broadcastTimes_;
  /// One sample per speculate across all nodes (ExperimentResult).
  std::vector<double> speculativeDelays_;

  std::uint64_t roundsExecuted_ = 0;
  /// Deliveries of Byzantine-authored events at honest nodes, excluded
  /// from the tracker (junk reaching the app is measured, not a
  /// protocol-property violation).
  std::uint64_t adversaryDeliveriesFiltered_ = 0;
};

}  // namespace epto::workload
