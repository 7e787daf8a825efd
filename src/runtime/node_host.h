// NodeHost — the one wall-clock host behind both real substrates (§8.5).
//
// Everything a real deployment wraps around the sans-io epto::Process
// lives here once: derived K/TTL, the tick clock, the fault gate with
// crash/restart bookkeeping, the process and controller factories, the
// static peer sampler, the broadcast path through the shard mailbox, the
// round body (inject broadcasts, onRound, controller feedback, publish
// metrics), the registry/latency/scrape wiring, the tracker/ledger
// quiescence accounting and one shard loop on ShardedExecutor.
//
// A substrate driver (RuntimeCluster over the in-memory transport,
// UdpCluster over loopback sockets) derives from the host and supplies
// two steps: ingest (hand whatever arrived for a node to its Process)
// and send (ship a round's ball to its targets). A few optional hooks
// let UDP keep its overload machinery: blocking on its sockets, dropping
// queued input across a crash, round-end bookkeeping and its metrics.
//
// Time: a round's fault gate and every link fate of that round read ONE
// timestamp, so a node that passes its crash gate cannot have its own
// sends cut as "from a crashed source" a moment later.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adapt/controller.h"
#include "core/process.h"
#include "fault/fault_controller.h"
#include "fault/fault_plan.h"
#include "metrics/delivery_tracker.h"
#include "metrics/quiescence.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "obs/scrape.h"
#include "runtime/sharded_executor.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace epto::runtime {

using Clock = std::chrono::steady_clock;

/// The options every substrate shares; RuntimeOptions and
/// UdpClusterOptions add their transport's own.
struct NodeOptions {
  std::size_t nodeCount = 8;
  /// Round period delta; jittered per round by +- roundJitter.
  std::chrono::microseconds roundPeriod{4000};
  double roundJitter = 0.05;
  ClockMode clockMode = ClockMode::Logical;
  std::optional<std::size_t> fanoutOverride;
  std::optional<std::uint32_t> ttlOverride;
  /// Speculative delivery (core/speculation.h): Fast-class broadcasts
  /// surface ahead of the committed frontier with confirm/revoke
  /// notifications; committed delivery is unaffected.
  bool speculation = false;
  /// Online TTL/K feedback control (adapt/controller.h): each node runs
  /// a FeedbackController off its observed ball-arrival shortfall and
  /// retunes its Process within the Lemma-safe envelope.
  bool adaptive = false;
  /// Ceiling of the adaptation envelope (worst loss compensated).
  double adaptiveWorstCaseLoss = 0.15;
  /// When non-empty, the flight recorder (obs/flight_recorder.h) is
  /// dumped to this JSONL file whenever a fault-plan crash takes a node
  /// down (UDP also dumps on stall-watchdog recoveries).
  std::string flightDumpPath;
  /// Scheduled fault injection (fault/fault_plan.h). Timestamps are in
  /// microseconds since start(). Null = fault-free. Must outlive the
  /// cluster. A crashed node tears its Process down and idles; at the
  /// restart time it rejoins with fresh state (a new incarnation of the
  /// same ProcessId) and must re-converge.
  const fault::FaultPlan* faultPlan = nullptr;
  std::uint64_t seed = 42;
  /// Background metrics scrape. 0 disables the thread unless
  /// metricsOutPath is set (then a 100ms default applies). Every node
  /// publishes its MetricsSnapshot into the cluster registry after each
  /// round; the scrape thread snapshots the registry run-wide.
  std::chrono::milliseconds scrapeInterval{0};
  /// JSONL time-series destination; empty = no file output.
  std::string metricsOutPath;
};

class NodeHost {
 public:
  /// Drivers must call stop() first in their own destructor: the shard
  /// threads run driver code until they are joined.
  virtual ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Launch the shard threads (and the scrape loop).
  void start();

  /// Ask node `index` to broadcast before its next round; callable from
  /// any thread. Fast-class broadcasts are eligible for speculative
  /// delivery (no-op unless options.speculation is on).
  void broadcast(std::size_t index, PayloadPtr payload = {},
                 QosClass qos = QosClass::Safe);

  /// Signal and join the shard threads. Idempotent.
  void stop();

  /// Block until every broadcast so far has been delivered by every node
  /// that still owes it — crashed nodes owe nothing, restarted nodes only
  /// owe events broadcast after they rejoined — or `timeout` elapsed.
  /// Returns true when fully drained; on timeout, lastQuiescenceReport()
  /// names the outstanding (event, nodes) pairs.
  bool awaitQuiescence(std::chrono::milliseconds timeout) EPTO_EXCLUDES(trackerMutex_);

  /// Diagnosis of the most recent awaitQuiescence() timeout ("" after a
  /// successful wait).
  [[nodiscard]] std::string lastQuiescenceReport() const EPTO_EXCLUDES(trackerMutex_);

  /// Judge the run so far (normally called after stop()).
  [[nodiscard]] metrics::TrackerReport report() const EPTO_EXCLUDES(trackerMutex_);
  [[nodiscard]] std::uint64_t broadcastCount() const EPTO_EXCLUDES(trackerMutex_);

  [[nodiscard]] std::size_t fanoutUsed() const noexcept { return fanout_; }
  [[nodiscard]] std::uint32_t ttlUsed() const noexcept { return ttl_; }
  /// Worker shards driving the nodes.
  [[nodiscard]] std::size_t shardCountUsed() const noexcept {
    return executor_->shardCount();
  }
  /// Broadcast commands refused by a full shard mailbox (each was
  /// retried until accepted; this counts the backpressure events).
  [[nodiscard]] std::uint64_t mailboxPostRejections() const noexcept {
    return executor_->postRejections();
  }
  /// Null when the cluster has no fault plan.
  [[nodiscard]] const fault::FaultController* faultController() const noexcept {
    return faults_.get();
  }
  /// True while node `index` is inside a fault-injected crash window.
  [[nodiscard]] bool nodeDown(std::size_t index) const;

  /// The run-wide metrics registry. Safe to snapshot from any thread.
  [[nodiscard]] obs::Registry& metricsRegistry() noexcept { return registry_; }
  /// Prometheus text exposition of the registry, covering every
  /// OrderingStats/DisseminationStats counter of every node.
  [[nodiscard]] std::string prometheusSnapshot();
  /// Scrapes performed by the background loop (0 when disabled).
  [[nodiscard]] std::uint64_t scrapeCount() const noexcept {
    return scrape_ != nullptr ? scrape_->scrapeCount() : 0;
  }
  /// The cluster-wide latency decomposition sink (obs/latency.h); install
  /// hooks before start().
  [[nodiscard]] obs::LatencyRecorder& latencyRecorder() noexcept {
    return latencyRecorder_;
  }
  /// Dump the process-global flight recorder to `path` (JSONL, append),
  /// tagged with `reason`. Returns records written. Callable any time —
  /// the operator's "what just happened" lever.
  std::size_t dumpFlightRecorder(const std::string& path,
                                 const std::string& reason = "manual");

  /// Run node `index`'s step on the calling thread exactly as its shard
  /// would at `now` (microseconds since the epoch): substrate ingest,
  /// then the fault gate and the round, all at that one timestamp. Only
  /// legal before start(): it lets tests play a one-shard schedule with
  /// explicit time instead of sleeping.
  void stepNode(std::size_t index, Timestamp now);

 protected:
  struct PendingBroadcast {
    PayloadPtr payload;
    QosClass qos = QosClass::Safe;
  };

  /// One hosted node. Everything but `up` and the broadcast queue is
  /// owning-shard only (DESIGN.md §16); drivers derive from it to add
  /// their transport's per-node state.
  struct Node {
    virtual ~Node() = default;
    ProcessId id = 0;
    std::unique_ptr<Process> process;
    /// Null unless options.adaptive.
    std::unique_ptr<adapt::FeedbackController> controller;
    std::uint64_t lastBallsReceived = 0;
    /// Leaf lock: never held together with trackerMutex_ (DESIGN.md §12).
    util::Mutex broadcastMutex;
    std::vector<PendingBroadcast> pendingBroadcasts EPTO_GUARDED_BY(broadcastMutex);
    /// False while inside a crash window. Written by the owning shard,
    /// read by broadcast() and the quiescence bookkeeping.
    std::atomic<bool> up{true};
    std::uint32_t incarnation = 0;
    util::Rng rng{0};
    Clock::time_point nextRound{};
    bool stallNoted = false;
  };

  using NodeFactory = std::function<std::unique_ptr<Node>()>;

  /// `modelLossRate` is the loss rate the stability oracle assumes;
  /// `shardCount` 0 means the executor default (one shard per hardware
  /// thread); `makeNode` allocates the driver's Node subtype (null = a
  /// plain Node).
  NodeHost(const NodeOptions& options, double modelLossRate, std::size_t shardCount = 0,
           std::size_t mailboxCapacity = 1024, const NodeFactory& makeNode = nullptr);

  // --- the substrate steps (owning shard only) ---------------------------
  /// Hand whatever arrived for `node` to its Process.
  virtual void ingest(Node& node) = 0;
  /// Ship this round's output; `now` is the round's timestamp, the one
  /// its fault gate read — link fates must be judged at it.
  virtual void send(Node& node, const Process::RoundOutput& out, Timestamp now) = 0;
  /// Block until `deadline`, the shard's next due round. A driver with
  /// pollable input may return early to ingest it; the default sleeps.
  virtual void awaitInput(ShardedExecutor::ShardContext& ctx, Clock::time_point deadline);
  /// Drop every input queued for `node` (crash and rejoin).
  virtual void discardInput(Node& node);
  /// Round-end bookkeeping after the round's send. Returning true means
  /// the node was recovered from a backlog and must re-anchor its
  /// schedule to now instead of advancing it.
  virtual bool finishRound(Node& node, Clock::duration lateness);
  /// Copy the driver's own counters into the registry (any thread).
  virtual void publishSubstrateMetrics();
  /// The shard is exiting.
  virtual void finishShard(ShardedExecutor::ShardContext& ctx);

  [[nodiscard]] Node& node(std::size_t index) { return *nodes_[index]; }
  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodes_.size(); }
  /// The wall-clock instant of tick `ticks`.
  [[nodiscard]] Clock::time_point timeAt(Timestamp ticks) const;
  [[nodiscard]] fault::FaultController* faults() const noexcept { return faults_.get(); }

 private:
  void shardLoop(ShardedExecutor::ShardContext& ctx);
  /// Fault gate, then the round, at wall time `wall`; returns (and
  /// stores) the node's next due instant.
  Clock::time_point serviceNode(Node& node, Clock::time_point wall);
  void runRound(Node& node, Timestamp now);
  [[nodiscard]] Timestamp ticksNow() const;
  [[nodiscard]] std::unique_ptr<Process> makeProcess(ProcessId id,
                                                     std::uint32_t incarnation);
  /// Fresh controller starting at the cluster's static tuning (null when
  /// adaptation is off). Re-created on restart with the Process it steers.
  [[nodiscard]] std::unique_ptr<adapt::FeedbackController> makeController(
      ProcessId id) const;
  void enterCrash(Node& node, Timestamp now) EPTO_EXCLUDES(trackerMutex_);
  void leaveCrash(Node& node, Timestamp now) EPTO_EXCLUDES(trackerMutex_);
  [[nodiscard]] std::vector<ProcessId> upNodes() const;
  [[nodiscard]] std::chrono::microseconds jitteredPeriod(util::Rng& rng) const;
  void publishMetrics();

  NodeOptions options_;
  double modelLossRate_ = 0.0;
  std::size_t fanout_ = 0;
  std::uint32_t ttl_ = 0;
  Clock::time_point epoch_;

  std::unique_ptr<fault::FaultController> faults_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<ShardedExecutor> executor_;

  /// Declared after nodes_ so it is destroyed before them: freeing the
  /// registry's many small blocks first leaves the allocator handing the
  /// next cluster's Processes warm memory (the other order measured
  /// ~4x slower Process construction, ~15-25% slower cluster set-up).
  obs::Registry registry_;
  /// Constructed after registry_ (it registers its histograms there).
  obs::LatencyRecorder latencyRecorder_{registry_};
  std::unique_ptr<obs::ScrapeLoop> scrape_;

  /// Correctness-accounting capability: tracker, ledger, lifetimes and
  /// the quiescence diagnosis move together. Leaf lock — nothing else is
  /// ever acquired while it is held.
  mutable util::Mutex trackerMutex_;
  metrics::DeliveryTracker tracker_ EPTO_GUARDED_BY(trackerMutex_);
  /// Who still owes which event (fault-aware quiescence).
  metrics::QuiescenceLedger ledger_ EPTO_GUARDED_BY(trackerMutex_);
  /// Final-incarnation lifetimes for report().
  std::unordered_map<ProcessId, metrics::ProcessLifetime> lifetimes_
      EPTO_GUARDED_BY(trackerMutex_);
  std::string quiescenceReport_ EPTO_GUARDED_BY(trackerMutex_);
  /// broadcast() requests not yet injected; quiescence requires the
  /// queue drained AND every owed delivery performed.
  std::atomic<std::uint64_t> requestedBroadcasts_{0};
  /// Requests discarded because the target node was crashed.
  std::atomic<std::uint64_t> discardedBroadcasts_{0};

  std::atomic<bool> running_{false};
};

}  // namespace epto::runtime
