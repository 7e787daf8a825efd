#include "runtime/node_host.h"

#include <algorithm>
#include <thread>

#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/ensure.h"

namespace epto::runtime {

namespace {

using namespace std::chrono_literals;

/// Uniform sampler over a static membership 0..count-1 (the runtimes
/// have fixed membership; a deployment would plug a real PSS in).
class StaticSampler final : public PeerSampler {
 public:
  StaticSampler(ProcessId self, std::size_t count, util::Rng rng) : rng_(rng) {
    others_.reserve(count - 1);
    for (std::size_t id = 0; id < count; ++id) {
      if (static_cast<ProcessId>(id) != self) others_.push_back(static_cast<ProcessId>(id));
    }
  }

  std::vector<ProcessId> samplePeers(std::size_t k) override {
    const std::size_t want = std::min(k, others_.size());
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t j = i + rng_.below(others_.size() - i);
      std::swap(others_[i], others_[j]);
    }
    return {others_.begin(), others_.begin() + static_cast<std::ptrdiff_t>(want)};
  }

 private:
  util::Rng rng_;
  std::vector<ProcessId> others_;
};

/// How often a crashed or stalled node re-checks its fault window.
constexpr auto kFaultRecheck = 1ms;
/// Longest a shard blocks, so a stop request is seen promptly.
constexpr auto kMaxWait = 50ms;

}  // namespace

NodeHost::NodeHost(const NodeOptions& options, double modelLossRate,
                   std::size_t shardCount, std::size_t mailboxCapacity,
                   const NodeFactory& makeNode)
    : options_(options),
      modelLossRate_(modelLossRate),
      epoch_(Clock::now()),
      faults_(options.faultPlan != nullptr
                  ? std::make_unique<fault::FaultController>(*options.faultPlan)
                  : nullptr) {
  EPTO_ENSURE_MSG(options_.nodeCount >= 2, "need at least two nodes");
  EPTO_ENSURE_MSG(options_.roundPeriod.count() > 0, "round period must be positive");
  if (faults_ != nullptr) {
    EPTO_ENSURE_MSG(faults_->plan().maxNode() < options_.nodeCount,
                    "fault plan targets a node beyond the cluster size");
  }

  const Config derived = Config::forSystemSize(options_.nodeCount, options_.clockMode);
  fanout_ = options_.fanoutOverride.value_or(derived.fanout);
  ttl_ = options_.ttlOverride.value_or(derived.ttl);

  nodes_.reserve(options_.nodeCount);
  for (std::size_t i = 0; i < options_.nodeCount; ++i) {
    const auto id = static_cast<ProcessId>(i);
    auto node = makeNode ? makeNode() : std::make_unique<Node>();
    node->id = id;
    node->process = makeProcess(id, /*incarnation=*/0);
    node->controller = makeController(id);
    node->rng = util::Rng(util::mix64(options_.seed ^ 0xDA7A6A4Dull) ^ id);
    nodes_.push_back(std::move(node));
    lifetimes_[id] = metrics::ProcessLifetime{0, std::nullopt};
  }

  ShardedExecutorOptions exec;
  exec.nodeCount = options_.nodeCount;
  exec.shardCount = shardCount;
  exec.mailboxCapacity = mailboxCapacity;
  executor_ = std::make_unique<ShardedExecutor>(
      exec, [this](ShardedExecutor::ShardContext& ctx) { shardLoop(ctx); });

  // Register every node's instruments and the shard gauges (at their
  // zero values) before any thread runs, so a scrape or Prometheus
  // exposition taken at any point of the run covers the full surface.
  for (const auto& node : nodes_) node->process->metricsSnapshot().recordTo(registry_);
  for (std::size_t shard = 0; shard < executor_->shardCount(); ++shard) {
    registry_.gauge("epto_shard_queue_depth", {{"shard", std::to_string(shard)}});
  }

  auto scrapeInterval = options_.scrapeInterval;
  if (scrapeInterval.count() == 0 && !options_.metricsOutPath.empty()) {
    scrapeInterval = std::chrono::milliseconds(100);
  }
  if (scrapeInterval.count() > 0) {
    scrape_ = std::make_unique<obs::ScrapeLoop>(
        registry_, obs::ScrapeLoop::Options{scrapeInterval, options_.metricsOutPath},
        [this] { return ticksNow(); }, [this] { publishMetrics(); });
  }
}

NodeHost::~NodeHost() { stop(); }

std::unique_ptr<Process> NodeHost::makeProcess(ProcessId id, std::uint32_t incarnation) {
  Config cfg;
  cfg.fanout = fanout_;
  cfg.ttl = ttl_;
  cfg.clockMode = options_.clockMode;
  cfg.speculation.enabled = options_.speculation;
  cfg.stabilityModel.systemSize = options_.nodeCount;
  cfg.stabilityModel.fanout = fanout_;
  cfg.stabilityModel.messageLossRate = modelLossRate_;
  if (options_.clockMode == ClockMode::Global) {
    // Global clocks here are microsecond ticks since the epoch.
    cfg.stabilityModel.ticksPerRound =
        static_cast<Timestamp>(options_.roundPeriod.count());
  }
  // Deterministic per-(node, incarnation) sampler stream, so a restart
  // does not depend on which thread builds the new Process.
  util::Rng samplerRng(
      util::mix64(options_.seed + 0x9E3779B97F4A7C15ULL * (incarnation + 1)) ^ id);
  auto process = std::make_unique<Process>(
      id, cfg, std::make_shared<StaticSampler>(id, options_.nodeCount, samplerRng),
      [this, id](const Event& event, DeliveryTag tag) {
        const util::MutexLock lock(trackerMutex_);
        tracker_.onDeliver(id, event.id, ticksNow(), tag);
        ledger_.onDeliver(id, event.id);
      },
      [this]() { return ticksNow(); }, &latencyRecorder_);
  process->setIncarnation(static_cast<std::uint16_t>(incarnation));
  if (incarnation > 0) {
    // Disjoint EventId range per incarnation (~1M broadcasts each).
    process->startSequenceAt(incarnation << 20U);
  }
  return process;
}

std::unique_ptr<adapt::FeedbackController> NodeHost::makeController(ProcessId id) const {
  if (!options_.adaptive) return nullptr;
  adapt::ControllerConfig config;
  config.worstCase.systemSize = options_.nodeCount;
  config.worstCase.logicalTime = options_.clockMode == ClockMode::Logical;
  config.worstCase.messageLossRate = options_.adaptiveWorstCaseLoss;
  config.initialTtl = ttl_;
  config.initialFanout = fanout_;
  config.self = id;
  return std::make_unique<adapt::FeedbackController>(config);
}

Timestamp NodeHost::ticksNow() const {
  return static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_).count());
}

Clock::time_point NodeHost::timeAt(Timestamp ticks) const {
  return epoch_ + std::chrono::microseconds(static_cast<std::int64_t>(ticks));
}

std::chrono::microseconds NodeHost::jitteredPeriod(util::Rng& rng) const {
  const double factor = 1.0 + options_.roundJitter * (2.0 * rng.uniform01() - 1.0);
  return std::chrono::microseconds(static_cast<std::int64_t>(
      std::max(1.0, static_cast<double>(options_.roundPeriod.count()) * factor)));
}

void NodeHost::start() {
  EPTO_ENSURE_MSG(!running_.exchange(true), "cluster already started");
  // Fault-plan timestamps are relative to start(), not construction.
  epoch_ = Clock::now();
  executor_->start();
  if (scrape_ != nullptr) scrape_->start();
}

void NodeHost::stop() {
  if (!running_.exchange(false)) return;
  executor_->stop();
  if (scrape_ != nullptr) scrape_->stop();  // final post-run sample
}

void NodeHost::broadcast(std::size_t index, PayloadPtr payload, QosClass qos) {
  EPTO_ENSURE_MSG(index < nodes_.size(), "node index out of range");
  Node& node = *nodes_[index];
  requestedBroadcasts_.fetch_add(1, std::memory_order_relaxed);
  if (!node.up.load(std::memory_order_acquire)) {
    // Crashed application node: the broadcast never happens.
    discardedBroadcasts_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Mailbox protocol (DESIGN.md §16): the request crosses into the
  // owning shard as a command, which runs between rounds. A request
  // that races with a crash is discarded there, where `up` is written.
  ShardedExecutor::Command command(
      [this, &node, payloadHeld = std::move(payload), qos]() mutable {
        if (!node.up.load(std::memory_order_relaxed)) {
          discardedBroadcasts_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const util::MutexLock lock(node.broadcastMutex);
        node.pendingBroadcasts.push_back(PendingBroadcast{std::move(payloadHeld), qos});
      });
  while (running_.load(std::memory_order_acquire)) {
    if (executor_->post(index, std::move(command))) return;
    // Full mailbox: the shard drains it every loop iteration.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // No shard is consuming (not started, or stopping): run the command
  // inline — still safe, the list is mutex-guarded.
  command();
}

bool NodeHost::nodeDown(std::size_t index) const {
  EPTO_ENSURE_MSG(index < nodes_.size(), "node index out of range");
  return !nodes_[index]->up.load(std::memory_order_acquire);
}

std::vector<ProcessId> NodeHost::upNodes() const {
  std::vector<ProcessId> ids;
  ids.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (node->up.load(std::memory_order_acquire)) ids.push_back(node->id);
  }
  return ids;
}

void NodeHost::enterCrash(Node& node, Timestamp now) {
  faults_->noteCrash(node.id, now);
  if (!options_.flightDumpPath.empty()) {
    (void)obs::FlightRecorder::global().dumpTo(
        options_.flightDumpPath, "crash node=" + std::to_string(node.id));
  }
  // Requests accepted while the node was up still happen — however late
  // its shard got to them — and their events die with this incarnation
  // before their first relay. The tracker counts them; the ledger is not
  // charged, because no survivor can ever receive an event only a
  // crashed incarnation held (validity binds correct processes only, and
  // agreement only once someone has delivered).
  std::vector<PendingBroadcast> pending;
  {
    const util::MutexLock lock(node.broadcastMutex);
    pending.swap(node.pendingBroadcasts);
  }
  std::vector<Event> unsent;
  unsent.reserve(pending.size());
  for (PendingBroadcast& request : pending) {
    unsent.push_back(node.process->broadcast(std::move(request.payload), request.qos));
  }
  node.process.reset();  // fresh state on rejoin — the crash loses everything
  discardInput(node);
  node.up.store(false, std::memory_order_release);
  {
    const util::MutexLock lock(trackerMutex_);
    for (const Event& event : unsent) {
      tracker_.onBroadcast(node.id, event.id, event.orderKey(), now);
    }
    tracker_.onProcessCrash(node.id, now);
    ledger_.onCrash(node.id);
    lifetimes_[node.id].leftAt = now;
  }
}

void NodeHost::leaveCrash(Node& node, Timestamp now) {
  // Whatever arrived while the node was dead is lost state.
  discardInput(node);
  ++node.incarnation;
  node.process = makeProcess(node.id, node.incarnation);
  // The fresh incarnation starts from the static tuning again; whatever
  // the old controller had learned died with the old process state.
  node.controller = makeController(node.id);
  node.lastBallsReceived = 0;
  {
    const util::MutexLock lock(trackerMutex_);
    tracker_.onProcessRestart(node.id, now);
    lifetimes_[node.id] = metrics::ProcessLifetime{now, std::nullopt};
  }
  faults_->noteRestart(node.id, now);
  node.up.store(true, std::memory_order_release);
}

void NodeHost::shardLoop(ShardedExecutor::ShardContext& ctx) {
  const std::size_t begin = ctx.nodeBegin();
  const std::size_t end = ctx.nodeEnd();
  for (std::size_t i = begin; i < end; ++i) {
    Node& node = *nodes_[i];
    // Phase-stagger first rounds across the cluster (node i at phase i/n
    // of a period). Perfectly synchronized rounds make every node's send
    // burst land in every ingress queue at once — under a tight ingress
    // bound the oldest-first shed then cuts the SAME sender's ball
    // everywhere, which is exactly the correlated loss EpTO's redundancy
    // cannot absorb.
    const auto phase = options_.roundPeriod * i / nodes_.size();
    node.nextRound = Clock::now() + jitteredPeriod(node.rng) + phase;
    ctx.wheel().schedule(static_cast<std::uint32_t>(i), node.nextRound);
  }

  std::vector<std::uint32_t> due;
  while (!ctx.stopRequested()) {
    // Sleep until the earliest round is due; nothing else needs the
    // shard before then (a ball only changes a node's output at its next
    // round), except input a driver chooses to ingest early.
    auto deadline = Clock::now() + kMaxWait;
    if (const auto dueAt = ctx.wheel().nextDue()) deadline = std::min(deadline, *dueAt);
    awaitInput(ctx, deadline);

    // Control plane next: commands observe node state quiesced between
    // rounds, never mid-round.
    ctx.drainMailbox();

    // Every live owned node ingests before any round fires, so a node
    // always drains before its own round.
    for (std::size_t i = begin; i < end; ++i) {
      Node& node = *nodes_[i];
      if (node.up.load(std::memory_order_relaxed) && !node.stallNoted) ingest(node);
    }

    due.clear();
    ctx.wheel().expire(Clock::now(), due);
    for (const std::uint32_t index : due) {
      ctx.wheel().schedule(index, serviceNode(*nodes_[index], Clock::now()));
    }
  }
  finishShard(ctx);
}

void NodeHost::stepNode(std::size_t index, Timestamp now) {
  EPTO_ENSURE_MSG(index < nodes_.size(), "node index out of range");
  EPTO_ENSURE_MSG(!running_.load(std::memory_order_acquire),
                  "stepNode while shard threads run would add a second owner");
  Node& node = *nodes_[index];
  if (node.up.load(std::memory_order_relaxed) && !node.stallNoted) ingest(node);
  (void)serviceNode(node, timeAt(now));
}

Clock::time_point NodeHost::serviceNode(Node& node, Clock::time_point wall) {
  // One timestamp for the gate and the whole round: a node whose gate
  // passes is not crashed at any instant its round reads.
  const Timestamp now = static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall - epoch_).count());
  if (faults_ != nullptr) {
    if (faults_->isCrashed(node.id, now)) {
      if (node.up.load(std::memory_order_relaxed)) enterCrash(node, now);
      return node.nextRound = wall + kFaultRecheck;
    }
    if (!node.up.load(std::memory_order_relaxed)) {
      leaveCrash(node, now);
      return node.nextRound = wall + jitteredPeriod(node.rng);
    }
    if (faults_->isStalled(node.id, now)) {
      // GC-pause model: no ingest, no rounds; incoming traffic piles up
      // and the node must catch up when it resumes.
      if (!node.stallNoted) {
        node.stallNoted = true;
        faults_->noteStall(node.id, now);
      }
      return node.nextRound = wall + kFaultRecheck;
    }
    if (node.stallNoted) {
      // Stall just ended: re-anchor one period out before the next round.
      node.stallNoted = false;
      return node.nextRound = wall + jitteredPeriod(node.rng);
    }
  }
  runRound(node, now);
  if (finishRound(node, wall - node.nextRound)) {
    return node.nextRound = Clock::now() + jitteredPeriod(node.rng);
  }
  return node.nextRound += jitteredPeriod(node.rng);
}

void NodeHost::runRound(Node& node, Timestamp now) {
  // Inject application broadcasts at the round boundary.
  std::vector<PendingBroadcast> pending;
  {
    const util::MutexLock lock(node.broadcastMutex);
    pending.swap(node.pendingBroadcasts);
  }
  for (PendingBroadcast& request : pending) {
    const Event event = node.process->broadcast(std::move(request.payload), request.qos);
    const std::vector<ProcessId> expected = upNodes();
    const util::MutexLock lock(trackerMutex_);
    tracker_.onBroadcast(node.id, event.id, event.orderKey(), now);
    ledger_.onBroadcast(event.id, expected);
  }

  send(node, node.process->onRound(), now);

  if (node.controller != nullptr) {
    // Close the feedback loop on this node's own observations.
    const std::uint64_t ballsReceived = node.process->disseminationStats().ballsReceived;
    adapt::RoundSignals signals;
    signals.ballsReceived = static_cast<double>(ballsReceived - node.lastBallsReceived);
    node.lastBallsReceived = ballsReceived;
    const adapt::Decision decision = node.controller->onRound(signals);
    if (decision.changed) node.process->retune(decision.ttl, decision.fanout);
  }
  // Publish this node's stats into the shared registry: a handful of
  // relaxed atomic stores, so the scrape thread never touches the
  // Process and the shard never blocks on the scrape.
  node.process->metricsSnapshot().recordTo(registry_);
}

void NodeHost::awaitInput(ShardedExecutor::ShardContext& /*ctx*/,
                          Clock::time_point deadline) {
  std::this_thread::sleep_until(deadline);
}

void NodeHost::discardInput(Node& /*node*/) {}

bool NodeHost::finishRound(Node& /*node*/, Clock::duration /*lateness*/) { return false; }

void NodeHost::publishSubstrateMetrics() {}

void NodeHost::finishShard(ShardedExecutor::ShardContext& /*ctx*/) {}

bool NodeHost::awaitQuiescence(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    {
      const util::MutexLock lock(trackerMutex_);
      const bool allInjected =
          tracker_.broadcastCount() + discardedBroadcasts_.load(std::memory_order_relaxed) >=
          requestedBroadcasts_.load(std::memory_order_relaxed);
      if (allInjected && ledger_.quiescent()) {
        quiescenceReport_.clear();
        return true;
      }
      if (Clock::now() >= deadline) {
        quiescenceReport_ = allInjected
                                ? ledger_.missingReport()
                                : "broadcast requests still queued at their shards; " +
                                      ledger_.missingReport();
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string NodeHost::lastQuiescenceReport() const {
  const util::MutexLock lock(trackerMutex_);
  return quiescenceReport_;
}

metrics::TrackerReport NodeHost::report() const {
  const util::MutexLock lock(trackerMutex_);
  return tracker_.finalize(lifetimes_, ticksNow());
}

std::uint64_t NodeHost::broadcastCount() const {
  const util::MutexLock lock(trackerMutex_);
  return tracker_.broadcastCount();
}

void NodeHost::publishMetrics() {
  publishSubstrateMetrics();
  registry_.counter("epto_trace_dropped_total").set(obs::Tracer::global().dropped());
  registry_.counter("epto_flight_dropped_total")
      .set(obs::FlightRecorder::global().dropped());
  for (std::size_t shard = 0; shard < executor_->shardCount(); ++shard) {
    registry_.gauge("epto_shard_queue_depth", {{"shard", std::to_string(shard)}})
        .set(static_cast<std::int64_t>(executor_->mailboxDepth(shard)));
  }
  registry_.counter("epto_shard_post_rejections_total").set(executor_->postRejections());
  if (faults_ != nullptr) faults_->recordTo(registry_);
}

std::string NodeHost::prometheusSnapshot() {
  publishMetrics();
  return obs::prometheusText(registry_.snapshot());
}

std::size_t NodeHost::dumpFlightRecorder(const std::string& path,
                                         const std::string& reason) {
  return obs::FlightRecorder::global().dumpTo(path, reason);
}

}  // namespace epto::runtime
