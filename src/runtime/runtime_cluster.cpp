#include "runtime/runtime_cluster.h"

namespace epto::runtime {

RuntimeCluster::RuntimeCluster(const RuntimeOptions& options)
    : NodeHost(options, /*modelLossRate=*/options.lossRate),
      transport_(InMemoryTransport::Options{options.lossRate, options.minDelay,
                                            options.maxDelay, options.serializeFrames,
                                            options.corruptionRate,
                                            /*wireLineage=*/true, /*wireQos=*/true},
                 util::Rng(options.seed).split()) {
  transport_.attachFaults(faults());
  for (std::size_t i = 0; i < nodeCount(); ++i) {
    transport_.registerEndpoint(static_cast<ProcessId>(i));
  }
  publishSubstrateMetrics();
}

RuntimeCluster::~RuntimeCluster() { stop(); }

void RuntimeCluster::ingest(Node& node) {
  for (Envelope& envelope : transport_.mailboxOf(node.id).drainReady(Clock::now())) {
    if (const BallPtr ball = transport_.openEnvelope(envelope); ball != nullptr) {
      node.process->onBall(*ball);
    }
  }
}

void RuntimeCluster::send(Node& node, const Process::RoundOutput& out, Timestamp now) {
  if (out.ball == nullptr) return;
  for (const ProcessId target : out.targets) transport_.send(node.id, target, out.ball, now);
}

void RuntimeCluster::discardInput(Node& node) {
  (void)transport_.mailboxOf(node.id).drainReady(Clock::time_point::max());
}

void RuntimeCluster::publishSubstrateMetrics() {
  const InMemoryTransport::Stats stats = transport_.stats();
  obs::Registry& registry = metricsRegistry();
  registry.counter("epto_transport_sent_total").set(stats.sent);
  registry.counter("epto_transport_dropped_total").set(stats.dropped);
  registry.counter("epto_transport_fault_drops_total").set(stats.faultDrops);
  registry.counter("epto_transport_bytes_sent_total").set(stats.bytesSent);
  registry.counter("epto_transport_frames_rejected_total").set(stats.framesRejected);
}

}  // namespace epto::runtime
