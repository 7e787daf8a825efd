// RuntimeCluster — a real multi-threaded EpTO deployment in one address
// space (the §8.5 "real system implementation" the paper leaves as future
// work).
//
// The in-memory substrate driver of NodeHost (runtime/node_host.h): the
// host's shards run every node's rounds on the steady clock, and this
// driver supplies the two substrate steps — ingest drains the node's
// mailbox (decoding frames when serializeFrames is on), send ships the
// round's ball through the loss/delay-injecting InMemoryTransport.
// Nothing is synchronized across nodes — rounds drift and interleave like
// real processes — which exercises exactly the asynchrony the discrete
// simulator serializes away.
#pragma once

#include <chrono>

#include "runtime/node_host.h"
#include "runtime/transport.h"

namespace epto::runtime {

struct RuntimeOptions : NodeOptions {
  /// Transport adversity.
  double lossRate = 0.0;
  std::chrono::microseconds minDelay{0};
  std::chrono::microseconds maxDelay{0};
  /// Ship balls as wire-codec frames (serialize/deserialize end-to-end,
  /// version-2 frames with lineage and QoS) instead of shared pointers;
  /// see codec/ball_codec.h.
  bool serializeFrames = false;
  /// With serializeFrames: per-frame probability of a flipped bit in
  /// flight; corrupted frames must be detected and dropped by CRC.
  double corruptionRate = 0.0;
};

class RuntimeCluster final : public NodeHost {
 public:
  explicit RuntimeCluster(const RuntimeOptions& options);
  ~RuntimeCluster() override;

  [[nodiscard]] InMemoryTransport::Stats transportStats() const {
    return transport_.stats();
  }

 private:
  void ingest(Node& node) override;
  void send(Node& node, const Process::RoundOutput& out, Timestamp now) override;
  void discardInput(Node& node) override;
  void publishSubstrateMetrics() override;

  InMemoryTransport transport_;
};

}  // namespace epto::runtime
