#include "runtime/transport.h"

#include "codec/ball_codec.h"
#include "util/ensure.h"

namespace epto::runtime {

void Mailbox::push(Envelope envelope) {
  const util::MutexLock lock(mutex_);
  queue_.push(std::move(envelope));
}

std::vector<Envelope> Mailbox::drainReady(Clock::time_point now) {
  std::vector<Envelope> ready;
  const util::MutexLock lock(mutex_);
  while (!queue_.empty() && queue_.top().deliverAt <= now) {
    ready.push_back(queue_.top());
    queue_.pop();
  }
  return ready;
}

InMemoryTransport::InMemoryTransport(Options options, util::Rng rng)
    : options_(options), rng_(rng) {
  EPTO_ENSURE_MSG(options_.lossRate >= 0.0 && options_.lossRate < 1.0,
                  "loss rate must be in [0, 1)");
  EPTO_ENSURE_MSG(options_.corruptionRate >= 0.0 && options_.corruptionRate < 1.0,
                  "corruption rate must be in [0, 1)");
  EPTO_ENSURE_MSG(options_.minDelay.count() >= 0, "minDelay must not be negative");
  EPTO_ENSURE_MSG(options_.minDelay <= options_.maxDelay,
                  "minDelay must not exceed maxDelay");
}

void InMemoryTransport::attachFaults(fault::FaultController* faults) { faults_ = faults; }

void InMemoryTransport::registerEndpoint(ProcessId id) {
  const auto [it, inserted] = mailboxes_.emplace(id, std::make_unique<Mailbox>());
  EPTO_ENSURE_MSG(inserted, "endpoint registered twice");
}

Mailbox& InMemoryTransport::mailboxOf(ProcessId id) {
  const auto it = mailboxes_.find(id);
  EPTO_ENSURE_MSG(it != mailboxes_.end(), "unknown endpoint");
  return *it->second;
}

void InMemoryTransport::send(ProcessId from, ProcessId to, BallPtr ball, Timestamp now) {
  bool dropped = false;
  bool faultDropped = false;
  bool corrupt = false;
  std::size_t corruptOffsetSeed = 0;
  std::chrono::microseconds delay{0};
  std::chrono::microseconds faultDelay{0};

  if (faults_ != nullptr) {
    const fault::FaultController::LinkFate fate = faults_->linkFate(from, to, now);
    if (fate.cut) {
      faults_->noteLinkDrop(from, to, now, fate.cutBy);
      dropped = faultDropped = true;
    } else {
      if (fate.extraLossRate > 0.0) {
        const util::MutexLock lock(rngMutex_);
        if (rng_.chance(fate.extraLossRate)) {
          dropped = faultDropped = true;
        }
      }
      if (faultDropped) {
        faults_->noteLinkDrop(from, to, now, fault::FaultKind::BurstLoss);
      } else if (fate.extraDelay > 0) {
        faultDelay = std::chrono::microseconds(static_cast<std::int64_t>(fate.extraDelay));
        faults_->noteDelayed(from, to, now);
      }
    }
  }

  {
    const util::MutexLock lock(rngMutex_);
    if (!dropped) dropped = rng_.chance(options_.lossRate);
    if (!dropped && options_.maxDelay > options_.minDelay) {
      const auto span =
          static_cast<std::uint64_t>((options_.maxDelay - options_.minDelay).count());
      delay = options_.minDelay + std::chrono::microseconds(rng_.below(span + 1));
    } else {
      delay = options_.minDelay;
    }
    if (!dropped && options_.serializeFrames) {
      corrupt = rng_.chance(options_.corruptionRate);
      if (corrupt) corruptOffsetSeed = static_cast<std::size_t>(rng_());
    }
  }

  Envelope envelope;
  envelope.from = from;
  envelope.deliverAt = Clock::now() + delay + faultDelay;
  std::size_t bytes = 0;
  if (!dropped) {
    if (options_.serializeFrames) {
      auto frame = codec::encodeBall(
          *ball, codec::EncodeOptions{.lineage = options_.wireLineage,
                                      .qos = options_.wireQos});
      if (corrupt && !frame.empty()) {
        // Flip one bit of one byte — the classic in-flight mangling.
        frame[corruptOffsetSeed % frame.size()] ^= std::byte{0x10};
      }
      bytes = frame.size();
      envelope.frame =
          std::make_shared<const std::vector<std::byte>>(std::move(frame));
    } else {
      envelope.ball = std::move(ball);
    }
  }

  {
    const util::MutexLock lock(statsMutex_);
    ++stats_.sent;
    stats_.bytesSent += bytes;
    if (dropped) ++stats_.dropped;
    if (faultDropped) ++stats_.faultDrops;
  }
  if (dropped) return;
  mailboxOf(to).push(std::move(envelope));
}

BallPtr InMemoryTransport::openEnvelope(const Envelope& envelope) {
  if (envelope.ball != nullptr) return envelope.ball;
  EPTO_ENSURE_MSG(envelope.frame != nullptr, "envelope carries neither ball nor frame");
  auto decoded = codec::decodeBall(*envelope.frame);
  if (!decoded.ok()) {
    const util::MutexLock lock(statsMutex_);
    ++stats_.framesRejected;
    return nullptr;
  }
  return std::make_shared<const Ball>(std::move(decoded.ball));
}

InMemoryTransport::Stats InMemoryTransport::stats() const {
  const util::MutexLock lock(statsMutex_);
  return stats_;
}

}  // namespace epto::runtime
