// Differential test: the calendar-queue Simulator (bucket ring, overflow
// heap, action slab — DESIGN.md §11) against a reference that is the
// textbook form of the paper's §6 engine, one priority queue ordered by
// (when, sequence). Both run the same randomized script, in which every
// action logs itself and schedules more from inside. Any divergence in
// execution order, now(), pendingActions() or executedActions() is a
// queue bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace epto::sim {
namespace {

constexpr Timestamp kSpan = Simulator::kRingSpan;

/// One priority queue on (when, sequence), nothing else.
class ReferenceSimulator {
 public:
  [[nodiscard]] Timestamp now() const noexcept { return now_; }
  void schedule(Timestamp delay, std::function<void()> action) {
    scheduleAt(now_ + delay, std::move(action));
  }
  void scheduleAt(Timestamp when, std::function<void()> action) {
    queue_.push(Entry{when, nextSequence_++, std::move(action)});
  }
  bool step() {
    if (queue_.empty()) return false;
    Entry entry = queue_.top();
    queue_.pop();
    now_ = entry.when;
    ++executed_;
    entry.action();
    return true;
  }
  void runUntil(Timestamp end) {
    while (!queue_.empty() && queue_.top().when <= end) step();
    now_ = end;
  }
  [[nodiscard]] std::size_t pendingActions() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executedActions() const noexcept { return executed_; }

 private:
  struct Entry {
    Timestamp when = 0;
    std::uint64_t sequence = 0;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  Timestamp now_ = 0;
  std::uint64_t nextSequence_ = 0;
  std::uint64_t executed_ = 0;
};

/// What one action saw when it ran.
struct Firing {
  std::uint64_t label = 0;
  Timestamp now = 0;
  std::size_t pending = 0;
  std::uint64_t executed = 0;

  bool operator==(const Firing&) const = default;
};

/// How a firing action picks the delays of the actions it schedules.
struct DelayMix {
  double zero = 0.1;      ///< same-tick follow-ups.
  double overflow = 0.2;  ///< beyond the ring, up to 3x its span.
  std::uint64_t maxChildren = 3;
  std::uint64_t budget = 20000;  ///< total actions scheduled by the script.
};

/// The randomized script. Every decision comes from one Rng consumed in
/// execution order, so two engines that execute in the same order make
/// exactly the same calls; one that does not diverges in its log.
template <typename Sim>
class Script {
 public:
  Script(Sim& sim, std::uint64_t seed, DelayMix mix) : sim_(sim), rng_(seed), mix_(mix) {}

  void arm(Timestamp delay) {
    const std::uint64_t label = nextLabel_++;
    sim_.schedule(delay, [this, label] { fire(label); });
  }
  void armAt(Timestamp when) {
    const std::uint64_t label = nextLabel_++;
    sim_.scheduleAt(when, [this, label] { fire(label); });
  }
  [[nodiscard]] Timestamp randomDelay() {
    const double roll = rng_.uniform01();
    if (roll < mix_.zero) return 0;
    if (roll < mix_.zero + mix_.overflow) return kSpan + rng_.below(2 * kSpan + 1);
    return rng_.below(kSpan);
  }

  [[nodiscard]] const std::vector<Firing>& log() const noexcept { return log_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  void fire(std::uint64_t label) {
    log_.push_back(Firing{label, sim_.now(), sim_.pendingActions(), sim_.executedActions()});
    const std::uint64_t children = rng_.below(mix_.maxChildren + 1);
    for (std::uint64_t i = 0; i < children && nextLabel_ < mix_.budget; ++i) {
      arm(randomDelay());
    }
  }

  Sim& sim_;
  util::Rng rng_;
  DelayMix mix_;
  std::uint64_t nextLabel_ = 0;
  std::vector<Firing> log_;
};

/// Run the same seeded script on both engines with `drive`, which gets
/// each engine and its script and must make the same calls on both.
template <typename Drive>
void expectSameExecution(std::uint64_t seed, DelayMix mix, Drive drive) {
  Simulator wheel;
  ReferenceSimulator reference;
  Script<Simulator> wheelScript(wheel, seed, mix);
  Script<ReferenceSimulator> referenceScript(reference, seed, mix);
  drive(wheel, wheelScript);
  drive(reference, referenceScript);
  ASSERT_FALSE(referenceScript.log().empty());
  ASSERT_EQ(wheelScript.log().size(), referenceScript.log().size());
  for (std::size_t i = 0; i < referenceScript.log().size(); ++i) {
    ASSERT_EQ(wheelScript.log()[i], referenceScript.log()[i]) << "firing " << i;
  }
  EXPECT_EQ(wheel.now(), reference.now());
  EXPECT_EQ(wheel.pendingActions(), reference.pendingActions());
  EXPECT_EQ(wheel.executedActions(), reference.executedActions());
}

TEST(SimulatorDifferential, RandomDelaysUpToThreeRingSpans) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expectSameExecution(seed, DelayMix{}, [](auto& sim, auto& script) {
      for (int i = 0; i < 64; ++i) script.arm(script.randomDelay());
      while (sim.step()) {
      }
    });
  }
}

TEST(SimulatorDifferential, ZeroDelaySchedulesFromInsideRunningActions) {
  // Mostly same-tick follow-ups: a bucket keeps growing while it drains.
  const DelayMix mix{.zero = 0.6, .overflow = 0.05, .maxChildren = 2, .budget = 5000};
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    expectSameExecution(seed, mix, [](auto& sim, auto& script) {
      for (int i = 0; i < 8; ++i) script.arm(0);
      while (sim.step()) {
      }
    });
  }
}

TEST(SimulatorDifferential, OverflowEntriesPrecedeLaterNearTermOnesOnTheSameTick) {
  // Ticks T hit first from beyond the ring (delay >= span) and later,
  // once the cursor is close, from inside it: the overflow entry was
  // scheduled first and must run first.
  expectSameExecution(21, DelayMix{.budget = 0}, [](auto& sim, auto& script) {
    const Timestamp target = 3 * kSpan + 17;
    script.armAt(target);          // overflow from tick 0
    script.armAt(target - 1);      // overflow, the tick before
    sim.runUntil(target - kSpan);  // target is exactly one span out: still overflow
    script.armAt(target);
    sim.runUntil(target - kSpan + 1);  // now inside the ring
    script.armAt(target);
    script.armAt(target - 1);
    sim.runUntil(target - 5);
    script.armAt(target);
    while (sim.step()) {
    }
  });
  // The same shape at random: clusters of ticks reached from far and near.
  for (std::uint64_t seed = 22; seed <= 25; ++seed) {
    expectSameExecution(seed, DelayMix{.budget = 0}, [](auto& sim, auto& script) {
      util::Rng& rng = script.rng();
      for (int round = 0; round < 40; ++round) {
        const Timestamp base = sim.now() + kSpan + rng.below(kSpan);
        for (int i = 0; i < 6; ++i) script.armAt(base + rng.below(3));
        sim.runUntil(base - rng.below(kSpan));
        for (int i = 0; i < 6; ++i) script.armAt(base + rng.below(3));
        sim.runUntil(sim.now() + rng.below(kSpan / 2));
      }
      while (sim.step()) {
      }
    });
  }
}

TEST(SimulatorDifferential, RunUntilAcrossIdleGapsLongerThanTheRing) {
  const DelayMix mix{.zero = 0.1, .overflow = 0.4, .maxChildren = 2, .budget = 4000};
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    expectSameExecution(seed, mix, [](auto& sim, auto& script) {
      util::Rng& rng = script.rng();
      for (int leg = 0; leg < 60; ++leg) {
        // Idle stretches of up to five spans, with outside schedules in
        // between, some far beyond the ring.
        for (int i = 0; i < 3; ++i) script.arm(script.randomDelay());
        sim.runUntil(sim.now() + rng.below(5 * kSpan));
        if (leg % 3 == 0) script.arm(4 * kSpan + rng.below(kSpan));
        if (leg % 5 == 0) {
          for (int i = 0; i < 4 && sim.step(); ++i) {
          }
        }
      }
      sim.runUntil(sim.now() + 10 * kSpan);
    });
  }
}

}  // namespace
}  // namespace epto::sim
