// Span recorder of the traced run: a span (name, start, end, parent)
// around every call the benchmark's own host makes into a layer of the
// program. Single-threaded: the traced hosts drive every node from one
// thread, so open spans form one stack.
//
// Every closed span feeds per-name totals (count, wall time, self time =
// wall time minus the part its child spans cover). The first `keepLimit`
// spans are also kept in memory and written out at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

class Spans {
 public:
  using NameId = std::uint16_t;

  struct Totals {
    std::string name;
    std::string layer;  ///< prefix of the name up to the first '.'.
    bool keepDurations = false;
    std::uint64_t count = 0;
    std::int64_t wallNs = 0;
    std::int64_t selfNs = 0;
    std::vector<double> durationsNs;  ///< only when keepDurations.
  };

  explicit Spans(std::size_t keepLimit = std::size_t{1} << 18);

  /// Register a span name ("layer.call"); `keepDurations` keeps every
  /// duration for percentiles.
  NameId name(const std::string& name, bool keepDurations = false);

  /// Off: open/close cost one branch and record nothing. The overhead
  /// ratio compares a host run with spans on against one with them off.
  void setEnabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void open(NameId id);
  void close();
  /// Rename the innermost open span, for a call whose name depends on
  /// its outcome (a receive that found nothing).
  void relabel(NameId id);

  class Scope {
   public:
    Scope(Spans& spans, NameId id) : spans_(spans) { spans_.open(id); }
    ~Scope() { spans_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
  };

  /// The totals of a registered span name; throws for an unknown name.
  [[nodiscard]] const Totals& totals(const std::string& name) const;
  /// Self time summed over every span name of `layer`.
  [[nodiscard]] std::int64_t layerSelfNs(const std::string& layer) const;

  /// Add another recorder's totals, name by name; both registered the
  /// same names in the same order.
  void merge(const Spans& other);

  /// Write the kept spans of every recorder (one per thread) as TSV:
  /// thread, index, parent index (-1 = root), name, start ns, end ns.
  /// Indices are per thread; times share one epoch only within a
  /// thread. Returns false when the file cannot be written.
  static bool write(const std::string& path, const std::vector<const Spans*>& recorders);

 private:
  struct Open {
    NameId id = 0;
    std::int64_t startNs = 0;
    std::int64_t childNs = 0;
    std::int64_t keptIndex = -1;
  };
  struct Kept {
    NameId id = 0;
    std::int64_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = true;
  std::size_t keepLimit_;
  Clock::time_point epoch_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
};

}  // namespace perfbench
