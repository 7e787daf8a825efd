#include "spans.h"

#include <cstdio>
#include <stdexcept>

#include "util/ensure.h"

namespace perfbench {

Spans::Spans(std::size_t keepLimit) : keepLimit_(keepLimit), epoch_(Clock::now()) {
  kept_.reserve(keepLimit_);
}

Spans::NameId Spans::name(const std::string& name, bool keepDurations) {
  Totals totals;
  totals.name = name;
  totals.layer = name.substr(0, name.find('.'));
  totals.keepDurations = keepDurations;
  totals_.push_back(std::move(totals));
  return static_cast<NameId>(totals_.size() - 1);
}

void Spans::open(NameId id) {
  if (!enabled_) return;
  Open span;
  span.id = id;
  span.startNs = nowNs();
  if (kept_.size() < keepLimit_) {
    span.keptIndex = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(Kept{id, stack_.empty() ? -1 : stack_.back().keptIndex, span.startNs, 0});
  }
  stack_.push_back(span);
}

void Spans::relabel(NameId id) {
  if (!enabled_) return;
  EPTO_ENSURE_MSG(!stack_.empty(), "span relabelled without an open span");
  stack_.back().id = id;
  if (stack_.back().keptIndex >= 0) {
    kept_[static_cast<std::size_t>(stack_.back().keptIndex)].id = id;
  }
}

void Spans::close() {
  if (!enabled_) return;
  EPTO_ENSURE_MSG(!stack_.empty(), "span closed without an open span");
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t endNs = nowNs();
  const std::int64_t wallNs = endNs - span.startNs;
  Totals& totals = totals_[span.id];
  ++totals.count;
  totals.wallNs += wallNs;
  totals.selfNs += wallNs - span.childNs;
  if (totals.keepDurations) totals.durationsNs.push_back(static_cast<double>(wallNs));
  if (span.keptIndex >= 0) kept_[static_cast<std::size_t>(span.keptIndex)].endNs = endNs;
  if (!stack_.empty()) stack_.back().childNs += wallNs;
}

const Spans::Totals& Spans::totals(const std::string& name) const {
  for (const Totals& totals : totals_) {
    if (totals.name == name) return totals;
  }
  throw std::logic_error("no span named " + name);
}

std::int64_t Spans::layerSelfNs(const std::string& layer) const {
  std::int64_t sum = 0;
  for (const Totals& totals : totals_) {
    if (totals.layer == layer) sum += totals.selfNs;
  }
  return sum;
}

void Spans::merge(const Spans& other) {
  EPTO_ENSURE_MSG(other.totals_.size() == totals_.size(), "merging differently named spans");
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    Totals& mine = totals_[i];
    const Totals& theirs = other.totals_[i];
    EPTO_ENSURE_MSG(mine.name == theirs.name, "merging differently named spans");
    mine.count += theirs.count;
    mine.wallNs += theirs.wallNs;
    mine.selfNs += theirs.selfNs;
    mine.durationsNs.insert(mine.durationsNs.end(), theirs.durationsNs.begin(),
                            theirs.durationsNs.end());
  }
}

bool Spans::write(const std::string& path, const std::vector<const Spans*>& recorders) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tindex\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t thread = 0; thread < recorders.size(); ++thread) {
    const Spans& spans = *recorders[thread];
    for (std::size_t i = 0; i < spans.kept_.size(); ++i) {
      const Kept& span = spans.kept_[i];
      std::fprintf(out, "%zu\t%zu\t%lld\t%s\t%lld\t%lld\n", thread, i,
                   static_cast<long long>(span.parent), spans.totals_[span.id].name.c_str(),
                   static_cast<long long>(span.startNs), static_cast<long long>(span.endNs));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
