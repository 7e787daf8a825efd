// epto_perfbench — one run of one benchmark workload.
//
//   epto_perfbench --workload <udp_small|udp_payload|sim_scale> --seed <n>
//                  --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Prints a human-readable table on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics":
// {name: {"value", "unit"}}, "notes"}. A null value marks a metric the
// workload has no figure for. perfbench/run.py builds this binary, runs
// it and selects the metrics BENCHMARK.json names.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.h"
#include "util/rng.h"

namespace perfbench {

Schedule makeSchedule(std::uint64_t seed, double rate, double windowSeconds,
                      std::size_t nodes, std::size_t payloadBytes) {
  epto::util::Rng rng(epto::util::mix64(seed ^ 0x5EEDF00DULL));
  Schedule schedule;
  std::vector<std::uint32_t> perNode(nodes, 0);
  // A Poisson stream of independent users, conditioned on its count:
  // exactly rate x window arrivals at sorted uniform times, so that runs
  // on different seeds offer the same amount of work.
  const auto count = static_cast<std::size_t>(std::max(1.0, std::round(rate * windowSeconds)));
  std::vector<std::int64_t> times(count);
  for (std::int64_t& time : times) {
    time = static_cast<std::int64_t>(rng.uniform01() * windowSeconds * 1e9);
  }
  std::sort(times.begin(), times.end());
  for (const std::int64_t time : times) {
    Arrival arrival;
    arrival.dueNs = time;
    arrival.node = static_cast<std::uint32_t>(rng.below(nodes));
    arrival.seq = perNode[arrival.node]++;
    schedule.arrivals.push_back(arrival);
    if (payloadBytes > 0) {
      auto bytes = std::make_shared<epto::PayloadBytes>(payloadBytes);
      for (std::size_t i = 0; i < payloadBytes; i += 8) {
        const std::uint64_t word = rng();
        for (std::size_t b = 0; b < 8 && i + b < payloadBytes; ++b) {
          (*bytes)[i + b] = static_cast<std::byte>(word >> (8 * b));
        }
      }
      schedule.payloads.push_back(std::move(bytes));
    } else {
      schedule.payloads.emplace_back();
    }
  }
  schedule.offsets.assign(nodes + 1, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    schedule.offsets[i + 1] = schedule.offsets[i] + perNode[i];
  }
  schedule.dueByEvent.assign(schedule.offsets[nodes], 0);
  for (const Arrival& arrival : schedule.arrivals) {
    schedule.dueByEvent[schedule.offsets[arrival.node] + arrival.seq] = arrival.dueNs;
  }
  return schedule;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t shardCount() {
  // Shard loops poll without sleeping while a round is due within a
  // millisecond, so each keeps a core busy. With nproc - 1 of them the
  // generator had to share a core with a shard and, on a busy host, fell
  // behind its schedule; nproc - 2 leaves it a core of its own.
  return std::max(3U, std::thread::hardware_concurrency()) - 2;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// The nominal rate sits near a third of the two-shard knee of a slow or
// shared 4-core host (750-850 events/s), so its figures stay round-bound.
constexpr UdpWorkload kUdpSmall{"udp_small", 32, 0, 250.0};
// 1 KiB payloads: a one-event ball is a 1043 B frame and fits one
// datagram; balls of two or more events are fragmented.
constexpr UdpWorkload kUdpPayload{"udp_payload", 32, 1024, 4.0};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <udp_small|udp_payload|sim_scale> --seed <n>\n"
               "          --seconds <s> --trace <0|1> [--spans-out <path>]\n",
               argv0);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(args.seconds > 0.0)) usage(argv[0]);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage(argv[0]);
      args.trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      args.spansOut = value;
    } else {
      usage(argv[0]);
    }
  }
  if (!haveWorkload) usage(argv[0]);
  return args;
}

void printJsonString(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void printResult(const Args& args, const Result& result) {
  std::fprintf(stderr, "workload=%s seed=%llu trace=%d\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  for (const Metric& metric : result.metrics) {
    if (metric.value.has_value()) {
      std::fprintf(stderr, "  %-36s %16.6g %s\n", metric.name.c_str(), *metric.value,
                   metric.unit.c_str());
    } else {
      std::fprintf(stderr, "  %-36s %16s %s\n", metric.name.c_str(), "n/a",
                   metric.unit.c_str());
    }
  }
  for (const std::string& note : result.notes) std::fprintf(stderr, "  note: %s\n", note.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) std::printf(", ");
    printJsonString(metric.name);
    std::printf(": {\"value\": ");
    if (metric.value.has_value() && std::isfinite(*metric.value)) {
      std::printf("%.17g", *metric.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": ");
    printJsonString(metric.unit);
    std::printf("}");
  }
  std::printf("}, \"notes\": [");
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) std::printf(", ");
    printJsonString(result.notes[i]);
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    Result result;
    if (args.workload == kUdpSmall.name || args.workload == kUdpPayload.name) {
      const UdpWorkload& workload = args.workload == kUdpSmall.name ? kUdpSmall : kUdpPayload;
      result = args.trace ? traceUdpWorkload(args, workload) : runUdpWorkload(args, workload);
    } else if (args.workload == "sim_scale") {
      result = args.trace ? traceSimWorkload(args) : runSimWorkload(args);
    } else {
      usage(argv[0]);
    }
    printResult(args, result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "epto_perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
