#include "perfbench/calib.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "perfbench/trace.h"

namespace perfbench {
namespace {

constexpr uint64_t kSpinIterations = 20'000'000;
constexpr size_t kStreamBytes = 16u << 20;
constexpr int kStreamPasses = 4;

std::atomic<uint64_t> g_sink{0};

void Spin(uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < kSpinIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
}

void Stream(const std::vector<uint64_t>& buffer) {
  uint64_t sum = 0;
  for (int pass = 0; pass < kStreamPasses; ++pass) {
    for (uint64_t word : buffer) sum += word;
  }
  g_sink.fetch_add(sum, std::memory_order_relaxed);
}

// Wall ms for `threads` threads each running job(t).
template <typename Job>
double TimeThreads(size_t threads, Job job) {
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(job, t);
  for (std::thread& thread : pool) thread.join();
  return MillisBetween(start, Clock::now());
}

}  // namespace

Calibration CalibrateHost() {
  Calibration calibration;
  calibration.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> counts = {1, 2, calibration.nproc};
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::vector<std::vector<uint64_t>> buffers(
      calibration.nproc,
      std::vector<uint64_t>(kStreamBytes / sizeof(uint64_t), 1));
  double alu_one = 0.0;
  double mem_one = 0.0;
  for (size_t threads : counts) {
    const double alu_ms =
        TimeThreads(threads, [](size_t t) { Spin(t + 1); });
    const double mem_ms = TimeThreads(
        threads, [&buffers](size_t t) { Stream(buffers[t]); });
    if (threads == 1) {
      alu_one = alu_ms;
      mem_one = mem_ms;
      calibration.alu_single_gops = kSpinIterations / (alu_ms * 1e6);
      calibration.mem_single_gbps =
          static_cast<double>(kStreamBytes) * kStreamPasses / (mem_ms * 1e6);
    }
    calibration.alu_scaling.emplace_back(threads,
                                         threads * alu_one / alu_ms);
    calibration.mem_scaling.emplace_back(threads,
                                         threads * mem_one / mem_ms);
  }
  return calibration;
}

std::string Calibration::ToJson() const {
  auto ladder = [](const std::vector<std::pair<size_t, double>>& steps) {
    std::string out = "{";
    for (size_t i = 0; i < steps.size(); ++i) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s\"%zu\":%.3f", i ? "," : "",
                    steps[i].first, steps[i].second);
      out += cell;
    }
    return out + "}";
  };
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"nproc\":%zu,\"alu_single_gops\":%.4f,"
                "\"mem_single_gbps\":%.3f,",
                nproc, alu_single_gops, mem_single_gbps);
  return std::string(head) + "\"alu_scaling\":" + ladder(alu_scaling) +
         ",\"mem_scaling\":" + ladder(mem_scaling) + "}";
}

}  // namespace perfbench
