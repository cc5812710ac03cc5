// Host calibration printed beside every run (never gated). Thread-sensitive
// numbers from a shared host swing with whatever else runs on it, so each
// run records what the box delivered at that moment: an ALU spin and a
// memory stream, each at 1, 2 and nproc threads, as speedups over 1 thread.

#ifndef PERFBENCH_CALIB_H_
#define PERFBENCH_CALIB_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Calibration {
  size_t nproc = 1;
  /// (threads, aggregate rate / single-thread rate).
  std::vector<std::pair<size_t, double>> alu_scaling;
  std::vector<std::pair<size_t, double>> mem_scaling;
  double alu_single_gops = 0.0;   ///< spin iterations per ns, 1 thread
  double mem_single_gbps = 0.0;   ///< streamed GB/s, 1 thread

  std::string ToJson() const;
};

Calibration CalibrateHost();

}  // namespace perfbench

#endif  // PERFBENCH_CALIB_H_
