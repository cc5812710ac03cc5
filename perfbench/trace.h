// Spans for the ledger's traced run, recorded from the benchmark's own
// code around calls into each layer's public API (the program itself
// carries no spans yet).
//
// A span has a name, a start and end on the steady clock, the span that
// caused it (0 for a root) and the request it belongs to. Spans live in
// memory until the run ends and are then written out as one JSON file.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  std::string name;
  double start_ms = 0.0;  ///< since the tracer's epoch
  double end_ms = 0.0;
  /// True for the marked replay of a request through the layer APIs.
  bool replay = false;
  /// Counts taken at the same boundary (e.g. candidates probed).
  std::vector<std::pair<std::string, double>> counts;

  double duration_ms() const { return end_ms - start_ms; }
};

/// \brief Thread-safe in-memory span store.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// \brief Records a finished span and returns its id.
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end, bool replay,
                  std::vector<std::pair<std::string, double>> counts = {});

  /// \brief Reserves an id for a span whose children finish before it.
  uint64_t NewId();
  /// \brief Records a span under an id from NewId().
  void RecordWithId(uint64_t id, const std::string& name, uint64_t parent,
                    uint64_t request, Clock::time_point start,
                    Clock::time_point end, bool replay,
                    std::vector<std::pair<std::string, double>> counts = {});

  std::vector<Span> spans() const;
  /// \brief Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// \brief Self time of every span (same order as `spans`): its duration
/// minus the union of its children's intervals clipped to it, so
/// overlapping children are not counted twice.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// \brief How well the traced spans account for the time they cover.
///
/// Per live request, sketch and router are the query span's children, so
/// their cover is 1 - self(query) / query. Per replayed miss (a "replay"
/// span under the query), the replayed shard searches should add up to
/// the live router span, and so should the replayed layers: probe +
/// estimate + merge + (shard - local), where a "local" span is the same
/// shard work in process, leaving wire or storage time in the difference.
struct Reconciliation {
  double query_cover = 0.0;  ///< median over live queries
  double shard_cover = 0.0;  ///< median over replays
  double layer_cover = 0.0;  ///< median over replays
  size_t queries = 0;
  size_t replays = 0;

  /// True when every cover is within its tolerance of 1 and at least one
  /// miss was replayed.
  bool Within(double query_tolerance, double replay_tolerance) const;
};

Reconciliation Reconcile(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
