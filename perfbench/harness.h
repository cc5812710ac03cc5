// The ledger's driving machinery: workload definitions, deployment set-up
// through the public API (SketchIndex -> BuildShards -> ShardServer ->
// Router::Open), the closed- and open-loop request loops, the ingest
// writer, the traced replay through each layer's public functions, and
// answer checking against an unsharded in-process SketchIndex.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "perfbench/gen.h"
#include "perfbench/trace.h"
#include "src/discovery/router.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/coordinator.h"

namespace perfbench {

using TablePtr = std::shared_ptr<joinmi::Table>;

/// \brief Heap allocations made by the calling thread so far (counted by
/// the ledger binary's global operator new).
uint64_t ThreadAllocations();

enum class LoopKind { kClosed, kOpen };

/// Every workload ranks the top 10 over 2 shards. Paged shards get a
/// 16-page (64 KiB) buffer pool each, far below their ~2 MB.
constexpr size_t kTopK = 10;
constexpr size_t kShards = 2;
constexpr size_t kPoolPages = 16;

/// \brief Everything that distinguishes one workload from another.
struct Workload {
  std::string name;
  joinmi::JoinMIConfig config;
  joinmi::ShardFileFormat format = joinmi::ShardFileFormat::kWholeFile;
  bool rpc = false;
  /// Highest JMRP version the router offers. JMRP v2 caches at most
  /// ShardServer::kMaxCachedSketches distinct query sketches per
  /// connection and never evicts, so a long-lived v2 router fails its
  /// ninth distinct query on a connection; fresh-table RPC traffic runs
  /// on v1, which ships the sketch with every request (see LEDGER.md).
  uint32_t protocol_version = joinmi::net::kProtocolVersion;
  size_t max_pending = 0;
  /// Closed loops run `clients` clients back to back; the open loop runs
  /// `clients` issuing threads at a fixed `rate_per_s` with an ingest
  /// writer beside them.
  LoopKind loop = LoopKind::kClosed;
  size_t clients = 1;
  double rate_per_s = 0.0;
  /// Set-ups per run; setup_s is their median.
  size_t setups = 3;
  /// Ingest: candidates per append batch; the open loop's writer publishes
  /// every `publish_interval_ms` and compacts every `compact_every`
  /// publishes; `drill_cycles` ingest drill cycles run per window.
  size_t append_batch = 8;
  int publish_interval_ms = 500;
  size_t compact_every = 4;
  size_t drill_cycles = 3;
  /// Query tables scored against FullJoinMI for recall_at_k.
  size_t recall_tables = 4;
};

/// \brief One candidate column: provenance plus the table it came from
/// (FullJoinMI needs the rows).
struct CandidateSource {
  joinmi::ColumnPairRef ref;
  TablePtr table;
};

/// \brief A workload's generated inputs.
struct Inputs {
  /// Candidates served from the first generation, in global order.
  std::vector<CandidateSource> base_candidates;
  /// Candidates the ingest path appends later, in append order.
  std::vector<CandidateSource> ingest_candidates;
  /// Query table for a table id (deterministic in the seed).
  std::function<TablePtr(uint64_t)> table;
  /// Open loop: table id of request i. Empty: request i uses table i.
  std::vector<uint64_t> schedule;
  /// The recall_at_k fixture: candidates and query tables generated from
  /// kRecallFixtureSeed, identical in every run.
  std::vector<CandidateSource> recall_candidates;
  std::vector<TablePtr> recall_tables;
  /// Table ids the cache probe and ingest drill query with.
  std::vector<uint64_t> probe_ids;
};

/// \brief Seed of the recall_at_k fixture (independent of --seed).
constexpr uint64_t kRecallFixtureSeed = 20240117;

Workload MakeWorkload(const std::string& name, bool smoke);
Inputs GenerateInputs(const Workload& workload, uint64_t seed, bool smoke,
                      double seconds);

/// \brief Manifest epoch -> candidates served and of those, how many sit in
/// delta segments (not yet compacted).
struct EpochLog {
  struct Entry {
    size_t candidates = 0;
    size_t delta_records = 0;
  };
  mutable std::mutex mutex;
  std::vector<std::optional<Entry>> by_epoch;

  void Set(uint64_t epoch, Entry entry);
  std::optional<Entry> Get(uint64_t epoch) const;
};

/// \brief One served deployment: shard files, optional servers, router.
struct Deployment {
  std::string dir;
  std::vector<std::unique_ptr<joinmi::ShardServer>> servers;
  std::unique_ptr<joinmi::Router> router;
  /// In-process twin of the shard files, for wire self time (RPC only).
  std::unique_ptr<joinmi::ShardedSketchIndex> local_twin;
  /// In-memory twin of every served candidate, for storage self time
  /// (paged shards only); grows with each publish.
  std::unique_ptr<joinmi::SketchIndex> memory_twin;
  double setup_s = 0.0;
  double index_build_ms = 0.0;
  double open_ms = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  /// Router first, then servers: clients must close before servers stop.
  ~Deployment();
};

std::unique_ptr<Deployment> SetUp(const Workload& workload,
                                  const Inputs& inputs,
                                  const std::string& dir);

/// \brief fsyncs every file of the deployment, so ingest timings start
/// from a clean page cache.
void FlushDeployment(const Deployment& deployment);

/// \brief Builds the deployment's in-memory twin (paged shards only) from
/// the reference's first `served` candidates.
void BuildMemoryTwin(const Workload& workload,
                     const joinmi::SketchIndex& reference, size_t served,
                     Deployment* deployment);

/// \brief Buffer-pool counters summed over the router's paged shards,
/// reached through delta overlays.
joinmi::storage::BufferPoolStats PoolTotals(const joinmi::Router& router);

/// \brief One answered (or failed) request.
struct Answer {
  uint64_t request = 0;
  uint64_t table_id = 0;
  /// Router epochs read before and after the call: the answer belongs to
  /// one generation in [epoch_lo, epoch_hi].
  uint64_t epoch_lo = 0;
  uint64_t epoch_hi = 0;
  double latency_ms = 0.0;
  double late_ms = 0.0;
  /// 1 hit, 0 miss, -1 unknown (concurrent requests blurred the counters).
  int cache_hit = -1;
  joinmi::Status status;
  joinmi::TopKSearchResult result;
};

/// \brief Per-layer counts the traced replay gathers.
struct ReplayTotals {
  std::mutex mutex;
  std::vector<double> sketch_ms, sketch_rows, sketch_allocs;
  std::vector<double> shard_sum_ms, shard_ms, shard_skew, wire_ms, storage_ms;
  std::vector<double> probe_ms, estimate_ms, merge_us;
  std::vector<double> replay_router_ms;  ///< router span of replayed misses
  double probed = 0, joined = 0, join_size_sum = 0, estimate_calls = 0,
         estimate_allocs = 0, replays = 0;
  /// [mle, mixed_ksg, dc_ksg, other]: calls and total us.
  double kind_calls[4] = {0, 0, 0, 0};
  double kind_us[4] = {0, 0, 0, 0};
  double request_bytes = 0;
  size_t replay_mismatches = 0;
  /// Wall ms of traced live queries and of replays; a miss is replayed
  /// only while replays have not overtaken the live queries.
  double live_ms = 0, replay_wall_ms = 0;
};

/// \brief Ingest-path measurements (writer in the window, or the drill).
struct IngestTotals {
  std::vector<double> append_ms, publish_ms, reload_ms, visible_ms,
      compact_ms, compact_bytes, overlay_ratio;
  double appended = 0, appended_bytes = 0;
  size_t reloads = 0;
  size_t checks = 0, check_failures = 0;
};

/// \brief Lets a closed loop pause its clients between requests. Time
/// spent paused does not count towards the window.
class PauseGate {
 public:
  /// Waits out any pause; false once the window's unpaused time is spent.
  bool Enter(Clock::time_point start, double seconds);
  void Exit();
  /// Stops new requests and waits for the in-flight ones to finish. One
  /// caller pauses at a time; it must not hold an Enter() of its own.
  void Pause();
  /// Ends the calling thread's Pause().
  void Resume();
  /// Unpaused seconds since `start`.
  double QuerySeconds(Clock::time_point start) const;
  double paused_seconds() const;

 private:
  std::mutex exclusive_;
  mutable std::mutex mutex_;
  std::condition_variable changed_;
  bool paused_ = false;
  size_t active_ = 0;
  double paused_s_ = 0.0;
  Clock::time_point pause_start_;
};

/// \brief Shared state of one measured window.
struct Window {
  const Workload* workload = nullptr;
  const Inputs* inputs = nullptr;
  Deployment* deployment = nullptr;
  const joinmi::SketchIndex* reference = nullptr;
  EpochLog* epochs = nullptr;
  joinmi::ingest::IngestCoordinator* coordinator = nullptr;
  size_t* next_ingest = nullptr;
  /// Writers reload exclusively; traced replays hold it shared so the
  /// index they walk cannot be swapped out under them.
  std::shared_mutex* swap_mutex = nullptr;
  Tracer* tracer = nullptr;  ///< null = untraced
  ReplayTotals* replay = nullptr;
  IngestTotals* ingest = nullptr;
  /// Pool counters of shard clients retired by reloads inside the window.
  joinmi::storage::BufferPoolStats* retired_pool = nullptr;
  uint64_t first_request = 0;
  /// Closed loops only: a second deployment whose ingest drill cycles run
  /// inside this window, with the clients paused, recording into
  /// `drill_totals`.
  const Window* drill = nullptr;
  IngestTotals* drill_totals = nullptr;
};

/// \brief Runs one window of `seconds` and returns its answers plus the
/// wall time it took.
std::vector<Answer> RunWindow(const Window& window, double seconds,
                              double* wall_s);

/// \brief Appends the next batch, publishes it and reloads servers and
/// router. Records into `totals`; false when the ingest stream ran out.
bool PublishStep(const Window& window, IngestTotals* totals);

/// \brief Compacts every delta into fresh base files, then reloads.
void CompactStep(const Window& window, IngestTotals* totals);

/// \brief Probe queries of the ingest drill with their reference
/// estimates.
struct DrillProbe {
  std::vector<joinmi::JoinMIQuery> queries;
  std::vector<std::vector<std::optional<joinmi::JoinMIEstimate>>> reference;
};
DrillProbe PrepareDrill(const Window& window);

/// \brief One ingest drill cycle: append/publish/reload, then
/// compact/reload, timing the uncached fan-out with deltas pinned and
/// after compaction. Answers are checked against the reference at each
/// epoch.
void DrillCycle(const Window& window, const DrillProbe& probe,
                IngestTotals* totals);

/// \brief Workload::drill_cycles drill cycles back to back.
void IngestDrill(const Window& window, IngestTotals* totals);

/// \brief Checks every answer against the reference at its epoch, in
/// parallel outside any timed window. Returns the number wrong; prints
/// each mismatch to stderr.
size_t CheckAnswers(const Window& window, const std::vector<Answer>& answers);

/// \brief Times repeated Router::Search(table) hits and pre-sketched
/// SearchQuery lookups after the window.
void CacheProbe(const Window& window, std::vector<double>* hit_ms,
                std::vector<double>* lookup_ms, size_t* failures);

/// \brief Mean over the fixture's query tables of
/// |sketch top-k ∩ FullJoinMI top-k| / k.
double RecallAtK(const Window& window, size_t* failures);

/// \brief Runs `fn(i)` for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
