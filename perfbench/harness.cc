#include "perfbench/harness.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <set>
#include <thread>
#include <unordered_map>

#include "perfbench/stats.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/topk_merge.h"
#include "src/ingest/delta_shard_client.h"
#include "src/sketch/sketch_join.h"

namespace perfbench {
namespace fs = std::filesystem;
using joinmi::JoinMIEstimate;
using joinmi::Result;
using joinmi::JoinMIQuery;
using joinmi::Router;
using joinmi::TopKSearchResult;

namespace {

const joinmi::SearchSpec kSpec{"K", "Y"};

// Stream labels for DeriveSeed: each input family draws from its own stream.
enum Stream : uint64_t {
  kCandidates = 1,
  kIngest = 2,
  kQueries = 3,
  kSchedule = 4,
};

// Probe table ids live far above any request id, so a closed-loop query
// table never doubles as one of them.
constexpr uint64_t kProbeIdBase = 1ULL << 40;

double Now(Clock::time_point start) { return MillisBetween(start, Clock::now()); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code error;
  for (const auto& entry : fs::recursive_directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

std::set<std::string> ShardFiles(const std::string& dir) {
  std::set<std::string> names;
  std::error_code error;
  for (const auto& entry : fs::directory_iterator(dir, error)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard_", 0) == 0) names.insert(name);
  }
  return names;
}

bool SameRef(const joinmi::ColumnPairRef& a, const joinmi::ColumnPairRef& b) {
  return a.table_name == b.table_name && a.key_column == b.key_column &&
         a.value_column == b.value_column;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// True iff `result` is the unsharded reference ranking over the first `n`
// candidates: the same refs in the same order with bit-identical estimates.
bool MatchesReference(const joinmi::SketchIndex& reference,
                      const std::vector<std::optional<JoinMIEstimate>>& all,
                      size_t n, size_t k, const TopKSearchResult& result) {
  if (result.num_candidates != n || !result.shard_failures.empty()) {
    return false;
  }
  const std::vector<std::optional<JoinMIEstimate>> prefix(all.begin(),
                                                          all.begin() + n);
  const joinmi::internal::TopKSelection selection =
      joinmi::internal::SelectTopKByMI(
          prefix, k, [](size_t i) { return static_cast<uint64_t>(i); });
  if (result.hits.size() != selection.indices.size()) return false;
  for (size_t j = 0; j < selection.indices.size(); ++j) {
    const size_t index = selection.indices[j];
    const joinmi::SearchHit& hit = result.hits[j];
    const JoinMIEstimate& expected = *prefix[index];
    if (!SameRef(hit.candidate, reference.candidates()[index].ref) ||
        !SameBits(hit.estimate.mi, expected.mi) ||
        hit.estimate.sample_size != expected.sample_size ||
        hit.estimate.estimator != expected.estimator) {
      return false;
    }
  }
  return true;
}

JoinMIQuery SketchOrDie(const joinmi::Table& table,
                        const joinmi::JoinMIConfig& config) {
  auto query = JoinMIQuery::Create(table, "K", "Y", config);
  query.status().Abort("sketching a query table");
  return std::move(*query);
}

// Pre-generates query tables ahead of closed-loop clients, in id order, so
// generation never sits inside a timed request.
class TableFeed {
 public:
  TableFeed(std::function<TablePtr(uint64_t)> make, uint64_t first,
            size_t depth)
      : make_(std::move(make)), next_(first), depth_(depth),
        producer_([this] { Produce(); }) {}

  ~TableFeed() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    changed_.notify_all();
    producer_.join();
  }

  TableFeed(const TableFeed&) = delete;
  TableFeed& operator=(const TableFeed&) = delete;

  std::pair<uint64_t, TablePtr> Next() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return !ready_.empty(); });
    auto item = std::move(ready_.front());
    ready_.pop_front();
    changed_.notify_all();
    return item;
  }

 private:
  void Produce() {
    for (;;) {
      uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait(lock,
                      [this] { return stopped_ || ready_.size() < depth_; });
        if (stopped_) return;
        id = next_++;
      }
      TablePtr table = make_(id);
      std::lock_guard<std::mutex> lock(mutex_);
      ready_.emplace_back(id, std::move(table));
      changed_.notify_all();
    }
  }

  std::function<TablePtr(uint64_t)> make_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::deque<std::pair<uint64_t, TablePtr>> ready_;
  uint64_t next_;
  size_t depth_;
  bool stopped_ = false;
  std::thread producer_;  // last: starts after the members it uses
};

int KindSlot(joinmi::MIEstimatorKind kind) {
  switch (kind) {
    case joinmi::MIEstimatorKind::kMLE:
      return 0;
    case joinmi::MIEstimatorKind::kMixedKSG:
      return 1;
    case joinmi::MIEstimatorKind::kDCKSG:
      return 2;
    default:
      return 3;
  }
}

// The marked replay of one missed request: each shard client, the local
// twin of each remote shard (or the in-memory twin of the paged shards),
// then probe, estimate and merge over the reference candidates the
// answer's epoch served.
void ReplayLayers(const Window& w, uint64_t request, uint64_t query_span,
                  const JoinMIQuery& query, double router_ms,
                  const Answer& answer) {
  std::shared_lock<std::shared_mutex> pin(*w.swap_mutex);
  const Router& router = *w.deployment->router;
  const uint64_t epoch = router.epoch();
  const auto served = w.epochs->Get(epoch);
  if (!served) return;
  const joinmi::ShardedSketchIndex& index = router.index();
  const joinmi::JoinMIConfig& config = w.workload->config;
  Tracer& tracer = *w.tracer;
  const uint64_t root = tracer.NewId();
  const Clock::time_point root_start = Clock::now();

  std::vector<double> shard_ms;
  double wire_ms = 0.0;
  // A replayed call that fails is a wrong answer like any other.
  auto failed = [&](const char* what, const joinmi::Status& status) {
    std::fprintf(stderr, "MISMATCH request %llu: replayed %s failed: %s\n",
                 static_cast<unsigned long long>(request), what,
                 status.ToString().c_str());
    std::lock_guard<std::mutex> lock(w.replay->mutex);
    ++w.replay->replay_mismatches;
  };
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const auto start = Clock::now();
    auto result = index.client(s).Search(query, kTopK, 1);
    const auto end = Clock::now();
    if (!result.ok()) return failed("shard search", result.status());
    tracer.Record("shard", root, request, start, end, true,
                  {{"shard", static_cast<double>(s)}});
    shard_ms.push_back(MillisBetween(start, end));
    if (w.deployment->local_twin) {
      const auto local_start = Clock::now();
      auto local = w.deployment->local_twin->client(s).Search(
          query, kTopK, 1);
      const auto local_end = Clock::now();
      if (!local.ok()) return failed("local twin search", local.status());
      tracer.Record("local", root, request, local_start, local_end, true,
                    {{"shard", static_cast<double>(s)}});
      wire_ms += shard_ms.back() - MillisBetween(local_start, local_end);
    }
  }
  double storage_ms = 0.0;
  if (w.deployment->memory_twin) {
    const auto twin_start = Clock::now();
    auto twin = w.deployment->memory_twin->SearchQuery(
        query, kTopK, 1, joinmi::ShardQueryMode::kStrict);
    const auto twin_end = Clock::now();
    if (!twin.ok()) return failed("in-memory twin search", twin.status());
    tracer.Record("local", root, request, twin_start, twin_end, true);
    storage_ms = Sum(shard_ms) - MillisBetween(twin_start, twin_end);
  }

  const size_t n = served->candidates;
  const auto probe_start = Clock::now();
  auto prepared = joinmi::PreparedTrainSketch::Create(query.train_sketch());
  if (!prepared.ok()) return failed("train sketch", prepared.status());
  std::vector<std::optional<joinmi::SketchJoinResult>> joins(n);
  double joined = 0;
  double join_size_sum = 0;
  for (size_t c = 0; c < n; ++c) {
    auto join = prepared->Join(w.reference->candidates()[c].sketch());
    if (!join.ok()) continue;
    if (join->join_size >= config.min_join_size) {
      ++joined;
      join_size_sum += static_cast<double>(join->join_size);
    }
    joins[c] = std::move(*join);
  }
  const auto probe_end = Clock::now();
  tracer.Record("probe", root, request, probe_start, probe_end, true,
                {{"candidates", static_cast<double>(n)},
                 {"joined", joined},
                 {"join_size_sum", join_size_sum}});

  std::vector<std::optional<JoinMIEstimate>> estimates(n);
  double calls = 0;
  double kind_calls[4] = {0, 0, 0, 0};
  double kind_us[4] = {0, 0, 0, 0};
  const uint64_t allocs_before = ThreadAllocations();
  const auto estimate_start = Clock::now();
  for (size_t c = 0; c < n; ++c) {
    if (!joins[c] || joins[c]->join_size < config.min_join_size) continue;
    const auto start = Clock::now();
    auto scored = joinmi::ScoreSketchJoinSample(
        joins[c]->sample, joins[c]->join_size, config.estimator,
        config.mi_options, config.min_join_size);
    const double us = MillisBetween(start, Clock::now()) * 1000.0;
    ++calls;
    if (!scored.ok()) continue;
    const int slot = KindSlot(scored->estimator);
    kind_calls[slot] += 1;
    kind_us[slot] += us;
    estimates[c] = JoinMIEstimate{scored->mi, scored->estimator,
                                  scored->join_size, true};
  }
  const auto estimate_end = Clock::now();
  const double estimate_allocs =
      static_cast<double>(ThreadAllocations() - allocs_before);
  tracer.Record("estimate", root, request, estimate_start, estimate_end, true,
                {{"calls", calls}, {"allocs", estimate_allocs}});

  const auto merge_start = Clock::now();
  const joinmi::internal::TopKSelection selection =
      joinmi::internal::SelectTopKByMI(
          estimates, kTopK,
          [](size_t i) { return static_cast<uint64_t>(i); });
  const auto merge_end = Clock::now();
  tracer.Record("merge", root, request, merge_start, merge_end, true);
  tracer.RecordWithId(root, "replay", query_span, request, root_start,
                      Clock::now(), true);

  // The per-candidate path must rank exactly like the served answer when
  // both saw the same generation.
  bool mismatch = false;
  if (answer.status.ok() && epoch == answer.epoch_lo &&
      epoch == answer.epoch_hi) {
    mismatch = selection.indices.size() != answer.result.hits.size();
    for (size_t j = 0; !mismatch && j < selection.indices.size(); ++j) {
      const size_t c = selection.indices[j];
      mismatch =
          !SameRef(answer.result.hits[j].candidate,
                   w.reference->candidates()[c].ref) ||
          !SameBits(answer.result.hits[j].estimate.mi, estimates[c]->mi);
    }
  }

  const double shard_sum = Sum(shard_ms);
  const double slowest = *std::max_element(shard_ms.begin(), shard_ms.end());
  const double median = Median(shard_ms);

  ReplayTotals& t = *w.replay;
  std::lock_guard<std::mutex> lock(t.mutex);
  t.replays += 1;
  t.replay_router_ms.push_back(router_ms);
  t.shard_sum_ms.push_back(shard_sum);
  t.shard_ms.insert(t.shard_ms.end(), shard_ms.begin(), shard_ms.end());
  t.shard_skew.push_back(median > 0.0 ? slowest / median : 1.0);
  t.wire_ms.push_back(wire_ms);
  t.storage_ms.push_back(storage_ms);
  t.probe_ms.push_back(MillisBetween(probe_start, probe_end));
  t.estimate_ms.push_back(MillisBetween(estimate_start, estimate_end));
  t.merge_us.push_back(MillisBetween(merge_start, merge_end) * 1000.0);
  t.probed += static_cast<double>(n);
  t.joined += joined;
  t.join_size_sum += join_size_sum;
  t.estimate_calls += calls;
  t.estimate_allocs += estimate_allocs;
  for (int slot = 0; slot < 4; ++slot) {
    t.kind_calls[slot] += kind_calls[slot];
    t.kind_us[slot] += kind_us[slot];
  }
  if (w.workload->rpc) {
    t.request_bytes += static_cast<double>(query.SerializedTrainSketch().size());
  }
  if (mismatch) {
    ++t.replay_mismatches;
    std::fprintf(stderr,
                 "MISMATCH request %llu: per-candidate replay ranks "
                 "differently from the served answer\n",
                 static_cast<unsigned long long>(request));
  }
}

// A traced miss waiting for its replay.
struct PendingReplay {
  JoinMIQuery query;
  uint64_t span = 0;
  double router_ms = 0.0;
};

void Replay(const Window& w, const PendingReplay& pending,
            const Answer& answer) {
  const auto start = Clock::now();
  ReplayLayers(w, answer.request, pending.span, pending.query,
               pending.router_ms, answer);
  std::lock_guard<std::mutex> lock(w.replay->mutex);
  w.replay->replay_wall_ms += Now(start);
}

Answer SendRequest(const Window& w, uint64_t request, uint64_t table_id,
             const joinmi::Table& table,
             std::optional<Clock::time_point> due,
             std::optional<PendingReplay>* pending) {
  const Router& router = *w.deployment->router;
  Answer answer;
  answer.request = request;
  answer.table_id = table_id;
  answer.epoch_lo = router.epoch();
  if (w.tracer == nullptr) {
    const auto start = Clock::now();
    auto result = router.Search(table, kSpec, kTopK);
    const auto end = Clock::now();
    answer.latency_ms = MillisBetween(due.value_or(start), end);
    answer.late_ms = due ? MillisBetween(*due, start) : 0.0;
    answer.epoch_hi = router.epoch();
    if (result.ok()) {
      answer.result = std::move(*result);
    } else {
      answer.status = result.status();
    }
    return answer;
  }

  // Traced: the same call split at its one internal boundary the public
  // API exposes — Router::Search is JoinMIQuery::Create + SearchQuery.
  Tracer& tracer = *w.tracer;
  const uint64_t query_span = tracer.NewId();
  const auto start = Clock::now();
  const uint64_t allocs_before = ThreadAllocations();
  auto query = JoinMIQuery::Create(table, "K", "Y", router.search_config());
  const double sketch_allocs =
      static_cast<double>(ThreadAllocations() - allocs_before);
  const auto sketched = Clock::now();
  const joinmi::RouterCacheStats before = router.cache_stats();
  const auto routed_start = Clock::now();
  Result<TopKSearchResult> result =
      query.ok() ? router.SearchQuery(*query, kTopK, 0,
                                      joinmi::ShardQueryMode::kStrict)
                 : Result<TopKSearchResult>(query.status());
  const auto end = Clock::now();
  const joinmi::RouterCacheStats after = router.cache_stats();
  answer.epoch_hi = router.epoch();
  answer.latency_ms = MillisBetween(due.value_or(start), end);
  answer.late_ms = due ? MillisBetween(*due, start) : 0.0;
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  // Concurrent requests move the counters too, but this request's own
  // lookup moved one of them: no new hit means it missed, no new miss
  // means it hit. Both moving leaves it unknown.
  if (misses == 0 && hits > 0) answer.cache_hit = 1;
  if (hits == 0 && misses > 0) answer.cache_hit = 0;
  tracer.Record("sketch", query_span, request, start, sketched, false,
                {{"rows", static_cast<double>(table.num_rows())},
                 {"allocs", sketch_allocs}});
  tracer.Record("router", query_span, request, routed_start, end, false,
                {{"cache_hit", static_cast<double>(answer.cache_hit)}});
  tracer.RecordWithId(query_span, "query", 0, request, start, end, false);
  if (result.ok()) {
    answer.result = std::move(*result);
  } else {
    answer.status = result.status();
  }

  const double query_ms = MillisBetween(start, end);
  const double router_ms = MillisBetween(routed_start, end);
  bool replay = false;
  {
    ReplayTotals& t = *w.replay;
    std::lock_guard<std::mutex> lock(t.mutex);
    t.sketch_ms.push_back(MillisBetween(start, sketched));
    t.sketch_rows.push_back(static_cast<double>(table.num_rows()));
    t.sketch_allocs.push_back(sketch_allocs);
    t.live_ms += query_ms;
    // Replays never take more wall time than the traced queries do.
    replay = answer.cache_hit == 0 && t.replay_wall_ms <= t.live_ms;
  }
  if (query.ok() && replay) {
    *pending = PendingReplay{std::move(*query), query_span, router_ms};
  }
  return answer;
}

// Reloads servers and router onto the newest generation; `added` are the
// candidates it newly serves (the in-memory twin follows them).
// Returns the ms spent extending the twin, which is benchmark bookkeeping
// and not part of the reload.
double ReloadServing(const Window& w,
                     const std::vector<joinmi::CandidateRecord>& added) {
  for (auto& server : w.deployment->servers) {
    server->Reload().Abort("reloading a shard server");
  }
  std::unique_lock<std::shared_mutex> swap(*w.swap_mutex);
  const auto twin_start = Clock::now();
  if (w.deployment->memory_twin) {
    for (const joinmi::CandidateRecord& record : added) {
      w.deployment->memory_twin->AddSketch(record.ref, record.sketch)
          .Abort("extending the in-memory twin");
    }
  }
  const double twin_ms = Now(twin_start);
  const joinmi::storage::BufferPoolStats pool =
      PoolTotals(*w.deployment->router);
  w.retired_pool->hits += pool.hits;
  w.retired_pool->misses += pool.misses;
  w.retired_pool->evictions += pool.evictions;
  w.deployment->router->Reload().Abort("reloading the router");
  return twin_ms;
}

}  // namespace

bool PauseGate::Enter(Clock::time_point start, double seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  changed_.wait(lock, [this] { return !paused_; });
  if (MillisBetween(start, Clock::now()) / 1000.0 - paused_s_ >= seconds) {
    return false;
  }
  ++active_;
  return true;
}

void PauseGate::Exit() {
  std::lock_guard<std::mutex> lock(mutex_);
  --active_;
  changed_.notify_all();
}

void PauseGate::Pause() {
  exclusive_.lock();  // one pauser at a time; Resume() releases it
  std::unique_lock<std::mutex> lock(mutex_);
  paused_ = true;
  changed_.wait(lock, [this] { return active_ == 0; });
  pause_start_ = Clock::now();
}

void PauseGate::Resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_s_ += MillisBetween(pause_start_, Clock::now()) / 1000.0;
  paused_ = false;
  changed_.notify_all();
  exclusive_.unlock();
}

double PauseGate::QuerySeconds(Clock::time_point start) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return MillisBetween(start, Clock::now()) / 1000.0 - paused_s_;
}

double PauseGate::paused_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return paused_s_;
}

void EpochLog::Set(uint64_t epoch, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex);
  if (by_epoch.size() <= epoch) by_epoch.resize(epoch + 1);
  by_epoch[epoch] = entry;
}

std::optional<EpochLog::Entry> EpochLog::Get(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex);
  if (epoch >= by_epoch.size()) return std::nullopt;
  return by_epoch[epoch];
}

Workload MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  w.setups = smoke ? 2 : 3;
  w.recall_tables = smoke ? 1 : 4;
  if (name == "cold_discover") {
    w.config.sketch_capacity = smoke ? 128 : 512;
    w.config.min_join_size = smoke ? 16 : 32;
    w.setups = smoke ? 2 : 5;
    w.append_batch = 4;
    w.drill_cycles = smoke ? 2 : 8;
  } else if (name == "wide_probe") {
    w.config.sketch_capacity = smoke ? 128 : 256;
    w.config.aggregation = joinmi::AggKind::kFirst;
    w.config.min_join_size = 16;
    w.rpc = true;
    w.protocol_version = 1;
    w.clients = 2;
    w.append_batch = 12;
    w.drill_cycles = smoke ? 2 : 3;
  } else if (name == "serve_ingest") {
    w.config.sketch_capacity = smoke ? 128 : 256;
    w.config.aggregation = joinmi::AggKind::kFirst;
    w.config.min_join_size = 16;
    w.format = joinmi::ShardFileFormat::kPaged;
    w.max_pending = 4;
    w.loop = LoopKind::kOpen;
    w.clients = 2;
    w.rate_per_s = 20.0;
    // Small batches keep the served set within ~10% of its start over a
    // window, so the read load does not drift while it is measured.
    w.append_batch = 2;
    w.publish_interval_ms = smoke ? 200 : 500;
    w.compact_every = smoke ? 2 : 4;
    w.drill_cycles = 2;
  } else {
    w.name.clear();
  }
  return w;
}

namespace {

// The generator behind one workload: candidate columns and query tables,
// both pure functions of (seed, stream, index).
struct Corpus {
  std::function<std::vector<CandidateSource>(
      uint64_t seed, uint64_t stream, const std::string& prefix, size_t count)>
      candidates;
  std::function<TablePtr(uint64_t seed, uint64_t id)> table;
  size_t candidate_count = 0;
};

Corpus MakeCorpus(const Workload& w, bool smoke, bool fixture) {
  Corpus corpus;
  if (w.name == "cold_discover") {
    SyntheticShape shape;
    if (smoke) {
      shape.key_domain = 300;
      shape.base_rows = 3000;
      shape.candidate_rows = 600;
    }
    const size_t tables = smoke ? 8 : 48;
    // FullJoinMI over 120k-row joins costs seconds per candidate; the
    // recall fixture scores the same shape at a tenth of the rows.
    if (fixture) shape.base_rows /= 10;
    corpus.candidate_count = tables;
    corpus.candidates = [shape, tables](uint64_t seed, uint64_t stream,
                                        const std::string& prefix,
                                        size_t count) {
      std::vector<CandidateSource> out;
      for (size_t t = 0; t < count; ++t) {
        out.push_back(CandidateSource{
            {prefix + std::to_string(t), "K", "V"},
            SyntheticCandidate(shape, t % tables, DeriveSeed(seed, stream, t))});
      }
      return out;
    };
    corpus.table = [shape](uint64_t seed, uint64_t id) {
      return SyntheticBase(shape, DeriveSeed(seed, kQueries, id));
    };
    return corpus;
  }
  OpenDataShape shape;
  size_t tables = 400;
  shape.families = 40;
  if (w.name == "serve_ingest") {
    shape.base_rows = 9000;
    shape.value_columns = 2;
    shape.families = 24;
    tables = 300;
  }
  if (smoke) {
    shape.base_rows = std::min<size_t>(shape.base_rows, 1500);
    shape.candidate_rows = 300;
    shape.families = 4;
    tables = 60;
  }
  // The recall fixture keeps the same number of candidates per family at a
  // third of the candidates, so it sketches in a third of the time.
  if (fixture && !smoke) {
    tables /= 3;
    shape.families /= 3;
  }
  corpus.candidate_count = tables * shape.value_columns;
  corpus.candidates = [shape](uint64_t seed, uint64_t stream,
                              const std::string& prefix, size_t count) {
    std::vector<CandidateSource> out;
    for (size_t t = 0; out.size() < count; ++t) {
      TablePtr table =
          OpenDataCandidate(shape, DeriveSeed(seed, stream, t), t);
      for (const std::string& column : ValueColumns(*table)) {
        if (out.size() == count) break;
        out.push_back(
            CandidateSource{{prefix + std::to_string(t), "K", column}, table});
      }
    }
    return out;
  };
  corpus.table = [shape](uint64_t seed, uint64_t id) {
    return OpenDataBase(shape, DeriveSeed(seed, kQueries, id), id);
  };
  return corpus;
}

}  // namespace

Inputs GenerateInputs(const Workload& w, uint64_t seed, bool smoke,
                      double seconds) {
  Inputs inputs;
  const Corpus corpus = MakeCorpus(w, smoke, false);
  const size_t ingest_steps =
      w.drill_cycles + 2 +
      (w.loop == LoopKind::kOpen
           ? static_cast<size_t>(seconds * 1000.0 / w.publish_interval_ms) + 2
           : 0);
  inputs.base_candidates =
      corpus.candidates(seed, kCandidates, "cand", corpus.candidate_count);
  inputs.ingest_candidates = corpus.candidates(
      seed, kIngest, "late", ingest_steps * w.append_batch);

  // recall_at_k scores a fixture generated from kRecallFixtureSeed, never
  // from the run's seed: the same candidates and query tables every run,
  // so the metric moves only when the program's rankings do.
  const Corpus fixture = MakeCorpus(w, smoke, true);
  inputs.recall_candidates = fixture.candidates(
      kRecallFixtureSeed, kCandidates, "fixture", fixture.candidate_count);
  for (size_t j = 0; j < w.recall_tables; ++j) {
    inputs.recall_tables.push_back(fixture.table(kRecallFixtureSeed, j));
  }

  if (w.loop == LoopKind::kOpen) {
    // A fixed pool of distinct query tables drawn Zipf(1.1), so repeats
    // reach the result cache.
    const size_t distinct = 64;
    auto pool = std::make_shared<std::vector<TablePtr>>();
    for (size_t i = 0; i < distinct; ++i) pool->push_back(corpus.table(seed, i));
    inputs.table = [pool](uint64_t id) { return (*pool)[id % pool->size()]; };
    Rng rng(DeriveSeed(seed, kSchedule));
    const Zipf popularity(distinct, 1.1);
    const size_t requests = static_cast<size_t>(w.rate_per_s * seconds) + 16;
    for (size_t i = 0; i < requests; ++i) {
      inputs.schedule.push_back(popularity.Draw(&rng));
    }
    inputs.probe_ids = {0, 1, 2};
  } else {
    inputs.table = [table = corpus.table, seed](uint64_t id) {
      return table(seed, id);
    };
    inputs.probe_ids = {kProbeIdBase, kProbeIdBase + 1, kProbeIdBase + 2};
  }
  return inputs;
}

Deployment::~Deployment() {
  router.reset();
  local_twin.reset();
  for (auto& server : servers) server->Stop();
  servers.clear();
}

std::unique_ptr<Deployment> SetUp(const Workload& w, const Inputs& inputs,
                                  const std::string& dir) {
  auto deployment = std::make_unique<Deployment>();
  deployment->dir = dir;
  const auto start = Clock::now();
  joinmi::SketchIndex index(w.config);
  for (const CandidateSource& source : inputs.base_candidates) {
    index.AddCandidate(*source.table, source.ref).Abort("indexing a candidate");
  }
  const auto indexed = Clock::now();
  joinmi::ShardBuildOptions build;
  build.format = w.format;
  auto manifest = joinmi::BuildShards(
      index, kShards, joinmi::ShardPartitionPolicy::kRoundRobin, dir, build);
  manifest.status().Abort("building shards");

  joinmi::RouterOptions options;
  options.manifest_path = dir;
  options.num_threads = 1;
  options.max_pending = w.max_pending;
  options.serving.pool_pages = kPoolPages;
  options.serving.max_protocol_version = w.protocol_version;
  if (w.rpc) {
    for (size_t s = 0; s < kShards; ++s) {
      joinmi::ShardServerOptions server_options;
      server_options.num_workers = 1;
      server_options.eval_threads = 1;
      auto server = joinmi::ShardServer::Create(dir, s, server_options);
      server.status().Abort("creating a shard server");
      (*server)->Start().Abort("starting a shard server");
      options.replica_endpoints.push_back(
          {joinmi::ShardEndpoint{"127.0.0.1", (*server)->port()}});
      deployment->servers.push_back(std::move(*server));
    }
  }
  const auto opening = Clock::now();
  auto router = Router::Open(std::move(options));
  router.status().Abort("opening the router");
  const auto end = Clock::now();
  deployment->router = std::move(*router);
  deployment->setup_s = MillisBetween(start, end) / 1000.0;
  deployment->index_build_ms = MillisBetween(start, indexed);
  deployment->open_ms = MillisBetween(opening, end);
  if (w.rpc) {
    auto twin = joinmi::ShardedSketchIndex::Load(*manifest);
    twin.status().Abort("loading the in-process twin of the shards");
    deployment->local_twin =
        std::make_unique<joinmi::ShardedSketchIndex>(std::move(*twin));
  }
  return deployment;
}

void FlushDeployment(const Deployment& deployment) {
  // BuildShards leaves its files in the page cache. Without this, the
  // first fsync of an ingest append or publish would pay to write the
  // whole deployment back, and how much of it is still dirty depends on
  // timing.
  std::error_code error;
  for (const auto& entry :
       fs::recursive_directory_iterator(deployment.dir, error)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
  const int dir = ::open(deployment.dir.c_str(), O_RDONLY);
  if (dir >= 0) {
    ::fsync(dir);
    ::close(dir);
  }
}

void BuildMemoryTwin(const Workload& w, const joinmi::SketchIndex& reference,
                     size_t served, Deployment* deployment) {
  if (w.format != joinmi::ShardFileFormat::kPaged) return;
  deployment->memory_twin = std::make_unique<joinmi::SketchIndex>(w.config);
  for (size_t i = 0; i < served; ++i) {
    const joinmi::IndexedCandidate& candidate = reference.candidates()[i];
    deployment->memory_twin->AddSketch(candidate.ref, candidate.sketch())
        .Abort("building the in-memory twin");
  }
}

joinmi::storage::BufferPoolStats PoolTotals(const Router& router) {
  joinmi::storage::BufferPoolStats total;
  const joinmi::ShardedSketchIndex& index = router.index();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    const joinmi::ShardClient* client = &index.client(s);
    // Router::StatsJson only matches a bare PagedShardClient, so its pool.*
    // gauges vanish once a delta is pinned; the overlay's base() still
    // reaches the pool.
    if (const auto* overlay =
            dynamic_cast<const joinmi::ingest::DeltaShardClient*>(client)) {
      client = &overlay->base();
    }
    if (const auto* paged =
            dynamic_cast<const joinmi::PagedShardClient*>(client)) {
      const joinmi::storage::BufferPoolStats stats = paged->pool_stats();
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.evictions += stats.evictions;
    }
  }
  return total;
}

std::vector<Answer> RunWindow(const Window& w, double seconds, double* wall_s) {
  std::vector<Answer> answers;
  std::mutex answers_mutex;
  auto keep = [&](Answer answer) {
    std::lock_guard<std::mutex> lock(answers_mutex);
    answers.push_back(std::move(answer));
  };
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));

  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (w.workload->loop == LoopKind::kOpen) {
    writer = std::thread([&] {
      size_t publishes = 0;
      for (size_t tick = 1;; ++tick) {
        const auto due =
            start + std::chrono::milliseconds(tick * w.workload->publish_interval_ms);
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        if (stop_writer.load()) break;
        ++publishes;
        if (!PublishStep(w, w.ingest)) break;
        if (publishes % w.workload->compact_every == 0) CompactStep(w, w.ingest);
      }
    });
  }

  std::vector<std::thread> clients;
  double paused_s = 0.0;
  if (w.workload->loop == LoopKind::kClosed) {
    // Drill cycles on the twin deployment, evenly spaced over the window
    // with every client paused, so their samples span the run's changing
    // host conditions and no query overlaps them. Paused time extends the
    // window and is excluded from its wall time.
    PauseGate gate;
    std::thread driller;
    if (w.drill != nullptr) {
      driller = std::thread([&] {
        const DrillProbe probe = PrepareDrill(*w.drill);
        const size_t cycles = w.workload->drill_cycles;
        for (size_t i = 1; i <= cycles; ++i) {
          const double due = seconds * static_cast<double>(i) /
                             static_cast<double>(cycles + 1);
          while (gate.QuerySeconds(start) < due) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
          gate.Pause();
          DrillCycle(*w.drill, probe, w.drill_totals);
          gate.Resume();
        }
      });
    }
    TableFeed feed(w.inputs->table, w.first_request, 2 + w.workload->clients);
    for (size_t c = 0; c < w.workload->clients; ++c) {
      clients.emplace_back([&] {
        for (;;) {
          auto [id, table] = feed.Next();
          if (!gate.Enter(start, seconds)) break;
          std::optional<PendingReplay> pending;
          Answer answer = SendRequest(w, id, id, *table, std::nullopt, &pending);
          gate.Exit();
          if (pending) {
            // Replays run alone, so no live request queues behind one.
            gate.Pause();
            Replay(w, *pending, answer);
            gate.Resume();
          }
          keep(std::move(answer));
        }
      });
    }
    for (std::thread& client : clients) client.join();
    if (driller.joinable()) driller.join();
    paused_s = gate.paused_seconds();
  } else {
    const double rate = w.workload->rate_per_s;
    const size_t count = std::min(w.inputs->schedule.size() - w.first_request,
                                  static_cast<size_t>(rate * seconds));
    std::atomic<size_t> next{0};
    for (size_t c = 0; c < w.workload->clients; ++c) {
      clients.emplace_back([&] {
        for (size_t i = next++; i < count; i = next++) {
          const auto due = start + std::chrono::microseconds(
                                       static_cast<int64_t>(i * 1e6 / rate));
          std::this_thread::sleep_until(due);
          const uint64_t request = w.first_request + i;
          const uint64_t table_id = w.inputs->schedule[request];
          const TablePtr table = w.inputs->table(table_id);
          std::optional<PendingReplay> pending;
          Answer answer = SendRequest(w, request, table_id, *table, due, &pending);
          if (pending) Replay(w, *pending, answer);
          keep(std::move(answer));
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  *wall_s = MillisBetween(start, Clock::now()) / 1000.0 - paused_s;
  stop_writer.store(true);
  if (writer.joinable()) writer.join();
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) { return a.request < b.request; });
  return answers;
}

bool PublishStep(const Window& w, IngestTotals* totals) {
  const size_t batch = w.workload->append_batch;
  const size_t from = *w.next_ingest;
  if (from + batch > w.inputs->ingest_candidates.size()) return false;
  const size_t base = w.inputs->base_candidates.size();
  std::vector<joinmi::CandidateRecord> records;
  for (size_t i = from; i < from + batch; ++i) {
    const joinmi::IndexedCandidate& candidate =
        w.reference->candidates()[base + i];
    records.push_back(joinmi::CandidateRecord{candidate.ref, candidate.sketch()});
  }
  const uint64_t bytes_before = DirBytes(w.deployment->dir);
  const auto start = Clock::now();
  w.coordinator->Append(records).Abort("appending candidates");
  const auto appended = Clock::now();
  const uint64_t bytes_after = DirBytes(w.deployment->dir);
  const auto publish_start = Clock::now();
  auto epoch = w.coordinator->Publish();
  epoch.status().Abort("publishing a generation");
  const auto published = Clock::now();
  *w.next_ingest = from + batch;
  const auto previous = w.epochs->Get(*epoch - 1);
  w.epochs->Set(*epoch,
                {static_cast<size_t>(w.coordinator->published_candidates()),
                 (previous ? previous->delta_records : 0) + batch});
  const double twin_ms = ReloadServing(w, records);
  const auto visible = Clock::now();
  totals->append_ms.push_back(MillisBetween(start, appended));
  totals->publish_ms.push_back(MillisBetween(publish_start, published));
  totals->reload_ms.push_back(MillisBetween(published, visible) - twin_ms);
  totals->visible_ms.push_back(MillisBetween(start, visible) - twin_ms -
                               MillisBetween(appended, publish_start));
  totals->appended += static_cast<double>(batch);
  totals->appended_bytes += static_cast<double>(bytes_after - bytes_before);
  totals->reloads += 1;
  return true;
}

void CompactStep(const Window& w, IngestTotals* totals) {
  const std::set<std::string> before = ShardFiles(w.deployment->dir);
  const auto start = Clock::now();
  auto epoch = w.coordinator->Compact();
  epoch.status().Abort("compacting");
  const auto end = Clock::now();
  w.epochs->Set(*epoch,
                {static_cast<size_t>(w.coordinator->published_candidates()), 0});
  double rewritten = 0;
  for (const std::string& name : ShardFiles(w.deployment->dir)) {
    if (before.count(name) == 0) {
      std::error_code error;
      rewritten += static_cast<double>(
          fs::file_size(fs::path(w.deployment->dir) / name, error));
    }
  }
  ReloadServing(w, {});
  totals->compact_ms.push_back(MillisBetween(start, end));
  totals->compact_bytes.push_back(rewritten);
  totals->reloads += 1;
}

DrillProbe PrepareDrill(const Window& w) {
  DrillProbe probe;
  for (uint64_t id : w.inputs->probe_ids) {
    probe.queries.push_back(
        SketchOrDie(*w.inputs->table(id), w.workload->config));
    auto evaluation = w.reference->EvaluateAll(probe.queries.back(), 1);
    evaluation.status().Abort("evaluating the reference");
    probe.reference.push_back(std::move(evaluation->estimates));
  }
  return probe;
}

void DrillCycle(const Window& w, const DrillProbe& probe,
                IngestTotals* totals) {
  // Median ms of the uncached fan-out over the probe queries, checking
  // each answer against the reference at the serving epoch.
  auto timed_queries = [&]() {
    const Router& router = *w.deployment->router;
    const auto served = w.epochs->Get(router.epoch());
    std::vector<double> ms;
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t q = 0; q < probe.queries.size(); ++q) {
        const auto start = Clock::now();
        auto result = router.index().SearchQuery(
            probe.queries[q], kTopK, 1, joinmi::ShardQueryMode::kStrict);
        ms.push_back(Now(start));
        ++totals->checks;
        if (!result.ok() || !served ||
            !MatchesReference(*w.reference, probe.reference[q],
                              served->candidates, kTopK, *result)) {
          ++totals->check_failures;
          std::fprintf(stderr, "MISMATCH ingest drill query %zu at epoch %llu\n",
                       q, static_cast<unsigned long long>(router.epoch()));
        }
      }
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
  };
  if (!PublishStep(w, totals)) return;
  const double pinned = timed_queries();
  CompactStep(w, totals);
  const double compacted = timed_queries();
  totals->overlay_ratio.push_back(pinned / compacted);
}

void IngestDrill(const Window& w, IngestTotals* totals) {
  const DrillProbe probe = PrepareDrill(w);
  for (size_t cycle = 0; cycle < w.workload->drill_cycles; ++cycle) {
    DrillCycle(w, probe, totals);
  }
}

size_t CheckAnswers(const Window& w, const std::vector<Answer>& answers) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_table;
  for (size_t i = 0; i < answers.size(); ++i) {
    by_table[answers[i].table_id].push_back(i);
  }
  std::vector<std::pair<uint64_t, std::vector<size_t>>> groups(by_table.begin(),
                                                               by_table.end());
  std::atomic<size_t> wrong{0};
  ParallelFor(groups.size(), std::max(1u, std::thread::hardware_concurrency()),
              [&](size_t g) {
    const TablePtr table = w.inputs->table(groups[g].first);
    const JoinMIQuery query = SketchOrDie(*table, w.workload->config);
    auto evaluation = w.reference->EvaluateAll(query, 1);
    evaluation.status().Abort("evaluating the reference");
    for (size_t i : groups[g].second) {
      const Answer& answer = answers[i];
      bool matched = false;
      for (uint64_t e = answer.epoch_lo;
           answer.status.ok() && !matched && e <= answer.epoch_hi; ++e) {
        const auto served = w.epochs->Get(e);
        matched = served && MatchesReference(*w.reference,
                                             evaluation->estimates,
                                             served->candidates,
                                             kTopK, answer.result);
      }
      if (!matched) {
        ++wrong;
        std::fprintf(stderr, "MISMATCH request %llu (table %llu): %s\n",
                     static_cast<unsigned long long>(answer.request),
                     static_cast<unsigned long long>(answer.table_id),
                     answer.status.ok() ? "ranking differs from the reference"
                                        : answer.status.ToString().c_str());
      }
    }
  });
  return wrong.load();
}

void CacheProbe(const Window& w, std::vector<double>* hit_ms,
                std::vector<double>* lookup_ms, size_t* failures) {
  const Router& router = *w.deployment->router;
  const TablePtr table = w.inputs->table(w.inputs->probe_ids[0]);
  const JoinMIQuery query = SketchOrDie(*table, w.workload->config);
  auto evaluation = w.reference->EvaluateAll(query, 1);
  evaluation.status().Abort("evaluating the reference");
  const auto served = w.epochs->Get(router.epoch());
  auto check = [&](const Result<TopKSearchResult>& result) {
    if (!result.ok() || !served ||
        !MatchesReference(*w.reference, evaluation->estimates,
                          served->candidates, kTopK, *result)) {
      ++*failures;
      std::fprintf(stderr, "MISMATCH cache probe answer\n");
    }
  };
  check(router.Search(*table, kSpec, kTopK));  // fills the entry
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    auto result = router.Search(*table, kSpec, kTopK);
    hit_ms->push_back(Now(start));
    check(result);
  }
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    auto result = router.SearchQuery(query, kTopK, 0,
                                     joinmi::ShardQueryMode::kStrict);
    lookup_ms->push_back(Now(start));
    check(result);
  }
}

double RecallAtK(const Window& w, size_t* failures) {
  const std::vector<CandidateSource>& candidates = w.inputs->recall_candidates;
  const size_t n = candidates.size();
  joinmi::SketchIndex index(w.workload->config);
  for (const CandidateSource& source : candidates) {
    index.AddCandidate(*source.table, source.ref)
        .Abort("indexing a recall fixture candidate");
  }
  auto by_index = [](size_t i) { return static_cast<uint64_t>(i); };
  double total = 0.0;
  for (const TablePtr& table : w.inputs->recall_tables) {
    const JoinMIQuery query = SketchOrDie(*table, w.workload->config);
    auto evaluation = index.EvaluateAll(query, 1);
    evaluation.status().Abort("evaluating the recall fixture");
    std::vector<std::optional<JoinMIEstimate>> full(n);
    std::atomic<size_t> errors{0};
    ParallelFor(n, std::max(1u, std::thread::hardware_concurrency()),
                [&](size_t c) {
      auto estimate = joinmi::FullJoinMI(
          *table, *candidates[c].table,
          {"K", "Y", "K", candidates[c].ref.value_column}, w.workload->config);
      if (!estimate.ok()) {
        ++errors;
        return;
      }
      // The same meaningless-estimate guard the sketch path applies.
      if (estimate->sample_size >= w.workload->config.min_join_size) {
        full[c] = *estimate;
      }
    });
    *failures += errors.load();
    const auto top_sketch =
        joinmi::internal::SelectTopKByMI(evaluation->estimates, kTopK, by_index)
            .indices;
    const auto top_full =
        joinmi::internal::SelectTopKByMI(full, kTopK, by_index).indices;
    size_t common = 0;
    for (size_t i : top_sketch) {
      common += std::count(top_full.begin(), top_full.end(), i);
    }
    total += static_cast<double>(common) / static_cast<double>(kTopK);
  }
  return total / static_cast<double>(w.inputs->recall_tables.size());
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min(threads, n); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace perfbench
