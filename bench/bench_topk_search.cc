// Throughput benchmark for the parallel top-k discovery engine.
//
// Part 1 compares three ways of ranking every candidate column pair of a
// synthetic repository against one base table:
//
//   naive serial    one SketchJoinMI call per candidate — rebuilds the base
//                   table's sketch for every query (the pre-engine API);
//   engine x1       TopKJoinMISearch with 1 thread — base sketch built once
//                   and probed via the prepared train index;
//   engine xT       TopKJoinMISearch with T threads (default 4).
//
// Part 2 is the sketch-once / query-many deployment (the paper's Sections I
// and V-C): a SketchIndex is built once (every candidate sketched offline)
// and then probed by a stream of queries. For each query count Q it
// compares
//
//   per-query sketching   Q x TopKJoinMISearch(repository) — candidates
//                         re-sketched on every query;
//   index-backed probing  index build (paid once) + Q x
//                         TopKJoinMISearch(index) — queries only merge
//                         against the stored candidate sketches.
//
// Amortization is the headline: the index path pays the candidate
// sketching cost once, so it wins as soon as a couple of queries share it.
// Rankings from the two paths are cross-checked for equality before any
// number is printed, as are 1-thread vs T-thread engine rankings.
//
// Part 3 is shard-count scaling: the index is partitioned into K shard
// files (round-robin), reloaded through the manifest, and the same query
// stream is answered via the sharded fan-out. In-process all shards share
// one machine, so the interesting numbers are the partition+write cost and
// the per-query fan-out overhead versus the unsharded index — the ranking
// cross-check (sharded must be bit-identical to unsharded) runs first.
//
// Part 4 is the serving boundary: the same shard layouts are served by
// real ShardServer instances on loopback TCP and queried through
// one-replica ReplicaShardClients, versus the in-process LocalShardClient
// fan-out. The delta is the true per-query cost of crossing the network —
// framing, sketch serialization, socket round trips — as a function of
// shard count. Rankings are cross-checked (RPC must be bit-identical to local)
// before any number is printed.
//
// Part 5 is concurrent serving: several router threads hammer the same
// RPC-backed sharded index at once, and the knobs under test are the
// client connection pool size (1, 2, 4 connections per shard — how many
// requests one router can keep in flight against one shard) and the
// replica count (1 vs 2 interchangeable servers per shard behind the
// replica-aware factory). Every concurrent ranking is cross-checked
// against the serial in-process answer before any number is printed.
//
// Part 6 is the JMRP v2 wire: request pipelining (many requests in
// flight on one connection, demuxed by request_id) against the v1
// one-request-per-round-trip baseline across concurrency levels and
// open-connection counts, and batched variant evaluation (one
// kBatchSearchRequest carrying N (k, min_join_size) variants against a
// connection-cached sketch) against N single-variant round trips.
//
// Part 7 is paged shard storage: the same shard layout built as "JMPS"
// paged files and served through PagedShardClient buffer pools of several
// sizes (starving, comfortable, everything-resident) against the
// whole-file in-memory baseline. Two costs are on trial: cold start
// (whole-file load deserializes every candidate, paged open reads header
// + directory only) and steady-state query latency as a function of the
// pool budget. Pool counters prove the starving configuration really
// evicted mid-query; rankings are cross-checked against the in-memory
// path before any number is printed.
//
// Part 9 races the flattened probe hot path against a verbatim replica of
// the pre-flattening per-candidate path (unordered_map probes, per-join
// sample/set builds) on an amortized-probe workload where almost nothing
// joins — reporting per-query cost, the batched and per-candidate
// speedups, and allocations per query via a global operator-new counter.
//
// Part 8 is the front tier: Router::Open over the simulated open-data
// repository (opendata_sim), hammered with a skewed-popularity query
// stream — a few hot query tables dominate, Zipf-style, exactly the shape
// that makes a result cache pay. Cache-hit latency is measured against a
// cache-disabled router on the same stream (every answer cross-checked
// bit-identical first), and an admission sub-drill saturates a
// max_pending=1 router until the gate sheds with structured kOverloaded +
// retry-after rejections. The repeat-query speedup is a hard gate: the
// bench aborts unless cached repeats run at least 5x faster, comparing the
// best of several alternating replay rounds per router.
//
// Part 10 is the mutable index: a router serves a deployment while an
// ingest coordinator appends delta batches, publishes a new manifest
// generation, and the router reloads mid-stream — per-query latency during
// that window is compared against steady state, and the post-reload
// ranking is cross-checked bit-identical to the full index before any
// number prints. A second drill measures the delta-overlay read cost as a
// function of delta size (0%, 25%, 50% of candidates living in JMDS
// sidecars instead of the base files).
//
// `--smoke` shrinks every dimension (tiny tables, capacity 64, one query
// batch) so the whole binary runs in well under a second; CI runs that
// mode as a ctest to keep this harness from rotting.
//
// `--json PATH` additionally writes the headline numbers as a flat JSON
// object — the machine-readable sibling of the printed report, for
// checked-in baselines and regression tracking.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <thread>

#include <atomic>
#include <cmath>

#include <new>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/admission.h"
#include "src/common/random.h"
#include "src/core/join_mi.h"
#include "src/discovery/opendata_sim.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/router.h"
#include "src/discovery/search.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/coordinator.h"
#include "src/ingest/generation.h"
#include "src/table/table.h"

// Global-new interposition for part 9's allocations-per-query counter:
// every heap allocation in this binary bumps one relaxed atomic. This is
// the only honest way to measure "the hot path no longer allocates" —
// sampling profilers miss small allocs, and counting at call sites misses
// the ones hiding inside containers.
static std::atomic<uint64_t> g_heap_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace joinmi {
namespace bench {
namespace {

struct BenchParams {
  size_t base_rows = 120000;
  size_t distinct_keys = 4000;
  size_t candidate_tables = 48;
  size_t candidate_rows = 4000;
  size_t top_k = 10;
  size_t sketch_capacity = 512;
  size_t min_join_size = 32;
  std::vector<size_t> query_counts = {1, 2, 4, 8};
  std::vector<size_t> shard_counts = {1, 2, 4, 8};
};

BenchParams SmokeParams() {
  BenchParams params;
  params.base_rows = 3000;
  params.distinct_keys = 200;
  params.candidate_tables = 6;
  params.candidate_rows = 500;
  params.sketch_capacity = 128;
  params.min_join_size = 16;
  params.query_counts = {2};
  params.shard_counts = {2};
  return params;
}

// Headline numbers for the optional --json report: insertion-ordered
// (name, value) pairs, written as one flat JSON object. Names are plain
// identifiers, so no escaping is needed.
std::vector<std::pair<std::string, double>>* g_metrics = nullptr;

void RecordMetric(const std::string& name, double value) {
  if (g_metrics != nullptr) g_metrics->emplace_back(name, value);
}

int WriteJsonReport(const std::string& path, size_t threads, bool smoke) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to '%s': %s\n",
                 path.c_str(), std::strerror(errno));
    return 1;
  }
  std::fprintf(file, "{\n  \"bench\": \"topk_search\",\n");
  std::fprintf(file, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(file, "  \"threads\": %zu,\n", threads);
  std::fprintf(file, "  \"metrics\": {\n");
  for (size_t i = 0; i < g_metrics->size(); ++i) {
    std::fprintf(file, "    \"%s\": %.4f%s\n", (*g_metrics)[i].first.c_str(),
                 (*g_metrics)[i].second,
                 i + 1 < g_metrics->size() ? "," : "");
  }
  std::fprintf(file, "  }\n}\n");
  std::fclose(file);
  std::printf("\nwrote JSON report: %s (%zu metrics)\n", path.c_str(),
              g_metrics->size());
  return 0;
}

std::string KeyName(uint64_t i) { return "key" + std::to_string(i); }

std::shared_ptr<Table> MakeBaseTable(const BenchParams& params, Rng* rng) {
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  keys.reserve(params.base_rows);
  targets.reserve(params.base_rows);
  for (size_t i = 0; i < params.base_rows; ++i) {
    const uint64_t k = rng->NextBounded(params.distinct_keys);
    keys.push_back(KeyName(k));
    targets.push_back(static_cast<int64_t>(k % 16));
  }
  return *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                              {"Y", Column::MakeInt64(std::move(targets))}});
}

TableRepository MakeRepository(const BenchParams& params, Rng* rng) {
  TableRepository repository;
  for (size_t t = 0; t < params.candidate_tables; ++t) {
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    keys.reserve(params.candidate_rows);
    values.reserve(params.candidate_rows);
    // Candidates range from perfectly informative (t = 0 copies the target
    // function) to pure noise, so the top-k ranking is non-trivial.
    const uint64_t noise = 1 + static_cast<uint64_t>(t);
    for (size_t i = 0; i < params.candidate_rows; ++i) {
      const uint64_t k = rng->NextBounded(params.distinct_keys);
      keys.push_back(KeyName(k));
      const int64_t signal = static_cast<int64_t>(k % 16);
      const int64_t jitter = static_cast<int64_t>(rng->NextBounded(noise));
      values.push_back(signal + jitter);
    }
    repository
        .AddTable("cand" + std::to_string(t),
                  *Table::FromColumns(
                      {{"K", Column::MakeString(std::move(keys))},
                       {"V", Column::MakeInt64(std::move(values))}}))
        .Abort("adding candidate table");
  }
  return repository;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

JoinMIConfig MakeJoinConfig(const BenchParams& params) {
  JoinMIConfig config;
  config.sketch_capacity = params.sketch_capacity;
  config.min_join_size = params.min_join_size;
  return config;
}

// The pre-engine API: one independent SketchJoinMI per candidate pair,
// keeping the best k by (mi desc, enumeration order) like the engine does.
double RunNaiveSerial(const BenchParams& params, const Table& base,
                      const TableRepository& repository) {
  const JoinMIConfig config = MakeJoinConfig(params);
  const auto start = std::chrono::steady_clock::now();
  size_t evaluated = 0;
  double best = 0.0;
  for (const ColumnPairRef& ref : repository.ExtractColumnPairs()) {
    auto table = repository.GetTable(ref.table_name);
    if (!table.ok()) continue;
    auto estimate =
        SketchJoinMI(base, **table,
                     {"K", "Y", ref.key_column, ref.value_column}, config);
    if (!estimate.ok()) continue;
    ++evaluated;
    if (estimate->mi > best) best = estimate->mi;
  }
  const double ms = MillisSince(start);
  std::printf("naive serial : %8.1f ms  (%zu candidates evaluated, best MI "
              "%.3f)\n",
              ms, evaluated, best);
  return ms;
}

double RunEngine(const BenchParams& params, const Table& base,
                 const TableRepository& repository, size_t num_threads,
                 TopKSearchResult* result_out) {
  SearchConfig config;
  config.num_threads = num_threads;
  config.join_config = MakeJoinConfig(params);
  const auto start = std::chrono::steady_clock::now();
  auto result = TopKJoinMISearch(base, {"K", "Y"}, repository, params.top_k,
                                 config);
  const double ms = MillisSince(start);
  result.status().Abort("TopKJoinMISearch");
  std::printf("engine x%-4zu: %8.1f ms  (%zu evaluated, %zu skipped, %zu "
              "errors, top hit %s MI %.3f)\n",
              num_threads, ms, result->num_evaluated, result->num_skipped,
              result->num_errors,
              result->hits.empty()
                  ? "-"
                  : result->hits[0].candidate.table_name.c_str(),
              result->hits.empty() ? 0.0 : result->hits[0].estimate.mi);
  if (result_out != nullptr) *result_out = std::move(*result);
  return ms;
}

void ExpectSameRanking(const TopKSearchResult& a, const TopKSearchResult& b,
                       const char* what) {
  bool same = a.hits.size() == b.hits.size();
  for (size_t i = 0; same && i < a.hits.size(); ++i) {
    same = a.hits[i].candidate.table_name == b.hits[i].candidate.table_name &&
           a.hits[i].candidate.value_column == b.hits[i].candidate.value_column &&
           a.hits[i].estimate.mi == b.hits[i].estimate.mi;
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: %s rankings disagree\n", what);
    std::abort();
  }
}

// Part 2: sketch-once / query-many amortization.
void RunIndexAmortization(const BenchParams& params,
                          const TableRepository& repository, size_t threads,
                          Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  const size_t max_queries = *std::max_element(params.query_counts.begin(),
                                               params.query_counts.end());
  std::vector<std::shared_ptr<Table>> queries;
  queries.reserve(max_queries);
  for (size_t q = 0; q < max_queries; ++q) {
    queries.push_back(MakeBaseTable(params, rng));
  }

  std::printf("\n== sketch-once / query-many: per-query sketching vs "
              "index-backed probing (engine x%zu) ==\n",
              threads);
  auto build_start = std::chrono::steady_clock::now();
  SketchIndex index(config);
  auto indexed = index.IndexRepository(repository);
  indexed.status().Abort("building the sketch index");
  const double build_ms = MillisSince(build_start);
  std::printf("index build  : %8.1f ms  (%zu candidate sketches, capacity "
              "%zu)\n",
              build_ms, *indexed, config.sketch_capacity);

  // Correctness gate: at matched config the index-backed ranking must be
  // identical to the per-query-sketching ranking.
  {
    SearchConfig search_config;
    search_config.num_threads = threads;
    search_config.join_config = config;
    auto via_repo = TopKJoinMISearch(*queries[0], {"K", "Y"}, repository,
                                     params.top_k, search_config);
    via_repo.status().Abort("repository-path search");
    auto via_index = TopKJoinMISearch(*queries[0], {"K", "Y"}, index,
                                      params.top_k, threads);
    via_index.status().Abort("index-path search");
    ExpectSameRanking(*via_repo, *via_index, "repository-path and index-path");
  }

  for (size_t num_queries : params.query_counts) {
    SearchConfig search_config;
    search_config.num_threads = threads;
    search_config.join_config = config;
    auto sketch_start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < num_queries; ++q) {
      TopKJoinMISearch(*queries[q], {"K", "Y"}, repository, params.top_k,
                       search_config)
          .status()
          .Abort("per-query-sketching search");
    }
    const double sketch_ms = MillisSince(sketch_start);

    auto probe_start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < num_queries; ++q) {
      TopKJoinMISearch(*queries[q], {"K", "Y"}, index, params.top_k, threads)
          .status()
          .Abort("index-backed search");
    }
    const double probe_ms = MillisSince(probe_start);
    // The index path's total cost includes its one-time build.
    const double index_total = build_ms + probe_ms;
    std::printf("Q=%-3zu per-query sketching %8.1f ms | index build+probe "
                "%6.1f+%6.1f = %8.1f ms | %s %.2fx\n",
                num_queries, sketch_ms, build_ms, probe_ms, index_total,
                index_total <= sketch_ms ? "index ahead" : "index behind",
                sketch_ms / index_total);
  }
  std::printf("(per-probe marginal cost: the probe column divided by Q — "
              "the build never recurs)\n");
}

// Part 3: shard-count scaling of the fan-out search.
void RunShardScaling(const BenchParams& params,
                     const TableRepository& repository, size_t threads,
                     Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t queries = 4;

  std::printf("\n== shard-count scaling: unsharded index vs manifest-driven "
              "fan-out (engine x%zu, %zu queries) ==\n",
              threads, queries);
  auto unsharded_start = std::chrono::steady_clock::now();
  TopKSearchResult unsharded;
  for (size_t q = 0; q < queries; ++q) {
    auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, index,
                                   params.top_k, threads);
    result.status().Abort("unsharded index search");
    unsharded = std::move(*result);
  }
  const double unsharded_ms = MillisSince(unsharded_start);
  std::printf("unsharded    : %8.1f ms  (%zu candidates)\n", unsharded_ms,
              index.size());

  const std::string shard_root =
      "/tmp/joinmi_bench_shards." + std::to_string(getpid());
  for (size_t num_shards : params.shard_counts) {
    const std::string dir = shard_root + "/" + std::to_string(num_shards);
    auto build_start = std::chrono::steady_clock::now();
    auto manifest_path = BuildShards(index, num_shards,
                                     ShardPartitionPolicy::kRoundRobin, dir);
    manifest_path.status().Abort("partitioning the index");
    auto sharded = ShardedSketchIndex::Load(*manifest_path);
    sharded.status().Abort("loading the sharded index");
    const double build_ms = MillisSince(build_start);

    auto probe_start = std::chrono::steady_clock::now();
    TopKSearchResult via_shards;
    for (size_t q = 0; q < queries; ++q) {
      auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, *sharded,
                                     params.top_k, threads);
      result.status().Abort("sharded search");
      via_shards = std::move(*result);
    }
    const double probe_ms = MillisSince(probe_start);
    ExpectSameRanking(unsharded, via_shards, "unsharded and sharded");
    std::printf("K=%-3zu partition+write+load %8.1f ms | fan-out search "
                "%8.1f ms | overhead vs unsharded %.2fx\n",
                num_shards, build_ms, probe_ms, probe_ms / unsharded_ms);
  }
  std::filesystem::remove_all(shard_root);
  std::printf("(one process hosts every shard here, so the fan-out column "
              "is pure orchestration overhead; the win arrives when shards "
              "become servers)\n");
}

// The remote factory over one server per shard: each shard is a replica
// set of one.
ShardClientFactory OneReplicaFactory(
    const std::vector<ShardEndpoint>& endpoints,
    const ServingOptions& options) {
  std::vector<std::vector<ShardEndpoint>> replicas;
  for (const ShardEndpoint& endpoint : endpoints) {
    replicas.push_back({endpoint});
  }
  return ReplicaShardClient::Factory(std::move(replicas), options);
}

// Part 4: the cost of the process boundary — loopback RPC vs in-process
// shard fan-out for the same shard layouts.
void RunRpcServing(const BenchParams& params,
                   const TableRepository& repository, size_t threads,
                   Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t queries = 4;

  std::printf("\n== serving boundary: loopback RPC shard servers vs "
              "in-process fan-out (engine x%zu, %zu queries) ==\n",
              threads, queries);
  const std::string shard_root =
      "/tmp/joinmi_bench_rpc_shards." + std::to_string(getpid());
  for (size_t num_shards : params.shard_counts) {
    const std::string dir = shard_root + "/" + std::to_string(num_shards);
    auto manifest_path = BuildShards(index, num_shards,
                                     ShardPartitionPolicy::kRoundRobin, dir);
    manifest_path.status().Abort("partitioning the index");
    auto local = ShardedSketchIndex::Load(*manifest_path);
    local.status().Abort("loading the local sharded index");

    // One real server per shard on an ephemeral loopback port.
    std::vector<std::unique_ptr<ShardServer>> servers;
    std::vector<ShardEndpoint> endpoints;
    for (size_t s = 0; s < num_shards; ++s) {
      ShardServerOptions options;
      options.num_workers = 2;
      auto server = ShardServer::Create(*manifest_path, s, options);
      server.status().Abort("creating a shard server");
      (*server)->Start().Abort("starting a shard server");
      endpoints.push_back(ShardEndpoint{"127.0.0.1", (*server)->port()});
      servers.push_back(std::move(*server));
    }
    auto remote = ShardedSketchIndex::Load(
        *manifest_path, OneReplicaFactory(endpoints, ServingOptions()));
    remote.status().Abort("assembling the RPC sharded index");

    // Correctness gate first: the wire must not change a single bit.
    {
      auto via_local =
          TopKJoinMISearch(*query_table, {"K", "Y"}, *local,
                           params.top_k, threads);
      via_local.status().Abort("local sharded search");
      auto via_rpc =
          TopKJoinMISearch(*query_table, {"K", "Y"}, *remote,
                           params.top_k, threads);
      via_rpc.status().Abort("RPC sharded search");
      ExpectSameRanking(*via_local, *via_rpc, "in-process and RPC");
    }

    auto local_start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < queries; ++q) {
      TopKJoinMISearch(*query_table, {"K", "Y"}, *local, params.top_k,
                       threads)
          .status()
          .Abort("local sharded search");
    }
    const double local_ms = MillisSince(local_start) / queries;

    auto rpc_start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < queries; ++q) {
      TopKJoinMISearch(*query_table, {"K", "Y"}, *remote, params.top_k,
                       threads)
          .status()
          .Abort("RPC sharded search");
    }
    const double rpc_ms = MillisSince(rpc_start) / queries;

    std::printf("K=%-3zu in-process %8.2f ms/query | loopback RPC %8.2f "
                "ms/query | boundary overhead %+7.2f ms (%.2fx)\n",
                num_shards, local_ms, rpc_ms, rpc_ms - local_ms,
                local_ms > 0 ? rpc_ms / local_ms : 0.0);
    for (auto& server : servers) server->Stop();
  }
  std::filesystem::remove_all(shard_root);
  std::printf("(same shard files, same merge — the delta is framing, "
              "sketch serialization, and socket round trips; amortize it "
              "with bigger candidate universes per shard)\n");
}

// Part 5: concurrent router throughput vs connection pool size and vs
// replica count — the serving-tier concurrency knobs.
void RunConcurrentServing(const BenchParams& params,
                          const TableRepository& repository, bool smoke,
                          Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t num_shards = 2;
  const size_t router_threads = 4;
  const size_t queries_per_thread = smoke ? 2 : 8;
  const size_t total_queries = router_threads * queries_per_thread;

  std::printf("\n== concurrent serving: %zu router threads x %zu queries, "
              "%zu shards — pool size and replica count ==\n",
              router_threads, queries_per_thread, num_shards);
  const std::string shard_root =
      "/tmp/joinmi_bench_pool_shards." + std::to_string(getpid());
  auto manifest_path = BuildShards(index, num_shards,
                                   ShardPartitionPolicy::kRoundRobin,
                                   shard_root);
  manifest_path.status().Abort("partitioning the index");
  auto local = ShardedSketchIndex::Load(*manifest_path);
  local.status().Abort("loading the local sharded index");
  auto reference = TopKJoinMISearch(*query_table, {"K", "Y"}, *local,
                                    params.top_k, 1);
  reference.status().Abort("serial reference search");

  // Drives `total_queries` through the router from `router_threads`
  // threads, cross-checking every ranking, and returns total wall ms.
  auto drive = [&](const ShardedSketchIndex& router) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < router_threads; ++t) {
      threads.emplace_back([&] {
        for (size_t q = 0; q < queries_per_thread; ++q) {
          auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, router,
                                         params.top_k, 1);
          result.status().Abort("concurrent RPC search");
          ExpectSameRanking(*reference, *result,
                            "serial local and concurrent RPC");
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return MillisSince(start);
  };

  // One row of servers serves every pool size (the knob is client-side).
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardEndpoint> endpoints;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardServerOptions options;
    options.num_workers = 8;
    auto server = ShardServer::Create(*manifest_path, s, options);
    server.status().Abort("creating a shard server");
    (*server)->Start().Abort("starting a shard server");
    endpoints.push_back(ShardEndpoint{"127.0.0.1", (*server)->port()});
    servers.push_back(std::move(*server));
  }
  for (size_t pool_size : {1u, 2u, 4u}) {
    ServingOptions options;
    options.pool_size = pool_size;
    auto remote = ShardedSketchIndex::Load(
        *manifest_path, OneReplicaFactory(endpoints, options));
    remote.status().Abort("assembling the RPC sharded index");
    const double ms = drive(*remote);
    std::printf("pool=%zu conn/shard : %8.2f ms total | %8.2f ms/query | "
                "%8.0f queries/s\n",
                pool_size, ms, ms / total_queries,
                total_queries * 1000.0 / ms);
  }

  // Replica sweep: a second interchangeable server per shard joins, and
  // the replica-aware factory round-robins across both.
  for (size_t replicas : {1u, 2u}) {
    std::vector<std::vector<ShardEndpoint>> replica_map(num_shards);
    std::vector<std::unique_ptr<ShardServer>> extra;
    for (size_t s = 0; s < num_shards; ++s) {
      replica_map[s].push_back(endpoints[s]);
      for (size_t r = 1; r < replicas; ++r) {
        ShardServerOptions options;
        options.num_workers = 8;
        auto server = ShardServer::Create(*manifest_path, s, options);
        server.status().Abort("creating a replica server");
        (*server)->Start().Abort("starting a replica server");
        replica_map[s].push_back(
            ShardEndpoint{"127.0.0.1", (*server)->port()});
        extra.push_back(std::move(*server));
      }
    }
    ServingOptions options;
    options.pool_size = 2;
    auto remote = ShardedSketchIndex::Load(
        *manifest_path,
        ReplicaShardClient::Factory(replica_map, options));
    remote.status().Abort("assembling the replicated sharded index");
    const double ms = drive(*remote);
    std::printf("replicas=%zu /shard  : %8.2f ms total | %8.2f ms/query | "
                "%8.0f queries/s\n",
                replicas, ms, ms / total_queries,
                total_queries * 1000.0 / ms);
    for (auto& server : extra) server->Stop();
  }
  for (auto& server : servers) server->Stop();
  std::filesystem::remove_all(shard_root);
  std::printf("(pool size bounds one router's in-flight requests per "
              "shard; replicas add whole servers — on one host both mostly "
              "buy concurrency headroom, across hosts they buy real "
              "hardware)\n");
}

// Part 6: the JMRP v2 wire upgrades — request pipelining on one
// connection and batched variant evaluation against a connection-cached
// sketch — against the v1 one-request-per-round-trip baseline.
void RunBatchedPipelinedServing(const BenchParams& params,
                                const TableRepository& repository,
                                bool smoke, Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t num_shards = 2;

  const std::string shard_root =
      "/tmp/joinmi_bench_pipeline_shards." + std::to_string(getpid());
  auto manifest_path = BuildShards(index, num_shards,
                                   ShardPartitionPolicy::kRoundRobin,
                                   shard_root);
  manifest_path.status().Abort("partitioning the index");
  auto local = ShardedSketchIndex::Load(*manifest_path);
  local.status().Abort("loading the local sharded index");
  auto reference = TopKJoinMISearch(*query_table, {"K", "Y"}, *local,
                                    params.top_k, 1);
  reference.status().Abort("serial reference search");

  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardEndpoint> endpoints;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardServerOptions options;
    options.num_workers = 8;
    auto server = ShardServer::Create(*manifest_path, s, options);
    server.status().Abort("creating a shard server");
    (*server)->Start().Abort("starting a shard server");
    endpoints.push_back(ShardEndpoint{"127.0.0.1", (*server)->port()});
    servers.push_back(std::move(*server));
  }

  // Drives `concurrency` client threads through the router,
  // cross-checking every ranking, and returns total wall ms.
  auto drive = [&](const ShardedSketchIndex& router, size_t concurrency,
                   size_t queries_each) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < concurrency; ++t) {
      threads.emplace_back([&] {
        for (size_t q = 0; q < queries_each; ++q) {
          auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, router,
                                         params.top_k, 1);
          result.status().Abort("pipelined RPC search");
          ExpectSameRanking(*reference, *result,
                            "serial local and pipelined RPC");
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return MillisSince(start);
  };

  const size_t queries_each = smoke ? 2 : 4;
  std::printf("\n== JMRP v2: pipelining and batching vs the v1 wire "
              "(%zu shards, 1 connection/shard unless noted) ==\n",
              num_shards);

  // (a) Queries/sec vs concurrent query count on ONE connection per
  // shard: the v1 wire serializes whole exchanges on the socket, the v2
  // wire interleaves requests and demuxes responses by request_id.
  for (size_t concurrency : {1u, 8u, 16u}) {
    if (smoke && concurrency > 8) break;
    double wall_ms[2] = {0.0, 0.0};
    for (uint32_t max_version : {1u, 2u}) {
      ServingOptions options;
      options.pool_size = 1;
      options.max_protocol_version = max_version;
      auto remote = ShardedSketchIndex::Load(
          *manifest_path, OneReplicaFactory(endpoints, options));
      remote.status().Abort("assembling the RPC sharded index");
      wall_ms[max_version - 1] = drive(*remote, concurrency, queries_each);
    }
    const double total = static_cast<double>(concurrency * queries_each);
    std::printf("inflight=%-3zu : v1 %8.0f queries/s | v2 pipelined "
                "%8.0f queries/s (%.2fx)\n",
                concurrency, total * 1000.0 / wall_ms[0],
                total * 1000.0 / wall_ms[1], wall_ms[0] / wall_ms[1]);
  }

  // (b) Open-connection sweep under fixed concurrency: more sockets vs
  // deeper pipelines on fewer sockets.
  const size_t sweep_concurrency = smoke ? 4 : 8;
  for (size_t pool : {1u, 2u, 4u}) {
    ServingOptions options;
    options.pool_size = pool;
    auto remote = ShardedSketchIndex::Load(
        *manifest_path, OneReplicaFactory(endpoints, options));
    remote.status().Abort("assembling the RPC sharded index");
    const double ms = drive(*remote, sweep_concurrency, queries_each);
    std::printf("conns=%zu/shard: v2 %8.0f queries/s at inflight=%zu\n",
                pool, sweep_concurrency * queries_each * 1000.0 / ms,
                sweep_concurrency);
  }

  // (c) Batch size: N (k, min_join_size) variants of one sketched query
  // as N single-variant frames vs one kBatchSearchRequest per shard. The
  // sketch is uploaded once per connection either way; the batch saves
  // the per-variant round trips.
  {
    ServingOptions options;
    options.pool_size = 1;
    auto remote = ShardedSketchIndex::Load(
        *manifest_path, OneReplicaFactory(endpoints, options));
    remote.status().Abort("assembling the RPC sharded index");
    auto query = JoinMIQuery::Create(*query_table, "K", "Y", config);
    query.status().Abort("sketching the bench query");
    for (size_t batch : {1u, 4u, 16u}) {
      if (smoke && batch > 4) break;
      std::vector<ShardSearchVariant> variants;
      for (size_t v = 0; v < batch; ++v) {
        variants.push_back(
            ShardSearchVariant{params.top_k, config.min_join_size + v});
      }
      const auto single_start = std::chrono::steady_clock::now();
      std::vector<ShardSearchResult> singles;
      for (const auto& variant : variants) {
        auto result = remote->SearchVariants(*query, {variant}, 1);
        result.status().Abort("single-variant search");
        singles.push_back(std::move(result->front()));
      }
      const double single_ms = MillisSince(single_start);
      const auto batch_start = std::chrono::steady_clock::now();
      auto batched = remote->SearchVariants(*query, variants, 1);
      batched.status().Abort("batched variant search");
      const double batch_ms = MillisSince(batch_start);
      // The batch must answer exactly what the singles answered.
      if (batched->size() != singles.size()) {
        Status::UnknownError("batched variant count mismatch").Abort("bench");
      }
      for (size_t v = 0; v < singles.size(); ++v) {
        if ((*batched)[v].hits.size() != singles[v].hits.size()) {
          Status::UnknownError("batched ranking diverged from singles")
              .Abort("bench");
        }
        for (size_t h = 0; h < singles[v].hits.size(); ++h) {
          if ((*batched)[v].hits[h].global_index !=
                  singles[v].hits[h].global_index ||
              (*batched)[v].hits[h].estimate.mi !=
                  singles[v].hits[h].estimate.mi) {
            Status::UnknownError("batched ranking diverged from singles")
                .Abort("bench");
          }
        }
      }
      std::printf("batch=%-3zu : %2zu round trips %8.2f ms | one batch "
                  "%8.2f ms (%.2fx)\n",
                  batch, batch, single_ms, batch_ms,
                  batch_ms > 0 ? single_ms / batch_ms : 0.0);
    }
  }

  for (auto& server : servers) server->Stop();
  std::filesystem::remove_all(shard_root);
  std::printf("(one connection now holds many requests in flight and many "
              "variants per frame; the sketch crosses the wire once per "
              "connection, not once per request)\n");
}

// Part 7: paged shard storage vs whole-file in-memory shards — cold
// start and query latency across buffer-pool budgets.
void RunPagedStorage(const BenchParams& params,
                     const TableRepository& repository, size_t threads,
                     bool smoke, Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t queries = 4;
  const size_t num_shards = 2;
  // Small pages in smoke mode so even its tiny shards span enough pages
  // for the starving pool to actually evict.
  const uint32_t page_size = smoke ? 1024 : 4096;
  const std::vector<size_t> pool_sizes = smoke
                                             ? std::vector<size_t>{2, 64, 65536}
                                             : std::vector<size_t>{4, 64, 65536};

  std::printf("\n== paged shard storage: JMPS + buffer pool vs whole-file "
              "in-memory shards (%zu shards, %u-byte pages, engine x%zu) "
              "==\n",
              num_shards, page_size, threads);
  const std::string shard_root =
      "/tmp/joinmi_bench_paged_shards." + std::to_string(getpid());

  auto whole_manifest =
      BuildShards(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                  shard_root + "/whole");
  whole_manifest.status().Abort("partitioning (whole-file)");
  ShardBuildOptions paged_build;
  paged_build.format = ShardFileFormat::kPaged;
  paged_build.page_size = page_size;
  auto paged_manifest =
      BuildShards(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                  shard_root + "/paged", paged_build);
  paged_manifest.status().Abort("partitioning (paged)");

  // Whole-file baseline: cold start deserializes every candidate; queries
  // probe fully materialized in-memory indices.
  auto whole_start = std::chrono::steady_clock::now();
  auto whole = ShardedSketchIndex::Load(*whole_manifest);
  whole.status().Abort("loading whole-file shards");
  const double whole_load_ms = MillisSince(whole_start);
  TopKSearchResult reference;
  {
    auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, *whole,
                                   params.top_k, threads);
    result.status().Abort("whole-file sharded search");
    reference = std::move(*result);
  }
  auto whole_query_start = std::chrono::steady_clock::now();
  for (size_t q = 0; q < queries; ++q) {
    TopKJoinMISearch(*query_table, {"K", "Y"}, *whole, params.top_k, threads)
        .status()
        .Abort("whole-file sharded search");
  }
  const double whole_query_ms = MillisSince(whole_query_start) / queries;
  std::printf("whole-file   : cold start %8.2f ms | %8.2f ms/query "
              "(everything deserialized up front)\n",
              whole_load_ms, whole_query_ms);
  RecordMetric("paged_bench_whole_load_ms", whole_load_ms);
  RecordMetric("paged_bench_whole_query_ms", whole_query_ms);

  auto manifest = ReadManifestFile(*paged_manifest);
  manifest.status().Abort("reading the paged manifest");
  const std::string paged_dir = shard_root + "/paged";
  for (size_t pool_pages : pool_sizes) {
    // Open the typed clients directly so the pool counters stay
    // observable behind the ShardedSketchIndex surface.
    PagedShardClient::Options options;
    options.pool_pages = pool_pages;
    std::vector<const PagedShardClient*> typed;
    std::vector<std::unique_ptr<ShardClient>> clients;
    uint64_t startup_bytes = 0;
    uint64_t file_bytes = 0;
    auto open_start = std::chrono::steady_clock::now();
    for (const ShardManifestEntry& entry : manifest->shards) {
      auto client = PagedShardClient::Open(paged_dir + "/" + entry.path,
                                           entry.global_indices, options);
      client.status().Abort("opening a paged shard");
      typed.push_back(client->get());
      startup_bytes += (*client)->open_stats().startup_bytes_read;
      file_bytes += (*client)->open_stats().file_size;
      clients.push_back(std::move(*client));
    }
    ShardManifest manifest_copy = *manifest;
    auto paged = ShardedSketchIndex::Create(std::move(manifest_copy),
                                            std::move(clients));
    paged.status().Abort("assembling the paged sharded index");
    const double open_ms = MillisSince(open_start);

    // Correctness gate: identical rankings even when the pool starves.
    {
      auto result = TopKJoinMISearch(*query_table, {"K", "Y"}, *paged,
                                     params.top_k, threads);
      result.status().Abort("paged sharded search");
      ExpectSameRanking(reference, *result, "whole-file and paged");
    }
    auto query_start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < queries; ++q) {
      TopKJoinMISearch(*query_table, {"K", "Y"}, *paged, params.top_k,
                       threads)
          .status()
          .Abort("paged sharded search");
    }
    const double query_ms = MillisSince(query_start) / queries;

    storage::BufferPoolStats stats;
    for (const PagedShardClient* client : typed) {
      const storage::BufferPoolStats shard_stats = client->pool_stats();
      stats.hits += shard_stats.hits;
      stats.misses += shard_stats.misses;
      stats.evictions += shard_stats.evictions;
    }
    if (pool_pages == pool_sizes.front() && stats.evictions == 0) {
      std::fprintf(stderr, "FATAL: the starving pool (%zu pages) never "
                   "evicted — the bench is not exercising eviction\n",
                   pool_pages);
      std::abort();
    }
    std::printf("pool=%-6zu  : cold start %8.2f ms (read %llu of %llu "
                "bytes) | %8.2f ms/query | %llu hits %llu misses %llu "
                "evictions\n",
                pool_pages, open_ms,
                static_cast<unsigned long long>(startup_bytes),
                static_cast<unsigned long long>(file_bytes), query_ms,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
    const std::string suffix = std::to_string(pool_pages);
    RecordMetric("paged_bench_open_ms_pool_" + suffix, open_ms);
    RecordMetric("paged_bench_query_ms_pool_" + suffix, query_ms);
    RecordMetric("paged_bench_evictions_pool_" + suffix,
                 static_cast<double>(stats.evictions));
  }
  RecordMetric("paged_bench_queries", static_cast<double>(queries));
  std::filesystem::remove_all(shard_root);
  std::printf("(paged cold start is header + directory per shard no matter "
              "the shard size; the starving pool trades latency for a hard "
              "memory ceiling, the big pool converges on in-memory speed "
              "after first touch)\n");
}

// Part 8: the front tier — Router result cache under a skewed-popularity
// workload over the simulated open-data repository, and the admission
// gate under deliberate saturation.
void RunFrontTier(const BenchParams& params, bool smoke, Rng* rng) {
  OpenDataParams od = NYCLikeParams();
  od.num_pairs = smoke ? 12 : 16;
  od.num_families = 4;
  if (smoke) {
    od.left_rows = 800;
    od.right_rows = 400;
  }
  auto pairs = GenerateOpenDataCollection(od);
  pairs.status().Abort("generating the open-data collection");

  TableRepository repository;
  for (size_t i = 0; i < pairs->size(); ++i) {
    repository
        .AddTable("dataset_" + std::to_string(i), (*pairs)[i].cand)
        .Abort("registering an open-data table");
  }
  JoinMIConfig config;
  config.sketch_capacity = params.sketch_capacity;
  config.min_join_size = 16;
  config.aggregation = AggKind::kFirst;  // mixed-type repository
  SketchIndex index(config);
  index.IndexRepository(repository).status().Abort(
      "indexing the open-data repository");

  const std::string shard_root =
      "/tmp/joinmi_bench_front_tier." + std::to_string(getpid());
  auto manifest_path = BuildShards(index, 2,
                                   ShardPartitionPolicy::kRoundRobin,
                                   shard_root);
  manifest_path.status().Abort("partitioning the open-data index");

  // Distinct query tables: the train sides of the first few generated
  // pairs, each sketched ONCE — clients hold their sketch across repeats,
  // which is exactly why the v2 wire uploads it once per connection.
  const size_t distinct = std::min<size_t>(smoke ? 3 : 6, pairs->size());
  std::vector<JoinMIQuery> queries;
  for (size_t i = 0; i < distinct; ++i) {
    auto query = JoinMIQuery::Create(*(*pairs)[i].train, "K", "Y", config);
    query.status().Abort("sketching a workload query table");
    queries.push_back(std::move(*query));
  }

  // Zipf-ish popularity: rank r draws with weight 1/(r+1)^1.2, so the
  // hottest table dominates the stream — the shape that makes a result
  // cache pay. The schedule is drawn once and replayed identically
  // against both routers.
  const size_t requests = smoke ? 24 : 120;
  std::vector<double> cumulative(distinct, 0.0);
  double total_weight = 0.0;
  for (size_t r = 0; r < distinct; ++r) {
    total_weight += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
    cumulative[r] = total_weight;
  }
  std::vector<size_t> schedule;
  schedule.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    const double u = total_weight *
                     (static_cast<double>(rng->NextBounded(1u << 20)) /
                      static_cast<double>(1u << 20));
    size_t pick = 0;
    while (pick + 1 < distinct && cumulative[pick] < u) ++pick;
    schedule.push_back(pick);
  }

  RouterOptions cached_options;
  cached_options.manifest_path = *manifest_path;
  auto cached = Router::Open(cached_options);
  cached.status().Abort("opening the cached front-tier router");
  RouterOptions uncached_options = cached_options;
  uncached_options.cache_entries = 0;
  auto uncached = Router::Open(uncached_options);
  uncached.status().Abort("opening the cache-disabled router");

  std::printf("\n== front tier: Router cache under a skewed workload "
              "(%zu requests over %zu hot query tables, 2 shards) ==\n",
              requests, distinct);

  // Correctness gate (and cache warmup): per distinct query, the cached
  // and cache-disabled routers must answer bit-identically.
  for (size_t i = 0; i < distinct; ++i) {
    auto via_cached = (*cached)->SearchQuery(queries[i], params.top_k, 1,
                                             ShardQueryMode::kStrict);
    via_cached.status().Abort("cached front-tier search");
    auto via_uncached = (*uncached)->SearchQuery(queries[i], params.top_k,
                                                 1, ShardQueryMode::kStrict);
    via_uncached.status().Abort("cache-disabled front-tier search");
    ExpectSameRanking(*via_cached, *via_uncached,
                      "cached and cache-disabled");
  }

  auto replay = [&](Router& router) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t pick : schedule) {
      router
          .SearchQuery(queries[pick], params.top_k, 1,
                       ShardQueryMode::kStrict)
          .status()
          .Abort("front-tier workload query");
    }
    return MillisSince(start);
  };
  // Several rounds, alternating the routers, and the best round of each
  // is what gets gated: a smoke round of cached repeats lasts about 0.1 ms,
  // so one preemption (or a core shared with parallel tests) in a single
  // timed pass could sink the ratio on its own.
  constexpr int kRounds = 5;
  const uint64_t hits_before = (*cached)->cache_stats().hits;
  double uncached_ms = replay(**uncached);
  double cached_ms = replay(**cached);
  for (int round = 1; round < kRounds; ++round) {
    uncached_ms = std::min(uncached_ms, replay(**uncached));
    cached_ms = std::min(cached_ms, replay(**cached));
  }
  const RouterCacheStats stats = (*cached)->cache_stats();
  const double hit_rate =
      static_cast<double>(stats.hits - hits_before) /
      static_cast<double>(kRounds * requests);
  const double speedup = cached_ms > 0 ? uncached_ms / cached_ms : 0.0;
  std::printf("uncached     : %8.2f ms total | %8.3f ms/query (full "
              "fan-out every request; best of %d rounds)\n",
              uncached_ms, uncached_ms / requests, kRounds);
  std::printf("cached       : %8.2f ms total | %8.3f ms/query | hit rate "
              "%.2f | repeat speedup %.1fx (best of %d rounds)\n",
              cached_ms, cached_ms / requests, hit_rate, speedup, kRounds);
  RecordMetric("part8_requests", static_cast<double>(requests));
  RecordMetric("part8_distinct_queries", static_cast<double>(distinct));
  RecordMetric("part8_uncached_ms_per_query", uncached_ms / requests);
  RecordMetric("part8_cached_ms_per_query", cached_ms / requests);
  RecordMetric("part8_cache_hit_rate", hit_rate);
  RecordMetric("part8_repeat_speedup", speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "FATAL: cached repeats only %.1fx faster than "
                 "recomputation (acceptance floor is 5x)\n", speedup);
    std::abort();
  }
  if (hit_rate < 1.0) {
    std::fprintf(stderr, "FATAL: warmed cache missed (%0.2f hit rate) — "
                 "the cache key is unstable across identical queries\n",
                 hit_rate);
    std::abort();
  }

  // Admission sub-drill: a max_pending=1, cache-off router under
  // concurrent fire must shed with the structured rejection. Each
  // rejection must carry a parseable retry-after hint.
  RouterOptions gated_options = cached_options;
  gated_options.cache_entries = 0;
  gated_options.max_pending = 1;
  auto gated = Router::Open(gated_options);
  gated.status().Abort("opening the admission-drill router");
  const size_t fan = smoke ? 4 : 8;
  std::atomic<uint64_t> rejections{0};
  std::atomic<uint64_t> bad_rejections{0};
  int rounds = 0;
  while (rounds < 50 && rejections.load() == 0) {
    ++rounds;
    // Start barrier: without it, on a busy single-CPU host each thread
    // can be spawned, scheduled, and finish its (fast) query before the
    // next thread is even created — fully serialized, so the gate never
    // sees two queries in flight and the drill flakes.
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < fan; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Burst rather than a single shot: one query is shorter than a
        // scheduler timeslice, so on a single-CPU host a lone query per
        // thread can run to completion unpreempted and the gate never
        // sees overlap. A burst keeps this thread inside queries for
        // several milliseconds, so whichever thread is preempted
        // mid-query hands the CPU to one that then collides with it.
        for (int shot = 0; shot < 64 && rejections.load() == 0; ++shot) {
          auto result = (*gated)->SearchQuery(queries[0], params.top_k, 1,
                                              ShardQueryMode::kStrict);
          if (!result.ok() && result.status().IsOverloaded()) {
            rejections.fetch_add(1);
            if (RetryAfterHintMs(result.status()) < 0) {
              bad_rejections.fetch_add(1);
            }
          }
        }
      });
    }
    while (ready.load() < fan) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
  }
  std::printf("admission    : %d round(s) of %zu concurrent queries at "
              "max_pending=1 -> %llu kOverloaded rejection(s), retry-after "
              "on all: %s\n",
              rounds, fan,
              static_cast<unsigned long long>(rejections.load()),
              bad_rejections.load() == 0 ? "yes" : "NO (bug!)");
  RecordMetric("part8_overload_rejections",
               static_cast<double>(rejections.load()));
  if (rejections.load() == 0 || bad_rejections.load() != 0) {
    std::fprintf(stderr, "FATAL: the admission gate never shed (or shed "
                 "without a retry-after hint)\n");
    std::abort();
  }

  std::filesystem::remove_all(shard_root);
  std::printf("(the cache returns the stored doubles, bit for bit — the "
              "speedup is the full fan-out it never re-ran; the gate sheds "
              "the excess deterministically instead of queueing it)\n");
}

// Part 9: the candidate-scoring hot path — what do the sorted-run merge
// kernel and batched strip scoring buy over the pre-flattening path?
//
// The workload is the amortized-probe shape discovery hits at scale: one
// prepared query probed against many candidates whose key domains are
// mostly disjoint from the query's (open-data reality: almost nothing
// joins), with an explicit MLE estimator over int64 values so estimation
// is cheap and probe/join cost dominates — exactly the regime the
// tentpole targets. Three implementations of the same evaluation:
//
//   legacy  — the pre-flattening production path, replicated verbatim:
//             per-candidate std::unordered_map probe, per-join sample
//             vectors and matched-key unordered_set;
//   flat    — production per-candidate path, one
//             query.Estimate(candidate.sketch()) per candidate (contract
//             check + kernel merge + fresh sample);
//   batched — production SketchIndex::EvaluateAll (the same kernel in
//             strips, one reused scratch sample per strip).
//
// All three are cross-checked bit-identical before any timing, every
// query. Timed single-threaded: this measures the probe path itself, not
// the thread pool (the CI container has 1 CPU anyway).
void RunFlatHotPath(const BenchParams& params, bool smoke, Rng* rng) {
  JoinMIConfig config = MakeJoinConfig(params);
  config.estimator = MIEstimatorKind::kMLE;
  const size_t num_candidates = smoke ? 24 : 200;
  const size_t candidate_rows = smoke ? 400 : 2000;
  const size_t num_queries = smoke ? 2 : 8;

  std::printf("\n== flat probe hot path: legacy unordered_map vs flat "
              "per-candidate vs batched strips (x1, Q=%zu, %zu candidates, "
              "MLE) ==\n",
              num_queries, num_candidates);

  // Candidate t draws keys from a window sliding away from the query
  // domain [0, distinct_keys): early candidates overlap and join, the
  // long tail shares nothing and must be skipped as cheaply as possible.
  SketchIndex index(config);
  for (size_t t = 0; t < num_candidates; ++t) {
    const uint64_t offset = t * (params.distinct_keys / 4);
    std::vector<std::string> keys;
    std::vector<int64_t> values;
    keys.reserve(candidate_rows);
    values.reserve(candidate_rows);
    for (size_t i = 0; i < candidate_rows; ++i) {
      const uint64_t k = offset + rng->NextBounded(params.distinct_keys);
      keys.push_back(KeyName(k));
      values.push_back(static_cast<int64_t>(k % 16));
    }
    auto table =
        *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                             {"V", Column::MakeInt64(std::move(values))}});
    index.AddCandidate(*table, ColumnPairRef{"flat" + std::to_string(t), "K",
                                             "V"})
        .Abort("part 9 candidate");
  }

  std::vector<JoinMIQuery> queries;
  queries.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    auto base = MakeBaseTable(params, rng);
    queries.push_back(
        *JoinMIQuery::Create(*base, "K", "Y", config));
  }

  // The legacy probe maps, built at "load time" exactly as the pre-flat
  // index did (node-based unordered_map per candidate).
  std::vector<std::unordered_map<uint64_t, uint32_t>> legacy_probes;
  legacy_probes.reserve(index.size());
  for (const IndexedCandidate& candidate : index.candidates()) {
    std::unordered_map<uint64_t, uint32_t> probe;
    probe.reserve(candidate.sketch().entries.size());
    for (uint32_t i = 0; i < candidate.sketch().entries.size(); ++i) {
      probe.emplace(candidate.sketch().entries[i].key_hash, i);
    }
    legacy_probes.push_back(std::move(probe));
  }

  struct Outcome {
    std::optional<JoinMIEstimate> estimate;
    bool skipped = false;
  };

  // The pre-flattening per-candidate evaluation, kept verbatim so the
  // baseline cannot silently improve with the production code: walk every
  // train entry, probe the node map, grow fresh sample vectors and a
  // matched-key set, then score.
  auto legacy_evaluate = [&config](const JoinMIQuery& query,
                                   const Sketch& candidate,
                                   const std::unordered_map<uint64_t,
                                                            uint32_t>& probe) {
    Outcome outcome;
    const Sketch& train = query.train_sketch();
    PairedSample sample;
    sample.x.reserve(train.entries.size());
    sample.y.reserve(train.entries.size());
    std::unordered_set<uint64_t> matched;
    matched.reserve(train.entries.size());
    for (const SketchEntry& entry : train.entries) {
      const auto it = probe.find(entry.key_hash);
      if (it == probe.end()) continue;
      sample.x.push_back(candidate.entries[it->second].value);
      sample.y.push_back(entry.value);
      matched.insert(entry.key_hash);
    }
    auto scored = ScoreSketchJoinSample(sample, sample.size(),
                                        config.estimator, config.mi_options,
                                        config.min_join_size);
    if (scored.ok()) {
      outcome.estimate = JoinMIEstimate{scored->mi, scored->estimator,
                                        scored->join_size, /*sketched=*/true};
    } else if (scored.status().IsOutOfRange()) {
      outcome.skipped = true;
    }
    return outcome;
  };

  auto flat_evaluate = [](const JoinMIQuery& query,
                          const IndexedCandidate& candidate) {
    Outcome outcome;
    auto estimate = query.Estimate(candidate.sketch());
    if (estimate.ok()) {
      outcome.estimate = *estimate;
    } else if (estimate.status().IsOutOfRange()) {
      outcome.skipped = true;
    }
    return outcome;
  };

  // Correctness gate before any timing: all three paths must agree
  // bit-for-bit on every (query, candidate) outcome.
  for (const JoinMIQuery& query : queries) {
    auto batched = index.EvaluateAll(query, 1);
    batched.status().Abort("part 9 batched evaluation");
    for (size_t c = 0; c < index.size(); ++c) {
      const Outcome legacy =
          legacy_evaluate(query, index.candidates()[c].sketch(),
                          legacy_probes[c]);
      const Outcome flat = flat_evaluate(query, index.candidates()[c]);
      const std::optional<JoinMIEstimate>& batch = batched->estimates[c];
      const bool agree =
          legacy.estimate.has_value() == flat.estimate.has_value() &&
          flat.estimate.has_value() == batch.has_value() &&
          (!batch.has_value() ||
           (legacy.estimate->mi == flat.estimate->mi &&
            flat.estimate->mi == batch->mi &&
            legacy.estimate->sample_size == batch->sample_size &&
            flat.estimate->sample_size == batch->sample_size &&
            legacy.estimate->estimator == batch->estimator));
      if (!agree) {
        std::fprintf(stderr,
                     "FATAL: part 9 paths disagree on candidate %zu\n", c);
        std::abort();
      }
    }
  }

  // One untimed warm-up pass so caches and the allocator reach their
  // steady state before either the clocks or the allocation counter start.
  for (const JoinMIQuery& query : queries) {
    index.EvaluateAll(query, 1).status().Abort("part 9 warm-up");
  }

  const uint64_t legacy_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto legacy_start = std::chrono::steady_clock::now();
  size_t legacy_evaluated = 0;
  for (const JoinMIQuery& query : queries) {
    for (size_t c = 0; c < index.size(); ++c) {
      if (legacy_evaluate(query, index.candidates()[c].sketch(),
                          legacy_probes[c])
              .estimate.has_value()) {
        ++legacy_evaluated;
      }
    }
  }
  const double legacy_ms = MillisSince(legacy_start);
  const uint64_t legacy_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - legacy_allocs_before;

  const auto flat_start = std::chrono::steady_clock::now();
  size_t flat_evaluated = 0;
  for (const JoinMIQuery& query : queries) {
    for (size_t c = 0; c < index.size(); ++c) {
      if (flat_evaluate(query, index.candidates()[c]).estimate.has_value()) {
        ++flat_evaluated;
      }
    }
  }
  const double flat_ms = MillisSince(flat_start);

  const uint64_t batched_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto batched_start = std::chrono::steady_clock::now();
  size_t batched_evaluated = 0;
  for (const JoinMIQuery& query : queries) {
    auto evaluation = index.EvaluateAll(query, 1);
    evaluation.status().Abort("part 9 batched evaluation");
    batched_evaluated += evaluation->num_evaluated;
  }
  const double batched_ms = MillisSince(batched_start);
  const uint64_t batched_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - batched_allocs_before;

  if (legacy_evaluated != flat_evaluated ||
      flat_evaluated != batched_evaluated) {
    std::fprintf(stderr, "FATAL: part 9 evaluated counts disagree\n");
    std::abort();
  }

  // Steady-state probe-phase allocations, isolated from scoring: a query
  // whose key domain overlaps no candidate exercises the full probe sweep
  // (every candidate walked, every key looked up) while every candidate
  // skips below min_join_size — so nothing downstream of the probe runs.
  // This is also the dominant shape at scale: almost nothing joins.
  JoinMIQuery nojoin_query = [&] {
    std::vector<std::string> keys;
    std::vector<int64_t> targets;
    keys.reserve(params.base_rows);
    targets.reserve(params.base_rows);
    for (size_t i = 0; i < params.base_rows; ++i) {
      const uint64_t k = 100000000 + rng->NextBounded(params.distinct_keys);
      keys.push_back(KeyName(k));
      targets.push_back(static_cast<int64_t>(k % 16));
    }
    auto base =
        *Table::FromColumns({{"K", Column::MakeString(std::move(keys))},
                             {"Y", Column::MakeInt64(std::move(targets))}});
    return *JoinMIQuery::Create(*base, "K", "Y", config);
  }();
  index.EvaluateAll(nojoin_query, 1).status().Abort("part 9 probe warm-up");
  const size_t probe_passes = 4;
  const uint64_t probe_allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (size_t pass = 0; pass < probe_passes; ++pass) {
    auto evaluation = index.EvaluateAll(nojoin_query, 1);
    evaluation.status().Abort("part 9 probe pass");
    if (evaluation->num_skipped != index.size()) {
      std::fprintf(stderr, "FATAL: part 9 no-join query joined something\n");
      std::abort();
    }
  }
  const double probe_allocs_per_query =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          probe_allocs_before) /
      static_cast<double>(probe_passes);

  const double flat_speedup = legacy_ms / flat_ms;
  const double batched_speedup = legacy_ms / batched_ms;
  const double legacy_apq =
      static_cast<double>(legacy_allocs) / static_cast<double>(num_queries);
  const double batched_apq =
      static_cast<double>(batched_allocs) / static_cast<double>(num_queries);
  const double allocs_per_candidate =
      batched_apq / static_cast<double>(index.size());
  std::printf("legacy  (unordered_map/candidate): %8.1f ms  (%.1f ms/query, "
              "%.0f allocs/query)\n",
              legacy_ms, legacy_ms / num_queries, legacy_apq);
  std::printf("flat    (Estimate per candidate) : %8.1f ms  (%.1f ms/query) "
              " %.2fx vs legacy\n",
              flat_ms, flat_ms / num_queries, flat_speedup);
  std::printf("batched (EvaluateAll strips)     : %8.1f ms  (%.1f ms/query, "
              "%.0f allocs/query = %.2f/candidate)  %.2fx vs legacy\n",
              batched_ms, batched_ms / num_queries, batched_apq,
              allocs_per_candidate, batched_speedup);
  std::printf("probe phase only (no-join query) : %.1f allocs/query across "
              "%zu candidates\n",
              probe_allocs_per_query, index.size());
  std::printf("(steady state: the kernel sizes each join before copying a "
              "value, so a full probe sweep allocates O(1) — the outcome "
              "vectors — regardless of candidate count; the "
              "allocs/query above are dominated by the few candidates that "
              "actually reach the estimator)\n");

  RecordMetric("part9_candidates", static_cast<double>(index.size()));
  RecordMetric("part9_queries", static_cast<double>(num_queries));
  RecordMetric("part9_legacy_ms_per_query", legacy_ms / num_queries);
  RecordMetric("part9_flat_ms_per_query", flat_ms / num_queries);
  RecordMetric("part9_batched_ms_per_query", batched_ms / num_queries);
  RecordMetric("part9_flat_speedup", flat_speedup);
  RecordMetric("part9_batched_speedup", batched_speedup);
  RecordMetric("part9_legacy_allocs_per_query", legacy_apq);
  RecordMetric("part9_batched_allocs_per_query", batched_apq);
  RecordMetric("part9_allocs_per_candidate", allocs_per_candidate);
  RecordMetric("part9_probe_allocs_per_query", probe_allocs_per_query);

  // Hard gates. The probe-phase allocation bound holds in any mode (it is
  // a count, not a timing); the speedup gate runs full mode only — smoke
  // timings on shared CI runners are noise, and bench_check.py's ratio
  // gate covers smoke regressions.
  if (probe_allocs_per_query >= 8.0) {
    std::fprintf(stderr,
                 "FATAL: probe phase allocates %.1f blocks/query; the "
                 "kernel promises O(1) (< 8)\n",
                 probe_allocs_per_query);
    std::abort();
  }
  if (!smoke && batched_speedup < 2.0) {
    std::fprintf(stderr,
                 "FATAL: batched hot path is only %.2fx vs legacy "
                 "(required >= 2x)\n",
                 batched_speedup);
    std::abort();
  }
}

// Part 10: the mutable index under live traffic. Phase A serves a base
// deployment through a Router (cache off — the fan-out is on trial, not
// the cache) and measures per-query latency in steady state, then again
// while an IngestCoordinator interleaves delta appends, a publish, and a
// router reload between the timed queries. Phase B loads the same final
// candidate set with 0%, 25%, and 50% of candidates living in delta
// sidecars and measures the overlay's per-query read cost. Every serving
// path is cross-checked bit-identical to the full unsharded index before
// any number prints; the gates in bench_check.py watch the slowdown and
// overlay ratios, never raw milliseconds.
void RunOnlineIngest(const BenchParams& params,
                     const TableRepository& repository, size_t threads,
                     bool smoke, Rng* rng) {
  const JoinMIConfig config = MakeJoinConfig(params);
  SketchIndex full(config);
  full.IndexRepository(repository).status().Abort("building the index");
  auto query_table = MakeBaseTable(params, rng);
  const size_t queries = smoke ? 6 : 18;
  const size_t num_shards = 2;

  auto reference = TopKJoinMISearch(*query_table, {"K", "Y"}, full,
                                    params.top_k, threads);
  reference.status().Abort("unsharded reference search");

  const std::string root =
      "/tmp/joinmi_bench_ingest." + std::to_string(getpid());

  // The first `count` candidates as their own index — the state of the
  // world when the base shards were built.
  auto prefix_index = [&](size_t count) {
    SketchIndex index(config);
    for (size_t i = 0; i < count; ++i) {
      const IndexedCandidate& candidate = full.candidates()[i];
      index.AddSketch(candidate.ref, candidate.sketch())
          .Abort("copying a candidate sketch");
    }
    return index;
  };
  auto tail_records = [&](size_t from, size_t to) {
    std::vector<CandidateRecord> records;
    for (size_t i = from; i < to; ++i) {
      const IndexedCandidate& candidate = full.candidates()[i];
      records.push_back(CandidateRecord{candidate.ref, candidate.sketch()});
    }
    return records;
  };

  std::printf("\n== online ingest: serving while appending (engine x%zu, "
              "%zu shards, %zu candidates) ==\n",
              threads, num_shards, full.size());

  // ---------------- Phase A: steady state vs ingest+reload in progress.
  const size_t base_count = full.size() - full.size() / 4;
  const std::string live_dir = root + "/live";
  BuildShards(prefix_index(base_count), num_shards,
              ShardPartitionPolicy::kRoundRobin, live_dir)
      .status()
      .Abort("building the base deployment");
  RouterOptions options;
  options.manifest_path = live_dir;
  options.cache_entries = 0;  // measure the fan-out, not the cache
  options.num_threads = threads;
  auto router = Router::Open(std::move(options));
  router.status().Abort("opening the router");

  auto timed_query = [&]() {
    const auto start = std::chrono::steady_clock::now();
    (*router)
        ->Search(*query_table, {"K", "Y"}, params.top_k)
        .status()
        .Abort("router search");
    return MillisSince(start);
  };

  double steady_total = 0;
  for (size_t q = 0; q < queries; ++q) steady_total += timed_query();
  const double steady_ms = steady_total / queries;

  auto coordinator = ingest::IngestCoordinator::Open(live_dir);
  coordinator.status().Abort("opening the ingest coordinator");
  // One ingest step between every few timed queries, so the "during"
  // number genuinely overlaps appends, the publish, and the reload.
  const size_t delta_count = full.size() - base_count;
  const size_t append_batches = 3;
  const size_t total_steps = append_batches + 2;  // appends, publish, reload
  const size_t queries_per_step = (queries + total_steps - 1) / total_steps;
  double during_total = 0;
  size_t during_queries = 0;
  double reload_ms = 0;
  for (size_t step = 0; step < total_steps; ++step) {
    if (step < append_batches) {
      const size_t from = base_count + (delta_count * step) / append_batches;
      const size_t to =
          base_count + (delta_count * (step + 1)) / append_batches;
      if (to > from) {
        (*coordinator)
            ->Append(tail_records(from, to))
            .Abort("appending a delta batch");
      }
    } else if (step == append_batches) {
      (*coordinator)->Publish().status().Abort("publishing the generation");
    } else {
      const auto reload_start = std::chrono::steady_clock::now();
      (*router)->Reload().Abort("reloading the router");
      reload_ms = MillisSince(reload_start);
    }
    for (size_t q = 0; q < queries_per_step; ++q) {
      during_total += timed_query();
      ++during_queries;
    }
  }
  const double during_ms = during_total / during_queries;
  const double slowdown = during_ms / steady_ms;

  // Correctness gate: the post-reload overlay must rank exactly like the
  // full index rebuilt from scratch.
  auto post_reload =
      (*router)->Search(*query_table, {"K", "Y"}, params.top_k);
  post_reload.status().Abort("post-reload search");
  ExpectSameRanking(*reference, *post_reload,
                    "post-reload overlay and full-index");

  std::printf("steady state : %8.3f ms/query (epoch 0, %zu candidates)\n",
              steady_ms, base_count);
  std::printf("during ingest: %8.3f ms/query (%.2fx steady; %zu appended, "
              "reload %.2f ms, epoch %llu)\n",
              during_ms, slowdown, delta_count, reload_ms,
              static_cast<unsigned long long>((*router)->epoch()));

  // ------------------- Phase B: delta-overlay cost vs delta size.
  const std::vector<std::pair<const char*, size_t>> fractions = {
      {"00", 0},
      {"25", full.size() / 4},
      {"50", full.size() / 2},
  };
  std::vector<double> overlay_ms;
  for (const auto& [label, dcount] : fractions) {
    const std::string dir = root + "/overlay" + label;
    BuildShards(prefix_index(full.size() - dcount), num_shards,
                ShardPartitionPolicy::kRoundRobin, dir)
        .status()
        .Abort("building an overlay deployment");
    if (dcount > 0) {
      auto overlay_coordinator = ingest::IngestCoordinator::Open(dir);
      overlay_coordinator.status().Abort("opening an overlay coordinator");
      (*overlay_coordinator)
          ->Append(tail_records(full.size() - dcount, full.size()))
          .Abort("appending the overlay delta");
      (*overlay_coordinator)
          ->Publish()
          .status()
          .Abort("publishing the overlay");
    }
    auto manifest_path = ingest::ResolveManifestPath(dir);
    manifest_path.status().Abort("resolving the overlay deployment");
    auto sharded = ShardedSketchIndex::Load(*manifest_path);
    sharded.status().Abort("loading the overlay deployment");
    auto check = TopKJoinMISearch(*query_table, {"K", "Y"}, *sharded,
                                  params.top_k, threads);
    check.status().Abort("overlay search");
    ExpectSameRanking(*reference, *check, "delta-overlay and full-index");

    const auto start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < queries; ++q) {
      TopKJoinMISearch(*query_table, {"K", "Y"}, *sharded, params.top_k,
                       threads)
          .status()
          .Abort("overlay search");
    }
    const double ms = MillisSince(start) / queries;
    overlay_ms.push_back(ms);
    std::printf("delta %s%%    : %8.3f ms/query (%zu of %zu candidates in "
                "JMDS sidecars)\n",
                label, ms, dcount, full.size());
  }
  const double overlay_ratio = overlay_ms[2] / overlay_ms[0];
  std::printf("overlay cost : 50%%-delta runs %.2fx the compacted "
              "deployment\n",
              overlay_ratio);

  RecordMetric("part10_candidates", static_cast<double>(full.size()));
  RecordMetric("part10_steady_ms_per_query", steady_ms);
  RecordMetric("part10_during_ingest_ms_per_query", during_ms);
  RecordMetric("part10_ingest_slowdown", slowdown);
  RecordMetric("part10_reload_ms", reload_ms);
  RecordMetric("part10_overlay_delta00_ms_per_query", overlay_ms[0]);
  RecordMetric("part10_overlay_delta25_ms_per_query", overlay_ms[1]);
  RecordMetric("part10_overlay_delta50_ms_per_query", overlay_ms[2]);
  RecordMetric("part10_overlay_cost_ratio", overlay_ratio);

  std::error_code cleanup_error;
  std::filesystem::remove_all(root, cleanup_error);
}

int Run(size_t threads, bool smoke) {
  const BenchParams params = smoke ? SmokeParams() : BenchParams{};
  std::printf("top-k discovery throughput%s — base %zu rows, %zu candidate "
              "tables x %zu rows, sketch n=%zu, k=%zu\n\n",
              smoke ? " (smoke mode)" : "", params.base_rows,
              params.candidate_tables, params.candidate_rows,
              params.sketch_capacity, params.top_k);
  Rng rng(20240612);
  auto base = MakeBaseTable(params, &rng);
  TableRepository repository = MakeRepository(params, &rng);

  const double naive_ms = RunNaiveSerial(params, *base, repository);
  TopKSearchResult serial_result;
  const double engine1_ms =
      RunEngine(params, *base, repository, 1, &serial_result);
  TopKSearchResult parallel_result;
  const double engineN_ms =
      RunEngine(params, *base, repository, threads, &parallel_result);
  ExpectSameRanking(serial_result, parallel_result,
                    "1-thread and multi-thread");

  std::printf("\nspeedup vs naive serial: engine x1 %.2fx, engine x%zu "
              "%.2fx\n",
              naive_ms / engine1_ms, threads, naive_ms / engineN_ms);
  std::printf("thread scaling (engine x%zu vs x1): %.2fx\n", threads,
              engine1_ms / engineN_ms);
  RecordMetric("naive_serial_ms", naive_ms);
  RecordMetric("engine_x1_ms", engine1_ms);
  RecordMetric("engine_xT_ms", engineN_ms);

  RunIndexAmortization(params, repository, threads, &rng);
  RunShardScaling(params, repository, threads, &rng);
  RunRpcServing(params, repository, threads, &rng);
  RunConcurrentServing(params, repository, smoke, &rng);
  RunBatchedPipelinedServing(params, repository, smoke, &rng);
  RunPagedStorage(params, repository, threads, smoke, &rng);
  RunFrontTier(params, smoke, &rng);
  RunFlatHotPath(params, smoke, &rng);
  RunOnlineIngest(params, repository, threads, smoke, &rng);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace joinmi

int main(int argc, char** argv) {
  long threads = 4;
  bool smoke = false;
  bool have_threads = false;
  bool usage_error = false;
  std::string json_path;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--smoke") == 0 && !smoke) {
      smoke = true;
      continue;
    }
    if (std::strcmp(argv[arg], "--json") == 0 && arg + 1 < argc &&
        json_path.empty()) {
      json_path = argv[++arg];
      continue;
    }
    char* end = nullptr;
    const long parsed = std::strtol(argv[arg], &end, 10);
    if (have_threads || end == argv[arg] || *end != '\0' || parsed < 1 ||
        parsed > 256) {
      usage_error = true;  // unknown flag, repeat, junk, or out of range
      break;
    }
    threads = parsed;
    have_threads = true;
  }
  if (usage_error) {
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--json out.json] [threads 1..256]\n",
                 argv[0]);
    return 2;
  }
  std::vector<std::pair<std::string, double>> metrics;
  if (!json_path.empty()) joinmi::bench::g_metrics = &metrics;
  const int rc = joinmi::bench::Run(static_cast<size_t>(threads), smoke);
  if (rc == 0 && !json_path.empty()) {
    return joinmi::bench::WriteJsonReport(json_path,
                                          static_cast<size_t>(threads),
                                          smoke);
  }
  return rc;
}
