// The discovery ledger: one run of one workload, table in to ranked hits
// out through Router::Open + Router::Search, every answer checked against
// an unsharded in-process SketchIndex.
//
//   ledger --workload <cold_discover|wide_probe|serve_ingest> --seed <n>
//          --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs half the window untraced and half traced, and derives the
// per-layer metrics from spans recorded around calls into each layer's
// public API (see LEDGER.md). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/calib.h"
#include "perfbench/harness.h"
#include "perfbench/stats.h"

// Per-thread heap allocation counter behind sketch.allocs_per_query and
// estimate.allocs_per_call: counting inside operator new sees allocations
// hidden in containers that call-site counting would miss.
static thread_local uint64_t t_allocations = 0;

static void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t ThreadAllocations() { return t_allocations; }

namespace {
namespace fs = std::filesystem;

// Reconciliation tolerances (see LEDGER.md). sketch + router must cover the
// query span almost exactly — only the benchmark's own bookkeeping sits
// between them. The replay re-executes the miss outside the router, one
// shard after another and per candidate instead of in strips, so its sums
// agree with the live router time only to within run-to-run drift.
constexpr double kQueryTolerance = 0.03;
constexpr double kReplayTolerance = 0.35;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::string out = ".bench_out";
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: ledger --workload <cold_discover|wide_probe|"
               "serve_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--out <dir>]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && args->trace >= 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Counters {
  joinmi::RouterCacheStats cache;
  uint64_t admitted = 0, rejected = 0;
  uint64_t server_requests = 0, server_uploads = 0, server_rejected = 0;
  joinmi::storage::BufferPoolStats pool;
};

Counters Snapshot(const Deployment& deployment,
                  const joinmi::storage::BufferPoolStats& retired) {
  Counters c;
  c.cache = deployment.router->cache_stats();
  c.admitted = deployment.router->admission().admitted();
  c.rejected = deployment.router->admission().rejected();
  for (const auto& server : deployment.servers) {
    c.server_requests += server->requests_served();
    c.server_uploads += server->sketch_uploads_served();
    c.server_rejected += server->overload_rejections();
  }
  c.pool = PoolTotals(*deployment.router);
  c.pool.hits += retired.hits;
  c.pool.misses += retired.misses;
  c.pool.evictions += retired.evictions;
  return c;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char cell[256];
    std::snprintf(cell, sizeof(cell), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += cell;
  }
  return out + "}";
}

// A deployment plus the ingest-side state a Window needs to drive it.
struct Served {
  Served(Deployment* deployment, size_t base_candidates)
      : deployment(deployment) {
    epochs.Set(deployment->router->epoch(), {base_candidates, 0});
    auto opened = joinmi::ingest::IngestCoordinator::Open(deployment->dir);
    opened.status().Abort("opening the ingest coordinator");
    coordinator = std::move(*opened);
  }

  Window WindowFor(const Workload& workload, const Inputs& inputs,
                   const joinmi::SketchIndex& reference) {
    Window window;
    window.workload = &workload;
    window.inputs = &inputs;
    window.deployment = deployment;
    window.reference = &reference;
    window.epochs = &epochs;
    window.coordinator = coordinator.get();
    window.next_ingest = &next_ingest;
    window.swap_mutex = &swap_mutex;
    window.retired_pool = &retired_pool;
    return window;
  }

  Deployment* deployment;
  EpochLog epochs;
  std::unique_ptr<joinmi::ingest::IngestCoordinator> coordinator;
  size_t next_ingest = 0;
  std::shared_mutex swap_mutex;
  joinmi::storage::BufferPoolStats retired_pool;
};

int Run(const Args& args) {
  const auto run_start = Clock::now();
  auto phase = [&run_start](const char* name) {
    std::printf("phase %-10s done at %7.2f s\n", name,
                MillisBetween(run_start, Clock::now()) / 1000.0);
    std::fflush(stdout);
  };
  const Workload workload = MakeWorkload(args.workload, args.smoke);
  if (workload.name.empty()) return Usage("unknown workload");
  const Calibration calibration = CalibrateHost();
  std::printf("calibration %s\n", calibration.ToJson().c_str());

  const Inputs inputs =
      GenerateInputs(workload, args.seed, args.smoke, args.seconds);
  // The reference: every candidate the run will ever serve, in global
  // order; the generation at epoch e serves its first N_e candidates.
  joinmi::SketchIndex reference(workload.config);
  for (const auto* list : {&inputs.base_candidates, &inputs.ingest_candidates}) {
    for (const CandidateSource& source : *list) {
      reference.AddCandidate(*source.table, source.ref)
          .Abort("indexing a reference candidate");
    }
  }
  phase("generate");

  const fs::path root =
      fs::path(args.out) / ("deploy-" + std::to_string(getpid()));
  std::error_code error;
  fs::remove_all(root, error);
  fs::create_directories(root);

  std::vector<double> setup_s, index_ms, open_ms;
  std::unique_ptr<Deployment> deployment;
  // Closed loops keep the next-to-last set-up alive as the deployment the
  // ingest drill runs on, so drilling never changes what the window serves.
  std::unique_ptr<Deployment> drill_deployment;
  for (size_t r = 0; r < workload.setups; ++r) {
    if (deployment) {
      if (r + 1 == workload.setups && workload.loop == LoopKind::kClosed) {
        drill_deployment = std::move(deployment);
      } else {
        const std::string old = deployment->dir;
        deployment.reset();
        fs::remove_all(old, error);
      }
    }
    deployment =
        SetUp(workload, inputs, (root / ("setup" + std::to_string(r))).string());
    setup_s.push_back(deployment->setup_s);
    index_ms.push_back(deployment->index_build_ms);
    open_ms.push_back(deployment->open_ms);
  }
  FlushDeployment(*deployment);
  if (drill_deployment) FlushDeployment(*drill_deployment);
  phase("setup");

  BuildMemoryTwin(workload, reference, inputs.base_candidates.size(),
                  deployment.get());
  ReplayTotals replay;
  IngestTotals window_ingest;
  IngestTotals drill_ingest;
  Tracer tracer;
  Served served(deployment.get(), inputs.base_candidates.size());
  Window window = served.WindowFor(workload, inputs, reference);
  window.replay = &replay;
  window.ingest = &window_ingest;
  std::unique_ptr<Served> drill_served;
  Window drill_window;
  if (drill_deployment) {
    drill_served = std::make_unique<Served>(drill_deployment.get(),
                                            inputs.base_candidates.size());
    drill_window = drill_served->WindowFor(workload, inputs, reference);
    window.drill = &drill_window;
    window.drill_totals = &drill_ingest;
  }

  // Warm code paths and the buffer pool through the uncached fan-out, so
  // the result cache starts the window empty.
  for (uint64_t id : inputs.probe_ids) {
    auto query = joinmi::JoinMIQuery::Create(*inputs.table(id), "K", "Y",
                                             workload.config);
    query.status().Abort("sketching a warm-up query");
    deployment->router->index()
        .SearchQuery(*query, kTopK, 1, joinmi::ShardQueryMode::kStrict)
        .status()
        .Abort("warm-up search");
  }

  const Counters before = Snapshot(*deployment, served.retired_pool);
  double wall_s = 0.0;
  std::vector<Answer> untraced;
  std::vector<Answer> traced;
  double traced_wall_s = 0.0;
  if (args.trace == 0) {
    untraced = RunWindow(window, args.seconds, &wall_s);
  } else {
    untraced = RunWindow(window, args.seconds / 2, &wall_s);
    window.first_request =
        untraced.empty() ? 0 : untraced.back().request + 1;
    window.drill = nullptr;  // the untraced half ran every drill cycle
    window.tracer = &tracer;
    traced = RunWindow(window, args.seconds / 2, &traced_wall_s);
    window.tracer = nullptr;
  }
  const Counters after = Snapshot(*deployment, served.retired_pool);
  phase("window");

  std::vector<double> hit_ms, lookup_ms;
  size_t probe_failures = 0;
  if (args.trace == 1) CacheProbe(window, &hit_ms, &lookup_ms, &probe_failures);

  size_t wrong = CheckAnswers(window, untraced) + CheckAnswers(window, traced);
  phase("check");
  size_t recall_failures = 0;
  const double recall =
      args.trace == 0 ? RecallAtK(window, &recall_failures) : 0.0;
  phase("recall");
  if (!drill_deployment) {
    // Open loop: the writer already ran beside the reads; the drill after
    // the window gives the pinned-delta vs compacted query ratio.
    window.ingest = &drill_ingest;
    IngestDrill(window, &drill_ingest);
    phase("drill");
  }
  const IngestTotals& ingest =
      workload.loop == LoopKind::kOpen ? window_ingest : drill_ingest;

  const size_t attempted = untraced.size() + traced.size() +
                           drill_ingest.checks + window_ingest.checks +
                           (args.trace == 1 ? hit_ms.size() + lookup_ms.size() + 1
                                            : inputs.recall_tables.size());
  const size_t failed = wrong + drill_ingest.check_failures +
                        window_ingest.check_failures + probe_failures +
                        recall_failures + replay.replay_mismatches;

  std::vector<double> latency, late;
  for (const Answer& a : untraced) {
    latency.push_back(a.latency_ms);
    late.push_back(a.late_ms);
  }
  const double query_p50 = Median(latency);
  const Tail tail = TailOf(latency);
  std::printf("query_tail_ms is p%.2f over %zu samples (%zu beyond it)\n",
              tail.percentile, latency.size(), tail.beyond);
  std::printf("error_rate %.6f ratio (%zu failed of %zu attempted)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  // Reported, never gated: a few fsyncs set it, and this shared disk's
  // fsync latency moves it by more than any bound between runs.
  std::printf("ingest_visible_p50_ms %.6f ms (reported, not gated)\n",
              Median(ingest.visible_ms));

  std::vector<Metric> metrics;
  bool reconciled = true;
  if (args.trace == 0) {
    metrics = {
        {"query_p50_ms", query_p50, "ms"},
        {"query_tail_ms", tail.value, "ms"},
        {"queries_per_s", static_cast<double>(untraced.size()) / wall_s, "1/s"},
        {"recall_at_k", recall, "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"compact_p50_ms", Median(ingest.compact_ms), "ms"},
    };
  } else {
    const ReplayTotals& t = replay;
    const double replays = std::max(1.0, t.replays);
    const double queries = static_cast<double>(untraced.size() + traced.size());
    const double lookups =
        static_cast<double>(after.cache.hits - before.cache.hits +
                            after.cache.misses - before.cache.misses);
    const double pool_hits = static_cast<double>(after.pool.hits - before.pool.hits);
    const double pool_misses =
        static_cast<double>(after.pool.misses - before.pool.misses);
    std::vector<double> fanout_self;
    for (size_t i = 0; i < t.replay_router_ms.size(); ++i) {
      fanout_self.push_back(t.replay_router_ms[i] - t.shard_sum_ms[i]);
    }
    const Reconciliation rec = Reconcile(tracer.spans());
    double delta_records = 0;
    for (const auto* list : {&untraced, &traced}) {
      for (const Answer& a : *list) {
        const auto generation = served.epochs.Get(a.epoch_lo);
        delta_records +=
            generation ? static_cast<double>(generation->delta_records) : 0;
      }
    }
    std::vector<double> traced_latency;
    for (const Answer& a : traced) traced_latency.push_back(a.latency_ms);
    auto share = [&](double ms) { return Ratio(ms, query_p50); };
    metrics = {
        {"sketch.p50_ms", Median(t.sketch_ms), "ms"},
        {"sketch.share", share(Median(t.sketch_ms)), "ratio"},
        {"sketch.rows_per_s",
         Ratio(Sum(t.sketch_rows), Sum(t.sketch_ms) / 1000.0), "1/s"},
        {"sketch.allocs_per_query", Mean(t.sketch_allocs), "count"},
        {"index_build.ms_per_candidate",
         Median(index_ms) / static_cast<double>(inputs.base_candidates.size()),
         "ms"},
        {"cache.hit_ratio",
         Ratio(static_cast<double>(after.cache.hits - before.cache.hits), lookups),
         "ratio"},
        {"cache.hit_p50_ms", Median(hit_ms), "ms"},
        {"cache.lookup_p50_ms", Median(lookup_ms), "ms"},
        {"cache.evictions",
         static_cast<double>(after.cache.evictions - before.cache.evictions),
         "count"},
        {"cache.invalidations", static_cast<double>(window_ingest.reloads),
         "count"},
        {"admission.rejected_ratio",
         Ratio(static_cast<double>(after.rejected - before.rejected),
               static_cast<double>(after.admitted - before.admitted +
                                   after.rejected - before.rejected)),
         "ratio"},
        {"fanout.self_p50_ms", Median(fanout_self), "ms"},
        {"fanout.share", share(Median(fanout_self)), "ratio"},
        {"shard.search_p50_ms", Median(t.shard_ms), "ms"},
        {"shard.skew", Median(t.shard_skew), "ratio"},
        {"wire.self_p50_ms", Median(t.wire_ms), "ms"},
        {"wire.share", share(Median(t.wire_ms)), "ratio"},
        {"storage.self_p50_ms", Median(t.storage_ms), "ms"},
        {"storage.share", share(Median(t.storage_ms)), "ratio"},
        {"wire.request_bytes", t.request_bytes / replays, "bytes"},
        {"wire.uploads_per_query",
         Ratio(static_cast<double>(after.server_uploads - before.server_uploads),
               queries),
         "count"},
        {"server.requests_per_query",
         Ratio(static_cast<double>(after.server_requests - before.server_requests),
               queries),
         "count"},
        {"server.rejected",
         static_cast<double>(after.server_rejected - before.server_rejected),
         "count"},
        {"probe.ms_per_query", Mean(t.probe_ms), "ms"},
        {"probe.share", share(Median(t.probe_ms)), "ratio"},
        {"probe.candidates_per_query", t.probed / replays, "count"},
        {"probe.joined_ratio", Ratio(t.joined, t.probed), "ratio"},
        {"probe.join_size_mean", Ratio(t.join_size_sum, t.joined), "count"},
        {"estimate.ms_per_query", Mean(t.estimate_ms), "ms"},
        {"estimate.share", share(Median(t.estimate_ms)), "ratio"},
        {"estimate.calls_per_query", t.estimate_calls / replays, "count"},
        {"estimate.mle.us_per_call", Ratio(t.kind_us[0], t.kind_calls[0]), "us"},
        {"estimate.mixed_ksg.us_per_call", Ratio(t.kind_us[1], t.kind_calls[1]),
         "us"},
        {"estimate.dc_ksg.us_per_call", Ratio(t.kind_us[2], t.kind_calls[2]),
         "us"},
        {"estimate.allocs_per_call", Ratio(t.estimate_allocs, t.estimate_calls),
         "count"},
        {"merge.us_per_query", Mean(t.merge_us), "us"},
        {"merge.share", share(Median(t.merge_us) / 1000.0), "ratio"},
        {"pool.hit_ratio", Ratio(pool_hits, pool_hits + pool_misses), "ratio"},
        {"pool.misses_per_query", Ratio(pool_misses, queries), "count"},
        {"pool.evictions_per_query",
         Ratio(static_cast<double>(after.pool.evictions - before.pool.evictions),
               queries),
         "count"},
        {"open.ms", Median(open_ms), "ms"},
        {"ingest_visible_p50_ms", Median(ingest.visible_ms), "ms"},
        {"append.p50_ms", Median(ingest.append_ms), "ms"},
        {"publish.p50_ms", Median(ingest.publish_ms), "ms"},
        {"reload.p50_ms", Median(ingest.reload_ms), "ms"},
        {"compact.count", static_cast<double>(ingest.compact_ms.size()), "count"},
        {"compact.bytes_rewritten", Mean(ingest.compact_bytes), "bytes"},
        {"ingest.bytes_per_candidate",
         Ratio(ingest.appended_bytes, ingest.appended), "bytes"},
        {"delta.records_mean", Ratio(delta_records, queries), "count"},
        {"overlay.query_ratio", Median(drill_ingest.overlay_ratio), "ratio"},
        {"loadgen.late_p99_ms",
         workload.loop == LoopKind::kOpen ? Quantile(late, 0.99) : 0.0, "ms"},
        {"trace.overhead_ratio", Ratio(Median(traced_latency), query_p50),
         "ratio"},
    };
    reconciled = rec.Within(kQueryTolerance, kReplayTolerance);
    std::printf("reconciliation query %.4f shards %.4f layers %.4f over %zu "
                "queries, %zu replays (tolerance %.2f / %.2f): %s\n",
                rec.query_cover, rec.shard_cover, rec.layer_cover, rec.queries,
                rec.replays, kQueryTolerance, kReplayTolerance,
                reconciled ? "ok" : "FAILED");
    const std::string spans_path = (fs::path(args.out) /
                                    ("spans-" + workload.name + "-s" +
                                     std::to_string(args.seed) + ".json"))
                                       .string();
    if (!tracer.WriteJson(spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      reconciled = false;
    }
  }

  bool finite = true;
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) finite = false;
  }
  const bool correct = failed == 0 && reconciled && finite;
  if (!correct) {
    std::fprintf(stderr, "LEDGER FAILED: %zu wrong answers, reconciliation %s, "
                         "metrics %s\n",
                 failed, reconciled ? "ok" : "failed",
                 finite ? "finite" : "non-finite");
  }

  drill_served.reset();
  drill_deployment.reset();
  deployment.reset();
  fs::remove_all(root, error);

  const std::string result = "{\"correct\": " +
                             std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + MetricsJson(metrics) + "}";
  const fs::path report =
      fs::path(args.out) / ("report-" + workload.name + "-s" +
                            std::to_string(args.seed) + "-t" +
                            std::to_string(args.trace) + ".json");
  if (std::FILE* file = std::fopen(report.c_str(), "w")) {
    std::fprintf(file,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                 "\"trace\": %d, \"calibration\": %s, \"query_tail_percentile\": "
                 "%.4f, \"query_samples\": %zu, \"error_rate\": %.6f, "
                 "\"result\": %s}\n",
                 workload.name.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace, calibration.ToJson().c_str(), tail.percentile,
                 latency.size(),
                 attempted ? static_cast<double>(failed) / attempted : 0.0,
                 result.c_str());
    std::fclose(file);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage("bad arguments");
  }
  return perfbench::Run(args);
}
