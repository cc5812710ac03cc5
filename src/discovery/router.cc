#include "src/discovery/router.h"

#include <algorithm>
#include <utility>

#include "src/core/config.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/search.h"
#include "src/ingest/delta_shard_client.h"
#include "src/ingest/generation.h"
#include "src/sketch/serialize.h"

namespace joinmi {

namespace {

// Resolves the backend factory from the options — the decision callers
// used to make by hand. Endpoints (programmatic or from a file) build one
// ReplicaShardClient per shard, a single-endpoint shard being a replica
// set of one; no endpoints at all means local shard files.
Result<ShardClientFactory> ResolveFactory(const RouterOptions& options) {
  if (options.factory_override) {
    return options.factory_override;
  }
  std::vector<std::vector<ShardEndpoint>> replicas =
      options.replica_endpoints;
  if (replicas.empty() && !options.endpoints_path.empty()) {
    JOINMI_ASSIGN_OR_RETURN(replicas,
                            ReadShardEndpoints(options.endpoints_path));
  }
  if (replicas.empty()) {
    return LocalShardFactory(options.serving);
  }
  return ReplicaShardClient::Factory(std::move(replicas), options.serving);
}

}  // namespace

Router::Router(RouterOptions options, ShardClientFactory factory,
               std::shared_ptr<const ShardedSketchIndex> index)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      config_(index->config()),
      deployment_ref_(options_.manifest_path),
      epoch_(index->manifest().epoch),
      index_(std::move(index)),
      gate_(options_.max_pending, options_.retry_after_hint_ms) {
  cache_hits_ = registry_.GetCounter("router.cache.hits");
  cache_misses_ = registry_.GetCounter("router.cache.misses");
  cache_evictions_ = registry_.GetCounter("router.cache.evictions");
  admitted_ = registry_.GetCounter("router.admission.admitted");
  rejected_ = registry_.GetCounter("router.admission.rejected");
  queries_ok_ = registry_.GetCounter("router.queries.ok");
  queries_degraded_ = registry_.GetCounter("router.queries.degraded");
  queries_failed_ = registry_.GetCounter("router.queries.failed");
  search_latency_ = registry_.GetHistogram("router.search.latency_us");
  registry_.GetCounter("router.manifest.epoch")->Set(epoch_.load());
}

Result<std::unique_ptr<Router>> Router::Open(RouterOptions options) {
  if (options.manifest_path.empty()) {
    return Status::InvalidArgument(
        "RouterOptions::manifest_path is required");
  }
  JOINMI_ASSIGN_OR_RETURN(ShardClientFactory factory,
                          ResolveFactory(options));
  // The reference may be a deployment directory or a CURRENT pointer —
  // resolve it to the generation being published right now. options_
  // keeps the original reference so the no-arg Reload() re-resolves it.
  JOINMI_ASSIGN_OR_RETURN(const std::string manifest_path,
                          ingest::ResolveManifestPath(options.manifest_path));
  JOINMI_ASSIGN_OR_RETURN(ShardedSketchIndex index,
                          ShardedSketchIndex::Load(manifest_path, factory));
  return std::unique_ptr<Router>(new Router(
      std::move(options), std::move(factory),
      std::make_shared<const ShardedSketchIndex>(std::move(index))));
}

// ------------------------------------------------------------- Query path

const JoinMIConfig& Router::search_config() const { return config_; }

std::shared_ptr<const ShardedSketchIndex> Router::snapshot() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return index_;
}

std::string Router::CacheKey(const JoinMIQuery& query, size_t k) const {
  // The manifest epoch (so an answer computed before a publish can never
  // satisfy a lookup after it — defense in depth on top of Reload's
  // unconditional clear) + the full config wire bytes (estimator, widths,
  // seed, min_join_size — everything that changes an estimate) + the
  // sketch digest + k. min_join_size is appended once more explicitly so
  // the key survives a future config encoding that drops it.
  // ShardQueryMode is deliberately NOT in the key: only complete answers
  // are cached, and a complete answer is identical under either mode.
  std::string key;
  wire::AppendPod<uint64_t>(&key, epoch_.load(std::memory_order_acquire));
  AppendJoinMIConfig(&key, query.config());
  wire::AppendPod<uint64_t>(&key,
                            wire::Checksum64(query.SerializedTrainSketch()));
  wire::AppendPod<uint64_t>(&key, static_cast<uint64_t>(k));
  wire::AppendPod<uint64_t>(
      &key, static_cast<uint64_t>(query.config().min_join_size));
  return key;
}

size_t Router::ApproximateBytes(const std::string& key,
                                const TopKSearchResult& result) {
  size_t bytes = sizeof(CacheEntry) + key.size();
  for (const SearchHit& hit : result.hits) {
    bytes += sizeof(SearchHit) + hit.candidate.table_name.size() +
             hit.candidate.key_column.size() +
             hit.candidate.value_column.size();
  }
  return bytes;
}

bool Router::CacheLookup(const std::string& key,
                         TopKSearchResult* out) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->result;
  return true;
}

void Router::CacheInsert(std::string key,
                         const TopKSearchResult& result) const {
  const size_t bytes = ApproximateBytes(key, result);
  if (options_.cache_max_bytes != 0 && bytes > options_.cache_max_bytes) {
    return;  // would evict the whole cache to hold one entry
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent query already populated this key (both computed the
    // same bit-identical answer); just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(CacheEntry{std::move(key), result, bytes});
  cache_.emplace(lru_.front().key, lru_.begin());
  cache_bytes_ += bytes;
  while (cache_.size() > options_.cache_entries ||
         (options_.cache_max_bytes != 0 &&
          cache_bytes_ > options_.cache_max_bytes)) {
    const CacheEntry& victim = lru_.back();
    cache_bytes_ -= victim.bytes;
    cache_.erase(victim.key);
    lru_.pop_back();
    cache_evictions_->Add();
  }
}

void Router::CacheClear() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
  lru_.clear();
  cache_bytes_ = 0;
}

Result<TopKSearchResult> Router::SearchQuery(const JoinMIQuery& query,
                                             size_t k, size_t num_threads,
                                             ShardQueryMode mode) const {
  // Admission first: an overloaded router sheds deterministically, not
  // "unless the answer happened to be cached".
  auto ticket = gate_.TryEnter();
  if (!ticket.ok()) {
    rejected_->Add();
    return ticket.status();
  }
  admitted_->Add();
  metrics::ScopedTimer timer(search_latency_);

  const size_t threads =
      num_threads != 0 ? num_threads : options_.num_threads;
  std::string key;
  const bool cacheable = options_.cache_entries > 0;
  if (cacheable) {
    key = CacheKey(query, k);
    TopKSearchResult cached;
    if (CacheLookup(key, &cached)) {
      cache_hits_->Add();
      queries_ok_->Add();
      return cached;
    }
    cache_misses_->Add();
  }

  // In-flight queries pin the index they started with; Reload swaps the
  // pointer out from under nobody.
  std::shared_ptr<const ShardedSketchIndex> index = snapshot();
  auto result = index->SearchQuery(query, k, threads, mode);
  if (!result.ok()) {
    queries_failed_->Add();
    return result.status();
  }
  if (!result->shard_failures.empty()) {
    // Degraded: correct for the shards that answered, but caching it
    // would keep serving the outage after the shard recovers.
    queries_degraded_->Add();
    return result;
  }
  queries_ok_->Add();
  if (cacheable) CacheInsert(std::move(key), *result);
  return result;
}

Result<TopKSearchResult> Router::Search(const Table& base,
                                        const SearchSpec& spec, size_t k,
                                        ShardQueryMode mode) const {
  return TopKJoinMISearch(base, spec, *this, k, options_.num_threads, mode);
}

// -------------------------------------------------------------- Lifecycle

Status Router::Reload(const std::string& manifest_ref) {
  // The argument may itself be a directory or CURRENT pointer; resolve
  // it the same way Open does.
  JOINMI_ASSIGN_OR_RETURN(const std::string manifest_path,
                          ingest::ResolveManifestPath(manifest_ref));
  JOINMI_ASSIGN_OR_RETURN(
      ShardedSketchIndex reloaded,
      ShardedSketchIndex::Load(manifest_path, factory_));
  const uint64_t epoch = reloaded.manifest().epoch;
  // config_ is deliberately NOT updated: queries read it lock-free
  // through search_config(), so it is immutable for the router's
  // lifetime. Publishes and compactions never change the config — a
  // generation that does cannot be swapped in under live queries.
  if (!(reloaded.config() == config_)) {
    return Status::InvalidArgument(
        "reload refused: the new manifest generation was built under a "
        "different JoinMIConfig than the one this router opened with — "
        "mixed-config serving would merge incomparable scores");
  }
  auto fresh = std::make_shared<const ShardedSketchIndex>(
      std::move(reloaded));
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    index_ = std::move(fresh);
    options_.manifest_path = manifest_ref;
    deployment_ref_ = manifest_ref;
  }
  epoch_.store(epoch, std::memory_order_release);
  // New epoch: every cached answer predates this manifest, drop them all
  // (even byte-identical reloads — proving equivalence would cost more
  // than recomputing a few warm queries). The epoch in the cache key
  // already makes stale entries unreachable; clearing reclaims their
  // memory immediately.
  CacheClear();
  registry_.GetCounter("router.reload.count")->Add();
  registry_.GetCounter("router.manifest.epoch")->Set(epoch);
  return Status::OK();
}

Status Router::Reload() {
  std::string ref;
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    ref = deployment_ref_;
  }
  return Reload(ref);
}

uint64_t Router::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

// ---------------------------------------------------------- Introspection

const ShardedSketchIndex& Router::index() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return *index_;
}

size_t Router::num_shards() const { return snapshot()->num_shards(); }

size_t Router::size() const { return snapshot()->size(); }

RouterCacheStats Router::cache_stats() const {
  RouterCacheStats stats;
  stats.hits = cache_hits_->value();
  stats.misses = cache_misses_->value();
  stats.evictions = cache_evictions_->value();
  std::lock_guard<std::mutex> lock(cache_mutex_);
  stats.entries = cache_.size();
  stats.bytes = cache_bytes_;
  return stats;
}

std::string Router::StatsJson() const {
  // Absorb the gauges other layers maintain into registry counters so the
  // snapshot is one flat document. Set() (not Add) — these mirror live
  // values.
  registry_.GetCounter("router.admission.pending")->Set(gate_.pending());
  registry_.GetCounter("router.admission.max_pending")
      ->Set(gate_.max_pending());
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    registry_.GetCounter("router.cache.entries")->Set(cache_.size());
    registry_.GetCounter("router.cache.bytes")->Set(cache_bytes_);
  }
  std::shared_ptr<const ShardedSketchIndex> index = snapshot();
  for (size_t i = 0; i < index->num_shards(); ++i) {
    const std::string prefix = "shard." + std::to_string(i) + ".";
    const ShardClient& client = index->client(i);
    if (const auto* remote =
            dynamic_cast<const ReplicaShardClient*>(&client)) {
      // rpc.* describe the shard's connections across its replicas:
      // dials and channels add up, the pipelining high-water mark is the
      // deepest, and the version is the lowest any dialed replica speaks.
      uint64_t dials = 0;
      uint64_t live_channels = 0;
      uint64_t max_pipelined = 0;
      uint32_t version = 0;
      for (size_t r = 0; r < remote->num_replicas(); ++r) {
        const RpcShardClient& replica = remote->replica(r);
        dials += replica.total_dials();
        live_channels += replica.live_channels();
        max_pipelined = std::max<uint64_t>(max_pipelined,
                                           replica.max_pipelined());
        const uint32_t negotiated = replica.negotiated_version();
        if (negotiated != 0 && (version == 0 || negotiated < version)) {
          version = negotiated;
        }
      }
      registry_.GetCounter(prefix + "rpc.dials")->Set(dials);
      registry_.GetCounter(prefix + "rpc.live_channels")->Set(live_channels);
      registry_.GetCounter(prefix + "rpc.max_pipelined")->Set(max_pipelined);
      registry_.GetCounter(prefix + "rpc.negotiated_version")->Set(version);
      registry_.GetCounter(prefix + "replica.mark_downs")
          ->Set(remote->total_mark_downs());
      registry_.GetCounter(prefix + "replica.replicas")
          ->Set(remote->num_replicas());
    } else if (const PagedShardClient* paged = ingest::PagedBaseOf(client)) {
      const storage::BufferPoolStats pool = paged->pool_stats();
      registry_.GetCounter(prefix + "pool.hits")->Set(pool.hits);
      registry_.GetCounter(prefix + "pool.misses")->Set(pool.misses);
      registry_.GetCounter(prefix + "pool.evictions")->Set(pool.evictions);
    }
  }
  return registry_.SnapshotJson();
}

}  // namespace joinmi
