#include "src/discovery/replica_router.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace joinmi {

namespace {

// A remote deployment needs the manifest's embedded JoinMIConfig to
// sketch queries, and exactly one endpoint list per shard.
Status ValidateServingManifest(const ShardManifest& manifest,
                               size_t num_entries) {
  if (!manifest.config.has_value()) {
    return Status::InvalidArgument(
        "manifest has no embedded JoinMIConfig (legacy v1 format) — "
        "remote serving needs it to sketch queries; repartition with "
        "the current build_shards");
  }
  if (num_entries != manifest.shards.size()) {
    return Status::InvalidArgument(
        "manifest names " + std::to_string(manifest.shards.size()) +
        " shards but " + std::to_string(num_entries) +
        " shard endpoint entries were provided");
  }
  return Status::OK();
}

}  // namespace

// ----------------------------------------------------------- Endpoints file

Result<std::vector<std::vector<ShardEndpoint>>> ReadShardEndpoints(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open endpoint file '" + path + "'");
  }
  std::vector<std::vector<ShardEndpoint>> shards;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Split on commas and whitespace; either (or both) separate replicas.
    std::vector<ShardEndpoint> replicas;
    size_t pos = 0;
    const std::string separators = " \t\r,";
    while (pos < line.size()) {
      const size_t begin = line.find_first_not_of(separators, pos);
      if (begin == std::string::npos) break;
      const size_t end = line.find_first_of(separators, begin);
      const std::string token =
          line.substr(begin, (end == std::string::npos ? line.size() : end) -
                                 begin);
      auto parsed = ParseShardEndpoint(token);
      if (!parsed.ok()) {
        return Status::InvalidArgument(
            path + ":" + std::to_string(line_no) + ": " +
            parsed.status().message());
      }
      replicas.push_back(std::move(*parsed));
      pos = end == std::string::npos ? line.size() : end;
    }
    if (replicas.empty()) continue;  // blank or comment-only line
    shards.push_back(std::move(replicas));
  }
  if (shards.empty()) {
    return Status::InvalidArgument("endpoint file '" + path +
                                   "' lists no endpoints");
  }
  return shards;
}

// -------------------------------------------------------------- ReplicaSet

ReplicaSet::ReplicaSet(size_t num_replicas, int cooldown_ms)
    : cooldown_(std::max(0, cooldown_ms)), states_(num_replicas) {}

std::vector<size_t> ReplicaSet::PlanAttempts() {
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t n = states_.size();
  std::vector<size_t> healthy;
  std::vector<size_t> cooling;
  const size_t start = n == 0 ? 0 : cursor_++ % n;
  for (size_t offset = 0; offset < n; ++offset) {
    const size_t i = (start + offset) % n;
    (states_[i].down ? cooling : healthy).push_back(i);
  }
  healthy.insert(healthy.end(), cooling.begin(), cooling.end());
  return healthy;
}

std::vector<size_t> ReplicaSet::DueForReprobe() {
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point now = Clock::now();
  std::vector<size_t> due;
  if (states_.size() < 2) return due;
  for (size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].down && now >= states_[i].probe_due) {
      due.push_back(i);
      // Re-arm now, not after the probe: concurrent requests racing past
      // this window must not all spend a probe on the same dead replica.
      states_[i].probe_due = now + cooldown_;
    }
  }
  return due;
}

void ReplicaSet::MarkDown(size_t replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!states_[replica].down) ++mark_downs_;
  states_[replica].down = true;
  states_[replica].probe_due = Clock::now() + cooldown_;
}

uint64_t ReplicaSet::total_mark_downs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return mark_downs_;
}

void ReplicaSet::MarkHealthy(size_t replica) {
  std::lock_guard<std::mutex> lock(mutex_);
  states_[replica].down = false;
}

bool ReplicaSet::IsDown(size_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return states_[replica].down;
}

// ------------------------------------------------------ ReplicaShardClient

Result<std::unique_ptr<ReplicaShardClient>> ReplicaShardClient::Create(
    std::vector<ShardEndpoint> replicas, JoinMIConfig expected_config,
    uint64_t expected_candidates, const ServingOptions& options) {
  if (replicas.empty()) {
    return Status::InvalidArgument(
        "a replicated shard client needs at least one replica endpoint");
  }
  JOINMI_RETURN_NOT_OK(expected_config.Validate());
  std::vector<std::unique_ptr<RpcShardClient>> clients;
  clients.reserve(replicas.size());
  for (ShardEndpoint& endpoint : replicas) {
    // RpcShardClient::Create already embodies the tolerate-outage /
    // fail-on-mismatch split, per replica.
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<RpcShardClient> client,
        RpcShardClient::Create(std::move(endpoint), expected_config,
                               expected_candidates, options.rpc()));
    clients.push_back(std::move(client));
  }
  return std::unique_ptr<ReplicaShardClient>(new ReplicaShardClient(
      std::move(clients), std::move(expected_config), expected_candidates,
      options.cooldown_ms));
}

Result<std::vector<ShardSearchResult>> ReplicaShardClient::FailoverLoop(
    const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants) const {
  for (const ShardSearchVariant& variant : variants) {
    if (variant.k == 0) {
      return Status::InvalidArgument("shard search requires k >= 1");
    }
  }
  // Everything except min_join_size must match the shard's config: those
  // fields change estimates, and only min_join_size travels per variant.
  // Rejecting here keeps "RPC == local, byte for byte" honest.
  JoinMIConfig comparable = config_;
  comparable.min_join_size = query.config().min_join_size;
  if (query.config() != comparable) {
    return Status::InvalidArgument(
        "query config (" + query.config().ToString() +
        ") disagrees with the shard's config (" + config_.ToString() +
        ") beyond min_join_size — the shard would answer under the wrong "
        "configuration");
  }
  // Cooldown-expired replicas get one cheap liveness probe before the
  // request plans its attempts — a recovered replica rejoins the rotation
  // in time to serve this very query. A failed probe re-arms the cooldown
  // from the probe's COMPLETION (MarkDown), not its start: against a
  // blackholed host a probe blocks for the whole connect timeout, and
  // re-arming only at the start would let every later query find the
  // cooldown already expired and stall on a probe of its own.
  for (size_t i : set_.DueForReprobe()) {
    if (replicas_[i]->Health().ok()) {
      set_.MarkHealthy(i);
    } else {
      set_.MarkDown(i);
    }
  }
  Status last = Status::IOError("no replica attempted");
  for (size_t i : set_.PlanAttempts()) {
    bool reached_wire = false;
    auto result = replicas_[i]->SearchVariants(query, variants, &reached_wire);
    if (result.ok()) {
      set_.MarkHealthy(i);
      return result;
    }
    if (!result.status().IsIOError()) {
      // Deterministic (config drift, shard-side InvalidArgument, ...):
      // every replica would answer identically, so failing over would
      // only mask the real error.
      return result.status();
    }
    set_.MarkDown(i);
    if (reached_wire) {
      // The replica may be executing the request right now. Re-sending it
      // to a twin could run it twice; the caller gets the error and
      // decides (searches are read-only today, but this layer does not
      // bake that in).
      return Status::IOError(
          "request to replica " + replicas_[i]->endpoint().ToString() +
          " reached the wire and then failed (not failed over): " +
          result.status().message());
    }
    last = result.status();
  }
  std::string endpoints;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (i > 0) endpoints += ", ";
    endpoints += replicas_[i]->endpoint().ToString();
  }
  return Status::IOError(
      "all " + std::to_string(replicas_.size()) + " replicas failed (" +
      endpoints + "); last error: " + last.message());
}

Result<ShardSearchResult> ReplicaShardClient::Search(
    const JoinMIQuery& query, size_t k, size_t num_threads) const {
  (void)num_threads;  // evaluation parallelism belongs to the server
  std::vector<ShardSearchVariant> variants(1);
  variants[0].k = k;
  variants[0].min_join_size = query.config().min_join_size;
  JOINMI_ASSIGN_OR_RETURN(std::vector<ShardSearchResult> results,
                          FailoverLoop(query, variants));
  return std::move(results[0]);
}

Result<std::vector<ShardSearchResult>> ReplicaShardClient::SearchVariants(
    const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants,
    size_t num_threads) const {
  (void)num_threads;
  if (variants.empty()) return std::vector<ShardSearchResult>{};
  return FailoverLoop(query, variants);
}

Result<rpc::HealthResponse> ReplicaShardClient::Health() const {
  Status last = Status::IOError("no replica attempted");
  for (size_t i : set_.PlanAttempts()) {
    auto health = replicas_[i]->Health();
    if (health.ok()) {
      set_.MarkHealthy(i);
      return health;
    }
    set_.MarkDown(i);
    last = health.status();
  }
  return last;
}

ShardClientFactory ReplicaShardClient::Factory(
    std::vector<std::vector<ShardEndpoint>> replica_endpoints,
    const ServingOptions& options) {
  return [replica_endpoints = std::move(replica_endpoints), options](
             const ShardManifest& manifest, size_t shard,
             const std::string& manifest_dir)
             -> Result<std::unique_ptr<ShardClient>> {
    (void)manifest_dir;  // remote shards have no local files
    JOINMI_RETURN_NOT_OK(
        ValidateServingManifest(manifest, replica_endpoints.size()));
    JOINMI_ASSIGN_OR_RETURN(
        std::unique_ptr<ReplicaShardClient> client,
        ReplicaShardClient::Create(replica_endpoints[shard],
                                   *manifest.config,
                                   manifest.shards[shard].candidate_count,
                                   options));
    return std::unique_ptr<ShardClient>(std::move(client));
  };
}

}  // namespace joinmi
