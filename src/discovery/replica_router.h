// Replica-aware routing: ReplicaShardClient is the one remote ShardClient,
// the failover layer between the sharded fan-out and the per-server
// RpcShardClient connection pools. It serves one shard's slot in the
// router but holds one pooled RPC client per *replica* — interchangeable
// servers all serving the same shard file — so a query survives any
// single replica's death: strict mode fails only when EVERY replica of
// some shard is down, and degraded mode reports a shard failure only for
// shards with zero live replicas. A shard with one endpoint is a replica
// set of one.
//
// Selection policy (ReplicaSet): requests round-robin across healthy
// replicas, spreading load. A replica whose Search fails with a
// connect/IO error is marked down and sits out a cooldown
// (ServingOptions::cooldown_ms); while it cools, requests fail over
// to the next healthy replica in rotation. When the cooldown expires, the
// next request issues a cheap Health() probe — success returns the
// replica to rotation (and resets nothing else: its channels re-dial
// lazily), failure re-arms the cooldown, so a dead replica costs
// at most one probe per cooldown period rather than a failed Search
// attempt per query. If every replica is marked down, the rotation is
// attempted anyway (last resort — a replica may have returned between
// probes); only when every replica actually refuses does the shard fail,
// which is the error the strict/degraded modes then see.
//
// Correctness: replicas serve byte-identical shard files (each replica's
// handshake pins config and candidate count to the manifest entry), so
// WHICH replica answers never changes a ranking — failover is invisible
// to the bit-identical merge guarantee.
// Deterministic errors (config drift, a shard-side InvalidArgument) are
// returned immediately, not failed over: every replica would answer the
// same way, and masking a deployment error behind a healthy twin would
// hide real misconfiguration.
//
// The endpoints file v2 maps each shard line to N replicas (see
// ReadShardEndpoints); v1 single-endpoint files parse unchanged as one
// replica per shard.

#ifndef JOINMI_DISCOVERY_REPLICA_ROUTER_H_
#define JOINMI_DISCOVERY_REPLICA_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/serving_options.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {

/// \brief THE endpoints-file reader: line i lists the replicas of shard i
/// as host:port specs separated by commas and/or whitespace. A v1 file —
/// exactly one endpoint per line — is a valid file with one replica per
/// shard, so both historical formats read here; the v1/v2 split is gone.
/// Blank lines and '#' comments (inline too) are ignored; malformed specs
/// fail with the offending `path:line:` position.
Result<std::vector<std::vector<ShardEndpoint>>> ReadShardEndpoints(
    const std::string& path);

/// \brief Health-tracked round-robin selection over one shard's replicas.
/// Thread-safe; pure bookkeeping (never touches the network) so it is
/// testable without sockets.
class ReplicaSet {
 public:
  /// \brief `cooldown_ms` below 0 is treated as 0 (probe every request —
  /// useful in tests, wasteful in production).
  ReplicaSet(size_t num_replicas, int cooldown_ms);

  /// \brief The replica indices one request should try, in order: healthy
  /// replicas first, starting from the advancing round-robin cursor, then
  /// still-cooling replicas as a last resort (attempting a probably-dead
  /// replica beats failing a query outright when nothing else is left).
  /// A down replica whose cooldown has expired is NOT resurrected here —
  /// that is Reprobe's job, on a cheap Health() probe instead of a real
  /// request.
  std::vector<size_t> PlanAttempts();

  /// \brief Down replicas whose cooldown has expired, i.e. due for a
  /// Health() probe now. Re-arms each one's cooldown so a dead replica is
  /// probed at most once per period no matter how many requests race by.
  /// A set of one is never due: its only replica is attempted anyway, so
  /// a probe would only add a round trip.
  std::vector<size_t> DueForReprobe();

  void MarkDown(size_t replica);
  void MarkHealthy(size_t replica);
  /// \brief True while the replica is marked down (cooldown expiry does
  /// not clear the mark; only MarkHealthy does).
  bool IsDown(size_t replica) const;
  size_t size() const { return states_.size(); }
  /// \brief Healthy->down transitions since construction (re-arming an
  /// already-down replica does not count) — the mark-down telemetry the
  /// metrics surface exports.
  uint64_t total_mark_downs() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct ReplicaState {
    bool down = false;
    Clock::time_point probe_due{};  // next Health() probe, while down
  };

  const std::chrono::milliseconds cooldown_;
  mutable std::mutex mutex_;
  std::vector<ReplicaState> states_;
  uint64_t cursor_ = 0;
  uint64_t mark_downs_ = 0;
};

/// \brief ShardClient over N interchangeable replicas of one shard.
class ReplicaShardClient : public ShardClient {
 public:
  /// \brief Builds one RpcShardClient per replica from `options.rpc()`,
  /// each expecting the manifest's config and candidate count.
  /// Unreachable replicas are tolerated (the outage surfaces per request,
  /// where failover absorbs it), but a reachable replica that fails the
  /// handshake fails Create loudly — a misdeployed replica would
  /// otherwise silently shed its traffic onto its twins.
  static Result<std::unique_ptr<ReplicaShardClient>> Create(
      std::vector<ShardEndpoint> replicas, JoinMIConfig expected_config,
      uint64_t expected_candidates,
      const ServingOptions& options = ServingOptions());

  const JoinMIConfig& config() const override { return config_; }
  size_t num_candidates() const override {
    return static_cast<size_t>(num_candidates_);
  }
  bool waits_on_network() const override { return true; }

  /// \brief Remote search with failover — a one-variant batch. Queries
  /// whose config disagrees with the shard's beyond min_join_size (which
  /// travels per variant) are rejected before any replica is tried: the
  /// server would silently answer under *its* config otherwise.
  /// `num_threads` is ignored: evaluation parallelism belongs to the
  /// server. Tries replicas in ReplicaSet order, marking connect/IO
  /// failures down and moving on; returns the first replica's answer
  /// (byte-identical across replicas by the handshake guarantee). Only
  /// requests that provably never reached the wire fail over — once any
  /// search byte may have left the process the request may already be
  /// executing, so the replica is marked down but the error is returned
  /// rather than re-sent to a twin ("maybe executed twice" stays
  /// impossible across replicas, exactly as it does across retries). Fails over-all only when every replica failed, with a
  /// status naming them all.
  Result<ShardSearchResult> Search(const JoinMIQuery& query, size_t k,
                                   size_t num_threads) const override;

  /// \brief Batched search with the same failover policy: un-sent batches
  /// fail over whole; a batch that reached the wire does not.
  Result<std::vector<ShardSearchResult>> SearchVariants(
      const JoinMIQuery& query,
      const std::vector<ShardSearchVariant>& variants,
      size_t num_threads) const override;

  /// \brief Probes replicas in selection order and returns the first
  /// healthy answer — the shard is "healthy" while any replica is.
  Result<rpc::HealthResponse> Health() const;

  size_t num_replicas() const { return replicas_.size(); }
  /// \brief The per-replica client (instrumentation: pool stats, endpoint).
  const RpcShardClient& replica(size_t i) const { return *replicas_[i]; }
  /// \brief Selection-state introspection for tests and drills.
  bool replica_down(size_t i) const { return set_.IsDown(i); }
  /// \brief Healthy->down transitions across this shard's replicas — the
  /// counter the Router's metrics snapshot absorbs.
  uint64_t total_mark_downs() const { return set_.total_mark_downs(); }

  /// \brief The remote ShardClientFactory: shard i is served by
  /// `replica_endpoints[i]` (>= 1 endpoints each). Requires a v2 manifest
  /// (embedded config) and exactly one endpoint list per shard. Plugs
  /// into the ShardedSketchIndex::Load seam; Router::Open uses it for
  /// every endpoints map.
  static ShardClientFactory Factory(
      std::vector<std::vector<ShardEndpoint>> replica_endpoints,
      const ServingOptions& options = ServingOptions());

 private:
  /// Checks the query's config and the variants' k once per request,
  /// probes cooldown-expired replicas, then sends the batch to replicas
  /// in selection order under the reached-wire failover policy.
  Result<std::vector<ShardSearchResult>> FailoverLoop(
      const JoinMIQuery& query,
      const std::vector<ShardSearchVariant>& variants) const;

  ReplicaShardClient(std::vector<std::unique_ptr<RpcShardClient>> replicas,
                     JoinMIConfig config, uint64_t num_candidates,
                     int cooldown_ms)
      : replicas_(std::move(replicas)),
        config_(std::move(config)),
        num_candidates_(num_candidates),
        set_(replicas_.size(), cooldown_ms) {}

  std::vector<std::unique_ptr<RpcShardClient>> replicas_;
  JoinMIConfig config_;
  uint64_t num_candidates_ = 0;
  mutable ReplicaSet set_;
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_REPLICA_ROUTER_H_
