// ServingOptions: one struct describing a serving topology's knobs —
// networking, replica selection and paged local shards. RouterOptions
// embeds a ServingOptions and both ShardClientFactory implementations
// consume it (ReplicaShardClient::Factory whole, LocalShardFactory its
// paged slice), so an operator tunes a deployment in one place regardless
// of which backend serves it. The per-connection RpcClientOptions and the
// paged LocalShardLoadOptions survive as derived slices (rpc()/local())
// because those layers keep their narrow signatures.

#ifndef JOINMI_DISCOVERY_SERVING_OPTIONS_H_
#define JOINMI_DISCOVERY_SERVING_OPTIONS_H_

#include <cstdint>

#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/sharded_index.h"
#include "src/net/frame.h"

namespace joinmi {

struct ServingOptions {
  // ---- networking (every remote shard client) ----
  /// Bound on dialing a shard server; a down server fails this fast.
  int connect_timeout_ms = 2000;
  /// Per-request read/write bound on an established connection.
  int io_timeout_ms = 30000;
  /// Attempts per request, counting the first; extra attempts are spent
  /// only on failures that provably precede the request reaching the wire.
  int max_attempts = 2;
  /// Connections each replica's RpcShardClient may hold to its server.
  size_t pool_size = 4;
  /// Highest JMRP version to offer in the handshake.
  uint32_t max_protocol_version = net::kProtocolVersion;

  // ---- replica selection ----
  /// How long a failed replica sits out before a Health() reprobe (below
  /// 0 counts as 0). A shard with one replica is never probed.
  int cooldown_ms = 1000;

  // ---- local paged shards ----
  /// Buffer-pool budget per paged shard, in pages.
  size_t pool_pages = 64;

  /// \brief The networking slice an RpcShardClient consumes.
  RpcClientOptions rpc() const {
    RpcClientOptions options;
    options.connect_timeout_ms = connect_timeout_ms;
    options.io_timeout_ms = io_timeout_ms;
    options.max_attempts = max_attempts;
    options.pool_size = pool_size;
    options.max_protocol_version = max_protocol_version;
    return options;
  }

  /// \brief The slice the local-file factory consumes (paged-shard knobs).
  ShardedSketchIndex::LocalShardLoadOptions local() const {
    ShardedSketchIndex::LocalShardLoadOptions options;
    options.pool_pages = pool_pages;
    return options;
  }
};

/// \brief The local-file ShardClientFactory fed from one ServingOptions —
/// the seam Router::Open wires up for a deployment without endpoints
/// (ReplicaShardClient::Factory is the remote one).
inline ShardClientFactory LocalShardFactory(const ServingOptions& options) {
  return ShardedSketchIndex::LocalFileFactory(options.local());
}

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SERVING_OPTIONS_H_
