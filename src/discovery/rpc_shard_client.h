// RpcShardClient: one JMRP connection pool to one remote shard server —
// the per-replica half of remote serving. It is not a ShardClient itself:
// ReplicaShardClient (replica_router.h) is the one remote ShardClient, and
// holds one RpcShardClient per replica; a shard with a single endpoint is
// a replica set of one. Rankings through it are byte-identical to the
// local shard's.
//
// Connection model: an rpc::ChannelSet of at most
// RpcClientOptions::pool_size channels, each owning one TCP connection
// that was dialed and handshaken (negotiating the protocol version)
// before the channel was built. Against a v2 server a channel PIPELINES:
// concurrent searches stamp distinct request ids, share one
// connection, and are demultiplexed as responses arrive in any order —
// pool_size bounds connections, not in-flight requests; a v2 channel
// notices a closed peer through its reader thread. Against a v1 server a
// channel serializes exchanges and probes its idle socket before each
// send, so a restarted server costs one re-dial, not a failed request.
// Requests route to the channel with the fewest calls in flight; a new
// connection is dialed only when every existing channel is busy and
// capacity remains.
//
// Sketch upload: on v2, SearchVariants first ensures the
// query's serialized train sketch is cached server-side (keyed by its
// Checksum64 digest, uploaded once per connection) and then sends
// digest-only batch requests — a q-variant batch ships the sketch bytes
// at most once, not q times. The server keeps the newest
// rpc::kMaxCachedSketches per connection; a batch whose digest it has
// evicted is refused with KeyError before evaluating, and the client
// re-uploads and resends it once.
//
// Create dials the first channel eagerly; that handshake connection is
// the one the first query uses. Creating a client against a *down* server
// still succeeds (the router must be able to assemble and serve degraded
// while a shard is being restarted); the outage surfaces per-request. A
// *reachable* server that fails the handshake — wrong JoinMIConfig or
// candidate count for the manifest entry — fails Create loudly instead:
// that is a deployment misconfiguration, not an outage.
//
// Retry policy: a request is retried (bounded by
// RpcClientOptions::max_attempts) only while it is provably not yet on
// the wire — connect/handshake failures, or a send that wrote zero bytes.
// After a partial write, and after any failure past the send, the request
// is NOT retried: the server may have executed it, and "maybe executed
// twice" is a property this layer refuses to introduce even for
// idempotent searches. Sketch uploads are the one exception: they are
// idempotent by digest, so a failed upload may retry on a fresh channel.
// The reached_wire out-parameter reports whether any SEARCH byte left the
// process — the signal replica failover keys on.

#ifndef JOINMI_DISCOVERY_RPC_SHARD_CLIENT_H_
#define JOINMI_DISCOVERY_RPC_SHARD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/discovery/rpc_channel.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/sharded_index.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace joinmi {

/// \brief One shard server address.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// \brief Parses "host:port" (the port is the digits after the last
/// colon, so bracketless IPv6 hosts are not supported — use names or
/// IPv4 addresses).
Result<ShardEndpoint> ParseShardEndpoint(const std::string& spec);

/// \brief Client-side networking knobs.
struct RpcClientOptions {
  /// Bound on dialing a shard server; a down server fails this fast.
  int connect_timeout_ms = 2000;
  /// Per-request read/write bound on the established connection.
  int io_timeout_ms = 30000;
  /// Attempts per request, counting the first; extra attempts are spent
  /// only on failures that provably precede the request reaching the wire.
  int max_attempts = 2;
  /// Connections this client may hold to its shard server. Against a v1
  /// server this also bounds in-flight requests; against a v2 server each
  /// connection pipelines, so it bounds sockets, not concurrency.
  size_t pool_size = 4;
  /// Highest JMRP version to offer in the handshake. The default
  /// negotiates v2 (pipelining + batch) with servers that speak it and
  /// falls back to v1 per connection otherwise; set 1 to force the legacy
  /// dialect (benchmark baselines, drills against old servers).
  uint32_t max_protocol_version = net::kProtocolVersion;
};

/// \brief Connection pool to one remote shard server.
class RpcShardClient {
 public:
  /// \brief Builds a client for `endpoint`, expecting the server to hold
  /// `expected_candidates` candidates sketched under `expected_config`
  /// (both from the manifest). Dials the first channel eagerly to surface
  /// handshake mismatches at assembly time, but an unreachable server is
  /// tolerated — see the connection model above.
  static Result<std::unique_ptr<RpcShardClient>> Create(
      ShardEndpoint endpoint, JoinMIConfig expected_config,
      uint64_t expected_candidates, RpcClientOptions options = {});

  /// Closes the channel set so any thread waiting in it wakes with a
  /// deterministic error before members are torn down.
  ~RpcShardClient();

  // Pinned in place: the channel factory captures `this`, so a moved-from
  // client would leave the set dialing through a dangling pointer.
  // Create hands out unique_ptrs precisely so nobody needs to move the
  // object itself.
  RpcShardClient(const RpcShardClient&) = delete;
  RpcShardClient& operator=(const RpcShardClient&) = delete;

  /// \brief Batched remote search: one frame carries every variant
  /// against the uploaded sketch (v2), or a per-variant loop over plain
  /// searches on one connection (v1). result[i] answers variants[i]. The
  /// caller has checked the query's config and each variant's k.
  /// `*reached_wire` (must start false) is set as soon as any byte of a
  /// search frame may have left the process — after that the server may
  /// have executed the request, so the caller must not re-send it
  /// elsewhere.
  Result<std::vector<ShardSearchResult>> SearchVariants(
      const JoinMIQuery& query,
      const std::vector<ShardSearchVariant>& variants,
      bool* reached_wire) const;

  /// \brief Liveness + identity probe: cheap, never retried.
  Result<rpc::HealthResponse> Health() const;

  /// \brief Asks the server to re-resolve its deployment reference and
  /// swap in the newest manifest generation (v2 only; never retried —
  /// reloads are idempotent but the caller should see every failure).
  /// On OK the response reports the epoch and candidate count now
  /// serving. NOTE: after a successful reload the server's candidate
  /// count may no longer match the manifest this client was created
  /// from — existing connections keep working, but fresh dials
  /// re-verify against the stale expectation. Callers that keep
  /// searching should rebuild their clients from the new manifest (the
  /// router's Reload() does exactly that).
  Result<rpc::ReloadResponse> Reload() const;

  const ShardEndpoint& endpoint() const { return endpoint_; }

  /// \brief Connections successfully dialed and handshaken since
  /// construction — tests and the router's stats read it to prove
  /// connection reuse (or the absence of over-dialing) rather than
  /// inferring it from timing.
  uint64_t total_dials() const { return channels_->total_dials(); }

  /// \brief Protocol version negotiated with the server by the most
  /// recent handshake; 0 until any dial succeeded.
  uint32_t negotiated_version() const { return server_version_.load(); }

  /// \brief High-water mark of requests simultaneously in flight on ONE
  /// connection — >= 2 proves pipelining actually happened.
  size_t max_pipelined() const { return pipeline_hwm_.load(); }

  /// \brief Channels currently alive (each owns one connection).
  size_t live_channels() const { return channels_->live_channels(); }

 private:
  RpcShardClient(ShardEndpoint endpoint, JoinMIConfig expected_config,
                 uint64_t expected_candidates, RpcClientOptions options);

  /// \brief The channel factory's dial: TCP connect + JMRP handshake,
  /// verifying the server against the manifest-expected config and
  /// candidate count. Returns the socket and its negotiated version.
  Result<std::pair<net::Socket, uint32_t>> DialAndHandshake() const;

  /// \brief One attempt of a variant batch on `channel`; dispatches to
  /// the batch frame (v2) or a sequential per-variant loop (v1). A v2
  /// batch the server refuses with KeyError (its cached copy of the
  /// sketch was evicted) is re-uploaded and resent once.
  Result<std::vector<ShardSearchResult>> RunVariants(
      rpc::Channel& channel, const JoinMIQuery& query,
      const std::vector<ShardSearchVariant>& variants,
      bool* reached_wire) const;

  /// \brief One never-retried control exchange (health, reload): sends an
  /// empty `request` frame, turns an error frame into its Status and any
  /// frame but `reply` into an IOError naming `what`, then decodes.
  /// `needs_v2` refuses with NotImplemented on a v1 connection instead of
  /// poisoning it with a frame type it must reject.
  template <typename Response>
  Result<Response> ControlCall(
      net::FrameType request, net::FrameType reply, const char* what,
      bool needs_v2,
      Result<Response> (*decode)(const std::string&)) const;

  ShardEndpoint endpoint_;
  JoinMIConfig config_;
  uint64_t num_candidates_ = 0;
  RpcClientOptions options_;

  // One connection per live channel; pool_size bounds the client's
  // sockets against this shard. unique_ptr because the set captures
  // `this` in its factory (stable for a heap-allocated client).
  mutable std::unique_ptr<rpc::ChannelSet> channels_;
  // 0 = no dial has succeeded yet; otherwise the latest negotiated
  // version. All connections of one client negotiate against the same
  // server, so the latest answer is authoritative.
  mutable std::atomic<uint32_t> server_version_{0};
  mutable std::atomic<size_t> pipeline_hwm_{0};
};

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_RPC_SHARD_CLIENT_H_
