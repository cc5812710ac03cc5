// Typed JMRP message payloads for shard serving: what travels inside the
// net::Frame envelope between RpcShardClient and a shard server.
//
//   HandshakeRequest   (empty payload, or u32 max protocol version)
//       -> HandshakeResponse: the server's JoinMIConfig (shared wire
//       layout from core/config.h) + u64 candidate count; the client
//       checks both against the manifest with JoinMIConfig::operator==
//       before trusting the shard. Version negotiation is piggybacked
//       asymmetrically for rolling upgrades: a v2-capable client declares
//       its max version in the request payload (a v1 server ignores the
//       handshake payload entirely), and a v2 server echoes a trailing
//       u32 negotiated version in the response ONLY when the request
//       declared one — an undeclared request gets the v1-shaped reply a
//       v1 client's trailing-bytes check requires. A response without the
//       trailing u32 therefore means "v1 server": the client pins that
//       connection's dialect to one request per round trip.
//   SearchRequest      u32 length-prefixed serialized train sketch
//       (sketch/serialize.h format — the query's base table never crosses
//       the wire) + u64 k + u64 min_join_size.
//   SearchResponse     a wire-encoded Status; on OK, the full
//       ShardSearchResult (counters + hits with global indices), so the
//       router's cross-shard merge sees exactly what LocalShardClient
//       would have produced. Per-shard results never carry
//       shard_failures — that field is router-level bookkeeping.
//   HealthRequest      (empty payload) -> HealthResponse
//       u64 candidate count + u64 requests served since startup.
//   Error              a wire-encoded Status, for requests the server
//       could not even parse or dispatch.
//
// All encodings use the wire:: primitives; every decoder is
// truncation-safe and validates enum tags, so a corrupt peer fails with a
// clear IOError instead of poisoning a merge.

#ifndef JOINMI_DISCOVERY_RPC_MESSAGES_H_
#define JOINMI_DISCOVERY_RPC_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/discovery/sharded_index.h"

namespace joinmi {
namespace rpc {

/// \brief Status as it crosses the wire: u8 code + length-prefixed
/// message. Round trips code and message exactly. (Out-parameter shape
/// because Result<Status> cannot exist: Status is Result's error arm.)
void AppendStatus(std::string* out, const Status& status);
Status ReadStatus(wire::Reader* reader, Status* out);

// ----------------------------------------------------------- Handshake

struct HandshakeRequest {
  /// Highest JMRP version the client speaks. 1 encodes as an empty
  /// payload (byte-identical to a v1 client's handshake); >= 2 encodes as
  /// a u32. Decoding an empty payload yields 1.
  uint32_t max_version = 1;
};

std::string EncodeHandshakeRequest(const HandshakeRequest& request);
Result<HandshakeRequest> DecodeHandshakeRequest(const std::string& payload);

struct HandshakeResponse {
  JoinMIConfig config;
  uint64_t num_candidates = 0;
  /// Negotiated protocol version. 1 encodes without the trailing u32
  /// (the legacy shape); >= 2 appends it. Decoding a legacy-shaped
  /// payload yields 1 — which is also how a v2 client detects a v1
  /// server.
  uint32_t protocol_version = 1;
};

std::string EncodeHandshakeResponse(const HandshakeResponse& response);
Result<HandshakeResponse> DecodeHandshakeResponse(const std::string& payload);

// -------------------------------------------------------------- Search

struct SearchRequest {
  /// SerializeSketch() bytes of the query's train sketch.
  std::string train_sketch;
  uint64_t k = 0;
  /// The query's min_join_size (the one JoinMIQuery honors locally); the
  /// server evaluates under its shard config with this value substituted,
  /// which is what keeps RPC rankings byte-identical to LocalShardClient.
  uint64_t min_join_size = 0;
};

std::string EncodeSearchRequest(const SearchRequest& request);
Result<SearchRequest> DecodeSearchRequest(const std::string& payload);

struct SearchResponse {
  /// The shard-side Search outcome; `result` is meaningful only when OK.
  Status status;
  ShardSearchResult result;
};

std::string EncodeSearchResponse(const SearchResponse& response);
Result<SearchResponse> DecodeSearchResponse(const std::string& payload);

// -------------------------------------------------------------- Health

struct HealthResponse {
  uint64_t num_candidates = 0;
  /// Search requests (single and batch frames) answered since the server
  /// started — handshakes and health probes no longer inflate this, so
  /// the gauge tracks real query traffic.
  uint64_t requests_served = 0;
};

std::string EncodeHealthResponse(const HealthResponse& response);
Result<HealthResponse> DecodeHealthResponse(const std::string& payload);

// -------------------------------------------------- Sketch upload (v2)

/// \brief Uploaded sketches a server caches per connection. An upload of
/// a new digest past the bound evicts the connection's oldest; client
/// channels remember the same number, oldest out first.
constexpr size_t kMaxCachedSketches = 8;

struct SketchUploadRequest {
  /// wire::Checksum64 of `train_sketch` — the cache key. The server
  /// recomputes and rejects a mismatch, so a digest can never alias a
  /// different sketch through a buggy client.
  uint64_t digest = 0;
  /// SerializeSketch() bytes of the query's train sketch.
  std::string train_sketch;
};

std::string EncodeSketchUploadRequest(const SketchUploadRequest& request);
Result<SketchUploadRequest> DecodeSketchUploadRequest(
    const std::string& payload);

struct SketchUploadResponse {
  /// Accept/reject verdict for caching the sketch on this connection.
  Status status;
  /// Digest echo, so a pipelined client can sanity-check the pairing.
  uint64_t digest = 0;
};

std::string EncodeSketchUploadResponse(const SketchUploadResponse& response);
Result<SketchUploadResponse> DecodeSketchUploadResponse(
    const std::string& payload);

// --------------------------------------------------- Batch search (v2)

/// \brief One (k, min_join_size) variant evaluated against the cached
/// sketch. Duplicates are legal and answered independently.
struct BatchSearchVariant {
  uint64_t k = 0;
  uint64_t min_join_size = 0;
};

struct BatchSearchRequest {
  /// Digest of a sketch previously cached on this connection via
  /// SketchUploadRequest.
  uint64_t sketch_digest = 0;
  std::vector<BatchSearchVariant> variants;
};

std::string EncodeBatchSearchRequest(const BatchSearchRequest& request);
Result<BatchSearchRequest> DecodeBatchSearchRequest(
    const std::string& payload);

struct BatchSearchResponse {
  /// Batch-level verdict (decode trouble; KeyError for a digest not
  /// cached on this connection, refused before evaluating). When OK,
  /// `responses` pairs with the request's variants by position, each
  /// carrying its own per-variant Status.
  Status status;
  std::vector<SearchResponse> responses;
};

std::string EncodeBatchSearchResponse(const BatchSearchResponse& response);
Result<BatchSearchResponse> DecodeBatchSearchResponse(
    const std::string& payload);

// ---------------------------------------------------------- Stats (v2)

/// \brief Answer to kStatsRequest (whose payload is empty): the server's
/// metrics snapshot. The JSON is opaque to the wire layer — its schema is
/// whatever metrics::Registry::SnapshotJson emits — so servers can add
/// metrics without a protocol bump.
struct StatsResponse {
  Status status;
  /// Meaningful only when `status` is OK.
  std::string json;
};

std::string EncodeStatsResponse(const StatsResponse& response);
Result<StatsResponse> DecodeStatsResponse(const std::string& payload);

// --------------------------------------------------------- Reload (v2)

/// \brief Answer to kReloadRequest (whose payload is empty): the server
/// re-resolved its deployment reference (directory / CURRENT pointer) and
/// swapped in the newest manifest generation. epoch/num_candidates are
/// meaningful only when `status` is OK and describe what the server is
/// serving after the swap.
struct ReloadResponse {
  Status status;
  uint64_t epoch = 0;
  uint64_t num_candidates = 0;
};

std::string EncodeReloadResponse(const ReloadResponse& response);
Result<ReloadResponse> DecodeReloadResponse(const std::string& payload);

// --------------------------------------------------------------- Error

std::string EncodeErrorPayload(const Status& status);
/// \brief Decodes an error payload into `*out`; the returned Status
/// reports decode failures, `*out` carries the server's error.
Status DecodeErrorPayload(const std::string& payload, Status* out);

}  // namespace rpc
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_RPC_MESSAGES_H_
