#include "src/discovery/rpc_shard_client.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/net/frame.h"
#include "src/sketch/serialize.h"

namespace joinmi {

// ---------------------------------------------------------- Endpoint file

Result<ShardEndpoint> ParseShardEndpoint(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' is not host:port");
  }
  // A space or comma means several endpoints ran together — most likely a
  // v2 replica line fed to a single-endpoint parser. Reject instead of
  // swallowing the junk into the host name (rfind would happily treat
  // "a:1 b" as the host of ":2").
  if (spec.find_first_of(" \t,") != std::string::npos) {
    return Status::InvalidArgument(
        "endpoint '" + spec +
        "' contains whitespace or a comma — one host:port expected");
  }
  const std::string port_str = spec.substr(colon + 1);
  long port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' has a non-numeric port");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' port is out of range");
    }
  }
  if (port < 1) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' port is out of range");
  }
  ShardEndpoint endpoint;
  endpoint.host = spec.substr(0, colon);
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

// --------------------------------------------------------- RpcShardClient

RpcShardClient::RpcShardClient(ShardEndpoint endpoint,
                               JoinMIConfig expected_config,
                               uint64_t expected_candidates,
                               RpcClientOptions options)
    : endpoint_(std::move(endpoint)),
      config_(std::move(expected_config)),
      num_candidates_(expected_candidates),
      options_(options) {
  // The factory runs the full handshake, so every channel ever built has
  // already proven its server serves this manifest entry.
  channels_ = std::make_unique<rpc::ChannelSet>(
      [this]() -> Result<std::shared_ptr<rpc::Channel>> {
        JOINMI_ASSIGN_OR_RETURN(auto dialed, DialAndHandshake());
        return std::make_shared<rpc::Channel>(std::move(dialed.first),
                                              dialed.second,
                                              options_.io_timeout_ms,
                                              &pipeline_hwm_);
      },
      options_.pool_size);
}

RpcShardClient::~RpcShardClient() { channels_->Close(); }

Result<std::unique_ptr<RpcShardClient>> RpcShardClient::Create(
    ShardEndpoint endpoint, JoinMIConfig expected_config,
    uint64_t expected_candidates, RpcClientOptions options) {
  JOINMI_RETURN_NOT_OK(expected_config.Validate());
  std::unique_ptr<RpcShardClient> client(new RpcShardClient(
      std::move(endpoint), std::move(expected_config), expected_candidates,
      options));
  // Eager dial: a reachable-but-wrong server (handshake mismatch, an
  // InvalidArgument) is a deployment error and fails Create; an
  // unreachable one (IOError) is an outage the router must survive, so
  // the client is returned disconnected and re-dials per request. On
  // success the channel stays in the set for the first query to use.
  auto channel = client->channels_->Pick();
  if (!channel.ok() && channel.status().IsInvalidArgument()) {
    return channel.status();
  }
  return client;
}

Result<std::pair<net::Socket, uint32_t>> RpcShardClient::DialAndHandshake()
    const {
  auto connected = net::Socket::Connect(endpoint_.host, endpoint_.port,
                                        options_.connect_timeout_ms);
  if (!connected.ok()) {
    return Status::IOError("shard server " + endpoint_.ToString() +
                           " is unreachable: " +
                           connected.status().message());
  }
  net::Socket socket = std::move(*connected);
  JOINMI_RETURN_NOT_OK(
      socket.SetTimeouts(options_.io_timeout_ms, options_.io_timeout_ms));
  rpc::HandshakeRequest hello;
  hello.max_version = std::min<uint32_t>(
      std::max<uint32_t>(options_.max_protocol_version, 1),
      net::kProtocolVersion);
  // The handshake frame itself is always v1 — it must parse on any
  // server; the versions only diverge after both sides agree.
  JOINMI_RETURN_NOT_OK(net::SendFrame(&socket,
                                      net::FrameType::kHandshakeRequest,
                                      rpc::EncodeHandshakeRequest(hello)));
  JOINMI_ASSIGN_OR_RETURN(net::Frame frame, net::RecvFrame(&socket));
  if (frame.type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(
        rpc::DecodeErrorPayload(frame.payload, &server_error));
    return server_error;
  }
  if (frame.type != net::FrameType::kHandshakeResponse) {
    return Status::IOError("shard server " + endpoint_.ToString() +
                           " answered the handshake with a " +
                           std::string(net::FrameTypeToString(frame.type)) +
                           " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(rpc::HandshakeResponse handshake,
                          rpc::DecodeHandshakeResponse(frame.payload));
  // The operator== agreement: a server whose shard was built under any
  // other config can never coordinate with this manifest's queries.
  if (handshake.config != config_) {
    return Status::InvalidArgument(
        "shard server " + endpoint_.ToString() +
        " serves a shard built under a different JoinMIConfig (" +
        handshake.config.ToString() + ") than the manifest expects (" +
        config_.ToString() + ")");
  }
  if (handshake.num_candidates != num_candidates_) {
    return Status::InvalidArgument(
        "shard server " + endpoint_.ToString() + " holds " +
        std::to_string(handshake.num_candidates) +
        " candidates but the manifest records " +
        std::to_string(num_candidates_));
  }
  // Belt and braces: never speak above what we offered, whatever the
  // server claims.
  const uint32_t version = std::max<uint32_t>(
      1, std::min<uint32_t>(handshake.protocol_version, hello.max_version));
  server_version_.store(version);
  return std::make_pair(std::move(socket), version);
}

Result<std::vector<ShardSearchResult>> RpcShardClient::SearchVariants(
    const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants,
    bool* reached_wire) const {
  Status last = Status::IOError("no attempt made");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    auto channel = channels_->Pick();
    if (!channel.ok()) {
      // Dial or handshake failed — nothing of this request reached the
      // wire, so retrying is free. A handshake *mismatch* is a
      // deterministic deployment error another attempt cannot fix.
      if (channel.status().IsInvalidArgument()) return channel.status();
      last = channel.status();
      continue;
    }
    bool attempt_reached = false;
    auto result = RunVariants(**channel, query, variants, &attempt_reached);
    if (attempt_reached) *reached_wire = true;
    if (result.ok()) return result;
    // Anything non-IO is deterministic (bad request, server-side
    // validation); anything IO after the request may have reached the
    // server must not be re-sent — "maybe executed twice" stays
    // impossible.
    if (!result.status().IsIOError()) return result.status();
    if (attempt_reached) return result.status();
    last = result.status();
  }
  return last;
}

Result<std::vector<ShardSearchResult>> RpcShardClient::RunVariants(
    rpc::Channel& channel, const JoinMIQuery& query,
    const std::vector<ShardSearchVariant>& variants,
    bool* reached_wire) const {
  std::vector<ShardSearchResult> results;
  results.reserve(variants.size());
  if (channel.pipelined()) {
    // v2: make sure the sketch is cached server-side (uploaded at most
    // once per connection, idempotent by digest — its reached-ness never
    // taints the search's retry eligibility), then send the digest-only
    // batch.
    const std::string& sketch_bytes = query.SerializedTrainSketch();
    const uint64_t digest = wire::Checksum64(sketch_bytes);
    rpc::BatchSearchRequest request;
    request.sketch_digest = digest;
    request.variants.reserve(variants.size());
    for (const ShardSearchVariant& variant : variants) {
      rpc::BatchSearchVariant wire_variant;
      wire_variant.k = variant.k;
      wire_variant.min_join_size = variant.min_join_size;
      request.variants.push_back(wire_variant);
    }
    const std::string payload = rpc::EncodeBatchSearchRequest(request);
    rpc::BatchSearchResponse response;
    for (int send = 0; send < 2; ++send) {
      JOINMI_RETURN_NOT_OK(
          channel.EnsureSketchUploaded(digest, sketch_bytes));
      auto frame = channel.Call(net::FrameType::kBatchSearchRequest,
                                payload, reached_wire);
      if (!frame.ok()) {
        if (*reached_wire) {
          return Status::IOError("no response from shard server " +
                                 endpoint_.ToString() + " (not retried): " +
                                 frame.status().message());
        }
        return frame.status();
      }
      if (frame->type == net::FrameType::kError) {
        Status server_error;
        JOINMI_RETURN_NOT_OK(
            rpc::DecodeErrorPayload(frame->payload, &server_error));
        return server_error;
      }
      if (frame->type != net::FrameType::kBatchSearchResponse) {
        return Status::IOError(
            "shard server " + endpoint_.ToString() +
            " answered a batch search with a " +
            std::string(net::FrameTypeToString(frame->type)) + " frame");
      }
      JOINMI_ASSIGN_OR_RETURN(response,
                              rpc::DecodeBatchSearchResponse(frame->payload));
      // KeyError: newer uploads on this connection evicted the sketch
      // server-side. The server refused before evaluating anything, so
      // re-uploading and resending cannot run the search twice.
      if (!response.status.IsKeyError()) break;
      channel.ForgetSketch(digest);
    }
    JOINMI_RETURN_NOT_OK(response.status);
    if (response.responses.size() != variants.size()) {
      return Status::IOError(
          "shard server " + endpoint_.ToString() + " answered " +
          std::to_string(response.responses.size()) + " variants for a " +
          std::to_string(variants.size()) + "-variant batch");
    }
    for (rpc::SearchResponse& one : response.responses) {
      JOINMI_RETURN_NOT_OK(one.status);
      results.push_back(std::move(one.result));
    }
    return results;
  }
  // v1: the legacy dialect — one kSearchRequest per variant, sketch bytes
  // shipped every time, exchanges serialized on the channel.
  for (const ShardSearchVariant& variant : variants) {
    rpc::SearchRequest request;
    request.train_sketch = query.SerializedTrainSketch();
    request.k = variant.k;
    request.min_join_size = variant.min_join_size;
    auto frame = channel.Call(net::FrameType::kSearchRequest,
                              rpc::EncodeSearchRequest(request),
                              reached_wire);
    if (!frame.ok()) {
      if (*reached_wire) {
        return Status::IOError("no response from shard server " +
                               endpoint_.ToString() + " (not retried): " +
                               frame.status().message());
      }
      return frame.status();
    }
    if (frame->type == net::FrameType::kError) {
      Status server_error;
      JOINMI_RETURN_NOT_OK(
          rpc::DecodeErrorPayload(frame->payload, &server_error));
      return server_error;
    }
    if (frame->type != net::FrameType::kSearchResponse) {
      return Status::IOError(
          "shard server " + endpoint_.ToString() +
          " answered a search with a " +
          std::string(net::FrameTypeToString(frame->type)) + " frame");
    }
    JOINMI_ASSIGN_OR_RETURN(rpc::SearchResponse response,
                            rpc::DecodeSearchResponse(frame->payload));
    JOINMI_RETURN_NOT_OK(response.status);
    results.push_back(std::move(response.result));
  }
  return results;
}

template <typename Response>
Result<Response> RpcShardClient::ControlCall(
    net::FrameType request, net::FrameType reply, const char* what,
    bool needs_v2,
    Result<Response> (*decode)(const std::string&)) const {
  JOINMI_ASSIGN_OR_RETURN(std::shared_ptr<rpc::Channel> channel,
                          channels_->Pick());
  if (needs_v2 && !channel->pipelined()) {
    return Status::NotImplemented(
        "shard server " + endpoint_.ToString() +
        " negotiated JMRP v1, which has no " + what + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(net::Frame frame,
                          channel->Call(request, "", nullptr));
  if (frame.type == net::FrameType::kError) {
    Status server_error;
    JOINMI_RETURN_NOT_OK(rpc::DecodeErrorPayload(frame.payload, &server_error));
    return server_error;
  }
  if (frame.type != reply) {
    return Status::IOError(
        "shard server " + endpoint_.ToString() + " answered a " + what +
        " request with a " + std::string(net::FrameTypeToString(frame.type)) +
        " frame");
  }
  return decode(frame.payload);
}

Result<rpc::HealthResponse> RpcShardClient::Health() const {
  return ControlCall(net::FrameType::kHealthRequest,
                     net::FrameType::kHealthResponse, "health",
                     /*needs_v2=*/false, &rpc::DecodeHealthResponse);
}

Result<rpc::ReloadResponse> RpcShardClient::Reload() const {
  JOINMI_ASSIGN_OR_RETURN(
      rpc::ReloadResponse response,
      ControlCall(net::FrameType::kReloadRequest,
                  net::FrameType::kReloadResponse, "reload",
                  /*needs_v2=*/true, &rpc::DecodeReloadResponse));
  JOINMI_RETURN_NOT_OK(response.status);
  return response;
}

}  // namespace joinmi
