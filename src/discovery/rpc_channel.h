// Channel + ChannelSet: the client's one connection layer.
//
// A Channel owns one handshake-verified socket for its whole lifetime.
// Against a v2 server the channel runs a dedicated reader thread and a
// demux map: Call() stamps a fresh request_id, registers a waiter slot,
// sends under a write mutex, and blocks on its slot — many calls from
// many threads are simultaneously in flight on ONE connection, and the
// reader pairs whatever response arrives next with its waiter by id. A
// waiter that times out abandons its slot (a late response is dropped by
// id — the channel itself stays healthy); a read or write error breaks
// the channel and fails every pending waiter with the same IOError.
// Against a v1 server there is no request_id and no reader, so Call()
// serializes send+receive under an exclusive mutex. Either way a call
// first probes the socket (v1: Socket::StaleForReuse, as the channel is
// idle; v2: Socket::PeerClosed, leaving buffered replies to the reader):
// a peer that closed since the last exchange breaks the channel before
// any byte is sent, so the caller may retry on a fresh one — even when a
// v2 reader has not yet seen the close.
//
// A Channel also tracks which sketch digests this connection has uploaded
// (EnsureSketchUploaded is once-per-digest, idempotent server-side), so a
// query's serialized train sketch crosses the wire once per connection
// instead of once per request. It remembers at most
// rpc::kMaxCachedSketches digests, oldest out first — the same bound and
// order the server evicts by.
//
// ChannelSet owns up to max_channels channels and routes each request to
// the live channel with the fewest calls in flight, dialing a new channel
// (through the injected factory, which connects and handshakes) only when
// every existing channel is busy. Broken channels are pruned on the next
// Pick; calls already running on one keep their shared_ptr until they
// finish. Close() poisons the set for shutdown.

#ifndef JOINMI_DISCOVERY_RPC_CHANNEL_H_
#define JOINMI_DISCOVERY_RPC_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace joinmi {
namespace rpc {

/// \brief One JMRP connection, shared by concurrent requests (protocol
/// v2) or used one-exchange-at-a-time (protocol v1).
class Channel {
 public:
  /// \brief Takes the handshaken socket for the channel's lifetime.
  /// `protocol_version` is the handshake-negotiated dialect (1 or 2);
  /// `pipeline_hwm` (optional) receives the high-water mark of calls
  /// simultaneously in flight on this channel — the owning client's
  /// proof of pipelining.
  Channel(net::Socket socket, uint32_t protocol_version,
          int io_timeout_ms, std::atomic<size_t>* pipeline_hwm);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  uint32_t protocol_version() const { return version_; }
  bool pipelined() const { return version_ >= 2; }
  bool broken() const;
  size_t in_flight() const { return in_flight_.load(); }

  /// \brief One request/response exchange. Thread-safe. On failure,
  /// `*reached_wire` (optional, must start false) reports whether any
  /// request byte left this process — the only signal a retry or
  /// failover policy may act on. IOError failures break the channel
  /// (pending and future calls fail deterministically), EXCEPT a
  /// response timeout, which abandons only this call. A socket found
  /// closed (v1: or stale) before sending fails the call un-sent.
  Result<net::Frame> Call(net::FrameType type, const std::string& payload,
                          bool* reached_wire = nullptr);

  /// \brief v2 only: caches `bytes` server-side under `digest` once per
  /// channel; subsequent calls for the same digest are free. Safe to
  /// retry on a fresh channel after any failure — the upload is
  /// idempotent by digest.
  Status EnsureSketchUploaded(uint64_t digest, const std::string& bytes);

  /// \brief Forgets that `digest` was uploaded, so the next
  /// EnsureSketchUploaded sends it again (the server evicted it).
  void ForgetSketch(uint64_t digest);

 private:
  struct Pending {
    bool ready = false;
    Status status = Status::OK();
    net::Frame frame;
  };

  Result<net::Frame> CallV2(net::FrameType type, const std::string& payload,
                            bool* reached_wire);
  Result<net::Frame> CallV1(net::FrameType type, const std::string& payload,
                            bool* reached_wire);
  void ReaderLoop();
  /// Fails every pending waiter and poisons the channel.
  void MarkBroken(const Status& status);
  /// MarkBroken with state_mutex_ already held.
  void BreakLocked(const Status& status);

  net::Socket socket_;
  uint32_t version_ = 1;
  int io_timeout_ms_ = 30000;
  std::atomic<size_t>* pipeline_hwm_ = nullptr;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> stop_reader_{false};

  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  std::unordered_map<uint64_t, Pending*> pending_;
  bool broken_ = false;
  Status broken_status_ = Status::OK();

  std::mutex write_mutex_;  // v2: serializes frame sends, nothing else
  std::mutex excl_mutex_;   // v1: serializes whole exchanges

  std::mutex upload_mutex_;
  std::deque<uint64_t> uploaded_digests_;  // oldest first

  std::thread reader_;  // v2 only
};

/// \brief Bounded set of channels to one endpoint with least-loaded
/// routing. Thread-safe.
class ChannelSet {
 public:
  using ChannelFactory =
      std::function<Result<std::shared_ptr<Channel>>()>;

  ChannelSet(ChannelFactory factory, size_t max_channels);
  ~ChannelSet();

  ChannelSet(const ChannelSet&) = delete;
  ChannelSet& operator=(const ChannelSet&) = delete;

  /// \brief Returns the channel to run one request on: the live channel
  /// with the fewest in-flight calls, or a freshly dialed one when all
  /// are busy and capacity remains. Errors from the factory propagate
  /// verbatim (dial/handshake failures). When no channel exists and
  /// another thread is mid-dial at capacity, waits for it. After Close(),
  /// fails with a deterministic IOError without calling the factory.
  Result<std::shared_ptr<Channel>> Pick();

  /// \brief Poisons the set and drops its channel references; in-flight
  /// calls finish on their own shared_ptrs. Idempotent.
  void Close();

  size_t live_channels() const;
  /// \brief Successful factory calls since construction (reuse keeps
  /// this flat).
  uint64_t total_dials() const;

 private:
  ChannelFactory factory_;
  size_t max_channels_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Channel>> channels_;
  size_t creating_ = 0;
  uint64_t total_dials_ = 0;
  bool closed_ = false;
};

}  // namespace rpc
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_RPC_CHANNEL_H_
