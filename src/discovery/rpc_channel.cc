#include "src/discovery/rpc_channel.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "src/discovery/rpc_messages.h"

namespace joinmi {
namespace rpc {

Channel::Channel(net::Socket socket, uint32_t protocol_version,
                 int io_timeout_ms, std::atomic<size_t>* pipeline_hwm)
    : socket_(std::move(socket)),
      version_(protocol_version),
      io_timeout_ms_(io_timeout_ms),
      pipeline_hwm_(pipeline_hwm) {
  if (pipelined()) {
    reader_ = std::thread([this] { ReaderLoop(); });
  }
}

Channel::~Channel() {
  stop_reader_.store(true);
  if (reader_.joinable()) reader_.join();
}

bool Channel::broken() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return broken_;
}

void Channel::MarkBroken(const Status& status) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  BreakLocked(status);
}

void Channel::BreakLocked(const Status& status) {
  if (broken_) return;
  broken_ = true;
  broken_status_ = status;
  for (auto& entry : pending_) {
    entry.second->status = status;
    entry.second->ready = true;
  }
  state_cv_.notify_all();
}

void Channel::ReaderLoop() {
  const int fd = socket_.fd();
  while (!stop_reader_.load()) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (stop_reader_.load()) break;
    if (ready == 0) continue;
    if (ready < 0) {
      if (errno == EINTR) continue;
      MarkBroken(Status::IOError("response reader poll failed"));
      return;
    }
    // Readable: the blocking RecvFrame finishes promptly (the socket's
    // receive timeout still bounds a peer that stalls mid-frame).
    auto frame = net::RecvFrame(&socket_);
    if (!frame.ok()) {
      MarkBroken(frame.status());
      return;
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto waiter = pending_.find(frame->request_id);
    if (waiter == pending_.end()) continue;  // timed-out caller: drop
    waiter->second->frame = std::move(*frame);
    waiter->second->status = Status::OK();
    waiter->second->ready = true;
    state_cv_.notify_all();
  }
}

Result<net::Frame> Channel::Call(net::FrameType type,
                                 const std::string& payload,
                                 bool* reached_wire) {
  const size_t now = in_flight_.fetch_add(1) + 1;
  if (pipeline_hwm_ != nullptr) {
    size_t seen = pipeline_hwm_->load();
    while (seen < now &&
           !pipeline_hwm_->compare_exchange_weak(seen, now)) {
    }
  }
  auto result = pipelined() ? CallV2(type, payload, reached_wire)
                            : CallV1(type, payload, reached_wire);
  in_flight_.fetch_sub(1);
  return result;
}

Result<net::Frame> Channel::CallV2(net::FrameType type,
                                   const std::string& payload,
                                   bool* reached_wire) {
  Pending pending;
  const uint64_t id = next_id_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (broken_) {
      return Status::IOError("channel is broken: " +
                             broken_status_.message());
    }
    // The reader notices a closed peer on its own schedule, which on a
    // busy host can lag a server restart. Each call probes too, so it is
    // never sent into a connection the server already closed: nothing is
    // sent yet, so the caller may retry on a fresh one. Buffered bytes
    // (say, a late response to a timed-out call) are the reader's to
    // frame. Probing under the lock that registers calls means no call
    // registers, and sends, between the probe and the break.
    if (socket_.PeerClosed()) {
      const Status stale = Status::IOError("connection closed by peer");
      BreakLocked(stale);
      return stale;
    }
    pending_.emplace(id, &pending);
  }
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    size_t bytes_written = 0;
    Status sent =
        net::SendFrameV2(&socket_, type, id, payload, &bytes_written);
    if (!sent.ok()) {
      // A partial write reached the wire AND corrupted the frame stream;
      // a zero-byte failure is provably un-sent. Either way this channel
      // is done.
      if (bytes_written > 0 && reached_wire != nullptr) *reached_wire = true;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        pending_.erase(id);
      }
      MarkBroken(sent);
      return sent;
    }
  }
  if (reached_wire != nullptr) *reached_wire = true;
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait_for(lock, std::chrono::milliseconds(io_timeout_ms_),
                     [&] { return pending.ready; });
  pending_.erase(id);
  if (!pending.ready) {
    // Abandon this call only; the reader drops the late response by id.
    return Status::IOError("timed out waiting for response " +
                           std::to_string(id));
  }
  if (!pending.status.ok()) return pending.status;
  return std::move(pending.frame);
}

Result<net::Frame> Channel::CallV1(net::FrameType type,
                                   const std::string& payload,
                                   bool* reached_wire) {
  std::lock_guard<std::mutex> excl(excl_mutex_);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (broken_) {
      return Status::IOError("channel is broken: " +
                             broken_status_.message());
    }
  }
  // TCP accepts a write to a peer that has since closed, so only a read-
  // side probe tells an idle v1 socket whose server restarted from a live
  // one. Nothing has been sent yet, so the caller may retry elsewhere.
  if (socket_.StaleForReuse()) {
    const Status stale =
        Status::IOError("connection went stale while idle (peer closed)");
    MarkBroken(stale);
    return stale;
  }
  size_t bytes_written = 0;
  Status sent = net::SendFrame(&socket_, type, payload, &bytes_written);
  if (!sent.ok()) {
    if (bytes_written > 0 && reached_wire != nullptr) *reached_wire = true;
    MarkBroken(sent);
    return sent;
  }
  if (reached_wire != nullptr) *reached_wire = true;
  auto frame = net::RecvFrame(&socket_);
  if (!frame.ok()) {
    MarkBroken(frame.status());
    return frame.status();
  }
  return std::move(*frame);
}

Status Channel::EnsureSketchUploaded(uint64_t digest,
                                     const std::string& bytes) {
  if (!pipelined()) {
    return Status::InvalidArgument(
        "sketch upload requires protocol v2; this channel negotiated v1");
  }
  // Held across the exchange so concurrent callers with the same digest
  // upload once, not racing duplicates (the server tolerates duplicates,
  // but re-sending the sketch wastes exactly the bytes the cache exists
  // to save).
  std::lock_guard<std::mutex> upload_lock(upload_mutex_);
  if (std::find(uploaded_digests_.begin(), uploaded_digests_.end(),
                digest) != uploaded_digests_.end()) {
    return Status::OK();
  }
  SketchUploadRequest request;
  request.digest = digest;
  request.train_sketch = bytes;
  JOINMI_ASSIGN_OR_RETURN(
      net::Frame reply, Call(net::FrameType::kSketchUploadRequest,
                             EncodeSketchUploadRequest(request), nullptr));
  if (reply.type == net::FrameType::kError) {
    Status server_error = Status::OK();
    JOINMI_RETURN_NOT_OK(DecodeErrorPayload(reply.payload, &server_error));
    return server_error;
  }
  if (reply.type != net::FrameType::kSketchUploadResponse) {
    return Status::IOError(
        std::string("shard answered a sketch upload with a ") +
        net::FrameTypeToString(reply.type) + " frame");
  }
  JOINMI_ASSIGN_OR_RETURN(SketchUploadResponse response,
                          DecodeSketchUploadResponse(reply.payload));
  JOINMI_RETURN_NOT_OK(response.status);
  if (response.digest != digest) {
    return Status::IOError("shard acknowledged digest " +
                           std::to_string(response.digest) +
                           " for an upload of digest " +
                           std::to_string(digest));
  }
  uploaded_digests_.push_back(digest);
  if (uploaded_digests_.size() > kMaxCachedSketches) {
    uploaded_digests_.pop_front();
  }
  return Status::OK();
}

void Channel::ForgetSketch(uint64_t digest) {
  std::lock_guard<std::mutex> upload_lock(upload_mutex_);
  uploaded_digests_.erase(std::remove(uploaded_digests_.begin(),
                                      uploaded_digests_.end(), digest),
                          uploaded_digests_.end());
}

ChannelSet::ChannelSet(ChannelFactory factory, size_t max_channels)
    : factory_(std::move(factory)),
      max_channels_(std::max<size_t>(1, max_channels)) {}

ChannelSet::~ChannelSet() { Close(); }

Result<std::shared_ptr<Channel>> ChannelSet::Pick() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (closed_) {
      return Status::IOError("channel set is closed");
    }
    channels_.erase(
        std::remove_if(channels_.begin(), channels_.end(),
                       [](const std::shared_ptr<Channel>& channel) {
                         return channel->broken();
                       }),
        channels_.end());
    std::shared_ptr<Channel> best;
    size_t best_load = 0;
    for (const auto& channel : channels_) {
      const size_t load = channel->in_flight();
      if (best == nullptr || load < best_load) {
        best = channel;
        best_load = load;
      }
    }
    if (best != nullptr && best_load == 0) return best;
    if (channels_.size() + creating_ < max_channels_) {
      ++creating_;
      lock.unlock();
      auto created = factory_();
      lock.lock();
      --creating_;
      cv_.notify_all();
      if (!created.ok()) return created.status();
      ++total_dials_;
      if (closed_) {
        return Status::IOError("channel set is closed");
      }
      channels_.push_back(*created);
      return std::move(*created);
    }
    // At capacity and everything busy: a pipelined channel shares; a v1
    // channel queues its callers on the exchange mutex. Either way the
    // least-loaded channel is the right place for this request.
    if (best != nullptr) return best;
    // No channels at all but another thread is mid-dial: wait for it.
    cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
}

void ChannelSet::Close() {
  std::vector<std::shared_ptr<Channel>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    doomed.swap(channels_);
  }
  cv_.notify_all();
  // Channel destructors (reader joins, socket closes) run outside the
  // lock; calls still running keep their own references.
  doomed.clear();
}

size_t ChannelSet::live_channels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return channels_.size();
}

uint64_t ChannelSet::total_dials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_dials_;
}

}  // namespace rpc
}  // namespace joinmi
