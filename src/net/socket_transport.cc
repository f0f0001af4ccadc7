#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace untx {
namespace internal {

class SocketReactor;

namespace {

using Clock = std::chrono::steady_clock;

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool ResolveV4(const std::string& host, uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  const char* addr = host == "localhost" ? "127.0.0.1" : host.c_str();
  return inet_pton(AF_INET, addr, &out->sin_addr) == 1;
}

}  // namespace

/// One TCP connection with reconnect state. fds are opened and closed
/// ONLY on the reactor thread; caller threads write to an open fd under
/// send_mu (the reactor also closes under send_mu, so a held lock
/// guarantees the fd stays valid).
class SocketConnection {
 public:
  enum class State : uint8_t {
    kDisconnected = 0,
    kConnecting = 1,
    kConnected = 2,
  };

  SocketConnection(std::vector<SocketEndpoint> endpoints,
                   const SocketTransportOptions& options,
                   std::weak_ptr<SocketReactor> reactor)
      : endpoints_(std::move(endpoints)),
        backoff_min_ms_(options.reconnect_backoff_min_ms),
        backoff_max_ms_(options.reconnect_backoff_max_ms),
        jitter_(options.reconnect_backoff_jitter),
        reactor_(std::move(reactor)),
        backoff_ms_(options.reconnect_backoff_min_ms),
        jitter_state_(0x9e3779b97f4a7c15ull ^
                      (endpoints_.empty() ? 0u : endpoints_.front().port)) {
    if (endpoints_.empty()) endpoints_.push_back(SocketEndpoint{});
  }

  using FrameHandler = std::function<void(uint8_t, const std::string&)>;

  /// handler_mu_ is held while a frame dispatches, so setting the
  /// handler to nullptr is a barrier: once it returns, no dispatch into
  /// the old handler is running — the client can be destroyed safely.
  void set_frame_handler(FrameHandler h) {
    std::lock_guard<std::mutex> guard(handler_mu_);
    on_frame_ = std::move(h);
  }

  void DispatchFrame(uint8_t kind, const std::string& body) {
    std::lock_guard<std::mutex> guard(handler_mu_);
    if (on_frame_) on_frame_(kind, body);
  }

  /// Caller-thread send: appends one encoded frame and drains what the
  /// socket will take now; the reactor finishes the rest on POLLOUT.
  /// Returns false (dropped) when there is no live connection.
  bool Send(const std::string& frame);

  bool connected() const { return connected_.load(); }
  uint64_t connect_epoch() const { return epoch_.load(); }

  bool WaitConnected(uint32_t timeout_ms) const {
    std::unique_lock<std::mutex> lock(wait_mu_);
    return wait_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this] { return connected_.load(); });
  }

 private:
  friend class SocketReactor;

  void MarkConnectedLocked();  // send_mu_ held (reactor thread)
  void CloseLocked();          // send_mu_ held (reactor thread)

  /// Arms the next dial after a failure (send_mu_ held): jittered
  /// current backoff, rotation to the next alternate endpoint, and —
  /// once a full rotation has failed — exponential growth to the cap.
  void ArmRedialLocked() {
    // xorshift64: cheap per-connection jitter, no global RNG contention.
    jitter_state_ ^= jitter_state_ << 13;
    jitter_state_ ^= jitter_state_ >> 7;
    jitter_state_ ^= jitter_state_ << 17;
    const uint32_t spread =
        jitter_ > 0 ? static_cast<uint32_t>(backoff_ms_ * jitter_) : 0;
    const uint32_t delay =
        backoff_ms_ + (spread > 0 ? jitter_state_ % (spread + 1) : 0);
    next_attempt_ = Clock::now() + std::chrono::milliseconds(delay);
    if (endpoints_.size() > 1) {
      active_ = (active_ + 1) % endpoints_.size();
      if (active_ != 0) return;  // try the whole ring at this backoff
    }
    backoff_ms_ = std::min(backoff_ms_ * 2, backoff_max_ms_);
  }

  std::vector<SocketEndpoint> endpoints_;
  /// Which alternate the next dial targets (reactor thread only).
  size_t active_ = 0;
  const uint32_t backoff_min_ms_;
  const uint32_t backoff_max_ms_;
  const double jitter_;
  const std::weak_ptr<SocketReactor> reactor_;  // woken on buffered sends

  std::mutex send_mu_;
  int fd_ = -1;  // valid only while send_mu_ held (or on reactor thread)
  State state_ = State::kDisconnected;
  std::string out_;     // unsent bytes, drained on POLLOUT
  size_t out_pos_ = 0;
  bool want_write_ = false;

  // Reactor-thread-only reconnect bookkeeping.
  Clock::time_point next_attempt_{};
  uint32_t backoff_ms_;
  uint64_t jitter_state_;
  FrameReader reader_;
  bool stopped_ = false;

  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex wait_mu_;
  mutable std::condition_variable wait_cv_;

  std::mutex handler_mu_;
  FrameHandler on_frame_;
};

/// The factory's shared poll loop: dials, redials, reads frames and
/// finishes partial writes for every registered connection.
class SocketReactor {
 public:
  ~SocketReactor() { Stop(); }

  void Register(const std::shared_ptr<SocketConnection>& conn) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      conns_.push_back(conn);
      if (!running_) {
        running_ = true;
        thread_ = std::thread([this] { Loop(); });
      }
    }
    Wake();
  }

  /// Marks the connection for teardown; the reactor thread closes the
  /// fd and drops it from the poll set.
  void Deregister(const std::shared_ptr<SocketConnection>& conn) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      pending_stop_.push_back(conn);
    }
    Wake();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (!running_) return;
      stop_ = true;
    }
    Wake();
    if (thread_.joinable()) thread_.join();
    {
      std::lock_guard<std::mutex> guard(mu_);
      running_ = false;
      stop_ = false;
    }
  }

  void Wake() {
    std::lock_guard<std::mutex> guard(pipe_mu_);
    if (wake_pipe_[1] >= 0) {
      const char b = 1;
      [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &b, 1);
    }
  }

 private:
  void Loop();
  void HandleStops();
  void StartConnect(SocketConnection* c);
  void FinishConnect(SocketConnection* c);
  void ReadReady(const std::shared_ptr<SocketConnection>& c);
  void WriteReady(SocketConnection* c);
  void Disconnect(SocketConnection* c);

  std::mutex mu_;
  std::vector<std::shared_ptr<SocketConnection>> conns_;
  std::vector<std::shared_ptr<SocketConnection>> pending_stop_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
  std::mutex pipe_mu_;
  int wake_pipe_[2] = {-1, -1};
};

bool SocketConnection::Send(const std::string& frame) {
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> guard(send_mu_);
    if (state_ != State::kConnected || fd_ < 0) return false;
    out_.append(frame);
    // Drain greedily so the common (uncongested) case never waits for
    // the reactor's POLLOUT round.
    while (out_pos_ < out_.size()) {
      // MSG_NOSIGNAL: a DC that died must not SIGPIPE the TC process.
      const ssize_t n = ::send(fd_, out_.data() + out_pos_,
                               out_.size() - out_pos_, MSG_NOSIGNAL);
      if (n > 0) {
        out_pos_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // Write error: the reactor notices via POLLERR/read EOF and
      // redials. The unsent tail is dropped with the connection.
      break;
    }
    if (out_pos_ >= out_.size()) {
      out_.clear();
      out_pos_ = 0;
    } else {
      need_wake = !want_write_;  // reactor must add POLLOUT for this fd
      want_write_ = true;
    }
  }
  // The reactor may be mid-poll without POLLOUT armed; kick it out so
  // the buffered tail doesn't wait out the poll timeout (the client-side
  // mirror of ServerImpl::Reply's Wake).
  if (need_wake) {
    if (auto reactor = reactor_.lock()) reactor->Wake();
  }
  return true;  // accepted (possibly buffered for the reactor to finish)
}

void SocketConnection::MarkConnectedLocked() {
  state_ = State::kConnected;
  backoff_ms_ = backoff_min_ms_;
  reader_ = FrameReader();
  out_.clear();
  out_pos_ = 0;
  want_write_ = false;
  epoch_.fetch_add(1);
  connected_.store(true);
  std::lock_guard<std::mutex> guard(wait_mu_);
  wait_cv_.notify_all();
}

void SocketConnection::CloseLocked() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  state_ = State::kDisconnected;
  connected_.store(false);
  out_.clear();
  out_pos_ = 0;
  want_write_ = false;
  reader_ = FrameReader();
}

void SocketReactor::Loop() {
  {
    std::lock_guard<std::mutex> guard(pipe_mu_);
    if (pipe(wake_pipe_) != 0) {
      wake_pipe_[0] = wake_pipe_[1] = -1;
    } else {
      SetNonBlocking(wake_pipe_[0]);
      SetNonBlocking(wake_pipe_[1]);
    }
  }
  for (;;) {
    HandleStops();
    std::vector<std::shared_ptr<SocketConnection>> snapshot;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (stop_) break;
      snapshot = conns_;
    }
    // Dial whatever is due.
    const auto now = Clock::now();
    for (auto& c : snapshot) {
      if (c->stopped_) continue;
      std::unique_lock<std::mutex> lock(c->send_mu_);
      if (c->state_ == SocketConnection::State::kDisconnected &&
          now >= c->next_attempt_) {
        lock.unlock();
        StartConnect(c.get());
      }
    }
    // Build the poll set.
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<SocketConnection>> owners;
    {
      std::lock_guard<std::mutex> guard(pipe_mu_);
      if (wake_pipe_[0] >= 0) {
        fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
        owners.push_back(nullptr);
      }
    }
    for (auto& c : snapshot) {
      if (c->stopped_) continue;
      std::lock_guard<std::mutex> guard(c->send_mu_);
      if (c->fd_ < 0) continue;
      short events = 0;
      if (c->state_ == SocketConnection::State::kConnecting) {
        events = POLLOUT;
      } else if (c->state_ == SocketConnection::State::kConnected) {
        events = POLLIN;
        if (c->want_write_) events |= POLLOUT;
      }
      if (events == 0) continue;
      fds.push_back(pollfd{c->fd_, events, 0});
      owners.push_back(c);
    }
    poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (!owners[i]) {  // wake pipe
        char buf[64];
        while (read(fds[i].fd, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      SocketConnection* c = owners[i].get();
      if (c->stopped_) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (c->state_ == SocketConnection::State::kConnecting) {
          FinishConnect(c);  // harvests the error, arms the redial
        } else {
          Disconnect(c);
        }
        continue;
      }
      if (fds[i].revents & POLLOUT) {
        if (c->state_ == SocketConnection::State::kConnecting) {
          FinishConnect(c);
        } else {
          WriteReady(c);
        }
      }
      if (fds[i].revents & POLLIN) ReadReady(owners[i]);
    }
  }
  // Shutdown: close everything on this thread.
  std::vector<std::shared_ptr<SocketConnection>> all;
  {
    std::lock_guard<std::mutex> guard(mu_);
    all = conns_;
    conns_.clear();
    all.insert(all.end(), pending_stop_.begin(), pending_stop_.end());
    pending_stop_.clear();
  }
  for (auto& c : all) {
    std::lock_guard<std::mutex> guard(c->send_mu_);
    c->stopped_ = true;
    c->CloseLocked();
  }
  std::lock_guard<std::mutex> guard(pipe_mu_);
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

void SocketReactor::HandleStops() {
  std::vector<std::shared_ptr<SocketConnection>> stops;
  {
    std::lock_guard<std::mutex> guard(mu_);
    stops.swap(pending_stop_);
    if (!stops.empty()) {
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [&](const auto& c) {
                                    return std::find(stops.begin(),
                                                     stops.end(),
                                                     c) != stops.end();
                                  }),
                   conns_.end());
    }
  }
  for (auto& c : stops) {
    std::lock_guard<std::mutex> guard(c->send_mu_);
    c->stopped_ = true;
    c->CloseLocked();
  }
}

void SocketReactor::StartConnect(SocketConnection* c) {
  sockaddr_in addr;
  const SocketEndpoint& target = c->endpoints_[c->active_];
  if (!ResolveV4(target.host, target.port, &addr)) {
    std::lock_guard<std::mutex> guard(c->send_mu_);
    if (c->endpoints_.size() > 1) {
      c->ArmRedialLocked();  // a bad alternate just rotates past
    } else {
      c->next_attempt_ = Clock::now() + std::chrono::hours(24);  // hopeless
    }
    return;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 || !SetNonBlocking(fd)) {
    if (fd >= 0) close(fd);
    Disconnect(c);
    return;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc =
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  std::lock_guard<std::mutex> guard(c->send_mu_);
  if (c->stopped_) {
    close(fd);
    return;
  }
  c->fd_ = fd;
  if (rc == 0) {
    c->MarkConnectedLocked();
  } else if (errno == EINPROGRESS) {
    c->state_ = SocketConnection::State::kConnecting;
  } else {
    c->CloseLocked();
    c->ArmRedialLocked();
  }
}

void SocketReactor::FinishConnect(SocketConnection* c) {
  std::lock_guard<std::mutex> guard(c->send_mu_);
  if (c->fd_ < 0) return;
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(c->fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    c->CloseLocked();
    c->ArmRedialLocked();
    return;
  }
  c->MarkConnectedLocked();
}

void SocketReactor::Disconnect(SocketConnection* c) {
  std::lock_guard<std::mutex> guard(c->send_mu_);
  c->CloseLocked();
  c->ArmRedialLocked();
}

void SocketReactor::ReadReady(const std::shared_ptr<SocketConnection>& c) {
  // Frames are decoded and dispatched OUTSIDE the send lock: handlers
  // take TC locks and may trigger sends from other threads.
  char buf[64 * 1024];
  bool drop = false;
  for (;;) {
    ssize_t n;
    {
      std::lock_guard<std::mutex> guard(c->send_mu_);
      if (c->fd_ < 0 || c->state_ != SocketConnection::State::kConnected) {
        return;
      }
      n = read(c->fd_, buf, sizeof(buf));
    }
    if (n > 0) {
      c->reader_.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    drop = true;  // EOF or hard error
    break;
  }
  // Dispatch every complete frame already buffered — including ones the
  // final read before an EOF/error delivered (e.g. replies the server
  // flushed just before closing) — THEN act on the drop. Discarding them
  // would turn a clean close into needless resend retries.
  uint8_t kind = 0;
  std::string body;
  for (;;) {
    const FrameDecode d = c->reader_.Next(&kind, &body);
    if (d == FrameDecode::kOk) {
      c->DispatchFrame(kind, body);
      continue;
    }
    if (d == FrameDecode::kCorrupt) drop = true;  // poisoned stream
    break;
  }
  if (drop) Disconnect(c.get());
}

void SocketReactor::WriteReady(SocketConnection* c) {
  std::lock_guard<std::mutex> guard(c->send_mu_);
  if (c->fd_ < 0 || c->state_ != SocketConnection::State::kConnected) return;
  while (c->out_pos_ < c->out_.size()) {
    const ssize_t n = ::send(c->fd_, c->out_.data() + c->out_pos_,
                             c->out_.size() - c->out_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_pos_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    return;  // error surfaces via POLLERR / read EOF
  }
  c->out_.clear();
  c->out_pos_ = 0;
  c->want_write_ = false;
}

}  // namespace internal

// ---- SocketDcClient ----------------------------------------------------------

SocketDcClient::SocketDcClient(
    std::shared_ptr<internal::SocketConnection> conn,
    const CoalesceOptions& coalesce)
    : conn_(std::move(conn)),
      coalescer_(coalesce,
                 [this](const std::vector<OperationRequest>& batch) {
                   SendOperationBatch(batch);
                 }) {
  conn_->set_frame_handler([this](uint8_t kind, const std::string& body) {
    OnFrame(kind, body);
  });
}

SocketDcClient::~SocketDcClient() { Stop(); }

void SocketDcClient::Start() { coalescer_.Start(); }
void SocketDcClient::Stop() { coalescer_.Stop(); }

void SocketDcClient::SendFrame(uint8_t kind, const std::string& body) {
  request_messages_.fetch_add(1);
  if (!conn_->Send(EncodeFrame(kind, body))) {
    dropped_sends_.fetch_add(1);
  }
}

void SocketDcClient::SendOperation(const OperationRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  op_messages_.fetch_add(1);
  ops_carried_.fetch_add(1);
  SendFrame(static_cast<uint8_t>(MessageKind::kOperationRequest), body);
}

void SocketDcClient::SendOperationBatch(
    const std::vector<OperationRequest>& reqs) {
  if (reqs.empty()) return;
  OperationBatch batch;
  batch.ops = reqs;
  std::string body;
  batch.EncodeTo(&body);
  op_messages_.fetch_add(1);
  ops_carried_.fetch_add(reqs.size());
  uint64_t promotes = 0;
  for (const auto& req : reqs) {
    if (req.op == OpType::kPromoteVersion) ++promotes;
  }
  if (promotes > 0) {
    promote_messages_.fetch_add(1);
    promote_ops_carried_.fetch_add(promotes);
  }
  SendFrame(static_cast<uint8_t>(MessageKind::kOperationBatch), body);
}

void SocketDcClient::SendControl(const ControlRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  SendFrame(static_cast<uint8_t>(MessageKind::kControlRequest), body);
}

void SocketDcClient::SendScanStream(const ScanStreamRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  scan_messages_.fetch_add(1);
  SendFrame(static_cast<uint8_t>(MessageKind::kScanStreamRequest), body);
}

void SocketDcClient::SendScanCredit(const ScanCreditRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  scan_credit_messages_.fetch_add(1);
  SendFrame(static_cast<uint8_t>(MessageKind::kScanCredit), body);
}

void SocketDcClient::QueueOperation(const OperationRequest& req) {
  coalescer_.Queue(req);
}

void SocketDcClient::FlushOperations() { coalescer_.Flush(); }

void SocketDcClient::OnFrame(uint8_t raw_kind, const std::string& body) {
  Slice input(body);
  switch (static_cast<MessageKind>(raw_kind)) {
    case MessageKind::kOperationReply: {
      OperationReply reply;
      if (OperationReply::DecodeFrom(&input, &reply) && op_handler_) {
        op_handler_(std::move(reply));
      }
      break;
    }
    case MessageKind::kOperationBatchReply: {
      OperationBatchReply batch;
      if (OperationBatchReply::DecodeFrom(&input, &batch) && op_handler_) {
        for (auto& reply : batch.replies) op_handler_(std::move(reply));
      }
      break;
    }
    case MessageKind::kScanStreamChunk: {
      ScanStreamChunk chunk;
      if (ScanStreamChunk::DecodeFrom(&input, &chunk)) {
        scan_chunks_.fetch_add(1);
        scan_rows_carried_.fetch_add(chunk.keys.size());
        if (scan_chunk_handler_) scan_chunk_handler_(chunk);
      }
      break;
    }
    case MessageKind::kControlReply: {
      ControlReply reply;
      if (ControlReply::DecodeFrom(&input, &reply) && control_handler_) {
        control_handler_(reply);
      }
      break;
    }
    default:
      break;  // requests never arrive on the client side
  }
}

void SocketDcClient::AddWireStats(WireTotals* totals) const {
  totals->request_messages += request_messages_.load();
  totals->op_messages += op_messages_.load();
  totals->ops_carried += ops_carried_.load();
  totals->scan_messages += scan_messages_.load();
  totals->scan_rows_carried += scan_rows_carried_.load();
  totals->scan_credit_messages += scan_credit_messages_.load();
  totals->promote_messages += promote_messages_.load();
  totals->promote_ops_carried += promote_ops_carried_.load();
}

// ---- SocketBoundTransport ----------------------------------------------------

SocketBoundTransport::SocketBoundTransport(
    std::shared_ptr<internal::SocketReactor> reactor,
    std::shared_ptr<internal::SocketConnection> conn,
    const SocketTransportOptions& options)
    : reactor_(std::move(reactor)),
      conn_(std::move(conn)),
      client_(conn_, options.coalesce),
      connect_timeout_ms_(options.connect_timeout_ms) {}

SocketBoundTransport::~SocketBoundTransport() { Stop(); }

DcClient* SocketBoundTransport::client() { return &client_; }

void SocketBoundTransport::AddWireStats(WireTotals* totals) const {
  client_.AddWireStats(totals);
}

void SocketBoundTransport::Start() {
  client_.Start();
  reactor_->Register(conn_);
  // Give the first dial a beat so the TC's initial announcements are
  // not pointlessly dropped; a down DC just hands over to the redialer.
  conn_->WaitConnected(connect_timeout_ms_);
}

void SocketBoundTransport::Stop() {
  client_.Stop();
  reactor_->Deregister(conn_);
  // Deregister only QUEUES the teardown; the reactor thread may still be
  // mid-ReadReady dispatching into client_. Clearing the handler is the
  // synchronous barrier (it blocks on handler_mu_ until any in-flight
  // dispatch returns), after which destroying client_ is safe.
  conn_->set_frame_handler(nullptr);
}

bool SocketBoundTransport::connected() const { return conn_->connected(); }

uint64_t SocketBoundTransport::connect_epoch() const {
  return conn_->connect_epoch();
}

bool SocketBoundTransport::WaitConnected(uint32_t timeout_ms) const {
  return conn_->WaitConnected(timeout_ms);
}

// ---- SocketTransportFactory --------------------------------------------------

SocketTransportFactory::SocketTransportFactory(
    std::map<DcId, std::vector<SocketEndpoint>> targets,
    SocketTransportOptions options)
    : targets_(std::move(targets)),
      options_(options),
      reactor_(std::make_shared<internal::SocketReactor>()) {}

SocketTransportFactory::~SocketTransportFactory() { reactor_->Stop(); }

std::unique_ptr<BoundTransport> SocketTransportFactory::Bind(
    TcId /*tc*/, DcId dc, DataComponent* /*target*/) {
  auto it = targets_.find(dc);
  std::vector<SocketEndpoint> endpoints =
      it == targets_.end() ? std::vector<SocketEndpoint>{} : it->second;
  auto conn = std::make_shared<internal::SocketConnection>(
      std::move(endpoints), options_,
      std::weak_ptr<internal::SocketReactor>(reactor_));
  return std::make_unique<SocketBoundTransport>(reactor_, conn, options_);
}

std::shared_ptr<TransportFactory> MakeSocketTransportFactory(
    std::map<DcId, SocketEndpoint> targets, SocketTransportOptions options) {
  std::map<DcId, std::vector<SocketEndpoint>> multi;
  for (auto& [dc, endpoint] : targets) multi[dc] = {endpoint};
  return std::make_shared<SocketTransportFactory>(std::move(multi), options);
}

std::shared_ptr<TransportFactory> MakeSocketTransportFactory(
    std::map<DcId, std::vector<SocketEndpoint>> targets,
    SocketTransportOptions options) {
  return std::make_shared<SocketTransportFactory>(std::move(targets),
                                                  options);
}

}  // namespace untx
