// DcClient: the TC's asynchronous view of one DC (§4.2.1: "we expect that
// in a cloud environment asynchronous messages might be used ... while
// signals and shared variables might be more suited for a multi-core
// design"). Two implementations:
//   * DirectDcClient (here)    — shared-memory call path, multi-core style;
//   * ChannelDcClient (kernel) — SimChannel pair with server/dispatcher
//     threads, cloud style.
#pragma once

#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "dc/dc_api.h"

namespace untx {

class DcClient {
 public:
  /// Takes the reply by value: a client hands over the reply it decoded
  /// or received with std::move, and the TC keeps it without a copy.
  using OpReplyHandler = std::function<void(OperationReply)>;
  using ControlReplyHandler = std::function<void(const ControlReply&)>;
  using ScanChunkHandler = std::function<void(const ScanStreamChunk&)>;

  virtual ~DcClient() = default;

  /// Fire-and-forget sends; replies arrive via the registered handlers
  /// (possibly on the calling thread for direct clients).
  virtual void SendOperation(const OperationRequest& req) = 0;
  virtual void SendControl(const ControlRequest& req) = 0;

  /// Opens a streamed scan: ONE request message, chunked replies through
  /// the scan-chunk handler (§3.1 — a scan of W windows stops costing W
  /// blocking round trips). Transports without a wire run the stream
  /// inline on the calling thread.
  virtual void SendScanStream(const ScanStreamRequest& req) = 0;

  /// Raises / rewinds / closes the chunk window of an open credited
  /// stream (flow control: the DC pauses when the window is exhausted,
  /// bounding reply-channel memory). Fire-and-forget; losses are
  /// recovered by the TC's credit resend + stream restart discipline.
  virtual void SendScanCredit(const ScanCreditRequest& req) = 0;

  /// Sends several operations as ONE message where the transport supports
  /// it. Default: degrade to per-op sends.
  virtual void SendOperationBatch(const std::vector<OperationRequest>& reqs) {
    for (const auto& req : reqs) SendOperation(req);
  }

  /// Pipelining surface. QueueOperation enqueues an op for coalesced
  /// delivery; FlushOperations pushes everything queued onto the wire as
  /// one batch. A transport with no per-message cost (direct call path)
  /// dispatches inline and flush is a no-op.
  virtual void QueueOperation(const OperationRequest& req) {
    SendOperation(req);
  }
  virtual void FlushOperations() {}

  void set_op_reply_handler(OpReplyHandler h) { op_handler_ = std::move(h); }
  void set_control_reply_handler(ControlReplyHandler h) {
    control_handler_ = std::move(h);
  }
  void set_scan_chunk_handler(ScanChunkHandler h) {
    scan_chunk_handler_ = std::move(h);
  }

 protected:
  OpReplyHandler op_handler_;
  ControlReplyHandler control_handler_;
  ScanChunkHandler scan_chunk_handler_;
};

/// In-process synchronous binding: the "multi-core" deployment where TC
/// and DC share an address space and the interface is a function call.
class DirectDcClient : public DcClient {
 public:
  explicit DirectDcClient(DcService* dc) : dc_(dc) {}

  /// Swaps the backend (hot-standby failover): subsequent sends hit the
  /// promoted DC. Atomic — resend daemons may be mid-send.
  void set_target(DcService* dc) { dc_.store(dc); }

  void SendOperation(const OperationRequest& req) override {
    OperationReply reply = dc_.load()->Perform(req);
    // A crashed DC produced no reply; the resend daemon will retry.
    if (!reply.status.IsCrashed() && op_handler_) {
      op_handler_(std::move(reply));
    }
  }

  void SendOperationBatch(
      const std::vector<OperationRequest>& reqs) override {
    std::vector<OperationReply> replies = dc_.load()->PerformBatch(reqs);
    for (auto& reply : replies) {
      if (!reply.status.IsCrashed() && op_handler_) {
        op_handler_(std::move(reply));
      }
    }
  }

  void SendControl(const ControlRequest& req) override {
    ControlReply reply = dc_.load()->Control(req);
    if (!reply.status.IsCrashed() && control_handler_) {
      control_handler_(reply);
    }
  }

  void SendScanStream(const ScanStreamRequest& req) override {
    dc_.load()->PerformScanStream(req, [this](const ScanStreamChunk& chunk) {
      // A crashed DC produces no chunks; the TC's restart loop retries.
      if (!chunk.status.IsCrashed() && scan_chunk_handler_) {
        scan_chunk_handler_(chunk);
      }
    });
  }

  void SendScanCredit(const ScanCreditRequest& req) override {
    // Inline resume: the paused cursor produces its next chunks on the
    // calling thread, straight into the chunk handler.
    dc_.load()->ScanCredit(req, [this](const ScanStreamChunk& chunk) {
      if (!chunk.status.IsCrashed() && scan_chunk_handler_) {
        scan_chunk_handler_(chunk);
      }
    });
  }

 private:
  std::atomic<DcService*> dc_;
};

}  // namespace untx
