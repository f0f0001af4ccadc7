// ChannelTransport: the "cloud" binding of the TC:DC interface — a pair
// of simulated message channels plus DC server threads and a TC-side
// reply dispatcher. Message loss, duplication and reordering on either
// channel exercise the §4.2 interaction contracts end to end.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dc/data_component.h"
#include "kernel/op_coalescer.h"
#include "net/sim_channel.h"
#include "tc/dc_client.h"

namespace untx {

struct ChannelTransportOptions {
  ChannelOptions request_channel;
  ChannelOptions reply_channel;
  int server_threads = 2;
  /// Queued (pipelined) operations coalesce into one kOperationBatch
  /// message — the same coalescer config the socket binding takes.
  CoalesceOptions coalesce;
};

/// Owns the channels and threads binding one TC to one DC.
class ChannelTransport {
 public:
  ChannelTransport(DataComponent* dc, ChannelTransportOptions options);
  ~ChannelTransport();

  DcClient* client() { return &client_; }

  void Start();
  void Stop();

  /// Drops all in-flight requests (the DC crashed; its inbox dies with
  /// it). Replies already on the wire still arrive.
  void OnDcCrash();

  /// Points the server side at a different DC — hot-standby failover:
  /// the binding (channels, threads, stats) survives, the backend swaps.
  void Retarget(DataComponent* dc) { dc_.store(dc); }

  const SimChannel& request_channel() const { return request_ch_; }
  const SimChannel& reply_channel() const { return reply_ch_; }

  /// Operation-carrying request messages sent (kOperationRequest +
  /// kOperationBatch) — excludes control traffic, so msgs/txn is
  /// comparable against ops/txn.
  uint64_t op_messages() const { return op_messages_.load(); }
  /// Operations those messages carried; batching makes this exceed
  /// op_messages().
  uint64_t ops_carried() const { return ops_carried_.load(); }
  /// Scan-stream request messages sent — ONE per stream (attempt),
  /// however many windows it spans.
  uint64_t scan_messages() const { return scan_messages_.load(); }
  /// Chunk replies received and the rows they carried.
  uint64_t scan_chunks() const { return scan_chunks_.load(); }
  uint64_t scan_rows_carried() const { return scan_rows_carried_.load(); }
  /// kScanCredit messages sent (flow-control replenish, validated-window
  /// rewinds and close notices).
  uint64_t scan_credit_messages() const {
    return scan_credit_messages_.load();
  }
  /// High-water mark of scan-chunk bytes resident in the reply channel —
  /// the memory a scan can pin there. The credit window bounds this by
  /// credit_chunks × chunk size no matter how large the scan. (A dropped
  /// chunk reply is never decremented, so the mark is conservative on
  /// lossy channels.)
  uint64_t max_queued_scan_bytes() const {
    return max_queued_scan_bytes_.load();
  }
  /// Request messages carrying kPromoteVersion ops and the promote ops
  /// they carried — a K-key versioned commit should cost
  /// ceil(K / promote_batch_ops) messages, not K.
  uint64_t promote_messages() const { return promote_messages_.load(); }
  uint64_t promote_ops_carried() const {
    return promote_ops_carried_.load();
  }
  /// Coalescer flush reasons (diagnostics for tuning).
  uint64_t coalesce_idle_flushes() const { return coalescer_.idle_flushes(); }
  uint64_t coalesce_deadline_flushes() const {
    return coalescer_.deadline_flushes();
  }

  const ChannelTransportOptions& options() const { return options_; }

 private:
  class Client : public DcClient {
   public:
    explicit Client(ChannelTransport* transport) : transport_(transport) {}
    void SendOperation(const OperationRequest& req) override;
    void SendControl(const ControlRequest& req) override;
    void SendOperationBatch(
        const std::vector<OperationRequest>& reqs) override;
    void SendScanStream(const ScanStreamRequest& req) override;
    void SendScanCredit(const ScanCreditRequest& req) override;
    /// Coalesces queued ops bound for this DC into one channel message.
    void QueueOperation(const OperationRequest& req) override;
    void FlushOperations() override;
    const DcClient::OpReplyHandler& op_handler() const { return op_handler_; }
    const DcClient::ControlReplyHandler& control_handler() const {
      return control_handler_;
    }
    const DcClient::ScanChunkHandler& scan_chunk_handler() const {
      return scan_chunk_handler_;
    }

   private:
    ChannelTransport* transport_;
  };

  void ServerLoop();
  void DispatchLoop();
  /// Sends one scan chunk on the reply channel with queued-byte
  /// accounting (suppressed for a crashed DC).
  void EmitChunk(const ScanStreamChunk& chunk);

  /// Atomic: server threads read it per message; Retarget (failover)
  /// swaps it while they run.
  std::atomic<DataComponent*> dc_;
  ChannelTransportOptions options_;
  SimChannel request_ch_;
  SimChannel reply_ch_;
  Client client_;
  /// Client-side batch coalescing, shared with the socket transport.
  OpCoalescer coalescer_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> servers_;
  std::thread dispatcher_;
  std::atomic<uint64_t> op_messages_{0};
  std::atomic<uint64_t> ops_carried_{0};
  std::atomic<uint64_t> scan_messages_{0};
  std::atomic<uint64_t> scan_chunks_{0};
  std::atomic<uint64_t> scan_rows_carried_{0};
  std::atomic<uint64_t> scan_credit_messages_{0};
  std::atomic<uint64_t> queued_scan_bytes_{0};
  std::atomic<uint64_t> max_queued_scan_bytes_{0};
  std::atomic<uint64_t> promote_messages_{0};
  std::atomic<uint64_t> promote_ops_carried_{0};
};

}  // namespace untx
