#include "kernel/channel_transport.h"

#include <algorithm>
#include <chrono>

namespace untx {

ChannelTransport::ChannelTransport(DataComponent* dc,
                                   ChannelTransportOptions options)
    : dc_(dc),
      options_(options),
      request_ch_(options.request_channel),
      reply_ch_(options.reply_channel),
      client_(this),
      coalescer_(options.coalesce,
                 [this](const std::vector<OperationRequest>& batch) {
                   client_.SendOperationBatch(batch);
                 }) {}

ChannelTransport::~ChannelTransport() { Stop(); }

void ChannelTransport::Start() {
  stop_.store(false);
  for (int i = 0; i < options_.server_threads; ++i) {
    servers_.emplace_back([this] { ServerLoop(); });
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  coalescer_.Start();
}

void ChannelTransport::Stop() {
  stop_.store(true);
  coalescer_.Stop();
  for (auto& t : servers_) {
    if (t.joinable()) t.join();
  }
  servers_.clear();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void ChannelTransport::OnDcCrash() { request_ch_.Clear(); }

void ChannelTransport::Client::SendOperation(const OperationRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  transport_->op_messages_.fetch_add(1);
  transport_->ops_carried_.fetch_add(1);
  transport_->request_ch_.Send(
      WrapMessage(MessageKind::kOperationRequest, body));
}

void ChannelTransport::Client::SendOperationBatch(
    const std::vector<OperationRequest>& reqs) {
  if (reqs.empty()) return;
  OperationBatch batch;
  batch.ops = reqs;
  std::string body;
  batch.EncodeTo(&body);
  transport_->op_messages_.fetch_add(1);
  transport_->ops_carried_.fetch_add(reqs.size());
  uint64_t promotes = 0;
  for (const auto& req : reqs) {
    if (req.op == OpType::kPromoteVersion) ++promotes;
  }
  if (promotes > 0) {
    transport_->promote_messages_.fetch_add(1);
    transport_->promote_ops_carried_.fetch_add(promotes);
  }
  transport_->request_ch_.Send(
      WrapMessage(MessageKind::kOperationBatch, body));
}

void ChannelTransport::Client::SendScanStream(const ScanStreamRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  transport_->scan_messages_.fetch_add(1);
  transport_->request_ch_.Send(
      WrapMessage(MessageKind::kScanStreamRequest, body));
}

void ChannelTransport::Client::SendScanCredit(const ScanCreditRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  transport_->scan_credit_messages_.fetch_add(1);
  transport_->request_ch_.Send(WrapMessage(MessageKind::kScanCredit, body));
}

void ChannelTransport::Client::QueueOperation(const OperationRequest& req) {
  transport_->coalescer_.Queue(req);
}

void ChannelTransport::Client::FlushOperations() {
  transport_->coalescer_.Flush();
}

void ChannelTransport::Client::SendControl(const ControlRequest& req) {
  std::string body;
  req.EncodeTo(&body);
  transport_->request_ch_.Send(
      WrapMessage(MessageKind::kControlRequest, body));
}

void ChannelTransport::EmitChunk(const ScanStreamChunk& chunk) {
  // A crashed DC sends nothing; the TC restarts the stream.
  if (chunk.status.IsCrashed()) return;
  std::string out;
  chunk.EncodeTo(&out);
  std::string wire = WrapMessage(MessageKind::kScanStreamChunk, out);
  // Account the chunk's residency in the reply channel: incremented at
  // send, decremented when the dispatcher pulls it off. The high-water
  // mark is the memory bound the credit window is supposed to enforce.
  const uint64_t size = wire.size();
  const uint64_t now = queued_scan_bytes_.fetch_add(size) + size;
  uint64_t seen = max_queued_scan_bytes_.load();
  while (now > seen &&
         !max_queued_scan_bytes_.compare_exchange_weak(seen, now)) {
  }
  reply_ch_.Send(std::move(wire));
}

void ChannelTransport::ServerLoop() {
  std::string wire;
  while (!stop_.load()) {
    if (!request_ch_.Receive(&wire, 20)) continue;
    MessageKind kind;
    Slice body;
    if (!UnwrapMessage(wire, &kind, &body)) continue;
    // One consistent backend per message (Retarget may swap it between
    // messages during a failover).
    DataComponent* dc = dc_.load();
    if (kind == MessageKind::kOperationRequest) {
      OperationRequest req;
      if (!OperationRequest::DecodeFrom(&body, &req)) continue;
      OperationReply reply = dc->Perform(req);
      // A crashed DC sends nothing — its reply dies with it.
      if (reply.status.IsCrashed()) continue;
      std::string out;
      reply.EncodeTo(&out);
      reply_ch_.Send(WrapMessage(MessageKind::kOperationReply, out));
    } else if (kind == MessageKind::kOperationBatch) {
      OperationBatch batch;
      if (!OperationBatch::DecodeFrom(&body, &batch)) continue;
      std::vector<OperationReply> replies = dc->PerformBatch(batch.ops);
      // A crashed DC sends nothing per op; suppress those replies and the
      // whole message if none survive.
      OperationBatchReply batch_reply;
      for (auto& reply : replies) {
        if (reply.status.IsCrashed()) continue;
        batch_reply.replies.push_back(std::move(reply));
      }
      if (batch_reply.replies.empty()) continue;
      std::string out;
      batch_reply.EncodeTo(&out);
      reply_ch_.Send(WrapMessage(MessageKind::kOperationBatchReply, out));
    } else if (kind == MessageKind::kScanStreamRequest) {
      ScanStreamRequest req;
      if (!ScanStreamRequest::DecodeFrom(&body, &req)) continue;
      dc->PerformScanStream(
          req, [this](const ScanStreamChunk& chunk) { EmitChunk(chunk); });
    } else if (kind == MessageKind::kScanCredit) {
      ScanCreditRequest req;
      if (!ScanCreditRequest::DecodeFrom(&body, &req)) continue;
      dc->ScanCredit(
          req, [this](const ScanStreamChunk& chunk) { EmitChunk(chunk); });
    } else if (kind == MessageKind::kControlRequest) {
      ControlRequest req;
      if (!ControlRequest::DecodeFrom(&body, &req)) continue;
      ControlReply reply = dc->Control(req);
      if (reply.status.IsCrashed()) continue;
      std::string out;
      reply.EncodeTo(&out);
      reply_ch_.Send(WrapMessage(MessageKind::kControlReply, out));
    }
  }
}

void ChannelTransport::DispatchLoop() {
  std::string wire;
  while (!stop_.load()) {
    if (!reply_ch_.Receive(&wire, 20)) continue;
    MessageKind kind;
    Slice body;
    if (!UnwrapMessage(wire, &kind, &body)) continue;
    if (kind == MessageKind::kOperationReply) {
      OperationReply reply;
      if (!OperationReply::DecodeFrom(&body, &reply)) continue;
      if (client_.op_handler()) client_.op_handler()(reply);
    } else if (kind == MessageKind::kOperationBatchReply) {
      OperationBatchReply batch;
      if (!OperationBatchReply::DecodeFrom(&body, &batch)) continue;
      if (client_.op_handler()) {
        for (const auto& reply : batch.replies) client_.op_handler()(reply);
      }
    } else if (kind == MessageKind::kScanStreamChunk) {
      ScanStreamChunk chunk;
      if (!ScanStreamChunk::DecodeFrom(&body, &chunk)) continue;
      // Off the reply channel: release its queued-byte accounting. (A
      // duplicated chunk under-counts here and a dropped one never
      // arrives, so the residual can drift on lossy channels — the
      // high-water mark stays a conservative upper bound.)
      const uint64_t size = wire.size();
      uint64_t queued = queued_scan_bytes_.load();
      while (queued > 0 &&
             !queued_scan_bytes_.compare_exchange_weak(
                 queued, queued >= size ? queued - size : 0)) {
      }
      scan_chunks_.fetch_add(1);
      scan_rows_carried_.fetch_add(chunk.keys.size());
      if (client_.scan_chunk_handler()) client_.scan_chunk_handler()(chunk);
    } else if (kind == MessageKind::kControlReply) {
      ControlReply reply;
      if (!ControlReply::DecodeFrom(&body, &reply)) continue;
      if (client_.control_handler()) client_.control_handler()(reply);
    }
  }
}

}  // namespace untx
