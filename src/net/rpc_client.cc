#include "net/rpc_client.h"

#include <utility>

#include "common/clock.h"
#include "net/socket_io.h"

namespace gdpr::net {

namespace {

Status Unreachable(const std::string& label, const Status& cause) {
  std::string msg = "node unreachable";
  if (!label.empty()) msg += " (" + label + ")";
  if (!cause.message().empty()) msg += ": " + cause.message();
  return Status::Unavailable(std::move(msg));
}

}  // namespace

RemoteHandle::RemoteHandle(int fd, RemoteHandleOptions opts)
    : fd_(fd), opts_(std::move(opts)) {
  if (opts_.metrics) {
    rpc_us_ = opts_.metrics->GetHistogram("cluster_rpc_us{node=\"" +
                                          opts_.node_label + "\"}");
    rpc_bytes_ = opts_.metrics->GetCounter("cluster_rpc_bytes_total");
    reconnects_ = opts_.metrics->GetCounter("cluster_rpc_reconnects_total");
  }
}

RemoteHandle::~RemoteHandle() {
  std::lock_guard<std::mutex> lock(mu_);
  DropConnLocked();
}

void RemoteHandle::DropConnLocked() {
  CloseFd(fd_);
  fd_ = -1;
  buf_ = FrameBuffer{};  // a fresh connection starts at a frame boundary
}

Status RemoteHandle::EnsureConnectedLocked() {
  if (fd_ >= 0) return Status::OK();
  int fd = -1;
  std::string err = "no reconnect path configured";
  if (opts_.reconnect_fn) {
    fd = opts_.reconnect_fn();
    if (fd < 0) err = "reconnect callback failed";
  } else if (!opts_.dial_addr.empty()) {
    fd = Dial(opts_.dial_addr, opts_.timeout_ms, &err);
  }
  if (fd < 0) return Unreachable(opts_.node_label, Status::Unavailable(err));
  fd_ = fd;
  if (reconnects_) reconnects_->Add(1);
  return Status::OK();
}

Status RemoteHandle::Call(const WireRequest& req, WireResponse* resp) {
  std::lock_guard<std::mutex> lock(mu_);
  // RPC latency is wall time regardless of the store's (possibly
  // simulated) clock — and reading a real clock here keeps transport
  // metrics from perturbing deterministic simulated-time tests.
  obs::ScopedTimer timer(rpc_us_, RealClock::Default());
  Status s = EnsureConnectedLocked();
  if (!s.ok()) return s;
  const std::string frame = Frame(EncodeRequest(req));
  std::string payload;
  s = WriteAll(fd_, frame, opts_.timeout_ms);
  if (s.ok()) s = ReadFrame(fd_, &buf_, &payload, opts_.timeout_ms);
  if (!s.ok()) {
    // Timeout, peer death, or an unframeable stream: either way this
    // connection's byte position can no longer be trusted.
    DropConnLocked();
    return s.IsDataLoss() ? s : Unreachable(opts_.node_label, s);
  }
  if (rpc_bytes_) rpc_bytes_->Add(frame.size() + payload.size());
  s = DecodeResponse(payload, resp);
  if (s.ok() && resp->op != req.op) {
    // A stray or reordered frame — single in-flight request means the
    // stream is corrupt, not merely slow.
    s = Status::DataLoss("rpc response op mismatch: sent " +
                         std::string(WireOpName(req.op)) + ", got " +
                         WireOpName(resp->op));
  }
  if (!s.ok()) DropConnLocked();
  return s;
}

StatusOr<WireResponse> RemoteHandle::Ask(const WireRequest& req) {
  WireResponse resp;
  Status s = Call(req, &resp);
  if (s.ok()) s = resp.status;
  if (!s.ok()) return s;
  return resp;
}

WireRequest RemoteHandle::Req(WireOp op, const Actor& actor,
                              const std::string& key) {
  WireRequest req;
  req.op = op;
  req.actor = actor;
  req.key = key;
  return req;
}

WireRequest RemoteHandle::SlotReq(WireOp op, uint32_t slot,
                                  uint32_t num_slots) {
  WireRequest req = Req(op);
  req.slot = slot;
  req.num_slots = num_slots;
  return req;
}

Status RemoteHandle::ScanRecords(const Actor& actor, const ScanFn& fn) {
  WireResponse resp;
  Status s = Call(Req(WireOp::kScanRecords, actor), &resp);
  if (!s.ok()) return s;
  // Replay the callback over the shipped record set. The remote scan has
  // already completed in full; an early stop here only stops the replay,
  // which matches the router's "stop feeding the callback" semantics. The
  // op status (a DataLoss partial-scan verdict, say) rides alongside.
  for (const GdprRecord& rec : resp.records) {
    if (!fn(rec)) break;
  }
  return resp.status;
}

HealthState RemoteHandle::GetHealth() {
  WireResponse resp;
  // Unreachable != data lost: the node may be fine behind a dead link.
  // Degraded is the conservative report that keeps reads routing around it
  // without declaring its state unrecoverable.
  const bool reached = Call(Req(WireOp::kHealth), &resp).ok();
  return reached ? resp.health : HealthState::kDegradedReadOnly;
}

Status RemoteHandle::GetHealthCause() {
  WireResponse resp;
  Status s = Call(Req(WireOp::kHealth), &resp);
  return s.ok() ? resp.health_cause : s;
}

StatusOr<AuditChainVerdict> RemoteHandle::VerifyAuditChain() {
  WireResponse resp;
  Status s = Call(Req(WireOp::kVerifyAuditChain), &resp);
  if (!s.ok()) return s;
  return AuditChainVerdict{resp.flag, std::move(resp.head_hash)};
}

void RemoteHandle::InjectDisconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  DropConnLocked();
}

}  // namespace gdpr::net
