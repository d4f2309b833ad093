// RemoteHandle: the framed-socket NodeHandle. One connection per handle,
// serialized by a mutex (the router's fan-out runs one sub-query per node
// at a time, so a single in-flight request per node is the natural shape).
//
// Failure model:
//   * Every request runs under a per-request poll timeout. A node that
//     stops answering surfaces Unavailable — the same code a degraded
//     store's own refusals use — so the router's existing merge logic
//     (skip Unavailable parts, name failed nodes in Forget) covers dead
//     transports with no new cases.
//   * An I/O failure marks the connection dead; the NEXT call re-dials
//     (dial_addr) or re-establishes through reconnect_fn (loopback). The
//     failing call itself is never retried: a mutation whose response was
//     lost may have applied, and blind replay would double-apply it.
//   * Statusless introspection (RecordCount, TotalBytes, compaction stats,
//     StatsSnapshot) degrades to zero/empty on an unreachable node;
//     GetHealth reports kDegradedReadOnly with an Unavailable cause.

#pragma once

#include <functional>
#include <mutex>
#include <string>

#include "net/node_handle.h"
#include "net/wire.h"

namespace gdpr::net {

struct RemoteHandleOptions {
  // Per-request budget covering write + server execution + response read.
  int timeout_ms = 10'000;
  // Reconnection: dial_addr (unix:/tcp:) or a callback producing a fresh
  // connected fd (-1 on failure) — e.g. RpcServer::CreateLoopbackConnection.
  // With neither, a dead connection stays dead.
  std::string dial_addr;
  std::function<int()> reconnect_fn;
  // Per-handle RPC metrics land here when set: cluster_rpc_us{node=label},
  // cluster_rpc_bytes_total, cluster_rpc_reconnects_total.
  obs::MetricsRegistry* metrics = nullptr;
  std::string node_label;
};

class RemoteHandle final : public NodeHandle {
 public:
  // fd: a connected socket, or -1 to connect lazily on first use.
  RemoteHandle(int fd, RemoteHandleOptions opts);
  ~RemoteHandle() override;

  RemoteHandle(const RemoteHandle&) = delete;
  RemoteHandle& operator=(const RemoteHandle&) = delete;

  // One round trip plus the op status: the response when both the
  // transport and the op succeeded, else the transport failure
  // (Unavailable, or DataLoss for a corrupt stream) or the node's Status.
  StatusOr<WireResponse> Ask(const WireRequest& req);

  // Severs the connection as if the peer died (tests: a killed node).
  void InjectDisconnect();

  Status Open() override { return Ask(Req(WireOp::kOpen)).status(); }
  Status Close() override { return Ask(Req(WireOp::kClose)).status(); }

  Status CreateRecord(const Actor& actor, const GdprRecord& record) override {
    WireRequest req = Req(WireOp::kCreateRecord, actor);
    req.record = record;
    return Ask(req).status();
  }
  StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                     const std::string& key) override {
    return Get<GdprRecord>(Req(WireOp::kReadData, actor, key), &R::record);
  }
  StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                           const std::string& key) override {
    return Get<GdprMetadata>(Req(WireOp::kReadMeta, actor, key), &R::metadata);
  }
  StatusOr<Records> ReadMetadataByUser(const Actor& actor,
                                       const std::string& user) override {
    return Get<Records>(Req(WireOp::kReadMetaUser, actor, user), &R::records);
  }
  StatusOr<Records> ReadMetadataByPurpose(
      const Actor& actor, const std::string& purpose) override {
    return Get<Records>(Req(WireOp::kReadMetaPurpose, actor, purpose),
                        &R::records);
  }
  StatusOr<Records> ReadMetadataBySharing(
      const Actor& actor, const std::string& third_party) override {
    return Get<Records>(Req(WireOp::kReadMetaSharing, actor, third_party),
                        &R::records);
  }
  StatusOr<Records> ReadRecordsByUser(const Actor& actor,
                                      const std::string& user) override {
    return Get<Records>(Req(WireOp::kReadRecordsUser, actor, user),
                        &R::records);
  }
  Status UpdateMetadataByKey(const Actor& actor, const std::string& key,
                             const MetadataUpdate& update) override {
    WireRequest req = Req(WireOp::kUpdateMeta, actor, key);
    req.update = update;
    return Ask(req).status();
  }
  Status UpdateDataByKey(const Actor& actor, const std::string& key,
                         const std::string& data) override {
    WireRequest req = Req(WireOp::kUpdateData, actor, key);
    req.data = data;
    return Ask(req).status();
  }
  Status DeleteRecordByKey(const Actor& actor,
                           const std::string& key) override {
    return Ask(Req(WireOp::kDeleteKey, actor, key)).status();
  }
  // The response frame only exists once the remote store call returned,
  // i.e. once its tombstones were decided durable, so a transport failure
  // (no frame) correctly reads as "erasure not acked on this node".
  StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                       const std::string& user) override {
    return Get<size_t>(Req(WireOp::kDeleteUser, actor, user), &R::count);
  }
  StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) override {
    return Get<size_t>(Req(WireOp::kDeleteExpired, actor), &R::count);
  }
  StatusOr<bool> VerifyDeletion(const Actor& actor,
                                const std::string& key) override {
    return Get<bool>(Req(WireOp::kVerifyDeletion, actor, key), &R::flag);
  }
  StatusOr<std::vector<AuditEntry>> GetSystemLogs(const Actor& actor,
                                                  int64_t from_micros,
                                                  int64_t to_micros) override {
    WireRequest req = Req(WireOp::kGetLogs, actor);
    req.from_micros = from_micros;
    req.to_micros = to_micros;
    return Get<std::vector<AuditEntry>>(req, &R::entries);
  }
  StatusOr<Features> GetFeatures(const Actor& actor) override {
    return Get<Features>(Req(WireOp::kGetFeatures, actor), &R::features);
  }
  Status ScanRecords(const Actor& actor, const ScanFn& fn) override;

  size_t RecordCount() override {
    return GetOr<size_t>(WireOp::kRecordCount, &R::count);
  }
  size_t TotalBytes() override {
    return GetOr<size_t>(WireOp::kTotalBytes, &R::count);
  }
  Status Reset() override { return Ask(Req(WireOp::kReset)).status(); }
  HealthState GetHealth() override;
  Status GetHealthCause() override;
  obs::RegistrySnapshot StatsSnapshot() override {
    return GetOr<obs::RegistrySnapshot>(WireOp::kStatsSnapshot, &R::snapshot);
  }

  StatusOr<CompactionStats> CompactNow(const Actor& actor) override {
    return Get<CompactionStats>(Req(WireOp::kCompactNow, actor), &R::stats);
  }
  CompactionStats GetCompactionStats() override {
    return GetOr<CompactionStats>(WireOp::kCompactionStats, &R::stats);
  }

  StatusOr<Records> ExportSlotRecords(uint32_t slot,
                                      uint32_t num_slots) override {
    return Get<Records>(SlotReq(WireOp::kExportRecords, slot, num_slots),
                        &R::records);
  }
  StatusOr<Keys> ExportSlotTombstones(uint32_t slot,
                                      uint32_t num_slots) override {
    return Get<Keys>(SlotReq(WireOp::kExportTombstones, slot, num_slots),
                     &R::keys);
  }
  Status ImportRecord(const GdprRecord& record) override {
    WireRequest req = Req(WireOp::kImportRecord);
    req.record = record;
    return Ask(req).status();
  }
  Status AdoptTombstone(const std::string& key) override {
    return Ask(Req(WireOp::kAdoptTombstone, {}, key)).status();
  }
  Status EvictRecord(const std::string& key) override {
    return Ask(Req(WireOp::kEvictRecord, {}, key)).status();
  }
  Status ClearTombstone(const std::string& key) override {
    return Ask(Req(WireOp::kClearTombstone, {}, key)).status();
  }

  StatusOr<AuditChainVerdict> VerifyAuditChain() override;

  const char* transport_name() const override { return "socket"; }

 private:
  using R = WireResponse;

  static WireRequest Req(WireOp op, const Actor& actor = {},
                         const std::string& key = {});
  static WireRequest SlotReq(WireOp op, uint32_t slot, uint32_t num_slots);
  // The op's one result field, or why there is none.
  template <typename T, typename F>
  StatusOr<T> Get(const WireRequest& req, F WireResponse::*field) {
    StatusOr<WireResponse> r = Ask(req);
    if (!r.ok()) return r.status();
    return T(std::move(r.value().*field));
  }
  // Statusless introspection: zero or empty on an unreachable node.
  template <typename T, typename F>
  T GetOr(WireOp op, F WireResponse::*field) {
    StatusOr<T> r = Get<T>(Req(op), field);
    return r.ok() ? std::move(r.value()) : T{};
  }

  // One round trip. Locks, (re)connects if needed, writes the framed
  // request, reads exactly one response frame, validates the op echo.
  Status Call(const WireRequest& req, WireResponse* resp);
  // Requires mu_. Marks the connection dead.
  void DropConnLocked();
  // Requires mu_. Ensures fd_ is a live connection; Unavailable otherwise.
  Status EnsureConnectedLocked();

  std::mutex mu_;
  int fd_;
  FrameBuffer buf_;  // guarded by mu_
  RemoteHandleOptions opts_;
  obs::Histogram* rpc_us_ = nullptr;
  obs::Counter* rpc_bytes_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
};

}  // namespace gdpr::net
