// The cluster wire protocol: a compact length-framed binary codec covering
// the full src/gdpr/ops.h vocabulary plus the cluster-only surface
// (migration, compaction, stats, audit verification). This is the seam that
// lets a node live in-process, behind a socketpair on another thread, or on
// another machine: the router speaks NodeHandle, NodeHandle speaks frames,
// and nothing above this layer knows which transport carried them.
//
// Frame layout (docs/WIRE_PROTOCOL.md is the normative description):
//
//   [u32 length LE][payload: length bytes]
//   request  payload = [u8 version][u8 op tag][actor][op-specific body]
//   response payload = [u8 version][u8 op tag echo][status][op-specific body]
//
// Design rules:
//   * Lossless Status round-tripping — DataLoss, Unavailable (degraded-
//     health refusals), PermissionDenied and their messages survive the
//     seam byte-for-byte, so the router's merge logic (skip Unavailable
//     nodes, surface DataLoss) behaves identically over any transport.
//   * Every decode failure is a clean DataLoss/InvalidArgument, never a
//     crash, a hang, or an over-read: length prefixes are bounded by
//     kMaxFrameBytes, list counts are validated against remaining bytes,
//     and enum bytes are range-checked (test_wire fuzzes this).
//   * A version byte leads every payload for forward compatibility: a
//     server refuses versions it does not speak with InvalidArgument
//     instead of misparsing.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "gdpr/actor.h"
#include "gdpr/audit.h"
#include "gdpr/compaction.h"
#include "gdpr/compliance.h"
#include "gdpr/record.h"
#include "gdpr/store.h"
#include "obs/metrics.h"

namespace gdpr::net {

inline constexpr uint8_t kWireVersion = 1;
// Upper bound on a single frame. Large enough for a full-node scan response
// at bench scale, small enough that a corrupt or hostile length prefix can
// never drive an allocation bomb.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;
inline constexpr size_t kFrameHeaderBytes = 4;

// The op table: the one normative list of wire ops. Each row is
//   X(op, tag, name, request layout, response layout)
// and generates the WireOp enumerator (tag values are wire format: append
// only, never renumber), ValidWireOp, WireOpName and the codec's per-op
// body selection. Every request starts with the actor and every response
// with the op status; the layouts name what follows (wire.cc defines each
// once, docs/WIRE_PROTOCOL.md lists their bytes).
//
// Tags group by kind: 1-3 connection, 10-25 the gdpr/ops.h vocabulary,
// 30-34 store introspection, 40-41 erasure-aware compaction, 50-55 slot
// migration (router-to-node only, never audited node-side), 60 per-node
// audit chain verification (verdict + head hash).
#define GDPR_WIRE_OPS(X)                                                 \
  X(kPing, 1, "PING", Empty, Empty)                                      \
  X(kOpen, 2, "OPEN", Empty, Empty)                                      \
  X(kClose, 3, "CLOSE", Empty, Empty)                                    \
  X(kCreateRecord, 10, ops::kCreate, Record, Empty)                      \
  X(kReadData, 11, ops::kReadData, Key, Record)                          \
  X(kReadMeta, 12, ops::kReadMeta, Key, Metadata)                        \
  X(kReadMetaUser, 13, ops::kReadMetaUser, Key, Records)                 \
  X(kReadMetaPurpose, 14, ops::kReadMetaPurpose, Key, Records)           \
  X(kReadMetaSharing, 15, ops::kReadMetaSharing, Key, Records)           \
  X(kReadRecordsUser, 16, ops::kReadRecordsUser, Key, Records)           \
  X(kUpdateMeta, 17, ops::kUpdateMeta, KeyUpdate, Empty)                 \
  X(kUpdateData, 18, ops::kUpdateData, KeyData, Empty)                   \
  X(kDeleteKey, 19, ops::kDeleteKey, Key, Empty)                         \
  X(kDeleteUser, 20, ops::kDeleteUser, Key, Count)                       \
  X(kDeleteExpired, 21, ops::kDeleteExpired, Empty, Count)               \
  X(kVerifyDeletion, 22, ops::kVerifyDeletion, Key, Flag)                \
  X(kGetLogs, 23, ops::kGetLogs, TimeRange, Entries)                     \
  X(kGetFeatures, 24, ops::kGetFeatures, Empty, Features)                \
  X(kScanRecords, 25, ops::kScanRecords, Empty, Records)                 \
  X(kRecordCount, 30, "RECORD-COUNT", Empty, Count)                      \
  X(kTotalBytes, 31, "TOTAL-BYTES", Empty, Count)                        \
  X(kReset, 32, "RESET", Empty, Empty)                                   \
  X(kHealth, 33, "HEALTH", Empty, Health)                                \
  X(kStatsSnapshot, 34, "STATS-SNAPSHOT", Empty, Snapshot)               \
  X(kCompactNow, 40, ops::kCompact, Empty, CompactionStats)              \
  X(kCompactionStats, 41, "COMPACTION-STATS", Empty, CompactionStats)    \
  X(kExportRecords, 50, "EXPORT-RECORDS", SlotSpec, Records)             \
  X(kExportTombstones, 51, "EXPORT-TOMBSTONES", SlotSpec, Keys)          \
  X(kImportRecord, 52, "IMPORT-RECORD", Record, Empty)                   \
  X(kAdoptTombstone, 53, "ADOPT-TOMBSTONE", Key, Empty)                  \
  X(kEvictRecord, 54, "EVICT-RECORD", Key, Empty)                        \
  X(kClearTombstone, 55, "CLEAR-TOMBSTONE", Key, Empty)                  \
  X(kVerifyAuditChain, 60, "VERIFY-AUDIT-CHAIN", Empty, ChainVerdict)

enum class WireOp : uint8_t {
#define GDPR_WIRE_ENUM(op, tag, name, request, response) op = tag,
  GDPR_WIRE_OPS(GDPR_WIRE_ENUM)
#undef GDPR_WIRE_ENUM
};

bool ValidWireOp(uint8_t tag);
const char* WireOpName(WireOp op);

// The slot hash shared by the router's SlotMap and the wire protocol's
// slot-scoped export requests (FNV-1a over the whole key): a node asked to
// export "slot S of N" computes membership with exactly the function the
// router routes by, so the two sides can never disagree about which keys a
// slot holds.
uint32_t SlotForKey(std::string_view key, uint32_t num_slots);

// One decoded request. Only the fields the op uses are meaningful; the
// codec encodes exactly those, so an unused vector costs nothing on the
// wire.
struct WireRequest {
  WireOp op = WireOp::kPing;
  Actor actor;
  std::string key;    // key / user / purpose / third-party argument
  std::string data;   // kUpdateData payload
  GdprRecord record;  // kCreateRecord / kImportRecord
  MetadataUpdate update;
  int64_t from_micros = 0;  // kGetLogs
  int64_t to_micros = 0;
  uint32_t slot = 0;  // kExportRecords / kExportTombstones
  uint32_t num_slots = 0;
};

// One decoded response. `status` is the op-level Status (always present);
// result fields ride alongside so an op like ScanRecords can deliver every
// readable record AND a DataLoss verdict in one frame.
struct WireResponse {
  WireOp op = WireOp::kPing;  // echoes the request tag
  Status status = Status::OK();
  GdprRecord record;                   // kReadData
  GdprMetadata metadata;               // kReadMeta
  std::vector<GdprRecord> records;     // record-vector ops
  std::vector<std::string> keys;       // kExportTombstones
  std::vector<AuditEntry> entries;     // kGetLogs
  Features features;                   // kGetFeatures
  CompactionStats stats;               // kCompactNow / kCompactionStats
  obs::RegistrySnapshot snapshot;      // kStatsSnapshot
  uint64_t count = 0;                  // counts / byte totals
  bool flag = false;                   // kVerifyDeletion / kVerifyAuditChain
  HealthState health = HealthState::kHealthy;  // kHealth
  Status health_cause = Status::OK();          // kHealth
  std::string head_hash;               // kVerifyAuditChain
};

// Payload codecs (no frame header — see Frame()/FrameBuffer for framing).
std::string EncodeRequest(const WireRequest& req);
Status DecodeRequest(std::string_view payload, WireRequest* req);
std::string EncodeResponse(const WireResponse& resp);
Status DecodeResponse(std::string_view payload, WireResponse* resp);

// Wraps a payload in its length frame.
std::string Frame(std::string_view payload);

// Incremental frame extractor for a byte stream: feed whatever arrived,
// pull zero or more complete payloads. A length prefix over kMaxFrameBytes
// poisons the buffer (DataLoss) — the stream cannot be resynchronized and
// the connection must drop.
class FrameBuffer {
 public:
  void Feed(const char* data, size_t n) { buf_.append(data, n); }

  // OK + *have=true: one payload extracted. OK + *have=false: need more
  // bytes. DataLoss: stream poisoned (oversized frame).
  Status Next(std::string* payload, bool* have);

  size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
  bool poisoned_ = false;
};

}  // namespace gdpr::net
