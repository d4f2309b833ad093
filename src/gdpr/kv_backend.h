// KvGdprStore: the GDPR layer over the sharded MemKV (the paper's modified
// Redis). Records live as compact serialized blobs under their key.
//
// Metadata queries (who owns this key, what is shared with partner X, what
// has expired) are O(n) scan-parse-filter passes on a plain KV store — the
// linear walls in Fig 5a/7b. With compliance.metadata_indexing enabled this
// store maintains secondary indexes (user -> keys, purpose -> keys,
// sharing -> keys, and a deadline-ordered TTL queue), turning those same
// queries into indexed lookups; bench_index_fastpath measures the gap.
//
// Read fast path: every record fetch here bottoms out in MemKV's
// epoch-protected lock-free Get, and the secondary indexes themselves are
// epoch-protected posting maps (kv::EpochPostingMap) — a metadata query
// pins one epoch, walks the posting chain without any index lock, then
// fetches + revalidates each key against the engine. Index writers
// (upsert/erasure/expiry) serialize on a narrow mutex that no read path
// ever touches, so metadata queries scale with reader threads instead of
// serializing on them. Scan-based paths report at-rest decrypt failures
// instead of skipping them silently.

#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gdpr/store.h"
#include "kvstore/db.h"
#include "kvstore/epoch_map.h"

namespace gdpr {

struct KvGdprOptions {
  Clock* clock = nullptr;
  ComplianceFlags compliance;
  // Inner KV knobs (AOF, shards, ...). clock/encryption are plumbed from
  // the fields above; set the rest freely.
  kv::Options kv;
  // Durable audit chain: with audit.path set, the hash chain persists to
  // <path>.seg<N> and re-verifies across restarts. env and sync_policy are
  // plumbed from the kv options; set path / rotate_bytes / retention_micros
  // freely. Empty path = in-memory chain (the pre-PR-5 behavior).
  AuditLogOptions audit;
};

class KvGdprStore : public GdprStore {
 public:
  explicit KvGdprStore(const KvGdprOptions& options);
  ~KvGdprStore() override;

  Status Open() override;
  Status Close() override;

  Status CreateRecord(const Actor& actor, const GdprRecord& record) override;
  StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                     const std::string& key) override;
  StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                           const std::string& key) override;
  StatusOr<std::vector<GdprRecord>> ReadMetadataByUser(
      const Actor& actor, const std::string& user) override;
  StatusOr<std::vector<GdprRecord>> ReadMetadataByPurpose(
      const Actor& actor, const std::string& purpose) override;
  StatusOr<std::vector<GdprRecord>> ReadMetadataBySharing(
      const Actor& actor, const std::string& third_party) override;
  StatusOr<std::vector<GdprRecord>> ReadRecordsByUser(
      const Actor& actor, const std::string& user) override;
  Status UpdateMetadataByKey(const Actor& actor, const std::string& key,
                             const MetadataUpdate& update) override;
  Status UpdateDataByKey(const Actor& actor, const std::string& key,
                         const std::string& data) override;
  Status DeleteRecordByKey(const Actor& actor, const std::string& key) override;
  StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                       const std::string& user) override;
  StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) override;
  StatusOr<bool> VerifyDeletion(const Actor& actor,
                                const std::string& key) override;
  StatusOr<std::vector<AuditEntry>> GetSystemLogs(const Actor& actor,
                                                  int64_t from_micros,
                                                  int64_t to_micros) override;
  StatusOr<Features> GetFeatures(const Actor& actor) override;
  Status ScanRecords(
      const Actor& actor,
      const std::function<bool(const GdprRecord&)>& fn) override;

  size_t RecordCount() override;
  size_t TotalBytes() override;
  Status Reset() override;

  // Worst of the inner KV's AOF health and the audit chain's persistence
  // latch; mutations are gated inside MemKV, so a degraded report here
  // always comes with Unavailable on the write paths.
  HealthState GetHealth() override;
  Status GetHealthCause() override;

  // Erasure-aware AOF rewrite: snapshot live records + tombstones, truncate
  // the log. After this no pre-barrier frame of an erased record is on disk.
  StatusOr<CompactionStats> CompactNow(const Actor& actor) override;
  CompactionStats GetCompactionStats() override;

  // GDPR-layer + MemKV + audit metrics, one registry (db shares it).
  obs::RegistrySnapshot StatsSnapshot() override;

  kv::MemKV* raw() { return db_.get(); }
  const KvGdprOptions& options() const { return options_; }

  // --- Slot-migration support (src/cluster/) -------------------------------
  // These move state between homogeneous nodes without generating GDPR audit
  // entries: a rebalance is infrastructure, not processing, and is audited
  // once at the cluster layer instead. Key-set selection is by predicate so
  // the router can say "every key hashing into slot S".

  // Snapshot of records (expired included) whose key matches key_pred.
  // DataLoss when any matching record failed at-rest decryption: a slot
  // migration built on a partial export would silently drop records.
  StatusOr<std::vector<GdprRecord>> ExportRecords(
      const std::function<bool(const std::string&)>& key_pred);
  // Erasure tombstones whose key matches key_pred (so VerifyDeletion stays
  // truthful after the slot moves).
  std::vector<std::string> ExportTombstones(
      const std::function<bool(const std::string&)>& key_pred);
  // Adopts a record copied in from a departing node: blob + secondary
  // indexes, clearing any stale tombstone for the key.
  Status ImportRecord(const GdprRecord& record);
  // Adopts erasure evidence for a key this node now owns. Fails when the
  // evidence cannot be persisted.
  Status AdoptTombstone(const std::string& key);
  // Removes a record that was copied out — indexes dropped, no tombstone
  // (the record still exists, just elsewhere).
  Status EvictRecord(const std::string& key);
  // Drops a stale tombstone (rollback of a failed slot-copy adoption).
  void ClearTombstone(const std::string& key);

 private:
  bool indexing() const { return options_.compliance.metadata_indexing; }
  int64_t NowMicros() { return clock_->NowMicros(); }

  void Audit(const Actor& actor, const char* op, const std::string& key,
             bool allowed);
  // Access decision for an op that targets a concrete record (may be null
  // for query-style ops).
  Status CheckAccess(const Actor& actor, const char* op,
                     const GdprRecord* record);

  // Fetch + parse + expiry-check.
  StatusOr<GdprRecord> GetRecord(const std::string& key);
  // Fetch + parse, expired records included (erasure/unindex paths).
  StatusOr<GdprRecord> GetRecordRaw(const std::string& key);
  Status PutRecord(const GdprRecord& record);

  // Striped per-key locks: record mutations are read-modify-write across
  // the KV blob and the secondary indexes; same-key writers serialize here
  // so upserts stay atomic under the multi-threaded bench workloads.
  std::mutex& KeyMutex(const std::string& key) {
    uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
      h ^= uint8_t(c);
      h *= 1099511628211ull;
    }
    return key_mu_[h % key_mu_.size()];
  }

  void IndexAdd(const GdprRecord& record);
  void IndexRemove(const GdprRecord& record);

  // Shared delete path: removes from KV + indexes, leaves a tombstone.
  // Fails (without recording evidence) when the store cannot make the
  // erasure durable — e.g. the AOF went offline after a failed compaction.
  Status EraseRecord(const GdprRecord& record);

  // Collects matching records by metadata, via index or scan. Expired
  // records are excluded for reads and included for erasure paths. Both
  // report records that exist but could not be read back (at-rest decrypt
  // failure, parse failure) through *read_failures — queries and erasures
  // built on a silently-partial collection would misreport compliance.
  //
  // The index path copies the posting chain under one EpochGuard (no index
  // lock), then fetches each key and keeps only records `match` accepts:
  // postings are hints, and a concurrent upsert may have re-attributed a
  // key since the probe — the fetched record is ground truth.
  std::vector<GdprRecord> CollectByIndex(
      const kv::EpochPostingMap& index, const std::string& value,
      const std::function<bool(const GdprRecord&)>& match,
      bool include_expired = false, size_t* read_failures = nullptr);
  std::vector<GdprRecord> CollectByScan(
      const std::function<bool(const GdprRecord&)>& match,
      bool include_expired = false, size_t* read_failures = nullptr);
  // Shared guard: DataLoss when a collection saw unreadable records.
  static Status CollectionStatus(size_t read_failures);

  // Refreshes snapshot-time gauges (ttl backlog, tombstones, audit seal
  // lag, store health); called from StatsSnapshot.
  void RefreshGauges();

  KvGdprOptions options_;
  // One registry for the whole stack: the GDPR layer's histograms and the
  // inner MemKV's metrics land in the same namespace. Declared before db_
  // so the registry outlives the engine that records into it. When the
  // caller supplied options_.kv.metrics, that registry is used instead and
  // this one stays empty.
  obs::MetricsRegistry registry_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // One group-commit pipeline (one committer thread) for every durability
  // path under this store: the engine's AOF and the audit chain's segment
  // frames batch together. Declared before db_ so the engine — which
  // commits through it, including from its destructor's Close() — dies
  // first; the base-class audit_log_ is detached in Close() before then.
  std::unique_ptr<CommitPipeline> pipeline_;
  std::unique_ptr<kv::MemKV> db_;

  // Secondary indexes, readable with no lock at all: readers pin an epoch
  // and walk the posting chains. This narrow mutex serializes only index
  // *mutation* (IndexAdd/IndexRemove, TTL-queue inserts and pops, Reset) —
  // no read path acquires it. The per-key mutexes above already order
  // same-key index updates against each other; this one orders cross-key
  // writers inside the shared posting structures.
  std::mutex idx_writer_mu_;
  kv::EpochPostingMap by_user_;
  kv::EpochPostingMap by_purpose_;
  kv::EpochPostingMap by_sharing_;
  // (expiry, key) of every indexed record that carries an expiry, earliest
  // deadline first. IndexRemove erases the entry exactly, so the queue
  // holds one entry per live record however often expiries are rewritten.
  std::set<std::pair<int64_t, std::string>> ttl_queue_;  // idx_writer_mu_
  // Mirrors of writer-side accounting, atomically readable by gauges and
  // TotalBytes without touching idx_writer_mu_.
  std::atomic<size_t> ttl_backlog_{0};
  std::atomic<size_t> index_bytes_{0};

  // Tombstones live in MemKV (persisted in the AOF, carried across
  // rewrites); this layer only tracks the erasure/compaction contract.
  ErasureBarrier barrier_;

  // Records found unreadable (decrypt/parse failure) during the Open-time
  // index rebuild: they are resident but in no index, so indexed
  // collections report them as read failures rather than silently missing
  // them. Sticky until Reset/clean reopen — conservative by design.
  // Atomic because lock-free collections read it mid-flight.
  std::atomic<size_t> index_unreadable_records_{0};

  std::array<std::mutex, 64> key_mu_;
};

}  // namespace gdpr
