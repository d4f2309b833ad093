#include "gdpr/kv_backend.h"

#include <algorithm>

#include "gdpr/access.h"
#include "gdpr/ops.h"

namespace gdpr {

KvGdprStore::KvGdprStore(const KvGdprOptions& options) : options_(options) {
  clock_ = options_.clock ? options_.clock : RealClock::Default();
  kv::Options kvo = options_.kv;
  kvo.clock = clock_;
  kvo.encrypt_at_rest =
      kvo.encrypt_at_rest || options_.compliance.encrypt_at_rest;
  metrics_ = kvo.metrics ? kvo.metrics : &registry_;
  kvo.metrics = metrics_;
  InitOpMetrics(metrics_);
  audit_log_.AttachMetrics(metrics_);
  // One committer thread serves the AOF and the audit chain: frames from
  // both logs coalesce into shared write+fsync batches.
  CommitPipeline::Options po;
  po.max_batch_frames = kvo.commit_max_batch_frames;
  po.metrics = metrics_;
  po.clock = clock_;
  pipeline_ = std::make_unique<CommitPipeline>(po);
  kvo.pipeline = pipeline_.get();
  db_ = std::make_unique<kv::MemKV>(kvo);
}

KvGdprStore::~KvGdprStore() { WarnIfError(Close(), "KvGdprStore::Close"); }

Status KvGdprStore::Open() {
  Status s = db_->Open();
  if (!s.ok()) return s;
  // Audit evidence is a durability responsibility like the data it
  // audits: replay + re-verify the chain before serving a single op.
  s = OpenDurableAudit(options_.audit, options_.kv.env,
                       options_.kv.sync_policy, pipeline_.get());
  if (!s.ok()) return s;
  if (indexing() && db_->Size() > 0) {
    // AOF replay restored records below us; rebuild the secondary indexes
    // (including entries for expired-but-unreclaimed records, so erasure
    // and upserts can still unindex them).
    size_t parse_failures = 0;
    const size_t decrypt_failures =
        db_->Scan([&](const std::string&, const std::string& value) {
          auto rec = GdprRecord::Parse(value);
          if (rec.ok()) IndexAdd(rec.value());
          else ++parse_failures;
          return true;
        });
    // A record that would not decrypt or parse is resident but in NO
    // index: every indexed collection would silently miss it. Open stays
    // permissive (the operator needs a live store to remediate), but the
    // count poisons indexed collections with DataLoss until the store is
    // reset or reopened clean — the same honesty the scan paths have.
    index_unreadable_records_ = decrypt_failures + parse_failures;
  }
  return Status::OK();
}

Status KvGdprStore::Close() {
  // Seal + sync the audit tail first: the close itself is the last event
  // the chain can evidence.
  Status audit = audit_log_.CloseDurable();
  Status s = db_->Close();
  return s.ok() ? audit : s;
}

void KvGdprStore::Audit(const Actor& actor, const char* op,
                        const std::string& key, bool allowed) {
  // Denials count even with auditing off: the counter is an operational
  // signal, the audit entry is compliance evidence.
  if (!allowed) denied_->Add(1);
  if (!options_.compliance.audit_enabled) return;
  AuditEntry e;
  e.timestamp_micros = NowMicros();
  e.actor_id = actor.id;
  e.role = actor.role;
  e.op = op;
  e.key = key;
  e.allowed = allowed;
  audit_log_.Append(std::move(e));
}

Status KvGdprStore::CheckAccess(const Actor& actor, const char* op,
                                const GdprRecord* record) {
  return CheckGdprAccess(options_.compliance, actor, op, record);
}

StatusOr<GdprRecord> KvGdprStore::GetRecord(const std::string& key) {
  auto rec = GetRecordRaw(key);
  if (!rec.ok()) return rec;
  const int64_t expiry = rec.value().metadata.expiry_micros;
  if (expiry != 0 && expiry <= NowMicros()) {
    return Status::NotFound(key + " (expired)");
  }
  return rec;
}

StatusOr<GdprRecord> KvGdprStore::GetRecordRaw(const std::string& key) {
  auto raw = db_->Get(key);
  if (!raw.ok()) return raw.status();
  return GdprRecord::Parse(raw.value());
}

Status KvGdprStore::PutRecord(const GdprRecord& record) {
  return db_->Set(record.key, record.Serialize());
}

// Index mutation serializes on idx_writer_mu_ (readers never touch it —
// they walk the posting chains under an epoch pin). index_bytes_ is only
// ever written here and in Reset, both under the mutex, so plain
// load/adjust/store is race-free; the atomic exists for lock-free readers.
void KvGdprStore::IndexAdd(const GdprRecord& record) {
  std::lock_guard<std::mutex> l(idx_writer_mu_);
  size_t added = 0;
  if (by_user_.Add(record.metadata.user, record.key)) {
    added += record.metadata.user.size() + record.key.size() + 16;
  }
  for (const auto& p : record.metadata.purposes) {
    if (by_purpose_.Add(p, record.key)) {
      added += p.size() + record.key.size() + 16;
    }
  }
  for (const auto& tp : record.metadata.shared_with) {
    if (by_sharing_.Add(tp, record.key)) {
      added += tp.size() + record.key.size() + 16;
    }
  }
  if (record.metadata.expiry_micros != 0 &&
      ttl_queue_.emplace(record.metadata.expiry_micros, record.key).second) {
    ttl_backlog_.store(ttl_queue_.size(), std::memory_order_relaxed);
    added += record.key.size() + 16;
  }
  index_bytes_.store(index_bytes_.load(std::memory_order_relaxed) + added,
                     std::memory_order_relaxed);
}

void KvGdprStore::IndexRemove(const GdprRecord& record) {
  std::lock_guard<std::mutex> l(idx_writer_mu_);
  size_t dropped = 0;
  if (by_user_.Remove(record.metadata.user, record.key)) {
    dropped += record.metadata.user.size() + record.key.size() + 16;
  }
  for (const auto& p : record.metadata.purposes) {
    if (by_purpose_.Remove(p, record.key)) {
      dropped += p.size() + record.key.size() + 16;
    }
  }
  for (const auto& tp : record.metadata.shared_with) {
    if (by_sharing_.Remove(tp, record.key)) {
      dropped += tp.size() + record.key.size() + 16;
    }
  }
  if (record.metadata.expiry_micros != 0 &&
      ttl_queue_.erase({record.metadata.expiry_micros, record.key}) > 0) {
    ttl_backlog_.store(ttl_queue_.size(), std::memory_order_relaxed);
    dropped += record.key.size() + 16;
  }
  const size_t cur = index_bytes_.load(std::memory_order_relaxed);
  index_bytes_.store(cur - std::min(cur, dropped), std::memory_order_relaxed);
}

Status KvGdprStore::EraseRecord(const GdprRecord& record) {
  Status s = db_->Delete(record.key);
  if (!s.ok() && !s.IsNotFound()) {
    // The record is still resident and still served: do NOT record
    // tombstone evidence for an erasure that did not happen.
    return s;
  }
  if (indexing()) IndexRemove(record);
  // Data gone but evidence unwritable: surface it — VerifyDeletion would
  // deny the erasure ever happened after a restart.
  s = db_->AddTombstone(record.key);
  if (!s.ok()) return s;
  // The erased record's frames sit in the log below this offset until the
  // next compaction pass rewrites them away.
  if (options_.kv.aof_enabled) {
    barrier_.RecordErasure(db_->AofLogBytes(), db_->AofRewriteStarts());
  }
  return Status::OK();
}

// Timer split across the op vocabulary: point ops (create / by-key reads
// and updates) run in well under a microsecond, where two clock reads per
// op are a measurable tax, so they use the 1-in-32 SampledTimer. The
// compliance ops (erasure, user/purpose/sharing queries, exports, logs)
// cost microseconds-plus and carry regulatory meaning per event, so every
// invocation is timed and their histogram counts are exact.
Status KvGdprStore::CreateRecord(const Actor& actor,
                                 const GdprRecord& record) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kCreate), clock_);
  Status access = CheckAccess(actor, ops::kCreate, nullptr);
  if (access.ok() && actor.role == Actor::Role::kCustomer &&
      record.metadata.user != actor.id) {
    access = Status::PermissionDenied("customer can only create own records");
  }
  if (!access.ok()) {
    Audit(actor, ops::kCreate, record.key, false);
    return access;
  }
  GdprRecord rec = record;
  if (rec.metadata.created_micros == 0) rec.metadata.created_micros = NowMicros();
  std::lock_guard<std::mutex> key_lock(KeyMutex(rec.key));
  if (indexing()) {
    // Upsert: unindex the previous incarnation, if any. Fetch raw rather
    // than via GetRecord — an expired-but-unreclaimed record must still be
    // unindexed or its stale entries would misattribute the new record.
    auto old = GetRecordRaw(rec.key);
    if (old.ok()) IndexRemove(old.value());
  }
  Status s = PutRecord(rec);
  if (s.ok() && indexing()) IndexAdd(rec);
  if (s.ok()) db_->ClearTombstone(rec.key);
  Audit(actor, ops::kCreate, rec.key, s.ok());
  return s;
}

StatusOr<GdprRecord> KvGdprStore::ReadDataByKey(const Actor& actor,
                                                const std::string& key) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kReadData), clock_);
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kReadData, key, false);
    return rec.status();
  }
  Status access = CheckAccess(actor, ops::kReadData, &rec.value());
  Audit(actor, ops::kReadData, key, access.ok());
  if (!access.ok()) return access;
  return rec;
}

StatusOr<GdprMetadata> KvGdprStore::ReadMetadataByKey(const Actor& actor,
                                                      const std::string& key) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kReadMeta), clock_);
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kReadMeta, key, false);
    return rec.status();
  }
  Status access = CheckAccess(actor, ops::kReadMeta, &rec.value());
  Audit(actor, ops::kReadMeta, key, access.ok());
  if (!access.ok()) return access;
  return rec.value().metadata;
}

std::vector<GdprRecord> KvGdprStore::CollectByIndex(
    const kv::EpochPostingMap& index, const std::string& value,
    const std::function<bool(const GdprRecord&)>& match, bool include_expired,
    size_t* read_failures) {
  std::vector<std::string> keys;
  {
    // Lock-free probe: pin one epoch, copy the posting chain out. Index
    // writers (upserts, erasure, expiry) proceed concurrently throughout.
    EpochGuard guard;
    index.ForEachKey(value, [&](const std::string& k) {
      keys.push_back(k);
      return true;
    });
  }
  std::vector<GdprRecord> out;
  out.reserve(keys.size());
  if (read_failures) {
    *read_failures += index_unreadable_records_.load(std::memory_order_relaxed);
  }
  for (const auto& k : keys) {
    auto rec = include_expired ? GetRecordRaw(k) : GetRecord(k);
    if (rec.ok()) {
      // The fetched record is ground truth; a posting is only a hint. A
      // concurrent upsert may have re-attributed the key since the probe,
      // and returning it under the old attribute would hand subject A a
      // record that now belongs to subject B.
      if (match(rec.value())) out.push_back(std::move(rec.value()));
    } else if (!rec.status().IsNotFound() && read_failures) {
      // NotFound is normal (expired, or erased since the index probe);
      // anything else means the record exists but cannot be read back.
      ++*read_failures;
    }
  }
  return out;
}

std::vector<GdprRecord> KvGdprStore::CollectByScan(
    const std::function<bool(const GdprRecord&)>& match, bool include_expired,
    size_t* read_failures) {
  // The O(n) path the paper measures: walk every key, parse, filter.
  std::vector<GdprRecord> out;
  size_t parse_failures = 0;
  const size_t decrypt_failures =
      db_->Scan([&](const std::string&, const std::string& value) {
        auto rec = GdprRecord::Parse(value);
        if (!rec.ok()) {
          // Corruption with encryption off surfaces here, not as a
          // decrypt failure — count it the same way.
          ++parse_failures;
          return true;
        }
        if (match(rec.value())) {
          const int64_t expiry = rec.value().metadata.expiry_micros;
          if (include_expired || expiry == 0 || expiry > NowMicros()) {
            out.push_back(std::move(rec.value()));
          }
        }
        return true;
      });
  if (read_failures) *read_failures += decrypt_failures + parse_failures;
  return out;
}

Status KvGdprStore::CollectionStatus(size_t read_failures) {
  if (read_failures == 0) return Status::OK();
  return Status::DataLoss(std::to_string(read_failures) +
                          " record(s) failed at-rest decryption");
}

StatusOr<std::vector<GdprRecord>> KvGdprStore::ReadMetadataByUser(
    const Actor& actor, const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadMetaUser), clock_);
  Status access = CheckAccess(actor, ops::kReadMetaUser, nullptr);
  if (access.ok() && actor.role == Actor::Role::kCustomer && actor.id != user) {
    access = Status::PermissionDenied("customer can only query own records");
  }
  Audit(actor, ops::kReadMetaUser, user, access.ok());
  if (!access.ok()) return access;
  size_t read_failures = 0;
  auto match = [&](const GdprRecord& r) { return r.metadata.user == user; };
  std::vector<GdprRecord> recs =
      indexing() ? CollectByIndex(by_user_, user, match, false, &read_failures)
                 : CollectByScan(match, false, &read_failures);
  Status health = CollectionStatus(read_failures);
  if (!health.ok()) return health;
  for (auto& r : recs) r.data.clear();
  return recs;
}

StatusOr<std::vector<GdprRecord>> KvGdprStore::ReadMetadataByPurpose(
    const Actor& actor, const std::string& purpose) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadMetaPurpose), clock_);
  Status access = CheckAccess(actor, ops::kReadMetaPurpose, nullptr);
  if (access.ok() && actor.role == Actor::Role::kProcessor &&
      actor.purpose != purpose) {
    access = Status::PermissionDenied("processor purpose mismatch");
  }
  Audit(actor, ops::kReadMetaPurpose, purpose, access.ok());
  if (!access.ok()) return access;
  size_t read_failures = 0;
  auto match = [&](const GdprRecord& r) {
    return r.metadata.HasPurpose(purpose);
  };
  std::vector<GdprRecord> recs =
      indexing()
          ? CollectByIndex(by_purpose_, purpose, match, false, &read_failures)
          : CollectByScan(match, false, &read_failures);
  Status health = CollectionStatus(read_failures);
  if (!health.ok()) return health;
  for (auto& r : recs) r.data.clear();
  return recs;
}

StatusOr<std::vector<GdprRecord>> KvGdprStore::ReadMetadataBySharing(
    const Actor& actor, const std::string& third_party) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadMetaSharing), clock_);
  Status access = CheckAccess(actor, ops::kReadMetaSharing, nullptr);
  Audit(actor, ops::kReadMetaSharing, third_party, access.ok());
  if (!access.ok()) return access;
  size_t read_failures = 0;
  auto match = [&](const GdprRecord& r) {
    return r.metadata.SharedWith(third_party);
  };
  std::vector<GdprRecord> recs =
      indexing() ? CollectByIndex(by_sharing_, third_party, match, false,
                                  &read_failures)
                 : CollectByScan(match, false, &read_failures);
  Status health = CollectionStatus(read_failures);
  if (!health.ok()) return health;
  for (auto& r : recs) r.data.clear();
  return recs;
}

StatusOr<std::vector<GdprRecord>> KvGdprStore::ReadRecordsByUser(
    const Actor& actor, const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadRecordsUser), clock_);
  obs::ScopedTimer export_us_timer(export_us_, clock_);
  Status access = CheckAccess(actor, ops::kReadRecordsUser, nullptr);
  if (access.ok()) {
    const bool owner =
        actor.role == Actor::Role::kCustomer && actor.id == user;
    if (actor.role != Actor::Role::kController && !owner) {
      access = Status::PermissionDenied("full records limited to controller "
                                        "or the data subject");
    }
  }
  Audit(actor, ops::kReadRecordsUser, user, access.ok());
  if (!access.ok()) return access;
  size_t read_failures = 0;
  auto match = [&](const GdprRecord& r) { return r.metadata.user == user; };
  std::vector<GdprRecord> recs =
      indexing() ? CollectByIndex(by_user_, user, match, false, &read_failures)
                 : CollectByScan(match, false, &read_failures);
  Status health = CollectionStatus(read_failures);
  if (!health.ok()) return health;
  return recs;
}

Status KvGdprStore::UpdateMetadataByKey(const Actor& actor,
                                        const std::string& key,
                                        const MetadataUpdate& update) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kUpdateMeta), clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kUpdateMeta, key, false);
    return rec.status();
  }
  Status access = CheckAccess(actor, ops::kUpdateMeta, &rec.value());
  if (!access.ok()) {
    Audit(actor, ops::kUpdateMeta, key, false);
    return access;
  }
  GdprRecord updated = rec.value();
  if (update.user) updated.metadata.user = *update.user;
  if (update.purposes) updated.metadata.purposes = *update.purposes;
  if (update.objections) updated.metadata.objections = *update.objections;
  if (update.shared_with) updated.metadata.shared_with = *update.shared_with;
  if (update.origin) updated.metadata.origin = *update.origin;
  if (update.expiry_micros) updated.metadata.expiry_micros = *update.expiry_micros;
  if (indexing()) IndexRemove(rec.value());
  Status s = PutRecord(updated);
  if (s.ok() && indexing()) IndexAdd(updated);
  Audit(actor, ops::kUpdateMeta, key, s.ok());
  return s;
}

Status KvGdprStore::UpdateDataByKey(const Actor& actor, const std::string& key,
                                    const std::string& data) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kUpdateData), clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kUpdateData, key, false);
    return rec.status();
  }
  Status access = CheckAccess(actor, ops::kUpdateData, &rec.value());
  if (!access.ok()) {
    Audit(actor, ops::kUpdateData, key, false);
    return access;
  }
  GdprRecord updated = rec.value();
  updated.data = data;
  Status s = PutRecord(updated);  // metadata unchanged: no index touch
  Audit(actor, ops::kUpdateData, key, s.ok());
  return s;
}

Status KvGdprStore::DeleteRecordByKey(const Actor& actor,
                                      const std::string& key) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteKey), clock_);
  obs::ScopedTimer forget_us_timer(forget_us_, clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  // Raw fetch: the right to be forgotten applies to expired-but-unreclaimed
  // records too — their blobs and index entries must go now, with evidence.
  auto rec = GetRecordRaw(key);
  if (!rec.ok()) {
    Audit(actor, ops::kDeleteKey, key, false);
    return rec.status();
  }
  Status access = CheckAccess(actor, ops::kDeleteKey, &rec.value());
  if (!access.ok()) {
    Audit(actor, ops::kDeleteKey, key, false);
    return access;
  }
  Status s = EraseRecord(rec.value());
  Audit(actor, ops::kDeleteKey, key, s.ok());
  return s;
}

StatusOr<size_t> KvGdprStore::DeleteRecordsByUser(const Actor& actor,
                                                  const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteUser), clock_);
  obs::ScopedTimer forget_us_timer(forget_us_, clock_);
  Status access = CheckAccess(actor, ops::kDeleteUser, nullptr);
  if (access.ok() && actor.role == Actor::Role::kCustomer && actor.id != user) {
    access = Status::PermissionDenied("customer can only erase own records");
  }
  if (!access.ok()) {
    Audit(actor, ops::kDeleteUser, user, false);
    return access;
  }
  auto match_user = [&](const GdprRecord& r) {
    return r.metadata.user == user;
  };
  size_t read_failures = 0;
  std::vector<GdprRecord> victims =
      indexing() ? CollectByIndex(by_user_, user, match_user,
                                  /*include_expired=*/true, &read_failures)
                 : CollectByScan(match_user, /*include_expired=*/true,
                                 &read_failures);
  size_t erased = 0;
  for (const auto& rec : victims) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(rec.key));
    // Revalidate under the key lock: a concurrent upsert may have handed
    // the key to another subject since collection.
    auto cur = GetRecordRaw(rec.key);
    if (!cur.ok()) {
      if (cur.status().IsNotFound()) continue;  // erased concurrently
      // Resident but unreadable: skipping it silently would under-delete
      // behind a successful ack.
      Audit(actor, ops::kDeleteUser, user, false);
      return cur.status();
    }
    if (!match_user(cur.value())) continue;
    Status s = EraseRecord(cur.value());
    if (!s.ok()) {
      // Partial erasure must not read as success: surface the failure.
      Audit(actor, ops::kDeleteUser, user, false);
      return s;
    }
    ++erased;
  }
  // An unreadable record may belong to this user: the readable ones are
  // gone, but claiming complete erasure would be false.
  Status health = CollectionStatus(read_failures);
  Audit(actor, ops::kDeleteUser, user, health.ok());
  if (!health.ok()) return health;
  return erased;
}

StatusOr<size_t> KvGdprStore::DeleteExpiredRecords(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteExpired), clock_);
  Status access = CheckAccess(actor, ops::kDeleteExpired, nullptr);
  if (!access.ok()) {
    Audit(actor, ops::kDeleteExpired, "", false);
    return access;
  }
  const int64_t now = NowMicros();
  size_t reclaimed = 0;
  if (indexing()) {
    // An unreadable record never made it into the TTL queue; its expiry is
    // unknowable and this sweep cannot honestly claim completeness.
    Status health = CollectionStatus(index_unreadable_records_);
    if (!health.ok()) {
      Audit(actor, ops::kDeleteExpired, "", false);
      return health;
    }
    // O(expired): pop due entries off the TTL queue, earliest first.
    for (;;) {
      std::string key;
      int64_t expiry = 0;
      {
        std::lock_guard<std::mutex> l(idx_writer_mu_);
        if (ttl_queue_.empty() || ttl_queue_.begin()->first > now) break;
        auto node = ttl_queue_.extract(ttl_queue_.begin());
        expiry = node.value().first;
        key = std::move(node.value().second);
        ttl_backlog_.store(ttl_queue_.size(), std::memory_order_relaxed);
        const size_t cur = index_bytes_.load(std::memory_order_relaxed);
        index_bytes_.store(cur - std::min(cur, key.size() + 16),
                           std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> key_lock(KeyMutex(key));
      auto rec = GetRecordRaw(key);
      if (!rec.ok()) {
        if (rec.status().IsNotFound()) continue;  // already reclaimed
        // Resident but unreadable: this sweep cannot honestly claim it.
        Audit(actor, ops::kDeleteExpired, "", false);
        return rec.status();
      }
      // TTL rewritten since this entry was popped -> the upsert queued a
      // newer entry.
      if (rec.value().metadata.expiry_micros != expiry) continue;
      Status s = EraseRecord(rec.value());
      if (!s.ok()) {
        Audit(actor, ops::kDeleteExpired, "", false);
        return s;
      }
      ++reclaimed;
    }
  } else {
    // O(n) sweep: parse every record to find the dead ones.
    std::vector<GdprRecord> dead;
    size_t parse_failures = 0;
    const size_t decrypt_failures =
        db_->Scan([&](const std::string&, const std::string& value) {
          auto rec = GdprRecord::Parse(value);
          if (!rec.ok()) {
            ++parse_failures;
            return true;
          }
          if (rec.value().metadata.expiry_micros != 0 &&
              rec.value().metadata.expiry_micros <= now) {
            dead.push_back(std::move(rec.value()));
          }
          return true;
        });
    // An unreadable record's TTL is unknowable — it may be expired data
    // this sweep is obligated to reclaim. Fail loudly before claiming a
    // clean sweep.
    Status health = CollectionStatus(decrypt_failures + parse_failures);
    if (!health.ok()) {
      Audit(actor, ops::kDeleteExpired, "", false);
      return health;
    }
    reclaimed = 0;
    for (const auto& rec : dead) {
      std::lock_guard<std::mutex> key_lock(KeyMutex(rec.key));
      auto cur = GetRecordRaw(rec.key);
      if (!cur.ok()) {
        if (cur.status().IsNotFound()) continue;  // already reclaimed
        Audit(actor, ops::kDeleteExpired, "", false);
        return cur.status();
      }
      if (cur.value().metadata.expiry_micros == 0 ||
          cur.value().metadata.expiry_micros > now) {
        continue;  // re-created or TTL extended since collection
      }
      Status s = EraseRecord(cur.value());
      if (!s.ok()) {
        Audit(actor, ops::kDeleteExpired, "", false);
        return s;
      }
      ++reclaimed;
    }
  }
  Audit(actor, ops::kDeleteExpired, "", true);
  return reclaimed;
}

StatusOr<bool> KvGdprStore::VerifyDeletion(const Actor& actor,
                                           const std::string& key) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kVerifyDeletion), clock_);
  Status access = CheckAccess(actor, ops::kVerifyDeletion, nullptr);
  Audit(actor, ops::kVerifyDeletion, key, access.ok());
  if (!access.ok()) return access;
  const bool gone = !db_->Get(key).ok();
  return gone && db_->HasTombstone(key);
}

StatusOr<std::vector<AuditEntry>> KvGdprStore::GetSystemLogs(
    const Actor& actor, int64_t from_micros, int64_t to_micros) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kGetLogs), clock_);
  Status access = CheckAccess(actor, ops::kGetLogs, nullptr);
  if (access.ok() && actor.role != Actor::Role::kRegulator &&
      actor.role != Actor::Role::kController) {
    access = Status::PermissionDenied("logs limited to regulator/controller");
  }
  if (!access.ok()) {
    Audit(actor, ops::kGetLogs, "", false);
    return access;
  }
  std::vector<AuditEntry> out = audit_log_.Query(from_micros, to_micros);
  Audit(actor, ops::kGetLogs, "", true);
  return out;
}

StatusOr<Features> KvGdprStore::GetFeatures(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kGetFeatures), clock_);
  Audit(actor, ops::kGetFeatures, "", true);
  return BuildFeatures("memkv", options_.compliance,
                       /*has_secondary_indexes=*/indexing());
}

Status KvGdprStore::ScanRecords(
    const Actor& actor, const std::function<bool(const GdprRecord&)>& fn) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kScanRecords), clock_);
  Status access = CheckAccess(actor, ops::kScanRecords, nullptr);
  if (access.ok() && actor.role == Actor::Role::kProcessor) {
    access = Status::PermissionDenied("processor cannot scan");
  }
  Audit(actor, ops::kScanRecords, "", access.ok());
  if (!access.ok()) return access;
  size_t parse_failures = 0;
  const size_t decrypt_failures =
      db_->Scan([&](const std::string&, const std::string& value) {
        auto rec = GdprRecord::Parse(value);
        if (!rec.ok()) {
          ++parse_failures;
          return true;
        }
        return fn(rec.value());
      });
  // At-rest corruption: the skipped records are personal data this store
  // can no longer produce — that is a compliance incident, not a detail
  // to swallow. The callback already saw every healthy record.
  return CollectionStatus(decrypt_failures + parse_failures);
}

StatusOr<std::vector<GdprRecord>> KvGdprStore::ExportRecords(
    const std::function<bool(const std::string&)>& key_pred) {
  std::vector<GdprRecord> out;
  size_t parse_failures = 0;
  const size_t decrypt_failures =
      db_->Scan([&](const std::string& key, const std::string& value) {
        if (key_pred(key)) {
          auto rec = GdprRecord::Parse(value);
          if (rec.ok()) out.push_back(std::move(rec.value()));
          else ++parse_failures;
        }
        return true;
      });
  // A partial export would migrate a slot minus its unreadable records —
  // the copy would silently drop data the source still legally holds.
  Status health = CollectionStatus(decrypt_failures + parse_failures);
  if (!health.ok()) return health;
  return out;
}

std::vector<std::string> KvGdprStore::ExportTombstones(
    const std::function<bool(const std::string&)>& key_pred) {
  return db_->Tombstones(key_pred);
}

Status KvGdprStore::ImportRecord(const GdprRecord& record) {
  std::lock_guard<std::mutex> key_lock(KeyMutex(record.key));
  if (indexing()) {
    auto old = GetRecordRaw(record.key);
    if (old.ok()) IndexRemove(old.value());
  }
  Status s = PutRecord(record);
  if (!s.ok()) return s;
  if (indexing()) IndexAdd(record);
  db_->ClearTombstone(record.key);
  return Status::OK();
}

Status KvGdprStore::AdoptTombstone(const std::string& key) {
  return db_->AddTombstone(key);
}

Status KvGdprStore::EvictRecord(const std::string& key) {
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = GetRecordRaw(key);
  if (!rec.ok()) return rec.status();
  Status s = db_->Delete(key);
  if (!s.ok() && !s.IsNotFound()) return s;  // still resident: don't unindex
  if (indexing()) IndexRemove(rec.value());
  return Status::OK();
}

void KvGdprStore::ClearTombstone(const std::string& key) {
  db_->ClearTombstone(key);
}

size_t KvGdprStore::RecordCount() { return db_->Size(); }

size_t KvGdprStore::TotalBytes() {
  return db_->ApproximateBytes() +
         index_bytes_.load(std::memory_order_relaxed) +
         audit_log_.ApproximateBytes();
}

Status KvGdprStore::Reset() {
  db_->Clear();
  {
    std::lock_guard<std::mutex> l(idx_writer_mu_);
    // Publishes fresh empty tables; in-flight index readers finish their
    // walk in the retired generation (freed by the epoch manager).
    by_user_.Clear();
    by_purpose_.Clear();
    by_sharing_.Clear();
    ttl_queue_.clear();
    ttl_backlog_.store(0, std::memory_order_relaxed);
    index_bytes_.store(0, std::memory_order_relaxed);
  }
  index_unreadable_records_ = 0;  // nothing resident, nothing unreadable
  return Status::OK();  // db_->Clear() dropped the tombstones too
}

StatusOr<CompactionStats> KvGdprStore::CompactNow(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kCompactLogs), clock_);
  Status access = CheckAccess(actor, ops::kCompact, nullptr);
  if (access.ok() && actor.role != Actor::Role::kController) {
    access = Status::PermissionDenied("compaction limited to controller");
  }
  if (!access.ok()) {
    Audit(actor, ops::kCompact, "", false);
    return access;
  }
  Status s = db_->CompactAof();
  if (s.ok()) {
    // Carry the audit chain across the pass: retention drops aged-out
    // groups and re-anchors, leaving the surviving chain verifiable.
    auto ac = audit_log_.Compact(NowMicros());
    if (!ac.ok()) s = ac.status();
  }
  Audit(actor, ops::kCompact, "", s.ok());
  if (!s.ok()) return s;
  return GetCompactionStats();
}

CompactionStats KvGdprStore::GetCompactionStats() {
  const kv::AofStats aof = db_->GetAofStats();
  CompactionStats out;
  out.compactions = aof.rewrites;
  out.log_bytes = aof.log_bytes;
  out.live_bytes = aof.live_bytes;
  out.last_bytes_before = aof.last_bytes_before;
  out.last_bytes_after = aof.last_bytes_after;
  out.last_compaction_micros = aof.last_rewrite_micros;
  out.erasure_barrier = barrier_.offset();
  // Covered generationally, so a cron-triggered rewrite drains this too.
  out.erasures_pending_compaction =
      options_.kv.aof_enabled ? barrier_.Pending(aof.rewrites) : 0;
  out.audit_segments = audit_log_.segment_count();
  out.audit_dropped_entries = audit_log_.dropped_entries_total();
  return out;
}

HealthState KvGdprStore::GetHealth() {
  const HealthState engine = db_->Health();
  const HealthState audit = audit_log_.health();
  return engine < audit ? audit : engine;
}

Status KvGdprStore::GetHealthCause() {
  Status engine = db_->HealthCause();
  if (!engine.ok()) return engine;
  return audit_log_.durable_status();
}

void KvGdprStore::RefreshGauges() {
  metrics_->GetGauge("gdpr_ttl_backlog")
      ->Set(static_cast<int64_t>(ttl_backlog_.load(std::memory_order_relaxed)));
  metrics_->GetGauge("gdpr_index_bytes")
      ->Set(static_cast<int64_t>(index_bytes_.load(std::memory_order_relaxed)));
  metrics_->GetGauge("gdpr_index_entries{index=\"user\"}")
      ->Set(static_cast<int64_t>(by_user_.entries()));
  metrics_->GetGauge("gdpr_index_entries{index=\"purpose\"}")
      ->Set(static_cast<int64_t>(by_purpose_.entries()));
  metrics_->GetGauge("gdpr_index_entries{index=\"sharing\"}")
      ->Set(static_cast<int64_t>(by_sharing_.entries()));
  metrics_->GetGauge("gdpr_index_retired_nodes")
      ->Set(static_cast<int64_t>(by_user_.retired_nodes() +
                                 by_purpose_.retired_nodes() +
                                 by_sharing_.retired_nodes()));
  metrics_->GetGauge("gdpr_records")->Set(static_cast<int64_t>(db_->Size()));
  metrics_->GetGauge("gdpr_tombstones")
      ->Set(static_cast<int64_t>(db_->TombstoneCount()));
  metrics_->GetGauge("gdpr_store_health")
      ->Set(static_cast<int64_t>(GetHealth()));
  metrics_->GetGauge("gdpr_audit_unsealed_tail")
      ->Set(static_cast<int64_t>(audit_log_.unsealed_tail()));
  const int64_t oldest = audit_log_.oldest_unsealed_micros();
  metrics_->GetGauge("gdpr_audit_seal_lag_us")
      ->Set(oldest == 0 ? 0 : std::max<int64_t>(0, NowMicros() - oldest));
}

obs::RegistrySnapshot KvGdprStore::StatsSnapshot() {
  RefreshGauges();
  // db_ shares metrics_, so its snapshot carries the whole stack; it also
  // refreshes the engine-side derived gauges (entries, bytes, epoch).
  return db_->StatsSnapshot();
}

}  // namespace gdpr
