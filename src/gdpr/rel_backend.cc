#include "gdpr/rel_backend.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"
#include "gdpr/access.h"
#include "gdpr/ops.h"

namespace gdpr {

namespace {


// Column order in gdpr_records.
enum Col : size_t {
  kKey = 0,
  kUser,
  kData,
  kOrigin,
  kPurposes,
  kObjections,
  kShared,
  kExpiry,
  kCreated,
};

// "No expiry" sorts last so an indexed range probe (expiry <= now) touches
// only truly expired rows.
constexpr int64_t kNoExpiry = std::numeric_limits<int64_t>::max();

}  // namespace

RelGdprStore::RelGdprStore(const RelGdprOptions& options) : options_(options) {
  clock_ = options_.clock ? options_.clock : RealClock::Default();
  rel::RelOptions ro = options_.rel;
  ro.clock = clock_;
  ro.encrypt_at_rest =
      ro.encrypt_at_rest || options_.compliance.encrypt_at_rest;
  metrics_ = ro.metrics ? ro.metrics : &registry_;
  ro.metrics = metrics_;
  InitOpMetrics(metrics_);
  audit_log_.AttachMetrics(metrics_);
  // One committer thread serves the WAL, the statement log, and the audit
  // chain: frames from all three batch into shared write+fsync calls.
  CommitPipeline::Options po;
  po.metrics = metrics_;
  po.clock = clock_;
  pipeline_ = std::make_unique<CommitPipeline>(po);
  ro.pipeline = pipeline_.get();
  db_ = std::make_unique<rel::Database>(ro);
}

RelGdprStore::~RelGdprStore() {
  WarnIfError(Close(), "RelGdprStore::Close");
}

Status RelGdprStore::Open() {
  Status s = db_->Open();
  if (!s.ok()) return s;
  s = OpenDurableAudit(options_.audit, options_.rel.env,
                       options_.rel.sync_policy, pipeline_.get());
  if (!s.ok()) return s;
  using rel::Schema;
  using rel::ValueType;
  auto t = db_->CreateTable(
      "gdpr_records", Schema({{"key", ValueType::kString},
                              {"user", ValueType::kString},
                              {"data", ValueType::kString},
                              {"origin", ValueType::kString},
                              {"purposes", ValueType::kString},
                              {"objections", ValueType::kString},
                              {"shared", ValueType::kString},
                              {"expiry", ValueType::kInt64},
                              {"created", ValueType::kInt64}}));
  if (!t.ok()) return t.status();
  records_ = t.value();
  Status si = db_->CreateIndex("gdpr_records", "key");
  if (!si.ok()) return si;
  // Erasure evidence rides the same WAL/checkpoint machinery as the data:
  // created unconditionally so replay always has a home for its rows.
  auto tomb = db_->CreateTable("gdpr_tombstones",
                               Schema({{"key", ValueType::kString}}));
  if (!tomb.ok()) return tomb.status();
  tombstones_ = tomb.value();
  si = db_->CreateIndex("gdpr_tombstones", "key");
  if (!si.ok()) return si;
  // Normalized join tables for the multi-valued metadata columns. Created
  // unconditionally — even with indexing off — so WAL/snapshot replay from
  // an indexing-on incarnation always has a home for its rows (a pending
  // table would otherwise block Checkpoint forever). Rows are only
  // *maintained* when indexing() is on.
  auto p = db_->CreateTable("gdpr_purpose_idx",
                            Schema({{"purpose", ValueType::kString},
                                    {"key", ValueType::kString}}));
  if (!p.ok()) return p.status();
  purpose_idx_ = p.value();
  db_->CreateIndex("gdpr_purpose_idx", "purpose").ok();
  db_->CreateIndex("gdpr_purpose_idx", "key").ok();
  auto sh = db_->CreateTable("gdpr_sharing_idx",
                             Schema({{"party", ValueType::kString},
                                     {"key", ValueType::kString}}));
  if (!sh.ok()) return sh.status();
  sharing_idx_ = sh.value();
  db_->CreateIndex("gdpr_sharing_idx", "party").ok();
  db_->CreateIndex("gdpr_sharing_idx", "key").ok();
  if (indexing()) {
    si = db_->CreateIndex("gdpr_records", "user");
    if (!si.ok()) return si;
    si = db_->CreateIndex("gdpr_records", "expiry");
    if (!si.ok()) return si;
  }
  return Status::OK();
}

Status RelGdprStore::Close() {
  Status audit = audit_log_.CloseDurable();
  Status s = db_->Close();
  return s.ok() ? audit : s;
}

void RelGdprStore::Audit(const Actor& actor, const char* op,
                         const std::string& key, bool allowed) {
  // Denials count even with auditing off (operational signal vs evidence).
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

rel::Row RelGdprStore::ToRow(const GdprRecord& rec) const {
  const GdprMetadata& m = rec.metadata;
  return rel::Row{rel::Value(rec.key),
                  rel::Value(m.user),
                  rel::Value(rec.data),
                  rel::Value(m.origin),
                  rel::Value(JoinStrings(m.purposes, '|')),
                  rel::Value(JoinStrings(m.objections, '|')),
                  rel::Value(JoinStrings(m.shared_with, '|')),
                  rel::Value(m.expiry_micros == 0 ? kNoExpiry
                                                  : m.expiry_micros),
                  rel::Value(m.created_micros)};
}

GdprRecord RelGdprStore::FromRow(const rel::Row& row) const {
  GdprRecord rec;
  rec.key = row[kKey].AsString();
  rec.data = row[kData].AsString();
  rec.metadata.user = row[kUser].AsString();
  rec.metadata.origin = row[kOrigin].AsString();
  rec.metadata.purposes = SplitString(row[kPurposes].AsString(), '|');
  rec.metadata.objections = SplitString(row[kObjections].AsString(), '|');
  rec.metadata.shared_with = SplitString(row[kShared].AsString(), '|');
  const int64_t expiry = row[kExpiry].AsInt64();
  rec.metadata.expiry_micros = expiry == kNoExpiry ? 0 : expiry;
  rec.metadata.created_micros = row[kCreated].AsInt64();
  return rec;
}

bool RelGdprStore::RowExpired(const rel::Row& row, int64_t now) const {
  return row[kExpiry].AsInt64() <= now;  // kNoExpiry never passes
}

StatusOr<GdprRecord> RelGdprStore::GetRecord(const std::string& key) {
  auto rows = db_->Select(records_,
                          rel::Compare(kKey, rel::CompareOp::kEq,
                                       rel::Value(key), "key"),
                          1);
  if (!rows.ok()) return rows.status();
  if (rows.value().empty()) return Status::NotFound(key);
  if (RowExpired(rows.value()[0], NowMicros())) {
    return Status::NotFound(key + " (expired)");
  }
  return FromRow(rows.value()[0]);
}

StatusOr<size_t> RelGdprStore::RemoveKey(const std::string& key,
                                         bool tombstone) {
  const rel::Value kv(key);
  auto deleted = db_->Delete(
      records_, rel::Compare(kKey, rel::CompareOp::kEq, kv, "key"));
  if (!deleted.ok()) return deleted.status();
  for (rel::Table* join : {purpose_idx_, sharing_idx_}) {
    if (!join) continue;
    auto unjoined =
        db_->Delete(join, rel::Compare(1, rel::CompareOp::kEq, kv, "key"));
    if (!unjoined.ok()) return unjoined.status();
  }
  const size_t n = deleted.value();
  if (tombstone && n > 0) {
    auto existing = db_->Select(
        tombstones_, rel::Compare(0, rel::CompareOp::kEq, kv, "key"), 1);
    if (!existing.ok()) return existing.status();
    if (existing.value().empty()) {
      Status ts = db_->Insert(tombstones_, {rel::Value(key)});
      // Data gone but evidence unwritable: surface it — VerifyDeletion
      // would deny the erasure ever happened.
      if (!ts.ok()) return ts;
    }
    // The erased record's frames sit in the WAL below this offset until
    // the next checkpoint rewrites them away.
    if (options_.rel.wal_enabled) {
      barrier_.RecordErasure(db_->WalBytes(), db_->CheckpointStarts());
    }
  }
  return n;
}

Status RelGdprStore::PutRecord(const GdprRecord& rec) {
  auto removed = RemoveKey(rec.key, /*tombstone=*/false);
  if (!removed.ok()) return removed.status();
  Status s = db_->Insert(records_, ToRow(rec));
  if (!s.ok()) return s;
  // Join rows are an indexing cost (the Fig 3b effect): only paid when the
  // flag is on. The tables themselves always exist (see Open).
  if (indexing()) {
    for (const auto& p : rec.metadata.purposes) {
      s = db_->Insert(purpose_idx_, {rel::Value(p), rel::Value(rec.key)});
      if (!s.ok()) return s;
    }
    for (const auto& tp : rec.metadata.shared_with) {
      s = db_->Insert(sharing_idx_, {rel::Value(tp), rel::Value(rec.key)});
      if (!s.ok()) return s;
    }
  }
  // A re-created key is live again: drop its erasure evidence (deleting
  // no row is fine).
  return db_->Delete(tombstones_, rel::Compare(0, rel::CompareOp::kEq,
                                               rel::Value(rec.key), "key"))
      .status();
}

std::vector<GdprRecord> RelGdprStore::CollectWhere(
    const std::function<bool(const GdprRecord&)>& match) {
  const int64_t now = NowMicros();
  std::vector<GdprRecord> out;
  auto rows = db_->SelectWhere(records_, [&](const rel::Row& row) {
    return !RowExpired(row, now);
  });
  if (!rows.ok()) return out;
  for (const auto& row : rows.value()) {
    GdprRecord rec = FromRow(row);
    if (match(rec)) out.push_back(std::move(rec));
  }
  return out;
}

std::vector<GdprRecord> RelGdprStore::CollectByJoinTable(
    rel::Table* join, const std::string& value) {
  std::vector<GdprRecord> out;
  auto rows = db_->Select(
      join, rel::Compare(0, rel::CompareOp::kEq, rel::Value(value), ""));
  if (!rows.ok()) return out;
  for (const auto& row : rows.value()) {
    auto rec = GetRecord(row[1].AsString());
    if (rec.ok()) out.push_back(std::move(rec.value()));
  }
  return out;
}

// Same timer split as KvGdprStore: sampled on sub-microsecond point ops,
// exact on the compliance ops whose every invocation matters.
Status RelGdprStore::CreateRecord(const Actor& actor,
                                  const GdprRecord& record) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kCreate), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kCreate, nullptr);
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
  Status s = PutRecord(rec);
  Audit(actor, ops::kCreate, rec.key, s.ok());
  return s;
}

StatusOr<GdprRecord> RelGdprStore::ReadDataByKey(const Actor& actor,
                                                 const std::string& key) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kReadData), clock_);
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kReadData, key, false);
    return rec.status();
  }
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kReadData, &rec.value());
  Audit(actor, ops::kReadData, key, access.ok());
  if (!access.ok()) return access;
  return rec;
}

StatusOr<GdprMetadata> RelGdprStore::ReadMetadataByKey(const Actor& actor,
                                                       const std::string& key) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kReadMeta), clock_);
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kReadMeta, key, false);
    return rec.status();
  }
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kReadMeta, &rec.value());
  Audit(actor, ops::kReadMeta, key, access.ok());
  if (!access.ok()) return access;
  return rec.value().metadata;
}

StatusOr<std::vector<GdprRecord>> RelGdprStore::ReadMetadataByUser(
    const Actor& actor, const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadMetaUser), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kReadMetaUser, nullptr);
  if (access.ok() && actor.role == Actor::Role::kCustomer && actor.id != user) {
    access = Status::PermissionDenied("customer can only query own records");
  }
  Audit(actor, ops::kReadMetaUser, user, access.ok());
  if (!access.ok()) return access;
  std::vector<GdprRecord> recs;
  if (indexing()) {
    const int64_t now = NowMicros();
    auto rows = db_->Select(records_,
                            rel::Compare(kUser, rel::CompareOp::kEq,
                                         rel::Value(user), "user"));
    if (rows.ok()) {
      for (const auto& row : rows.value()) {
        if (!RowExpired(row, now)) recs.push_back(FromRow(row));
      }
    }
  } else {
    recs = CollectWhere(
        [&](const GdprRecord& r) { return r.metadata.user == user; });
  }
  for (auto& r : recs) r.data.clear();
  return recs;
}

StatusOr<std::vector<GdprRecord>> RelGdprStore::ReadMetadataByPurpose(
    const Actor& actor, const std::string& purpose) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadMetaPurpose), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kReadMetaPurpose, nullptr);
  if (access.ok() && actor.role == Actor::Role::kProcessor &&
      actor.purpose != purpose) {
    access = Status::PermissionDenied("processor purpose mismatch");
  }
  Audit(actor, ops::kReadMetaPurpose, purpose, access.ok());
  if (!access.ok()) return access;
  std::vector<GdprRecord> recs =
      indexing() ? CollectByJoinTable(purpose_idx_, purpose)
                 : CollectWhere([&](const GdprRecord& r) {
                     return r.metadata.HasPurpose(purpose);
                   });
  for (auto& r : recs) r.data.clear();
  return recs;
}

StatusOr<std::vector<GdprRecord>> RelGdprStore::ReadMetadataBySharing(
    const Actor& actor, const std::string& third_party) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadMetaSharing), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kReadMetaSharing, nullptr);
  Audit(actor, ops::kReadMetaSharing, third_party, access.ok());
  if (!access.ok()) return access;
  std::vector<GdprRecord> recs =
      indexing() ? CollectByJoinTable(sharing_idx_, third_party)
                 : CollectWhere([&](const GdprRecord& r) {
                     return r.metadata.SharedWith(third_party);
                   });
  for (auto& r : recs) r.data.clear();
  return recs;
}

StatusOr<std::vector<GdprRecord>> RelGdprStore::ReadRecordsByUser(
    const Actor& actor, const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kReadRecordsUser), clock_);
  obs::ScopedTimer export_us_timer(export_us_, clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kReadRecordsUser, nullptr);
  if (access.ok()) {
    const bool owner =
        actor.role == Actor::Role::kCustomer && actor.id == user;
    if (actor.role != Actor::Role::kController && !owner) {
      access = Status::PermissionDenied(
          "full records limited to controller or the data subject");
    }
  }
  Audit(actor, ops::kReadRecordsUser, user, access.ok());
  if (!access.ok()) return access;
  if (indexing()) {
    const int64_t now = NowMicros();
    std::vector<GdprRecord> recs;
    auto rows = db_->Select(records_,
                            rel::Compare(kUser, rel::CompareOp::kEq,
                                         rel::Value(user), "user"));
    if (rows.ok()) {
      for (const auto& row : rows.value()) {
        if (!RowExpired(row, now)) recs.push_back(FromRow(row));
      }
    }
    return recs;
  }
  return CollectWhere(
      [&](const GdprRecord& r) { return r.metadata.user == user; });
}

Status RelGdprStore::UpdateMetadataByKey(const Actor& actor,
                                         const std::string& key,
                                         const MetadataUpdate& update) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kUpdateMeta), clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kUpdateMeta, key, false);
    return rec.status();
  }
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kUpdateMeta, &rec.value());
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
  Status s = PutRecord(updated);
  Audit(actor, ops::kUpdateMeta, key, s.ok());
  return s;
}

Status RelGdprStore::UpdateDataByKey(const Actor& actor, const std::string& key,
                                     const std::string& data) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kUpdateData), clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kUpdateData, key, false);
    return rec.status();
  }
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kUpdateData, &rec.value());
  if (!access.ok()) {
    Audit(actor, ops::kUpdateData, key, false);
    return access;
  }
  GdprRecord updated = rec.value();
  updated.data = data;
  Status s = PutRecord(updated);
  Audit(actor, ops::kUpdateData, key, s.ok());
  return s;
}

Status RelGdprStore::DeleteRecordByKey(const Actor& actor,
                                       const std::string& key) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteKey), clock_);
  obs::ScopedTimer forget_us_timer(forget_us_, clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = GetRecord(key);
  if (!rec.ok()) {
    Audit(actor, ops::kDeleteKey, key, false);
    return rec.status();
  }
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kDeleteKey, &rec.value());
  if (!access.ok()) {
    Audit(actor, ops::kDeleteKey, key, false);
    return access;
  }
  auto removed = RemoveKey(key, /*tombstone=*/true);
  Audit(actor, ops::kDeleteKey, key, removed.ok());
  return removed.status();
}

StatusOr<size_t> RelGdprStore::DeleteRecordsByUser(const Actor& actor,
                                                   const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteUser), clock_);
  obs::ScopedTimer forget_us_timer(forget_us_, clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kDeleteUser, nullptr);
  if (access.ok() && actor.role == Actor::Role::kCustomer && actor.id != user) {
    access = Status::PermissionDenied("customer can only erase own records");
  }
  if (!access.ok()) {
    Audit(actor, ops::kDeleteUser, user, false);
    return access;
  }
  // A collection query that fails must fail the erasure: acking "0 erased"
  // when the store could not even enumerate the user's rows is a vacuous
  // success a regulator would read as complete erasure.
  std::vector<std::string> keys;
  if (indexing()) {
    auto rows = db_->Select(records_,
                            rel::Compare(kUser, rel::CompareOp::kEq,
                                         rel::Value(user), "user"));
    if (!rows.ok()) {
      Audit(actor, ops::kDeleteUser, user, false);
      return rows.status();
    }
    for (const auto& row : rows.value()) keys.push_back(row[kKey].AsString());
  } else {
    auto rows = db_->SelectWhere(records_, [&](const rel::Row& row) {
      return row[kUser].AsString() == user;
    });
    if (!rows.ok()) {
      Audit(actor, ops::kDeleteUser, user, false);
      return rows.status();
    }
    for (const auto& row : rows.value()) keys.push_back(row[kKey].AsString());
  }
  size_t erased = 0;
  for (const auto& k : keys) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(k));
    // Revalidate under the key lock: a concurrent upsert may have handed
    // the key to another subject since collection.
    auto rows = db_->Select(records_,
                            rel::Compare(kKey, rel::CompareOp::kEq,
                                         rel::Value(k), "key"),
                            1);
    if (!rows.ok()) {
      // An unreadable row may still belong to this user; skipping it
      // silently would under-delete behind a successful ack.
      Audit(actor, ops::kDeleteUser, user, false);
      return rows.status();
    }
    if (rows.value().empty() || rows.value()[0][kUser].AsString() != user) {
      continue;  // legitimately gone or reassigned since collection
    }
    auto removed = RemoveKey(k, /*tombstone=*/true);
    if (!removed.ok()) {
      Audit(actor, ops::kDeleteUser, user, false);
      return removed.status();
    }
    erased += removed.value();
  }
  Audit(actor, ops::kDeleteUser, user, true);
  return erased;
}

StatusOr<size_t> RelGdprStore::DeleteExpiredRecords(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteExpired), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kDeleteExpired, nullptr);
  if (!access.ok()) {
    Audit(actor, ops::kDeleteExpired, "", false);
    return access;
  }
  const int64_t now = NowMicros();
  std::vector<std::string> keys;
  if (indexing()) {
    // Indexed range probe over the expiry B+tree: O(expired), the rows with
    // kNoExpiry sort above `now` and are never touched.
    auto rows = db_->Select(records_,
                            rel::Compare(kExpiry, rel::CompareOp::kLe,
                                         rel::Value(now), "expiry"));
    if (!rows.ok()) {
      Audit(actor, ops::kDeleteExpired, "", false);
      return rows.status();
    }
    for (const auto& row : rows.value()) keys.push_back(row[kKey].AsString());
  } else {
    auto rows = db_->SelectWhere(records_, [&](const rel::Row& row) {
      return RowExpired(row, now);
    });
    if (!rows.ok()) {
      Audit(actor, ops::kDeleteExpired, "", false);
      return rows.status();
    }
    for (const auto& row : rows.value()) keys.push_back(row[kKey].AsString());
  }
  size_t erased = 0;
  for (const auto& k : keys) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(k));
    auto rows = db_->Select(records_,
                            rel::Compare(kKey, rel::CompareOp::kEq,
                                         rel::Value(k), "key"),
                            1);
    if (!rows.ok()) {
      // The TTL sweep cannot honestly claim this row was handled.
      Audit(actor, ops::kDeleteExpired, "", false);
      return rows.status();
    }
    if (rows.value().empty() || !RowExpired(rows.value()[0], now)) {
      continue;  // re-created or TTL extended since collection
    }
    auto removed = RemoveKey(k, /*tombstone=*/true);
    if (!removed.ok()) {
      Audit(actor, ops::kDeleteExpired, "", false);
      return removed.status();
    }
    erased += removed.value();
  }
  Audit(actor, ops::kDeleteExpired, "", true);
  return erased;
}

StatusOr<bool> RelGdprStore::VerifyDeletion(const Actor& actor,
                                            const std::string& key) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kVerifyDeletion), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kVerifyDeletion, nullptr);
  Audit(actor, ops::kVerifyDeletion, key, access.ok());
  if (!access.ok()) return access;
  auto rows = db_->Select(records_,
                          rel::Compare(kKey, rel::CompareOp::kEq,
                                       rel::Value(key), "key"),
                          1);
  const bool gone = rows.ok() && rows.value().empty();
  auto tomb = db_->Select(
      tombstones_,
      rel::Compare(0, rel::CompareOp::kEq, rel::Value(key), "key"), 1);
  const bool evidenced = tomb.ok() && !tomb.value().empty();
  return gone && evidenced;
}

StatusOr<std::vector<AuditEntry>> RelGdprStore::GetSystemLogs(
    const Actor& actor, int64_t from_micros, int64_t to_micros) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kGetLogs), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kGetLogs, nullptr);
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

StatusOr<Features> RelGdprStore::GetFeatures(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kGetFeatures), clock_);
  Audit(actor, ops::kGetFeatures, "", true);
  return BuildFeatures("reldb", options_.compliance,
                       /*has_secondary_indexes=*/true);
}

Status RelGdprStore::ScanRecords(
    const Actor& actor, const std::function<bool(const GdprRecord&)>& fn) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kScanRecords), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kScanRecords, nullptr);
  if (access.ok() && actor.role == Actor::Role::kProcessor) {
    access = Status::PermissionDenied("processor cannot scan");
  }
  Audit(actor, ops::kScanRecords, "", access.ok());
  if (!access.ok()) return access;
  const int64_t now = NowMicros();
  db_->ScanRows(records_, [&](const rel::Row& row) {
    if (RowExpired(row, now)) return true;
    return fn(FromRow(row));
  }).ok();
  return Status::OK();
}

size_t RelGdprStore::RecordCount() {
  return records_ ? records_->live_rows() : 0;
}

size_t RelGdprStore::TotalBytes() {
  return db_->ApproximateBytes() + audit_log_.ApproximateBytes();
}

Status RelGdprStore::Reset() {
  if (records_) {
    db_->DeleteWhere(records_, [](const rel::Row&) { return true; }).ok();
  }
  if (purpose_idx_) {
    db_->DeleteWhere(purpose_idx_, [](const rel::Row&) { return true; }).ok();
  }
  if (sharing_idx_) {
    db_->DeleteWhere(sharing_idx_, [](const rel::Row&) { return true; }).ok();
  }
  if (tombstones_) {
    db_->DeleteWhere(tombstones_, [](const rel::Row&) { return true; }).ok();
  }
  return Status::OK();
}

StatusOr<CompactionStats> RelGdprStore::CompactNow(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kCompactLogs), clock_);
  Status access =
      CheckGdprAccess(options_.compliance, actor, ops::kCompact, nullptr);
  if (access.ok() && actor.role != Actor::Role::kController) {
    access = Status::PermissionDenied("compaction limited to controller");
  }
  if (!access.ok()) {
    Audit(actor, ops::kCompact, "", false);
    return access;
  }
  Status s = db_->Checkpoint();
  if (s.ok()) {
    // Same carry-over contract as the KV backend: aged-out groups drop
    // behind a re-anchor, the surviving chain still verifies.
    auto ac = audit_log_.Compact(NowMicros());
    if (!ac.ok()) s = ac.status();
  }
  Audit(actor, ops::kCompact, "", s.ok());
  if (!s.ok()) return s;
  return GetCompactionStats();
}

CompactionStats RelGdprStore::GetCompactionStats() {
  const rel::CheckpointStats ck = db_->GetCheckpointStats();
  CompactionStats out;
  out.compactions = ck.checkpoints;
  // The durable footprint after a checkpoint is snapshot + WAL tail.
  out.log_bytes = ck.wal_bytes + ck.last_snapshot_bytes;
  out.live_bytes = db_->ApproximateBytes();
  out.last_bytes_before = ck.last_wal_bytes_before;
  out.last_bytes_after = ck.last_wal_bytes_after + ck.last_snapshot_bytes;
  out.last_compaction_micros = ck.last_checkpoint_micros;
  out.erasure_barrier = barrier_.offset();
  out.erasures_pending_compaction =
      options_.rel.wal_enabled ? barrier_.Pending(ck.checkpoints) : 0;
  out.audit_segments = audit_log_.segment_count();
  out.audit_dropped_entries = audit_log_.dropped_entries_total();
  return out;
}

HealthState RelGdprStore::GetHealth() {
  const HealthState engine = db_->Health();
  const HealthState audit = audit_log_.health();
  return engine < audit ? audit : engine;
}

Status RelGdprStore::GetHealthCause() {
  Status engine = db_->HealthCause();
  if (!engine.ok()) return engine;
  return audit_log_.durable_status();
}

void RelGdprStore::RefreshGauges() {
  metrics_->GetGauge("gdpr_records")
      ->Set(static_cast<int64_t>(RecordCount()));
  metrics_->GetGauge("gdpr_tombstones")
      ->Set(static_cast<int64_t>(tombstones_ ? tombstones_->live_rows() : 0));
  metrics_->GetGauge("gdpr_store_health")
      ->Set(static_cast<int64_t>(GetHealth()));
  metrics_->GetGauge("gdpr_audit_unsealed_tail")
      ->Set(static_cast<int64_t>(audit_log_.unsealed_tail()));
  const int64_t oldest = audit_log_.oldest_unsealed_micros();
  metrics_->GetGauge("gdpr_audit_seal_lag_us")
      ->Set(oldest == 0 ? 0 : std::max<int64_t>(0, NowMicros() - oldest));
}

obs::RegistrySnapshot RelGdprStore::StatsSnapshot() {
  RefreshGauges();
  // db_ shares metrics_; its snapshot carries the whole stack and also
  // refreshes the engine-side derived gauges.
  return db_->StatsSnapshot();
}

}  // namespace gdpr
