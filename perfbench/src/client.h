// One closed-loop client: sends its op stream to the store, times
// each call, and checks each reply against the model as it arrives.

#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "model.h"
#include "system.h"

namespace perfbench {

using gdpr::Actor;
using gdpr::GdprMetadata;
using gdpr::GdprRecord;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Who sends an op. Subjects act on their own records; on the processor
// mix, by-key reads and purpose queries come from a processor holding the
// record's purpose, which no update ever objects to, so no op is denied.
struct Actors {
  bool processor_reads = false;
  Actor For(const Dataset& ds, const Op& op) const {
    switch (op.kind) {
      case Kind::kQueryPurpose:
        return Actor::Processor("processor", ds.Purpose(op.target));
      case Kind::kReadData:
      case Kind::kReadMeta:
        if (processor_reads) {
          return Actor::Processor("processor",
                                  ds.Purpose(ds.PurposeIndexOf(op.target)));
        }
        return Actor::Customer(ds.User(ds.SubjectOf(op.target)));
      case Kind::kQueryUser:
      case Kind::kExport:
      case Kind::kForget:
        return Actor::Customer(ds.User(op.target));
      default:
        return Actor::Customer(ds.User(ds.SubjectOf(op.target)));
    }
  }
};

struct ClassStats {
  std::vector<double> lat_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct ClientStats {
  ClassStats cls[kClassCount];
  // Per round, each class's sample count at the round's end.
  std::vector<std::array<size_t, kClassCount>> marks;
  uint64_t audited = 0;           // audit entries this client's calls add
  uint64_t query_records = 0;     // records returned by queries
  uint64_t queries = 0;
  std::vector<std::string> errors;  // the first few failures, for stderr

  void Fail(std::string what) {
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

// Deliberately wrong expectations, to show that the checks catch errors.
struct Plant {
  bool skip_recreate = false;  // skip issuing the first re-registration
};

// Observer of each request, used by the traced run. `rec` is the model's
// record for by-key ops (null otherwise); `result` is what the call
// returned (records for queries and exports).
class RequestHook {
 public:
  virtual ~RequestHook() = default;
  virtual void OnRequest(int client, uint64_t req, const Op& op,
                         const Actor& actor, const GdprRecord* rec,
                         const std::vector<GdprRecord>* result,
                         int64_t start_ns, int64_t end_ns) = 0;
};

inline bool SameStrings(std::vector<std::string> a,
                        std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

inline bool SameMetadata(const GdprMetadata& got, const GdprMetadata& want) {
  return got.user == want.user && SameStrings(got.purposes, want.purposes) &&
         SameStrings(got.objections, want.objections) &&
         SameStrings(got.shared_with, want.shared_with) &&
         got.origin == want.origin && got.expiry_micros == want.expiry_micros;
}

inline bool SameRecord(const GdprRecord& got, const GdprRecord& want) {
  return got.key == want.key && got.data == want.data &&
         SameMetadata(got.metadata, want.metadata);
}

class Client {
 public:
  Client(int id, const Dataset& ds, Model* model, System* sys, Actors actors,
         std::vector<Op> stream, RequestHook* hook, Plant plant)
      : id_(id),
        ds_(ds),
        model_(model),
        sys_(sys),
        actors_(actors),
        stream_(std::move(stream)),
        hook_(hook),
        plant_(plant) {}

  const std::vector<Op>& stream() const { return stream_; }
  ClientStats& stats() { return stats_; }

  // Sends ops [from, to) of the stream, then marks the end of a round.
  void RunRange(size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) Execute(stream_[k], uint64_t(id_) << 40 | k);
    std::array<size_t, kClassCount> mark;
    for (int c = 0; c < kClassCount; ++c) mark[c] = stats_.cls[c].lat_us.size();
    stats_.marks.push_back(mark);
  }

 private:
  gdpr::GdprStore* store() { return sys_->store(); }

  std::string Where(const Op& op, const std::string& why) {
    char buf[64];
    snprintf(buf, sizeof buf, "client %d %s %u: ", id_, KindName(op.kind),
             op.target);
    return buf + why;
  }

  void Execute(const Op& op, uint64_t req) {
    const Class c = ClassOf(op.kind);
    ClassStats& cs = stats_.cls[c];
    ++cs.attempted;
    const Actor actor = actors_.For(ds_, op);
    const GdprRecord* model_rec = nullptr;
    std::vector<GdprRecord> result;
    int64_t t0 = 0, t1 = 0;
    bool ok = false;
    switch (op.kind) {
      case Kind::kReadData: {
        const auto& want = model_->records[op.target];
        t0 = NowNs();
        auto r = store()->ReadDataByKey(actor, ds_.Key(op.target));
        t1 = NowNs();
        ok = want.live ? Expect(op, r.status()) &&
                             Check(op, SameRecord(r.value(), want.rec),
                                   "payload/owner mismatch")
                       : Check(op, r.status().IsNotFound(),
                               "erased record readable");
        model_rec = &want.rec;
        ++stats_.audited;
        break;
      }
      case Kind::kReadMeta: {
        const auto& want = model_->records[op.target];
        t0 = NowNs();
        auto r = store()->ReadMetadataByKey(actor, ds_.Key(op.target));
        t1 = NowNs();
        ok = want.live ? Expect(op, r.status()) &&
                             Check(op, SameMetadata(r.value(), want.rec.metadata),
                                   "metadata mismatch")
                       : Check(op, r.status().IsNotFound(),
                               "erased record readable");
        model_rec = &want.rec;
        ++stats_.audited;
        break;
      }
      case Kind::kUpdateMeta: {
        auto& e = model_->records[op.target];
        gdpr::MetadataUpdate u;
        GdprRecord next = e.rec;
        ApplyUpdate(op, &u, &next.metadata);
        t0 = NowNs();
        gdpr::Status s = store()->UpdateMetadataByKey(actor, next.key, u);
        t1 = NowNs();
        ok = Expect(op, s);
        if (ok) e.rec = std::move(next);
        model_rec = &e.rec;
        ++stats_.audited;
        break;
      }
      case Kind::kUpdateData: {
        auto& e = model_->records[op.target];
        gdpr::Random rng(op.arg);
        const std::string data = rng.NextAsciiField(ds_.config().data_bytes);
        t0 = NowNs();
        gdpr::Status s = store()->UpdateDataByKey(actor, e.rec.key, data);
        t1 = NowNs();
        ok = Expect(op, s);
        if (ok) e.rec.data = data;
        model_rec = &e.rec;
        ++stats_.audited;
        break;
      }
      case Kind::kCreate: {
        GdprRecord rec = ds_.Make(op.target);
        if (plant_.skip_recreate) {
          // The model records a re-registration that was never sent.
          plant_.skip_recreate = false;
          t0 = t1 = NowNs();
          ok = true;
        } else {
          t0 = NowNs();
          gdpr::Status s = store()->CreateRecord(actor, rec);
          t1 = NowNs();
          ok = Expect(op, s);
          ++stats_.audited;
        }
        if (ok) model_->Put(ds_, op.target, std::move(rec));
        model_rec = &model_->records[op.target].rec;
        break;
      }
      case Kind::kDeleteKey: {
        t0 = NowNs();
        gdpr::Status s = store()->DeleteRecordByKey(actor, ds_.Key(op.target));
        t1 = NowNs();
        ++stats_.audited;
        ok = Expect(op, s);
        if (ok) {
          auto v = store()->VerifyDeletion(Actor::Regulator(), ds_.Key(op.target));
          ++stats_.audited;
          ok = Check(op, v.ok() && v.value(), "VerifyDeletion is not true");
        }
        if (ok) model_->Erase(ds_, op.target);
        model_rec = &model_->records[op.target].rec;
        break;
      }
      case Kind::kQueryPurpose: {
        t0 = NowNs();
        auto r = store()->ReadMetadataByPurpose(actor, ds_.Purpose(op.target));
        t1 = NowNs();
        stats_.audited += sys_->FanoutCost();
        ok = Expect(op, r.status()) && CheckPurposeQuery(op, r.value());
        if (r.ok()) result = std::move(r.value());
        break;
      }
      case Kind::kQueryUser:
      case Kind::kExport: {
        const bool exprt = op.kind == Kind::kExport;
        const std::string user = ds_.User(op.target);
        t0 = NowNs();
        auto r = exprt ? store()->ReadRecordsByUser(actor, user)
                       : store()->ReadMetadataByUser(actor, user);
        t1 = NowNs();
        stats_.audited += sys_->FanoutCost();
        ok = Expect(op, r.status()) && CheckSubject(op, r.value(), exprt);
        if (r.ok()) result = std::move(r.value());
        break;
      }
      case Kind::kForget: {
        const size_t want = model_->live_by_subject[op.target];
        t0 = NowNs();
        auto r = store()->DeleteRecordsByUser(actor, ds_.User(op.target));
        t1 = NowNs();
        stats_.audited += sys_->FanoutCost();
        ok = Expect(op, r.status()) &&
             Check(op, r.value() == want, "erased count differs from model");
        for (size_t k = 0; ok && k < kRecordsPerSubject; ++k) {
          const size_t i = ds_.Record(op.target, k);
          if (!model_->records[i].live) continue;
          auto v = store()->VerifyDeletion(Actor::Regulator(), ds_.Key(i));
          ++stats_.audited;
          ok = Check(op, v.ok() && v.value(), "VerifyDeletion is not true");
        }
        if (ok) {
          for (size_t k = 0; k < kRecordsPerSubject; ++k) {
            model_->Erase(ds_, ds_.Record(op.target, k));
          }
        }
        break;
      }
      case Kind::kCount:
        break;
    }
    if (!ok) ++cs.failed;
    cs.lat_us.push_back(double(t1 - t0) / 1000.0);
    if (hook_) hook_->OnRequest(id_, req, op, actor, model_rec,
                                result.empty() ? nullptr : &result, t0, t1);
  }

  // A metadata update changes one field between two values of fixed size,
  // so the dataset's size does not drift with the mix.
  void ApplyUpdate(const Op& op, gdpr::MetadataUpdate* u, GdprMetadata* m) {
    const bool on = op.arg & 1;
    const uint64_t k = (op.arg >> 8);
    const std::string base = ds_.Purpose(ds_.PurposeIndexOf(op.target));
    const std::string extra = "opt-" + std::to_string(k % kExtraPurposes);
    switch (op.variant) {
      case 0:  // consent to one more purpose, or withdraw it
        m->purposes = on ? std::vector<std::string>{base, extra}
                         : std::vector<std::string>{base};
        u->purposes = m->purposes;
        break;
      case 1: {  // share with a partner, or stop sharing
        char partner[32];
        snprintf(partner, sizeof partner, "partner-%02u",
                 unsigned(k % ds_.config().partners));
        m->shared_with = on ? std::vector<std::string>{partner}
                            : std::vector<std::string>{};
        u->shared_with = m->shared_with;
        break;
      }
      case 2:  // object to an extra purpose (never the base one), or not
        m->objections = on ? std::vector<std::string>{extra}
                           : std::vector<std::string>{};
        u->objections = m->objections;
        break;
      default:  // new retention deadline, 30 to 31 days out
        m->expiry_micros = gdpr::RealClock::Default()->NowMicros() +
                           30 * kDay + int64_t(k % uint64_t(kDay));
        u->expiry_micros = m->expiry_micros;
        break;
    }
  }

  bool Check(const Op& op, bool cond, const char* why) {
    if (!cond) stats_.Fail(Where(op, why));
    return cond;
  }

  // A call on records the model holds must succeed. (A NotFound is correct
  // only where the model says the record is erased; the reads check that.)
  bool Expect(const Op& op, const gdpr::Status& s) {
    if (s.ok()) return true;
    stats_.Fail(Where(op, s.ToString()));
    return false;
  }

  bool CheckPurposeQuery(const Op& op, const std::vector<GdprRecord>& got) {
    ++stats_.queries;
    stats_.query_records += got.size();
    const std::string purpose = ds_.Purpose(op.target);
    std::set<std::string> seen;
    for (const auto& r : got) {
      if (!r.metadata.HasPurpose(purpose)) {
        return Check(op, false, "record without the queried purpose");
      }
      if (!seen.insert(r.key).second) return Check(op, false, "key returned twice");
      if (!r.data.empty()) return Check(op, false, "personal data not masked");
      const size_t i = std::stoul(r.key.substr(4));
      if (i >= model_->records.size() || !model_->records[i].live ||
          !SameMetadata(r.metadata, model_->records[i].rec.metadata)) {
        return Check(op, false, "record not in the model");
      }
    }
    return Check(op, got.size() == model_->live_by_purpose[op.target],
                 "count differs from model");
  }

  bool CheckSubject(const Op& op, const std::vector<GdprRecord>& got,
                    bool with_data) {
    ++stats_.queries;
    stats_.query_records += got.size();
    std::set<std::string> seen;
    for (const auto& r : got) {
      if (!seen.insert(r.key).second) return Check(op, false, "key returned twice");
      const size_t i = std::stoul(r.key.substr(4));
      if (i >= model_->records.size() || ds_.SubjectOf(i) != op.target ||
          !model_->records[i].live) {
        return Check(op, false, "record not the subject's");
      }
      const GdprRecord& want = model_->records[i].rec;
      if (with_data ? !SameRecord(r, want)
                    : !SameMetadata(r.metadata, want.metadata)) {
        return Check(op, false, "record differs from model");
      }
    }
    return Check(op, got.size() == model_->live_by_subject[op.target],
                 "count differs from model");
  }

  int id_;
  const Dataset& ds_;
  Model* model_;
  System* sys_;
  Actors actors_;
  std::vector<Op> stream_;
  RequestHook* hook_;
  Plant plant_;
  ClientStats stats_;
};

}  // namespace perfbench
