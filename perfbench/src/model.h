// The benchmark's own view of the store: the dataset, the seeded per-client
// op streams, and a model of every record that each reply is checked
// against.
//
// Records are split between the two clients by ordinal parity: subject
// i % users owns record i, and with an even subject count and an even
// purpose vocabulary, record i, its subject and its base purpose i % 64 all
// share i's parity. A client therefore touches only its own records and
// queries only its own purposes, so every reply — counts of purpose queries
// included — is checked exactly, with no allowance for the other client.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/distributions.h"
#include "common/random.h"
#include "common/string_util.h"
#include "generator.h"
#include "gdpr/record.h"

namespace perfbench {

using gdpr::GdprRecord;

constexpr int kClients = 2;
constexpr size_t kRecordsPerSubject = 10;
constexpr size_t kExtraPurposes = 8;  // "opt-N" consent purposes
constexpr int64_t kDay = 86400ll * 1000000;

// Op kinds, and the four classes the end-to-end metrics report.
enum class Kind : uint8_t {
  kReadData,      // ReadDataByKey
  kReadMeta,      // ReadMetadataByKey
  kUpdateMeta,    // UpdateMetadataByKey
  kUpdateData,    // UpdateDataByKey
  kCreate,        // CreateRecord (re-registration after a delete or forget)
  kDeleteKey,     // DeleteRecordByKey
  kQueryPurpose,  // ReadMetadataByPurpose
  kQueryUser,     // ReadMetadataByUser
  kExport,        // ReadRecordsByUser
  kForget,        // DeleteRecordsByUser
  kCount,
};
enum Class : int { kRead = 0, kWrite, kQuery, kForgetClass, kClassCount };

inline const char* KindName(Kind k) {
  switch (k) {
    case Kind::kReadData: return "read_data";
    case Kind::kReadMeta: return "read_meta";
    case Kind::kUpdateMeta: return "update_meta";
    case Kind::kUpdateData: return "update_data";
    case Kind::kCreate: return "create";
    case Kind::kDeleteKey: return "delete_key";
    case Kind::kQueryPurpose: return "query_purpose";
    case Kind::kQueryUser: return "query_user";
    case Kind::kExport: return "export";
    case Kind::kForget: return "forget";
    case Kind::kCount: break;
  }
  return "?";
}
inline Class ClassOf(Kind k) {
  switch (k) {
    case Kind::kReadData:
    case Kind::kReadMeta: return kRead;
    case Kind::kUpdateMeta:
    case Kind::kUpdateData:
    case Kind::kCreate:
    case Kind::kDeleteKey: return kWrite;
    case Kind::kQueryPurpose:
    case Kind::kQueryUser:
    case Kind::kExport: return kQuery;
    default: return kForgetClass;
  }
}
inline const char* ClassName(int c) {
  static const char* kNames[] = {"read", "write", "query", "forget"};
  return kNames[c];
}

struct Op {
  Kind kind = Kind::kReadData;
  uint32_t target = 0;  // record ordinal, subject index, or purpose index
  uint32_t variant = 0;  // which metadata field an update changes
  uint64_t arg = 0;      // seeded value for the update
};

// Entry weights of one traffic mix. A delete entry expands into the delete
// and the record's re-registration, a forget entry into the forget and the
// re-registration of every record the subject held. `update_fields` is how
// many of the four metadata fields updates change (purposes, sharing,
// objections, retention): 4 for all, 1 for retention only.
struct Mix {
  uint32_t read_data, read_meta, update_meta, update_data, query_purpose,
      query_user, exprt, delete_key, forget;
  uint32_t update_fields = 4;
};

class Dataset {
 public:
  explicit Dataset(size_t records)
      : cfg_(MakeConfig(records)),
        gen_(cfg_, gdpr::RealClock::Default()),
        base_micros_(gdpr::RealClock::Default()->NowMicros()) {}

  size_t records() const { return cfg_.users * kRecordsPerSubject; }
  size_t users() const { return cfg_.users; }
  size_t purposes() const { return cfg_.purposes; }
  const gdpr::bench::DatasetConfig& config() const { return cfg_; }

  std::string Key(size_t i) const { return gen_.Key(i); }
  std::string User(size_t u) const { return gen_.UserOf(u); }
  std::string Purpose(size_t p) const { return gen_.PurposeOf(p); }
  size_t SubjectOf(size_t i) const { return i % cfg_.users; }
  size_t PurposeIndexOf(size_t i) const { return i % cfg_.purposes; }
  size_t Record(size_t subject, size_t k) const {
    return subject + k * cfg_.users;
  }

  // The record as registered at load and at every re-registration, the
  // same every time: timestamps count from the run's start. The generator
  // draws expiries from (now, now + 30 days]; a week is added so that no
  // record can expire during a run.
  GdprRecord Make(size_t i) const {
    GdprRecord rec = gen_.Make(i);
    auto& m = rec.metadata;
    if (m.expiry_micros != 0) {
      m.expiry_micros += base_micros_ - m.created_micros + 7 * kDay;
    }
    m.created_micros = base_micros_;
    return rec;
  }

 private:
  static gdpr::bench::DatasetConfig MakeConfig(size_t records) {
    gdpr::bench::DatasetConfig c;
    c.data_bytes = 100;
    c.users = std::max<size_t>(2, records / kRecordsPerSubject / 2 * 2);
    c.purposes = 64;
    c.partners = 16;
    c.share_every = 4;
    c.ttl_every = 2;
    return c;
  }

  gdpr::bench::DatasetConfig cfg_;
  gdpr::bench::RecordGenerator gen_;
  int64_t base_micros_;
};

inline uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// One client's op stream: `ops` operations fixed by (seed, client) alone.
// As in GDPRbench, each op draws one record ordinal from a Zipfian
// distribution (theta 0.99) and takes its key, subject and base purpose
// from it; the draw is over the client's own records, rank j being record
// 2j + client. Every delete and forget is followed by the re-registration
// of what it erased, so the dataset keeps its size; the last
// `final_forgets` forgets are not followed by re-registration, so the
// reopen check has erased subjects to verify.
inline std::vector<Op> MakeStream(const Dataset& ds, const Mix& mix,
                                  uint64_t seed, int client, size_t ops,
                                  size_t final_forgets) {
  gdpr::Random rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed + uint64_t(client));
  const uint32_t weights[] = {mix.read_data,     mix.read_meta,
                              mix.update_meta,   mix.update_data,
                              mix.query_purpose, mix.query_user,
                              mix.exprt,         mix.delete_key,
                              mix.forget};
  const Kind kinds[] = {Kind::kReadData,     Kind::kReadMeta,
                        Kind::kUpdateMeta,   Kind::kUpdateData,
                        Kind::kQueryPurpose, Kind::kQueryUser,
                        Kind::kExport,       Kind::kDeleteKey,
                        Kind::kForget};
  uint32_t total = 0;
  for (uint32_t w : weights) total += w;
  const gdpr::ZipfianDistribution zipf(ds.records() / kClients);
  auto record = [&] { return size_t(zipf.Next(rng) * kClients + size_t(client)); };
  const size_t tail = final_forgets;
  std::vector<Op> out;
  out.reserve(ops + kRecordsPerSubject);
  while (out.size() + tail < ops) {
    uint32_t pick = uint32_t(rng.Uniform(total));
    size_t w = 0;
    while (pick >= weights[w]) pick -= weights[w++];
    Op op;
    op.kind = kinds[w];
    const size_t i = record();
    switch (op.kind) {
      case Kind::kQueryPurpose:
        op.target = uint32_t(ds.PurposeIndexOf(i));
        break;
      case Kind::kQueryUser:
      case Kind::kExport:
      case Kind::kForget:
        op.target = uint32_t(ds.SubjectOf(i));
        break;
      default:
        op.target = uint32_t(i);
        break;
    }
    op.variant = 4 - mix.update_fields + uint32_t(rng.Uniform(mix.update_fields));
    op.arg = rng.Next();
    if (op.kind == Kind::kDeleteKey) {
      if (out.size() + 2 + tail > ops) continue;
      out.push_back(op);
      Op create;
      create.kind = Kind::kCreate;
      create.target = op.target;
      out.push_back(create);
      continue;
    }
    if (op.kind == Kind::kForget) {
      if (out.size() + 1 + kRecordsPerSubject + tail > ops) continue;
      out.push_back(op);
      for (size_t k = 0; k < kRecordsPerSubject; ++k) {
        Op create;
        create.kind = Kind::kCreate;
        create.target = uint32_t(ds.Record(op.target, k));
        out.push_back(create);
      }
      continue;
    }
    out.push_back(op);
  }
  // Final forgets: distinct subjects, never re-registered.
  std::vector<uint32_t> erased;
  while (erased.size() < final_forgets) {
    const uint32_t s = uint32_t(ds.SubjectOf(record()));
    if (std::find(erased.begin(), erased.end(), s) != erased.end()) continue;
    erased.push_back(s);
    Op op;
    op.kind = Kind::kForget;
    op.target = s;
    out.push_back(op);
  }
  return out;
}

inline uint64_t StreamDigest(const std::vector<Op>& ops) {
  uint64_t h = 1469598103934665603ull;
  for (const Op& op : ops) {
    h = Fnv1a(h, uint64_t(op.kind) | uint64_t(op.target) << 8 |
                     uint64_t(op.variant) << 40);
    h = Fnv1a(h, op.arg);
  }
  return h;
}

// What the benchmark believes each record holds. Each client writes only
// its own records, so a client reads and writes the model without locks.
struct Model {
  struct Entry {
    GdprRecord rec;
    bool live = false;
  };
  std::vector<Entry> records;
  // Live records per base purpose (purpose queries) and per subject.
  std::vector<size_t> live_by_purpose;
  std::vector<size_t> live_by_subject;

  void Init(const Dataset& ds) {
    records.assign(ds.records(), Entry{});
    live_by_purpose.assign(ds.purposes(), 0);
    live_by_subject.assign(ds.users(), 0);
  }
  void Put(const Dataset& ds, size_t i, GdprRecord rec) {
    Entry& e = records[i];
    if (!e.live) {
      ++live_by_purpose[ds.PurposeIndexOf(i)];
      ++live_by_subject[ds.SubjectOf(i)];
    }
    e.rec = std::move(rec);
    e.live = true;
  }
  void Erase(const Dataset& ds, size_t i) {
    Entry& e = records[i];
    if (!e.live) return;
    --live_by_purpose[ds.PurposeIndexOf(i)];
    --live_by_subject[ds.SubjectOf(i)];
    e.live = false;
  }
  size_t Live() const {
    size_t n = 0;
    for (const auto& e : records) n += e.live;
    return n;
  }
};

}  // namespace perfbench
