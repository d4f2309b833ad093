// The traced run: a span around every request, plus layer probes run on
// that request's own inputs and recorded as the request's children.
//
// Each probe times one layer from outside, at its public entry point.
// Probes that mutate state run on standalone instances (an audit chain, a
// MemKV, posting maps, an AEAD and a commit pipeline, loaded with the
// workload's records), never on the store under test; read-only probes
// (MemKV gets, the RPC round trip) run on the store under test. Because the
// probes run beside the request rather than inside it, they estimate each
// layer's share. Registry counters and histograms the engine already
// exports through StatsSnapshot() give the per-op counts and the relational
// engine's own statement times. A layer the workload's store does not use
// is not probed, and its metrics read 0.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client.h"
#include "common/epoch.h"
#include "crypto/aead.h"
#include "gdpr/access.h"
#include "gdpr/audit.h"
#include "gdpr/ops.h"
#include "kvstore/db.h"
#include "kvstore/epoch_map.h"
#include "net/node_handle.h"
#include "net/wire.h"
#include "storage/commit_pipeline.h"

namespace perfbench {

// Per-layer metrics, in the order BENCHMARK.json lists them.
#define PERFBENCH_LAYERS(X)                                 \
  X(kAccess, "gdpr.access_us", "us")                        \
  X(kCodecParse, "gdpr.codec_parse_us", "us")               \
  X(kCodecSerialize, "gdpr.codec_serialize_us", "us")       \
  X(kAuditAppend, "gdpr.audit_append_us", "us")             \
  X(kAuditEntries, "gdpr.audit_entries_per_op", "count")    \
  X(kAuditBytes, "gdpr.audit_bytes_per_op", "bytes")        \
  X(kRecordsPerQuery, "gdpr.records_per_query", "count")    \
  X(kKvGet, "kvstore.get_us", "us")                         \
  X(kKvSet, "kvstore.set_us", "us")                         \
  X(kIndexAdd, "kvstore.index_add_us", "us")                \
  X(kIndexRemove, "kvstore.index_remove_us", "us")          \
  X(kIndexWalk, "kvstore.index_walk_us", "us")              \
  X(kPostingLen, "kvstore.posting_len", "count")            \
  X(kAofBytes, "kvstore.aof_bytes_per_op", "bytes")         \
  X(kKvReplay, "kvstore.replay_s", "s")                     \
  X(kRetiredNodes, "kvstore.retired_nodes", "count")        \
  X(kSeal, "crypto.seal_us", "us")                          \
  X(kOpen, "crypto.open_us", "us")                          \
  X(kCommitAck, "storage.commit_ack_us", "us")              \
  X(kFramesPerBatch, "storage.frames_per_batch", "count")   \
  X(kStall, "storage.stall_us", "us")                       \
  X(kFsync, "storage.fsync_us", "us")                       \
  X(kCommitFailures, "storage.commit_failures", "count")    \
  X(kEncode, "net.encode_us", "us")                         \
  X(kDecode, "net.decode_us", "us")                         \
  X(kRoundtrip, "net.roundtrip_us", "us")                   \
  X(kNetBytes, "net.bytes_per_op", "bytes")                 \
  X(kReconnects, "net.reconnects", "count")                 \
  X(kFanout, "cluster.fanout_us", "us")                     \
  X(kForgetFanout, "cluster.forget_fanout_us", "us")        \
  X(kRelSelect, "relstore.select_us", "us")                 \
  X(kRelInsert, "relstore.insert_us", "us")                 \
  X(kRelUpdate, "relstore.update_us", "us")                 \
  X(kRelDelete, "relstore.delete_us", "us")                 \
  X(kWalBytes, "relstore.wal_bytes_per_op", "bytes")        \
  X(kStmtBytes, "relstore.stmt_bytes_per_op", "bytes")      \
  X(kRelReplay, "relstore.replay_s", "s")

enum Layer : int {
#define PERFBENCH_ENUM(id, name, unit) id,
  PERFBENCH_LAYERS(PERFBENCH_ENUM)
#undef PERFBENCH_ENUM
  kLayerCount
};

struct LayerInfo {
  const char* name;
  const char* unit;
};
inline const LayerInfo& Info(int layer) {
  static const LayerInfo kInfo[] = {
#define PERFBENCH_INFO(id, name, unit) {name, unit},
      PERFBENCH_LAYERS(PERFBENCH_INFO)
#undef PERFBENCH_INFO
  };
  return kInfo[layer];
}

struct Span {
  uint64_t req;
  int32_t name;   // Layer, or -1 - Kind for the request itself
  int32_t parent; // index of the request span in the same vector, or -1
  int64_t start_ns, end_ns;
};

inline const char* OpName(Kind k) {
  switch (k) {
    case Kind::kReadData: return gdpr::ops::kReadData;
    case Kind::kReadMeta: return gdpr::ops::kReadMeta;
    case Kind::kUpdateMeta: return gdpr::ops::kUpdateMeta;
    case Kind::kUpdateData: return gdpr::ops::kUpdateData;
    case Kind::kCreate: return gdpr::ops::kCreate;
    case Kind::kDeleteKey: return gdpr::ops::kDeleteKey;
    case Kind::kQueryPurpose: return gdpr::ops::kReadMetaPurpose;
    case Kind::kQueryUser: return gdpr::ops::kReadMetaUser;
    case Kind::kExport: return gdpr::ops::kReadRecordsUser;
    default: return gdpr::ops::kDeleteUser;
  }
}

class Probes : public RequestHook {
 public:
  Probes(const Dataset& ds, System* sys, std::string dir)
      : ds_(ds),
        sys_(sys),
        dir_(std::move(dir)),
        kv_layer_(sys->backend() != Backend::kRel),
        aead_(kAeadKey) {}
  ~Probes() override { Close(); }

  // Builds the standalone instances and loads them with the model's
  // records (the workload's postings and blobs).
  bool Load(const Model& model) {
    RemoveTree(dir_);
    mkdir(dir_.c_str(), 0755);
    if (kv_layer_ && !OpenKv()) return false;
    gdpr::CommitPipeline::Options po;
    pipeline_ = std::make_unique<gdpr::CommitPipeline>(po);
    auto f = gdpr::Env::Posix()->NewWritableFile(dir_ + "/commit.log", true);
    if (!f.ok()) return false;
    commit_file_ = std::move(f.value());
    target_ = pipeline_->Attach("probe", commit_file_.get(),
                                gdpr::SyncPolicy::kEverySec);
    for (size_t i = 0; i < model.records.size(); ++i) {
      const auto& e = model.records[i];
      if (!e.live) continue;
      if (!kv_layer_) continue;
      by_user_.Add(e.rec.metadata.user, e.rec.key);
      by_purpose_.Add(Base(i), e.rec.key);
      if (!kv_->Set(e.rec.key, e.rec.Serialize()).ok()) return false;
    }
    return true;
  }

  void OnRequest(int client, uint64_t req, const Op& op, const Actor& actor,
                 const GdprRecord* rec, const std::vector<GdprRecord>* result,
                 int64_t start_ns, int64_t end_ns) override {
    auto& spans = spans_[client];
    const int32_t parent = int32_t(spans.size());
    spans.push_back(Span{req, -1 - int32_t(op.kind), -1, start_ns, end_ns});
    Ctx ctx{client, req, parent};
    const std::string key = rec ? rec->key : std::string();
    const char* opname = OpName(op.kind);

    // gdpr: access decision and audit append, for every op.
    Time(ctx, kAccess, 16, [&] {
      return gdpr::CheckGdprAccess(FullCompliance(), actor, opname, rec).ok();
    });
    Time(ctx, kAuditAppend, 1, [&] {
      gdpr::AuditEntry e;
      e.timestamp_micros = end_ns / 1000;
      e.actor_id = actor.id;
      e.role = actor.role;
      e.op = opname;
      e.key = rec ? key : std::to_string(op.target);
      audit_.Append(std::move(e));
      return true;
    });
    // net: the request frame, and the reply frame where there is one.
    if (sys_->cluster()) {
      gdpr::net::WireRequest wr;
      wr.op = WireOpOf(op.kind);
      wr.actor = actor;
      wr.key = rec ? key : std::to_string(op.target);
      if (rec) wr.record = *rec;
      gdpr::net::WireResponse resp;
      resp.op = wr.op;
      if (op.kind == Kind::kReadData && rec) resp.record = *rec;
      if (result) resp.records = *result;
      std::string req_frame, resp_frame;
      Time(ctx, kEncode, 1, [&] {
        req_frame = gdpr::net::EncodeRequest(wr);
        resp_frame = gdpr::net::EncodeResponse(resp);
        return true;
      });
      Time(ctx, kDecode, 1, [&] {
        gdpr::net::WireRequest r2;
        gdpr::net::WireResponse p2;
        return gdpr::net::DecodeRequest(req_frame, &r2).ok() &&
               gdpr::net::DecodeResponse(resp_frame, &p2).ok();
      });
    }

    if (rec) {
      std::string wire = rec->Serialize();
      Time(ctx, kCodecSerialize, 4, [&] { return !rec->Serialize().empty(); });
      Time(ctx, kCodecParse, 4, [&] { return GdprRecord::Parse(wire).ok(); });
      std::string sealed;
      Time(ctx, kSeal, 1, [&] {
        sealed = aead_.Seal(wire, seq_.fetch_add(1));
        return true;
      });
      Time(ctx, kOpen, 1, [&] { return aead_.Open(sealed).ok(); });
    }

    // storage: a commit of the request's record on a scratch target.
    if (rec && ClassOf(op.kind) == kWrite) {
      const std::string wire = rec->Serialize();
      Time(ctx, kCommitAck, 1, [&] {
        return pipeline_->Commit(target_, wire, std::hash<std::string>()(key)).ok();
      });
    }

    // kvstore (KV and cluster stores): gets on the store under test; sets,
    // index writes and posting walks on the standalone instances.
    if (kv_layer_) {
      switch (op.kind) {
        case Kind::kReadData:
        case Kind::kReadMeta:
          Time(ctx, kKvGet, 1, [&] { return StoreGet(key); });
          break;
        case Kind::kUpdateMeta:
        case Kind::kUpdateData:
        case Kind::kCreate: {
          const std::string wire = rec->Serialize();
          Time(ctx, kKvSet, 1, [&] { return kv_->Set(key, wire).ok(); });
          const size_t i = op.target;
          if (op.kind != Kind::kCreate) {
            Time(ctx, kIndexRemove, 1, [&] { return IndexRemove(i, *rec); });
          }
          Time(ctx, kIndexAdd, 1, [&] { return IndexAdd(i, *rec); });
          break;
        }
        case Kind::kDeleteKey:
          Time(ctx, kIndexRemove, 1, [&] { return IndexRemove(op.target, *rec); });
          break;
        case Kind::kQueryPurpose:
          Walk(ctx, by_purpose_, ds_.Purpose(op.target));
          break;
        case Kind::kQueryUser:
        case Kind::kExport:
          Walk(ctx, by_user_, ds_.User(op.target));
          break;
        case Kind::kForget:
          Walk(ctx, by_user_, ds_.User(op.target));
          for (size_t k = 0; k < kRecordsPerSubject; ++k) {
            const size_t i = ds_.Record(op.target, k);
            GdprRecord r;
            r.key = ds_.Key(i);
            r.metadata.user = ds_.User(op.target);
            Time(ctx, kIndexRemove, 1, [&] { return IndexRemove(i, r); });
          }
          break;
        default:
          break;
      }
    }

    // net and cluster: the round trip and the fan-outs.
    if (sys_->cluster()) {
      if (op.kind == Kind::kReadData) Roundtrip(ctx, actor, key);
      if (op.kind == Kind::kExport) {
        Fanout(ctx, kFanout, "gdpr_export_us", end_ns - start_ns);
      }
      if (op.kind == Kind::kForget) {
        Fanout(ctx, kForgetFanout, "gdpr_forget_e2e_us", end_ns - start_ns);
      }
      SnapshotNodeHistograms(client);
    }
  }

  // Audit entries the probes added to the store under test.
  uint64_t audited() const { return audited_.load(); }

  // Registry deltas of the run, and the replay probes on the closed
  // store's files.
  void Finish(System* closed, const gdpr::obs::RegistrySnapshot& before,
              const gdpr::obs::RegistrySnapshot& after, uint64_t ops,
              uint64_t queries, uint64_t query_records) {
    const auto delta = after.Delta(before);
    auto per_op = [&](const char* counter) {
      return double(delta.CounterValue(counter)) / double(ops);
    };
    // The round-trip probe's reads are audited too; they are not the
    // workload's, so they are taken out (bytes in proportion).
    const double entries = double(delta.CounterValue("audit_appends_total"));
    const double own = entries > 0 ? (entries - double(audited())) / entries : 0;
    value_[kAuditEntries] = own * entries / double(ops);
    value_[kAuditBytes] = own * per_op("audit_persisted_bytes_total");
    value_[kRecordsPerQuery] = queries ? double(query_records) / double(queries) : 0;
    value_[kAofBytes] = per_op("memkv_aof_append_bytes_total");
    value_[kRetiredNodes] = double(after.GaugeValue("gdpr_index_retired_nodes") -
                                   before.GaugeValue("gdpr_index_retired_nodes"));
    const double batches = double(delta.CounterValue("commit_batches_total"));
    value_[kFramesPerBatch] =
        batches ? double(delta.CounterValue("commit_frames_total")) / batches : 0;
    gdpr::obs::HistogramSnapshot stall;
    for (const auto& h : delta.histograms) {
      if (h.name.rfind("commit_stall_us", 0) == 0) stall.MergeFrom(h);
    }
    value_[kStall] = stall.Mean();
    const auto* fsync = delta.FindHistogram("commit_fsync_us");
    value_[kFsync] = fsync ? fsync->Mean() : 0;
    value_[kCommitFailures] = double(delta.CounterValue("commit_failures_total"));
    value_[kNetBytes] = per_op("cluster_rpc_bytes_total");
    value_[kReconnects] = double(delta.CounterValue("cluster_rpc_reconnects_total"));
    value_[kWalBytes] = per_op("reldb_wal_append_bytes_total");
    value_[kStmtBytes] = per_op("reldb_stmt_bytes_total");
    // The relational engine's own statement times (exact means; the
    // histograms' percentiles are only bucket estimates).
    auto mean = [&](const char* hist) {
      const auto* h = delta.FindHistogram(hist);
      return h ? h->Mean() : 0.0;
    };
    value_[kRelSelect] = mean("reldb_select_us");
    value_[kRelInsert] = mean("reldb_insert_us");
    value_[kRelUpdate] = mean("reldb_update_us");
    value_[kRelDelete] = mean("reldb_delete_us");

    // Replay on the closed store's files: MemKV::Open alone on each AOF,
    // or the relational store's Open on its WAL.
    switch (closed->backend()) {
      case Backend::kKv:
        value_[kKvReplay] = KvReplay({closed->AofPath()});
        break;
      case Backend::kCluster: {
        std::vector<std::string> paths;
        for (size_t i = 0; i < kClusterNodes; ++i) {
          paths.push_back(closed->AofPath() + ".node" + std::to_string(i));
        }
        value_[kKvReplay] = KvReplay(paths);
        break;
      }
      case Backend::kRel:
        value_[kRelReplay] = StoreRelReplay(closed);
        break;
    }
  }

  std::string MetricsJson() {
    std::string out;
    for (int l = 0; l < kLayerCount; ++l) {
      double v = value_[l];
      if (v < 0) v = MedianOf(l);
      char buf[160];
      snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
               l ? "," : "", Info(l).name, v, Info(l).unit);
      out += buf;
    }
    return out;
  }

  // Spans of each client's first kTraceRequests requests, one per line:
  // request id, parent span index, name, start and end (ns), and the
  // span's self time (its duration minus the part of it its children
  // cover; probes run beside the request, so a request's self time is its
  // whole duration). The cap keeps the file to a few tens of MB.
  void WriteTrace(const std::string& path) {
    constexpr uint64_t kTraceRequests = 10000;
    FILE* f = fopen(path.c_str(), "w");
    if (!f) return;
    fprintf(f, "client,req,index,parent,name,start_ns,end_ns,self_ns\n");
    for (int c = 0; c < kClients; ++c) {
      const auto& spans = spans_[c];
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if ((s.req & ((uint64_t(1) << 40) - 1)) >= kTraceRequests) break;
        int64_t covered = 0;
        for (size_t j = i + 1; j < spans.size() && spans[j].parent == int32_t(i); ++j) {
          const int64_t lo = std::max(s.start_ns, spans[j].start_ns);
          const int64_t hi = std::min(s.end_ns, spans[j].end_ns);
          if (hi > lo) covered += hi - lo;
        }
        const char* name = s.name >= 0 ? Info(s.name).name
                                       : KindName(Kind(-1 - s.name));
        fprintf(f, "%d,%llu,%zu,%d,%s,%lld,%lld,%lld\n", c,
                (unsigned long long)s.req, i, s.parent, name,
                (long long)s.start_ns, (long long)s.end_ns,
                (long long)(s.end_ns - s.start_ns - covered));
      }
    }
    fclose(f);
  }

 private:
  static constexpr const char* kAeadKey = "memkv-at-rest-key";

  struct Ctx {
    int client;
    uint64_t req;
    int32_t parent;
  };

  // Times fn (run `reps` times) as a child span of the request; the
  // sample is the time of one call.
  template <typename Fn>
  void Time(const Ctx& ctx, Layer layer, int reps, Fn fn) {
    const int64_t t0 = NowNs();
    bool ok = true;
    for (int r = 0; r < reps; ++r) ok &= fn();
    const int64_t t1 = NowNs();
    spans_[ctx.client].push_back(Span{ctx.req, layer, ctx.parent, t0, t1});
    if (ok) samples_[ctx.client][layer].push_back(double(t1 - t0) / 1000.0 / reps);
  }

  void Sample(const Ctx& ctx, Layer layer, double v) {
    samples_[ctx.client][layer].push_back(v);
  }

  double MedianOf(int layer) {
    std::vector<double> v;
    for (int c = 0; c < kClients; ++c) {
      v.insert(v.end(), samples_[c][layer].begin(), samples_[c][layer].end());
    }
    if (v.empty()) return 0;
    std::nth_element(v.begin(), v.begin() + long(v.size() / 2), v.end());
    return v[v.size() / 2];
  }

  std::string Base(size_t i) const { return ds_.Purpose(ds_.PurposeIndexOf(i)); }

  static gdpr::net::WireOp WireOpOf(Kind k) {
    using gdpr::net::WireOp;
    switch (k) {
      case Kind::kReadData: return WireOp::kReadData;
      case Kind::kReadMeta: return WireOp::kReadMeta;
      case Kind::kUpdateMeta: return WireOp::kUpdateMeta;
      case Kind::kUpdateData: return WireOp::kUpdateData;
      case Kind::kCreate: return WireOp::kCreateRecord;
      case Kind::kDeleteKey: return WireOp::kDeleteKey;
      case Kind::kQueryPurpose: return WireOp::kReadMetaPurpose;
      case Kind::kQueryUser: return WireOp::kReadMetaUser;
      case Kind::kExport: return WireOp::kReadRecordsUser;
      default: return WireOp::kDeleteUser;
    }
  }

  // Index writers serialize, as the store's do.
  bool IndexAdd(size_t i, const GdprRecord& rec) {
    std::lock_guard<std::mutex> l(idx_mu_);
    by_user_.Add(rec.metadata.user, rec.key);
    return by_purpose_.Add(Base(i), rec.key);
  }
  bool IndexRemove(size_t i, const GdprRecord& rec) {
    std::lock_guard<std::mutex> l(idx_mu_);
    by_user_.Remove(rec.metadata.user, rec.key);
    return by_purpose_.Remove(Base(i), rec.key);
  }

  void Walk(const Ctx& ctx, const gdpr::kv::EpochPostingMap& index,
            const std::string& value) {
    size_t n = 0;
    Time(ctx, kIndexWalk, 1, [&] {
      gdpr::EpochGuard guard;
      index.ForEachKey(value, [&](const std::string&) {
        ++n;
        return true;
      });
      return true;
    });
    Sample(ctx, kPostingLen, double(n));
  }

  // MemKV::Get on the store under test (the owner node's engine on a
  // cluster).
  bool StoreGet(const std::string& key) {
    if (sys_->kv()) return sys_->kv()->raw()->Get(key).ok();
    auto* c = sys_->cluster();
    const size_t owner = c->slot_map().OwnerOf(c->slot_map().SlotOf(key));
    return c->node(owner)->raw()->Get(key).ok();
  }

  // The same read through the owner's RemoteHandle and through an
  // in-process handle on the same node store; the difference is the wire.
  void Roundtrip(const Ctx& ctx, const Actor& actor, const std::string& key) {
    auto* c = sys_->cluster();
    const size_t owner = c->slot_map().OwnerOf(c->slot_map().SlotOf(key));
    gdpr::net::InProcessHandle local(c->node(owner));
    const int64_t t0 = NowNs();
    const bool remote_ok = c->handle(owner)->ReadDataByKey(actor, key).ok();
    const int64_t t1 = NowNs();
    const bool local_ok = local.ReadDataByKey(actor, key).ok();
    const int64_t t2 = NowNs();
    audited_ += 2;
    spans_[ctx.client].push_back(Span{ctx.req, kRoundtrip, ctx.parent, t0, t2});
    if (remote_ok && local_ok) {
      Sample(ctx, kRoundtrip, double((t1 - t0) - (t2 - t1)) / 1000.0);
    }
  }

  // Router call minus the slowest node's own call of the same op. Each
  // node times the op into `hist`; the delta since this client's previous
  // request is attributed only when it holds exactly this request's calls.
  void Fanout(const Ctx& ctx, Layer layer, const char* hist, int64_t router_ns) {
    auto* c = sys_->cluster();
    double slowest = 0;
    for (size_t i = 0; i < kClusterNodes; ++i) {
      const auto now = NodeHistogram(c, i, hist);
      const auto& prev = last_[ctx.client][i][layer == kFanout ? 0 : 1];
      if (now.count != prev.count + 1) return;
      slowest = std::max(slowest, double(now.sum - prev.sum));
    }
    Sample(ctx, layer, double(router_ns) / 1000.0 - slowest);
  }

  static gdpr::obs::HistogramSnapshot NodeHistogram(
      gdpr::cluster::ClusterGdprStore* c, size_t i, const char* name) {
    auto* reg = c->node(i)->raw()->metrics_registry();
    return gdpr::obs::HistogramSnapshot::Of(name, *reg->GetHistogram(name));
  }

  void SnapshotNodeHistograms(int client) {
    auto* c = sys_->cluster();
    for (size_t i = 0; i < kClusterNodes; ++i) {
      last_[client][i][0] = NodeHistogram(c, i, "gdpr_export_us");
      last_[client][i][1] = NodeHistogram(c, i, "gdpr_forget_e2e_us");
    }
  }

  // --- standalone instances ------------------------------------------------

  bool OpenKv() {
    gdpr::kv::Options o;
    o.encrypt_at_rest = true;
    o.aof_enabled = true;
    o.aof_path = dir_ + "/probe.aof";
    o.sync_policy = gdpr::SyncPolicy::kEverySec;
    unlink(o.aof_path.c_str());
    kv_ = std::make_unique<gdpr::kv::MemKV>(o);
    return kv_->Open().ok();
  }

  double KvReplay(const std::vector<std::string>& paths) {
    double total = 0;
    for (const auto& p : paths) {
      gdpr::kv::Options o;
      o.encrypt_at_rest = true;
      o.aof_enabled = true;
      o.aof_path = p;
      o.sync_policy = gdpr::SyncPolicy::kEverySec;
      gdpr::kv::MemKV db(o);
      const int64_t t0 = NowNs();
      const bool ok = db.Open().ok();
      total += double(NowNs() - t0) / 1e9;
      db.Close().ok();
      if (!ok) return 0;
    }
    return total;
  }

  // The relational store's replay of its own WAL: RelGdprStore::Open with
  // the audit chain kept in memory, so only the WAL is read.
  static double StoreRelReplay(System* closed) {
    gdpr::RelGdprOptions o;
    o.compliance = FullCompliance();
    o.rel.wal_enabled = true;
    o.rel.wal_path = closed->WalPath();
    o.rel.sync_policy = gdpr::SyncPolicy::kEverySec;
    gdpr::RelGdprStore store(o);
    const int64_t t0 = NowNs();
    const bool ok = store.Open().ok();
    const double s = double(NowNs() - t0) / 1e9;
    store.Close().ok();
    return ok ? s : 0;
  }

  void Close() {
    if (pipeline_ && target_) {
      pipeline_->WithQuiesced(target_, [&] {
        pipeline_->SetFile(target_, nullptr);
        return gdpr::Status::OK();
      }).ok();
    }
    pipeline_.reset();
    commit_file_.reset();
    if (kv_) kv_->Close().ok();
    kv_.reset();
  }

  const Dataset& ds_;
  System* sys_;
  std::string dir_;
  const bool kv_layer_;  // the store under test is built on MemKV

  gdpr::AuditLog audit_;
  gdpr::Aead aead_;
  std::atomic<uint64_t> seq_{1};
  std::mutex idx_mu_;
  gdpr::kv::EpochPostingMap by_user_;
  gdpr::kv::EpochPostingMap by_purpose_;
  std::unique_ptr<gdpr::kv::MemKV> kv_;
  std::unique_ptr<gdpr::CommitPipeline> pipeline_;
  std::unique_ptr<gdpr::WritableFile> commit_file_;
  gdpr::CommitPipeline::Target* target_ = nullptr;

  std::vector<Span> spans_[kClients];
  std::vector<double> samples_[kClients][kLayerCount];
  gdpr::obs::HistogramSnapshot last_[kClients][kClusterNodes][2];
  std::vector<double> value_ = std::vector<double>(kLayerCount, -1);  // <0: median of samples
  std::atomic<uint64_t> audited_{0};
};

}  // namespace perfbench
