// ClusterGdprStore: a slot-partitioned multi-node GDPR store. N homogeneous
// nodes, each a full KvGdprStore (records, secondary indexes, TTL queue,
// tombstones, and its own hash-chained audit log), fronted by a router that
// implements gdpr::GdprStore — every bench, example, and test that takes a
// GdprStore runs unmodified against a cluster.
//
// The router is transport-agnostic: every routed, fanned-out, migrated, or
// merged operation goes through net::NodeHandle (src/net/node_handle.h) —
// the router never touches a KvGdprStore* outside node construction and
// ownership, and cluster_store.cc is grep-gated to keep it that way.
// ClusterOptions::transport picks the handle type per cluster:
//
//   kInProcess       InProcessHandle — direct virtual calls, zero copies,
//                    the pre-seam behavior and performance.
//   kLoopbackSocket  one RpcServer per node plus a RemoteHandle over an
//                    AF_UNIX socketpair — every operation is encoded,
//                    framed, decoded, dispatched, and framed back, i.e.
//                    the full wire protocol exercised in-process. The
//                    transport-equivalence suites run the same workloads
//                    over both and assert identical results, audit head
//                    hashes, and health states.
//
//   * Point ops (create / read / update / delete / verify by key) route by
//     key slot under a per-slot read fence.
//   * Metadata queries (by user / purpose / sharing) and GDPR broadcasts
//     (user erasure, TTL sweep, log pulls) scatter over a worker pool and
//     gather: per-node results are merged and deduped by key.
//   * MoveSlots rebalances live: one slot at a time is write-fenced, its
//     records (and erasure tombstones) are copied to the destination node
//     through slot-scoped handle exports, ownership flips, and the source
//     copy is evicted.
//   * Forget (DeleteRecordsByUser) acks only when every node acked its
//     tombstones durable; failed or unreachable nodes are named in the
//     partial-failure status.

#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/scatter_gather.h"
#include "cluster/slot_map.h"
#include "gdpr/kv_backend.h"
#include "gdpr/store.h"
#include "net/node_handle.h"
#include "net/rpc_server.h"

namespace gdpr::cluster {

// How the router reaches its nodes. kInProcess is direct calls;
// kLoopbackSocket puts the full wire protocol (and an RpcServer per node)
// between router and store.
enum class ClusterTransport { kInProcess, kLoopbackSocket };

inline const char* ClusterTransportName(ClusterTransport t) {
  switch (t) {
    case ClusterTransport::kInProcess: return "in-process";
    case ClusterTransport::kLoopbackSocket: return "socket";
  }
  return "unknown";
}

struct ClusterOptions {
  size_t nodes = 4;
  uint32_t slots = SlotMap::kDefaultSlots;
  // Fan-out worker threads; 0 = one per node (each node's sub-query gets a
  // thread, the practical ceiling for scatter-gather speedup).
  size_t fanout_threads = 0;
  Clock* clock = nullptr;
  ComplianceFlags compliance;
  // Per-node inner KV template. When an AOF path is set, node i appends
  // ".node<i>" so logs do not collide.
  kv::Options kv;
  // Durable audit-chain template. When audit.path is set, node i persists
  // its chain at "<path>.node<i>" and the router's own chain (MOVE-SLOTS /
  // COMPACT-ALL trail) at "<path>.router", so every chain re-verifies
  // independently after a full-cluster restart.
  AuditLogOptions audit;
  // Node transport (see ClusterTransport above).
  ClusterTransport transport = ClusterTransport::kInProcess;
  // Per-request budget for socket transports; an overrun surfaces as
  // Unavailable on that node, not a hang.
  int rpc_timeout_ms = 10'000;
};

class ClusterGdprStore : public GdprStore {
 public:
  explicit ClusterGdprStore(const ClusterOptions& options);
  ~ClusterGdprStore() override;

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

  // Worst health across every node plus the router's audit chain. A
  // degraded node degrades the cluster *report*, but scatter-gather reads
  // keep flowing around it (MergeRecords skips Unavailable parts) and
  // point ops to healthy nodes' slots are unaffected. Over a socket
  // transport an unreachable node reports kDegradedReadOnly with an
  // Unavailable cause.
  HealthState GetHealth() override;
  Status GetHealthCause() override;
  // Per-node view (handle order) for operators deciding what to drain.
  HealthState NodeHealth(size_t i) { return nodes_[i]->GetHealth(); }

  // Fans the erasure-aware compaction out to every node and merges the
  // per-node stats; audited once on the router chain as COMPACT-ALL.
  StatusOr<CompactionStats> CompactNow(const Actor& actor) override;
  CompactionStats GetCompactionStats() override;

  // --- Cluster surface -----------------------------------------------------

  // Cluster-flavored alias for CompactNow (the fan-out is the point).
  StatusOr<CompactionStats> CompactAll(const Actor& actor) {
    return CompactNow(actor);
  }

  size_t node_count() const { return nodes_.size(); }
  // Direct access to the node's backing store — tests and tools peeking at
  // per-node state (record counts, audit chains). Router code paths never
  // use this; they go through handle(i).
  KvGdprStore* node(size_t i) { return stores_[i].get(); }
  // The node's transport-facing face.
  net::NodeHandle* handle(size_t i) { return nodes_[i].get(); }
  // The node's RPC server, or nullptr for in-process transports. Tests
  // stop one to simulate a killed node.
  net::RpcServer* node_server(size_t i) {
    return i < servers_.size() ? servers_[i].get() : nullptr;
  }
  const SlotMap& slot_map() const { return slot_map_; }

  // Moves the given slots to dst_node, live: point traffic to other slots
  // is untouched; traffic to a moving slot waits only for that slot's copy.
  Status MoveSlots(const std::vector<uint32_t>& slots, uint32_t dst_node);
  // Levels slot ownership across all nodes (see SlotMap::PlanRebalance).
  Status Rebalance();

  // Verifies every node's audit chain plus the router's own (MOVE-SLOTS
  // trail). per_node, when given, receives handle order then the router.
  // An unreachable node verifies as false.
  bool VerifyAuditChains(std::vector<bool>* per_node = nullptr);

  // Cluster-wide view: the router's own metrics (per-node fan-out
  // latencies, per-node RPC latencies and bytes on socket transports,
  // degraded-node skips, slot-migration progress, cluster health) merged
  // with every node's StatsSnapshot — same-name counters and histogram
  // buckets sum across nodes.
  obs::RegistrySnapshot StatsSnapshot() override;

  const ClusterOptions& options() const { return options_; }

 private:
  // Builds node i's backing store from the cluster template. Lives in the
  // header so cluster_store.cc — the routing logic — stays free of any
  // KvGdprStore mention (the grep gate in CI).
  static std::unique_ptr<KvGdprStore> MakeNodeStore(
      const ClusterOptions& options, Clock* clock, size_t i) {
    KvGdprOptions o;
    o.clock = clock;
    o.compliance = options.compliance;
    o.kv = options.kv;
    o.audit = options.audit;
    if (!o.kv.aof_path.empty()) {
      o.kv.aof_path += ".node" + std::to_string(i);
    }
    if (!o.audit.path.empty()) {
      o.audit.path += ".node" + std::to_string(i);
    }
    return std::make_unique<KvGdprStore>(o);
  }

  uint32_t SlotOf(const std::string& key) const {
    return slot_map_.SlotOf(key);
  }
  net::NodeHandle* OwnerNode(uint32_t slot) {
    return nodes_[slot_map_.OwnerOf(slot)].get();
  }

  void AuditCluster(const Actor& actor, const char* op, const std::string& key,
                    bool allowed);

  // Runs fn(handle) for every node on the fan-out pool; results land in a
  // node-indexed vector so the merge is deterministic.
  template <typename T>
  std::vector<T> FanOut(const std::function<T(net::NodeHandle*)>& fn);

  // Concatenates per-node record vectors, dropping duplicate keys —
  // defense in depth should a key ever live on two nodes at once.
  // Unavailable parts (a degraded node refusing the sub-query, or an
  // unreachable node behind a dead socket) are skipped so one bad disk or
  // link does not take down cluster-wide reads; the merge only fails when
  // every node is unavailable or a node reports a real error.
  // Non-static: each skipped part counts on cluster_degraded_skips_total.
  std::vector<GdprRecord> MergeRecords(
      std::vector<StatusOr<std::vector<GdprRecord>>> parts, Status* status);

  ClusterOptions options_;
  SlotMap slot_map_;
  // Router-level metrics only (cluster_*, plus the router audit chain's
  // audit_* counters); per-op latencies live in the nodes' registries and
  // merge in at StatsSnapshot. Declared before the stores/handles so
  // everything recording into it dies first.
  obs::MetricsRegistry registry_;
  std::vector<obs::Histogram*> fanout_hist_;  // cluster_node_fanout_us{node=i}
  obs::Counter* m_degraded_skips_ = nullptr;
  obs::Counter* m_slots_moved_ = nullptr;
  obs::Counter* m_records_migrated_ = nullptr;
  obs::Gauge* m_migration_active_ = nullptr;
  // Ownership vs. routing, deliberately split: stores_ owns the node
  // engines, servers_ (socket transports only) owns one RpcServer per
  // store, nodes_ owns the handles the router actually talks through.
  // Declaration order is destruction-order-critical: handles die first
  // (they hold fds into the servers), then servers stop their loops, then
  // the stores they wrap go down.
  std::vector<std::unique_ptr<KvGdprStore>> stores_;
  std::vector<std::unique_ptr<net::RpcServer>> servers_;
  std::vector<std::unique_ptr<net::NodeHandle>> nodes_;
  std::unique_ptr<ScatterGather> pool_;

  // Per-slot write fence: point ops hold it shared, MoveSlots holds the
  // moving slot's exclusively. shared_mutex is non-movable, hence the
  // unique_ptr indirection.
  std::vector<std::unique_ptr<std::shared_mutex>> slot_fence_;

  // Fan-out ops (metadata queries, user erasure, TTL sweep, scans, reset)
  // run node-local without slot fences; they hold this shared against
  // MoveSlots (exclusive) so a record can't be erased on the source after
  // its copy reached the destination, and a scatter-gather read can't miss
  // a record that is mid-flight between nodes.
  std::shared_mutex migrate_mu_;
};

}  // namespace gdpr::cluster
