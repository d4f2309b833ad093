// Fault-injection sweeps over every durability path. The harness
// (tests/fault_harness.h) runs a mixed GDPR workload once over a FaultEnv
// to learn how many failable I/O ops it issues, then re-runs it with a
// fault injected at each op index — fail-the-Nth-op for fsync-failure /
// ENOSPC hardening, crash-at-the-Nth-op for torn-write recovery — reopens
// the store from the surviving bytes, and machine-checks the durability
// contract (acked writes durable per sync policy, erased users stay
// erased, no resurrection from torn bytes, audit chains verify, degraded
// stores refuse writes but keep serving reads).
//
// The final test asserts the injection-point floor and emits the "faults"
// BENCH_RESULT_JSON line tools/bench_compare.py tracks.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_store.h"
#include "fault_harness.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "relstore/database.h"
#include "storage/fault_env.h"

namespace gdpr {
namespace {

constexpr uint64_t kSeed = 0xfa017;

// Rewrites a MemEnv file to drop its last `cut_bytes` (a torn trailing
// write), same idiom as test_audit_persistence.cc.
void Truncate(MemEnv* env, const std::string& path, size_t cut_bytes) {
  const std::string contents = env->ReadFileToString(path).value();
  ASSERT_GT(contents.size(), cut_bytes);
  auto f = std::move(env->NewWritableFile(path, /*truncate=*/true).value());
  ASSERT_TRUE(
      f->Append(contents.substr(0, contents.size() - cut_bytes)).ok());
}

// ---- FaultEnv unit tests ---------------------------------------------------

TEST(FaultEnvSmoke, CountsOps) {
  MemEnv mem;
  FaultEnv fenv(&mem, 42);
  auto f = fenv.NewWritableFile("x", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append("hello").ok());
  ASSERT_TRUE(f.value()->Sync().ok());
  ASSERT_TRUE(f.value()->Close().ok());
  EXPECT_EQ(fenv.op_count(), 4u);
  EXPECT_EQ(mem.ReadFileToString("x").value_or(""), "hello");
}

TEST(FaultEnvSmoke, EnospcShapedAppendIsTransient) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto f = std::move(fenv.NewWritableFile("x", true).value());  // op 1
  FaultPlan plan;
  plan.fail_at_op = 2;
  fenv.set_plan(plan);
  Status s = f->Append("lost");  // op 2: injected
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s.ToString();
  // ENOSPC does not poison the handle: the next attempt goes through.
  ASSERT_TRUE(f->Append("kept").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(mem.ReadFileToString("x").value_or(""), "kept");
  EXPECT_EQ(fenv.faults_injected(), 1u);
}

TEST(FaultEnvSmoke, FsyncgatePoisonsHandleAndDropsBuffer) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto f = std::move(fenv.NewWritableFile("x", true).value());  // op 1
  ASSERT_TRUE(f->Append("abc").ok());                           // op 2
  FaultPlan plan;
  plan.fail_at_op = 3;
  fenv.set_plan(plan);
  Status s = f->Sync();  // op 3: fsyncgate
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // The unsynced bytes are gone and every later op on the handle fails —
  // a retried fsync must never be assumed to have persisted them.
  EXPECT_FALSE(f->Append("more").ok());
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(f->Close().ok());
  f.reset();  // the destructor must not resurrect the dropped buffer
  EXPECT_EQ(mem.ReadFileToString("x").value_or(""), "");
}

TEST(FaultEnvSmoke, CrashPointAbandonsSubsequentWrites) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto f = std::move(fenv.NewWritableFile("x", true).value());  // op 1
  ASSERT_TRUE(f->Append("AAAA").ok());                          // op 2
  ASSERT_TRUE(f->Sync().ok());                                  // op 3: durable
  ASSERT_TRUE(f->Append("BBBB").ok());                          // op 4: cached
  FaultPlan plan;
  plan.crash_at_op = 5;
  fenv.set_plan(plan);
  EXPECT_TRUE(f->Sync().ok());  // op 5: the crash — reported as success
  EXPECT_TRUE(fenv.crashed());
  // From here the world is stopped: writes, deletes and renames are
  // silently abandoned and the base Env holds the post-crash disk image.
  EXPECT_TRUE(f->Append("CCCC").ok());
  EXPECT_TRUE(f->Close().ok());
  EXPECT_TRUE(fenv.DeleteFile("x").ok());
  EXPECT_TRUE(mem.FileExists("x"));
  auto post = fenv.NewWritableFile("y", true);
  ASSERT_TRUE(post.ok());
  ASSERT_TRUE(post.value()->Append("z").ok());
  ASSERT_TRUE(post.value()->Sync().ok());
  EXPECT_FALSE(mem.FileExists("y"));
  // Disk image: the synced prefix plus at most a torn tail of the
  // unsynced buffer.
  const std::string img = mem.ReadFileToString("x").value_or("");
  ASSERT_GE(img.size(), 4u);
  ASSERT_LE(img.size(), 8u);
  EXPECT_EQ(img.substr(0, 4), "AAAA");
  EXPECT_EQ(img.substr(4), std::string("BBBB").substr(0, img.size() - 4));
}

TEST(FaultEnvSmoke, CorruptReadFlipsExactlyOneByte) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  const std::string payload = "0123456789abcdef";
  {
    auto f = std::move(fenv.NewWritableFile("x", true).value());
    ASSERT_TRUE(f->Append(payload).ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kRead)] = 1.0;
  plan.corrupt_reads = true;
  fenv.set_plan(plan);
  auto r = fenv.ReadFileToString("x");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), payload.size());
  int diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    diffs += r.value()[i] != payload[i];
  }
  EXPECT_EQ(diffs, 1);
}

// ---- sweep driver ----------------------------------------------------------

using StoreFactory = std::function<std::unique_ptr<GdprStore>(Env*)>;

std::unique_ptr<GdprStore> MakeKvStore(Env* env, SyncPolicy sync) {
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = env;
  o.kv.shards = 4;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "kv/aof";
  o.kv.sync_policy = sync;
  o.kv.log_reads = true;
  o.kv.io_policy.retry_backoff_micros = 0;
  o.audit.path = "kv/audit";
  o.audit.rotate_bytes = 512;  // force segment rotations mid-workload
  o.audit.io_policy.retry_backoff_micros = 0;
  auto store = std::make_unique<KvGdprStore>(o);
  store->audit_log()->set_seal_interval(4);
  return store;
}

std::unique_ptr<GdprStore> MakeRelStore(Env* env) {
  RelGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.rel.env = env;
  o.rel.wal_enabled = true;
  o.rel.wal_path = "rel/wal";
  o.rel.sync_policy = SyncPolicy::kAlways;
  o.rel.log_statements = true;
  o.rel.statement_log_path = "rel/stmt";
  o.rel.stmt_log_rotate_bytes = 512;  // force rotations mid-workload
  o.rel.stmt_log_max_segments = 3;
  o.rel.io_policy.retry_backoff_micros = 0;
  o.audit.path = "rel/audit";
  o.audit.rotate_bytes = 512;
  o.audit.io_policy.retry_backoff_micros = 0;
  auto store = std::make_unique<RelGdprStore>(o);
  store->audit_log()->set_seal_interval(4);
  return store;
}

struct SweepSpec {
  StoreFactory make;
  bool crash_mode = false;  // crash_at_op instead of fail_at_op
  bool strict_acks = true;  // the sync policy makes an OK binding
  std::string path_filter;  // restrict injection to matching paths
  // Filtered sweeps skip indices where the Nth op missed the filter.
  bool count_only_injected = false;
};

void RunSweep(const SweepSpec& spec) {
  // Discovery: no faults, learn the op total, and prove the fault-free
  // image round-trips before sweeping means anything.
  uint64_t total = 0;
  {
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    auto store = spec.make(&fenv);
    ASSERT_TRUE(store->Open().ok());
    fault::Ledger led;
    fault::RunGdprWorkload(store.get(), &fenv, &led, spec.strict_acks);
    ASSERT_TRUE(store->Close().ok());
    total = fenv.op_count();
    if (spec.strict_acks) {
      EXPECT_EQ(led.durable.size(), 8u);
      EXPECT_EQ(led.erased.size(), 5u);
    }
    auto reopened = spec.make(fenv.base());
    ASSERT_TRUE(reopened->Open().ok());
    fault::CheckRecovery(reopened.get(), led);
    ASSERT_TRUE(reopened->Close().ok());
  }
  ASSERT_GT(total, 40u) << "workload issues too few failable ops to sweep";
  const uint64_t stride = fault::SweepStride(total);
  for (uint64_t i = 1; i <= total; i += stride) {
    SCOPED_TRACE("injection at op " + std::to_string(i) + " of " +
                 std::to_string(total));
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    FaultPlan plan;
    if (spec.crash_mode) {
      plan.crash_at_op = i;
    } else {
      plan.fail_at_op = i;
    }
    plan.torn_appends = true;
    plan.path_filter = spec.path_filter;
    fenv.set_plan(plan);
    fault::Ledger led;
    {
      auto store = spec.make(&fenv);
      Status open = store->Open();
      if (open.ok()) {
        fault::RunGdprWorkload(store.get(), &fenv, &led, spec.strict_acks);
        fault::CheckDegradedContract(store.get());
        (void)store->Close().ok();  // may fail under the injected fault
      }
      // else: the open-time fault failed loudly; reopen must still work.
    }
    if (spec.count_only_injected && fenv.faults_injected() == 0) continue;
    fault::InjectionPoints().fetch_add(1, std::memory_order_relaxed);
    // Reopen over the base env: a fresh process reading what survived.
    auto store = spec.make(fenv.base());
    Status reopen = store->Open();
    ASSERT_TRUE(reopen.ok()) << reopen.ToString();
    fault::CheckRecovery(store.get(), led);
    ASSERT_TRUE(store->Close().ok());
  }
}

// ---- the sweeps ------------------------------------------------------------

TEST(FaultSweep, KvEveryOpFails) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kAlways); };
  RunSweep(spec);
}

TEST(FaultSweep, KvEveryOpCrashes) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kAlways); };
  spec.crash_mode = true;
  RunSweep(spec);
}

// Under everysec the acks are not binding (that is the policy's contract);
// the sweep still proves reopen succeeds, nothing resurrects, and the
// audit chain verifies after a crash at every op.
TEST(FaultSweep, KvEverySecCrashRecoversCleanly) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kEverySec); };
  spec.crash_mode = true;
  spec.strict_acks = false;
  RunSweep(spec);
}

TEST(FaultSweep, KvAuditSegmentsFocused) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kAlways); };
  spec.path_filter = ".seg";  // only audit segment files are eligible
  spec.count_only_injected = true;
  RunSweep(spec);
}

TEST(FaultSweep, RelEveryOpFails) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeRelStore(e); };
  RunSweep(spec);
}

TEST(FaultSweep, RelEveryOpCrashes) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeRelStore(e); };
  spec.crash_mode = true;
  RunSweep(spec);
}

TEST(FaultSweep, RelStatementLogFocused) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeRelStore(e); };
  spec.path_filter = "stmt";  // statement log + its rotated segments
  spec.count_only_injected = true;
  RunSweep(spec);
}

// ---- relational record writes propagate every statement's failure ---------

// A record write on the relational backend is several statements: the row,
// one join row per purpose and per sharing party, and the tombstone delete.
// A WAL fault in any of them must fail CreateRecord, never leave the record
// out of its purpose or sharing index behind an OK.
TEST(RelFaults, FailedJoinRowWriteFailsCreateRecord) {
  GdprRecord rec;
  rec.key = "k-joined";
  rec.data = "payload";
  rec.metadata.user = "neo";
  rec.metadata.purposes = {"ads", "billing"};
  rec.metadata.shared_with = {"acme"};
  rec.metadata.origin = "first-party";
  // Discovery: the failable ops one CreateRecord issues.
  uint64_t first = 0, last = 0;
  {
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    auto store = MakeRelStore(&fenv);
    ASSERT_TRUE(store->Open().ok());
    first = fenv.op_count() + 1;
    ASSERT_TRUE(store->CreateRecord(Actor::Controller(), rec).ok());
    last = fenv.op_count();
  }
  size_t injected = 0;
  for (uint64_t op = first; op <= last; ++op) {
    SCOPED_TRACE("WAL fault at op " + std::to_string(op));
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    auto store = MakeRelStore(&fenv);
    ASSERT_TRUE(store->Open().ok());
    FaultPlan plan;
    plan.fail_at_op = op;
    plan.path_filter = "rel/wal";
    fenv.set_plan(plan);
    const Status s = store->CreateRecord(Actor::Controller(), rec);
    (void)store->Close().ok();  // may fail under the injected fault
    if (fenv.faults_injected() == 0) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    ++injected;
    EXPECT_FALSE(s.ok());
  }
  // The row and its three join rows each append to the WAL.
  EXPECT_GE(injected, 4u);
}

// ---- statement-log torn-tail recovery (rel::Database directly) -------------

TEST(StatementLogTorn, ActiveTailSurvivesReopen) {
  MemEnv env;
  rel::RelOptions o;
  o.env = &env;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kAlways;
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    for (int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(db.Insert(t.value(), {rel::Value(i)}).ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string before = env.ReadFileToString("stmt").value();
  Truncate(&env, "stmt", 3);  // torn trailing write
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.Health(), HealthState::kHealthy);
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.Insert(t.value(), {rel::Value(int64_t(99))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // The surviving prefix is untouched and new statements append after it.
  const std::string after = env.ReadFileToString("stmt").value();
  const std::string kept = before.substr(0, before.size() - 3);
  ASSERT_GT(after.size(), kept.size());
  EXPECT_EQ(after.substr(0, kept.size()), kept);
}

TEST(StatementLogTorn, RotatedSegmentKeepsValidPrefix) {
  MemEnv env;
  rel::RelOptions o;
  o.env = &env;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kAlways;
  o.stmt_log_rotate_bytes = 128;
  o.stmt_log_max_segments = 4;
  auto insert_until = [&](rel::Database* db, rel::Table* t,
                          const std::string& seg) {
    for (int64_t i = 0; i < 200 && !env.FileExists(seg); ++i) {
      ASSERT_TRUE(db->Insert(t, {rel::Value(i)}).ok());
    }
    ASSERT_TRUE(env.FileExists(seg));
  };
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    insert_until(&db, t.value(), "stmt.1");
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string seg = env.ReadFileToString("stmt.1").value();
  Truncate(&env, "stmt.1", 4);  // tear the rotated segment's tail
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.Health(), HealthState::kHealthy);
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    insert_until(&db, t.value(), "stmt.2");
    ASSERT_TRUE(db.Close().ok());
  }
  // The torn segment shifted to .2 with its valid prefix intact — rotation
  // never rewrites retained history, torn tail or not.
  EXPECT_EQ(env.ReadFileToString("stmt.2").value(),
            seg.substr(0, seg.size() - 4));
}

TEST(StatementLogTorn, RotationRenameFailureDegradesThenReopenHeals) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  rel::RelOptions o;
  o.env = &fenv;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kAlways;
  o.stmt_log_rotate_bytes = 128;
  o.io_policy.retry_backoff_micros = 0;
  rel::Database db(o);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kRename)] = 1.0;
  plan.path_filter = "stmt";
  fenv.set_plan(plan);
  // The rotation's rename shuffle fails: the statement log degrades, once,
  // loudly, through the insert that triggered it.
  Status rot;
  for (int64_t i = 0; i < 200 && rot.ok(); ++i) {
    rot = db.Insert(t.value(), {rel::Value(i)});
  }
  ASSERT_FALSE(rot.ok());
  EXPECT_EQ(db.Health(), HealthState::kDegradedReadOnly);
  // Mutations refuse (their statement evidence would be incomplete);
  // reads keep serving, unlogged.
  EXPECT_TRUE(db.Insert(t.value(), {rel::Value(int64_t(999))}).IsUnavailable());
  EXPECT_TRUE(
      db.SelectWhere(t.value(), [](const rel::Row&) { return true; }).ok());
  (void)db.Close().ok();
  // A new incarnation over the recovered disk starts healthy.
  fenv.ClearFaults();
  rel::Database db2(o);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.Health(), HealthState::kHealthy);
  ASSERT_TRUE(db2.Close().ok());
}

// ---- cluster: degraded node ------------------------------------------------

TEST(ClusterFaults, DegradedNodeRoutesAroundAndReportsPartialForget) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  cluster::ClusterOptions o;
  o.nodes = 4;
  o.compliance.metadata_indexing = true;
  o.kv.env = &fenv;
  o.kv.shards = 4;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "cl/aof";
  o.kv.sync_policy = SyncPolicy::kAlways;
  o.audit.path = "cl/audit";
  cluster::ClusterGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor ctrl = Actor::Controller();

  // Spread keys until every node owns at least one.
  std::vector<std::string> owned_by_node(4);
  std::vector<std::string> keys;
  std::set<uint32_t> covered;
  for (int i = 0; i < 64 && covered.size() < 4; ++i) {
    const std::string key = "ck" + std::to_string(i);
    const uint32_t owner =
        store.slot_map().OwnerOf(store.slot_map().SlotOf(key));
    ASSERT_TRUE(
        store.CreateRecord(
                 ctrl, fault::MakeRecord(key, "cluster-user", "v-" + key))
            .ok());
    keys.push_back(key);
    owned_by_node[owner] = key;
    covered.insert(owner);
  }
  ASSERT_EQ(covered.size(), 4u);

  // Node 1's disk starts failing every fsync (fsyncgate); everyone else's
  // files (".node0", ".router", ...) are untouched.
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kSync)] = 1.0;
  plan.path_filter = ".node1";
  fenv.set_plan(plan);

  // The first write against node 1 surfaces the failure and degrades it.
  Status hit = store.UpdateDataByKey(ctrl, owned_by_node[1], "poke");
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(store.NodeHealth(1), HealthState::kDegradedReadOnly);
  EXPECT_EQ(store.NodeHealth(0), HealthState::kHealthy);
  EXPECT_EQ(store.GetHealth(), HealthState::kDegradedReadOnly);
  Status cause = store.GetHealthCause();
  ASSERT_FALSE(cause.ok());
  EXPECT_NE(cause.message().find("node 1"), std::string::npos)
      << cause.ToString();

  // Point ops: writes to the degraded node refuse with Unavailable, its
  // reads keep serving from memory, healthy nodes are unaffected.
  EXPECT_TRUE(
      store.UpdateDataByKey(ctrl, owned_by_node[1], "again").IsUnavailable());
  EXPECT_TRUE(store.ReadDataByKey(ctrl, owned_by_node[1]).ok());
  EXPECT_TRUE(store.UpdateDataByKey(ctrl, owned_by_node[0], "fine").ok());

  // Scatter-gather reads flow around the degraded node: the full key set
  // is still served.
  auto all = store.ReadMetadataByUser(ctrl, "cluster-user");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), keys.size());

  // Forget cannot durably tombstone node 1: partial failure, loudly, with
  // the healthy nodes' share erased.
  auto forget = store.DeleteRecordsByUser(ctrl, "cluster-user");
  ASSERT_FALSE(forget.ok());
  EXPECT_TRUE(forget.status().IsUnavailable()) << forget.status().ToString();
  EXPECT_NE(forget.status().message().find("erasure incomplete"),
            std::string::npos)
      << forget.status().ToString();
  auto left = store.ReadMetadataByUser(ctrl, "cluster-user");
  ASSERT_TRUE(left.ok());
  ASSERT_FALSE(left.value().empty());
  for (const auto& rec : left.value()) {
    EXPECT_EQ(store.slot_map().OwnerOf(store.slot_map().SlotOf(rec.key)), 1u)
        << rec.key << " should have been erased (healthy owner)";
  }

  // The disk recovers; a successful full rewrite heals the node and the
  // retried Forget completes everywhere.
  fenv.ClearFaults();
  ASSERT_TRUE(store.node(1)->CompactNow(ctrl).ok());
  EXPECT_EQ(store.NodeHealth(1), HealthState::kHealthy);
  EXPECT_EQ(store.GetHealth(), HealthState::kHealthy);
  auto retry = store.DeleteRecordsByUser(ctrl, "cluster-user");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  auto gone = store.ReadMetadataByUser(ctrl, "cluster-user");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().empty());
  auto verified = store.VerifyDeletion(Actor::Regulator(), owned_by_node[1]);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified.value());
  ASSERT_TRUE(store.Close().ok());
}

// ---- coverage floor + robustness trajectory --------------------------------

// Runs last (registration order): asserts the acceptance floor on distinct
// injection points and emits the robustness-coverage line that
// tools/bench_compare.py tracks across PRs.
TEST(ZFaultSummary, CoverageFloorAndReport) {
  const uint64_t points = fault::InjectionPoints().load();
  const uint64_t checks = fault::InvariantChecks().load();
  // A constrained GDPR_FAULT_BUDGET (CI smoke) strides past indices; only
  // hold the full-floor assertion when the budget allows reaching it.
  if (fault::SweepBudget() == 0 || fault::SweepBudget() >= 50) {
    EXPECT_GE(points, 200u);
  }
  EXPECT_GT(checks, points);  // every swept point ran multiple invariants
  std::printf(
      "BENCH_RESULT_JSON {\"bench\":\"fault-sweep\",\"injection_points\":%llu,"
      "\"invariant_checks\":%llu}\n",
      static_cast<unsigned long long>(points),
      static_cast<unsigned long long>(checks));
}

}  // namespace
}  // namespace gdpr
