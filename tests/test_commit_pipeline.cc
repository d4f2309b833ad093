// Targeted coverage for the group-commit pipeline
// (storage/commit_pipeline.h) — the behaviors the single-threaded fault
// sweep in test_fault_injection.cc cannot reach because its batches are
// always one frame deep:
//
//   * multi-writer frames coalesce into one write()+fsync batch;
//   * a mid-batch fsync failure fans the error out to EVERY writer in the
//     batch, poisons the target, degrades health, and none of the failed
//     batch's records survive on disk (fsyncgate: dirty pages dropped);
//   * kEverySec acks at write() return, syncs on the committer's timed
//     cadence, and a timed-sync failure poisons without failing an acked
//     caller;
//   * quiesce/SetFile swaps, detached-target acks, and gate aborts;
//   * end-to-end over MemKV + FaultEnv: a crash inside the kEverySec
//     window loses at most the unsynced tail, and never a kAlways ack.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/health.h"
#include "kvstore/db.h"
#include "obs/metrics.h"
#include "storage/commit_pipeline.h"
#include "storage/env.h"
#include "storage/fault_env.h"

namespace gdpr {
namespace {

// Polls `pred` for up to ~5s of real time. The committer thread runs on
// real time even when the pipeline clock is simulated, so tests that wait
// on committer-side effects (timed syncs, poison latching) spin here.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// WritableFile that buffers appends and makes Sync controllable, modeling
// a page cache the test owns: the Nth sync can block (to let writers pile
// up behind an in-flight batch) or fail-and-drop (fsyncgate semantics —
// the kernel marked the dirty pages clean on the way to the error, so the
// bytes are gone). Successful syncs flush the buffer to the base file.
class GateSyncFile : public WritableFile {
 public:
  explicit GateSyncFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> l(mu_);
    buf_.append(data);
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    std::unique_lock<std::mutex> l(mu_);
    const int n = ++sync_calls_;
    if (n == block_sync_no_) {
      in_blocked_sync_ = true;
      cv_.notify_all();
      cv_.wait(l, [&] { return released_; });
      in_blocked_sync_ = false;
    }
    if (n == fail_sync_no_) {
      buf_.clear();  // dirty pages dropped while being marked clean
      return Status::IOError("injected fsync failure");
    }
    Status s = base_->Append(buf_);
    if (!s.ok()) return s;
    buf_.clear();
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

  void BlockOnSync(int n) {
    std::lock_guard<std::mutex> l(mu_);
    block_sync_no_ = n;
  }
  void FailOnSync(int n) {
    std::lock_guard<std::mutex> l(mu_);
    fail_sync_no_ = n;
  }
  void WaitUntilBlockedInSync() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return in_blocked_sync_; });
  }
  void ReleaseBlockedSync() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int sync_calls() const {
    std::lock_guard<std::mutex> l(mu_);
    return sync_calls_;
  }

 private:
  std::unique_ptr<WritableFile> base_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string buf_;
  int sync_calls_ = 0;
  int block_sync_no_ = 0;  // 0 = never block
  int fail_sync_no_ = 0;   // 0 = never fail
  bool in_blocked_sync_ = false;
  bool released_ = false;
};

std::unique_ptr<GateSyncFile> OpenGateFile(MemEnv* env,
                                           const std::string& path) {
  auto base = env->NewWritableFile(path, /*truncate=*/true);
  EXPECT_TRUE(base.ok());
  return std::make_unique<GateSyncFile>(std::move(base.value()));
}

// Four writers, committer held inside the first batch's fsync: the three
// late arrivals coalesce into ONE second batch (one write, one fsync).
TEST(CommitPipeline, ConcurrentWritersCoalesceIntoOneBatch) {
  MemEnv mem;
  auto file = OpenGateFile(&mem, "log");
  file->BlockOnSync(1);
  obs::MetricsRegistry reg;
  CommitPipeline::Options po;
  po.metrics = &reg;
  CommitPipeline pl(po);
  CommitPipeline::Target* t =
      pl.Attach("log", file.get(), SyncPolicy::kAlways);

  Status sa;
  std::thread wa([&] { sa = pl.Commit(t, "A|", 0); });
  file->WaitUntilBlockedInSync();

  Status sb, sc, sd;
  std::thread wb([&] { sb = pl.Commit(t, "B|", 0); });
  std::thread wc([&] { sc = pl.Commit(t, "C|", 1); });
  std::thread wd([&] { sd = pl.Commit(t, "D|", 2); });
  // A is still counted in `queued` until its batch retires, so 4 = A in
  // flight + B/C/D parked in the rings.
  ASSERT_TRUE(WaitFor([&] { return pl.QueuedFrames(t) == 4; }));
  file->ReleaseBlockedSync();
  wa.join();
  wb.join();
  wc.join();
  wd.join();

  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());
  EXPECT_TRUE(sc.ok());
  EXPECT_TRUE(sd.ok());
  EXPECT_EQ(reg.GetCounter("commit_frames_total")->Value(), 4u);
  EXPECT_EQ(reg.GetCounter("commit_batches_total")->Value(), 2u);
  EXPECT_EQ(file->sync_calls(), 2);

  std::string bytes = mem.ReadFileToString("log").value();
  EXPECT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 2), "A|");  // first batch wrote first
  for (const char* f : {"B|", "C|", "D|"})
    EXPECT_NE(bytes.find(f), std::string::npos) << f;
}

// The satellite contract: a mid-batch fsync failure errors ALL writers in
// the batch, and none of their records are on disk afterwards.
TEST(CommitPipeline, MidBatchFsyncFailureFansOutToAllWriters) {
  MemEnv mem;
  auto file = OpenGateFile(&mem, "log");
  file->BlockOnSync(1);
  file->FailOnSync(2);
  obs::MetricsRegistry reg;
  CommitPipeline::Options po;
  po.metrics = &reg;
  CommitPipeline pl(po);
  HealthTracker health;
  CommitPipeline::Target* t =
      pl.Attach("log", file.get(), SyncPolicy::kAlways, &health);

  Status sa;
  std::thread wa([&] { sa = pl.Commit(t, "A|", 0); });
  file->WaitUntilBlockedInSync();

  Status sb, sc, sd;
  std::thread wb([&] { sb = pl.Commit(t, "B|", 0); });
  std::thread wc([&] { sc = pl.Commit(t, "C|", 1); });
  std::thread wd([&] { sd = pl.Commit(t, "D|", 2); });
  ASSERT_TRUE(WaitFor([&] { return pl.QueuedFrames(t) == 4; }));
  file->ReleaseBlockedSync();
  wa.join();
  wb.join();
  wc.join();
  wd.join();

  // A's batch synced before the injected failure; B/C/D shared the failed
  // batch and every one of them saw the error.
  EXPECT_TRUE(sa.ok());
  for (const Status* s : {&sb, &sc, &sd}) {
    EXPECT_FALSE(s->ok());
    EXPECT_NE(s->message().find("injected fsync failure"), std::string::npos)
        << s->ToString();
  }
  EXPECT_EQ(reg.GetCounter("commit_failures_total")->Value(), 1u);
  EXPECT_EQ(health.state(), HealthState::kDegradedReadOnly);

  // fsyncgate: poisoned, never retried — later commits fail fast with the
  // poisoning status and issue no further I/O.
  Status again = pl.Commit(t, "E|", 0);
  EXPECT_FALSE(again.ok());
  EXPECT_NE(again.message().find("injected fsync failure"), std::string::npos);
  EXPECT_EQ(file->sync_calls(), 2);

  // No resurrection: the surviving bytes are exactly the acked batch.
  EXPECT_EQ(mem.ReadFileToString("log").value(), "A|");
}

// max_batch_frames=1 is the per-write baseline the benches compare
// against: every frame pays its own write()+fsync, no coalescing ever.
TEST(CommitPipeline, PerWriteBaselineNeverCoalesces) {
  MemEnv mem;
  auto file = OpenGateFile(&mem, "log");
  obs::MetricsRegistry reg;
  CommitPipeline::Options po;
  po.metrics = &reg;
  po.max_batch_frames = 1;
  CommitPipeline pl(po);
  CommitPipeline::Target* t =
      pl.Attach("log", file.get(), SyncPolicy::kAlways);

  constexpr size_t kThreads = 4, kFrames = 8;
  std::vector<std::thread> ws;
  std::atomic<size_t> failures{0};
  for (size_t i = 0; i < kThreads; ++i) {
    ws.emplace_back([&, i] {
      for (size_t j = 0; j < kFrames; ++j)
        if (!pl.Commit(t, "x", i).ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : ws) w.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(reg.GetCounter("commit_frames_total")->Value(),
            kThreads * kFrames);
  EXPECT_EQ(reg.GetCounter("commit_batches_total")->Value(),
            kThreads * kFrames);
  EXPECT_EQ(mem.ReadFileToString("log").value().size(), kThreads * kFrames);
}

// Quiesce drains the target, SetFile swaps the log under it, a detached
// target acks without writing, and a gate abort returns verbatim without
// enqueuing anything.
TEST(CommitPipeline, QuiesceSwapDetachAndGateAbort) {
  MemEnv mem;
  auto f1 = OpenGateFile(&mem, "log1");
  auto f2 = OpenGateFile(&mem, "log2");
  CommitPipeline pl;
  CommitPipeline::Target* t =
      pl.Attach("log", f1.get(), SyncPolicy::kAlways);

  ASSERT_TRUE(pl.Commit(t, "one|").ok());

  // Swap to log2 under quiesce; the drain guarantee means log1 holds
  // everything committed before the swap.
  Status qs = pl.WithQuiesced(t, [&]() -> Status {
    EXPECT_EQ(pl.QueuedFrames(t), 0u);
    pl.SetFile(t, f2.get());
    return Status::OK();
  });
  ASSERT_TRUE(qs.ok());
  ASSERT_TRUE(pl.Commit(t, "two|").ok());
  EXPECT_EQ(mem.ReadFileToString("log1").value(), "one|");
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "two|");

  // Detached: commits ack OK, nothing is written anywhere.
  ASSERT_TRUE(pl.WithQuiesced(t, [&]() -> Status {
                  pl.SetFile(t, nullptr);
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(pl.Commit(t, "three|").ok());
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "two|");

  // Gate abort: status comes back verbatim, no frame enqueued.
  ASSERT_TRUE(pl.WithQuiesced(t, [&]() -> Status {
                  pl.SetFile(t, f2.get());
                  return Status::OK();
                }).ok());
  Status gs = pl.Commit(t, "four|", 0, [] {
    return Status::FailedPrecondition("gate says no");
  });
  EXPECT_FALSE(gs.ok());
  EXPECT_EQ(gs.message(), "gate says no");
  EXPECT_EQ(pl.QueuedFrames(t), 0u);
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "two|");
}

// kEverySec ack contract: Commit returns once write() succeeded — no
// fsync on the ack path. The committer syncs on its own once the interval
// elapses, and a timed-sync failure poisons the target (degrading future
// commits) instead of failing a caller that was already acked.
TEST(CommitPipeline, EverySecAcksBeforeSyncAndTimedFailurePoisons) {
  MemEnv mem;
  auto file = OpenGateFile(&mem, "log");
  SimulatedClock clock(0);
  obs::MetricsRegistry reg;
  CommitPipeline::Options po;
  po.metrics = &reg;
  po.clock = &clock;
  CommitPipeline pl(po);
  HealthTracker health;
  CommitPipeline::Target* t =
      pl.Attach("log", file.get(), SyncPolicy::kEverySec, &health);

  ASSERT_TRUE(pl.Commit(t, "a|").ok());
  EXPECT_EQ(file->sync_calls(), 0);  // acked with zero fsyncs issued
  // The ack fires before the batch's own timed-sync check; wait for the
  // committer to retire the batch (which happens after that check) so
  // the clock advance below cannot race it into syncing a| alone and
  // consuming the interval b|'s batch needs.
  ASSERT_TRUE(WaitFor([&] { return pl.QueuedFrames(t) == 0; }));

  // Interval elapses; the next batch's post-ack timed sync flushes.
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(pl.Commit(t, "b|").ok());
  ASSERT_TRUE(WaitFor([&] { return file->sync_calls() == 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return mem.ReadFileToString("log").value() == "a|b|"; }));

  // Timed-sync failure: the acked caller still got OK (its write
  // succeeded); the poison surfaces on the NEXT commit, and health
  // degrades so the store stops taking writes.
  file->FailOnSync(2);
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(pl.Commit(t, "c|").ok());
  ASSERT_TRUE(WaitFor([&] { return !pl.Commit(t, "d|").ok(); }));
  Status poisoned = pl.Commit(t, "e|");
  EXPECT_NE(poisoned.message().find("injected fsync failure"),
            std::string::npos);
  EXPECT_EQ(health.state(), HealthState::kDegradedReadOnly);
  EXPECT_EQ(reg.GetCounter("commit_failures_total")->Value(), 1u);
}

// ---- end-to-end over MemKV + FaultEnv --------------------------------------

// Crash inside the kEverySec window: everything covered by the last timed
// sync survives; the unsynced tail is the ONLY thing at risk, and a torn
// tail never corrupts what came before it.
TEST(CommitPipeline, EverySecCrashLosesAtMostTheUnsyncedTail) {
  MemEnv mem;
  FaultEnv fenv(&mem, /*seed=*/0xc0117);
  SimulatedClock clock(0);
  {
    kv::Options o;
    o.env = &fenv;
    o.clock = &clock;
    o.shards = 4;
    o.aof_enabled = true;
    o.aof_path = "kv/aof";
    o.sync_policy = SyncPolicy::kEverySec;
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());

    ASSERT_TRUE(db.Set("k1", "alpha-payload-1").ok());
    // The ack fires before k1's batch runs its timed-sync check: let the
    // batch retire first, or the clock advance below can make k1 take the
    // timed sync alone, leaving k2 inside a fresh interval, never synced.
    ASSERT_TRUE(WaitFor([&] { return db.AofQueuedFrames() == 0; }));
    clock.AdvanceSeconds(2);
    // This Set's batch triggers the committer's timed sync, flushing k1+k2
    // through FaultEnv's write buffer to the base MemEnv.
    ASSERT_TRUE(db.Set("k2", "beta-payload-2").ok());
    ASSERT_TRUE(WaitFor([&] {
      auto s = mem.ReadFileToString("kv/aof");
      return s.ok() && s.value().find("beta-payload-2") != std::string::npos;
    }));

    // k3 lands in the window: written, acked, NOT yet synced.
    ASSERT_TRUE(db.Set("k3", "gamma-payload-3").ok());

    // Crash at the next failable op: pending buffers spill as a
    // pseudo-random (possibly torn) prefix, later I/O is abandoned.
    FaultPlan plan;
    plan.crash_at_op = fenv.op_count() + 1;
    fenv.set_plan(plan);
    db.Close().ok();
    ASSERT_TRUE(fenv.crashed());
  }

  // Reopen from the surviving bytes (the base env — the crash world).
  kv::Options o2;
  o2.env = &mem;
  o2.shards = 4;
  o2.aof_enabled = true;
  o2.aof_path = "kv/aof";
  kv::MemKV db2(o2);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.Get("k1").value(), "alpha-payload-1");
  EXPECT_EQ(db2.Get("k2").value(), "beta-payload-2");
  // Bounded loss: k3 is the unsynced tail — allowed to be gone, but if the
  // torn prefix happened to carry its whole record it must be intact.
  auto g3 = db2.Get("k3");
  if (g3.ok()) {
    EXPECT_EQ(g3.value(), "gamma-payload-3");
  }
}

// The contrast case: a kAlways ack means the group commit fsynced before
// Commit() returned, so no later crash can take the write back.
TEST(CommitPipeline, AlwaysAckedWriteSurvivesCrash) {
  MemEnv mem;
  FaultEnv fenv(&mem, /*seed=*/0xc0117);
  {
    kv::Options o;
    o.env = &fenv;
    o.shards = 4;
    o.aof_enabled = true;
    o.aof_path = "kv/aof";
    o.sync_policy = SyncPolicy::kAlways;
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Set("a1", "acked-payload").ok());  // durable on return

    FaultPlan plan;
    plan.crash_at_op = fenv.op_count() + 1;
    fenv.set_plan(plan);
    db.Set("a2", "doomed").ok();  // post-crash: ack means nothing now
    db.Close().ok();
  }

  kv::Options o2;
  o2.env = &mem;
  o2.shards = 4;
  o2.aof_enabled = true;
  o2.aof_path = "kv/aof";
  kv::MemKV db2(o2);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.Get("a1").value(), "acked-payload");
}

}  // namespace
}  // namespace gdpr
