#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "common/string_util.h"
#include "gdpr/kv_backend.h"

namespace gdpr {
namespace {

GdprRecord MakeRec(const std::string& key, const std::string& user,
                   std::vector<std::string> purposes = {"billing"},
                   std::vector<std::string> shared = {}) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "data-" + key;
  rec.metadata.user = user;
  rec.metadata.purposes = std::move(purposes);
  rec.metadata.shared_with = std::move(shared);
  rec.metadata.origin = "first-party";
  return rec;
}

TEST(KvGdprStore, AccessControlMatrix) {
  KvGdprStore store((KvGdprOptions()));
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(store.CreateRecord(controller, MakeRec("k1", "neo", {"ads"}))
                  .ok());

  // Owner reads; stranger does not.
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k1").ok());
  auto denied = store.ReadDataByKey(Actor::Customer("smith"), "k1");
  EXPECT_TRUE(denied.status().IsPermissionDenied());

  // Processor needs a granted purpose.
  EXPECT_TRUE(store.ReadDataByKey(Actor::Processor("p", "ads"), "k1").ok());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Processor("p", "fraud"), "k1")
                  .status()
                  .IsPermissionDenied());
  // Processors cannot write or delete.
  EXPECT_TRUE(store.DeleteRecordByKey(Actor::Processor("p", "ads"), "k1")
                  .IsPermissionDenied());

  // Regulator never sees raw data but can verify and pull logs.
  EXPECT_TRUE(store.ReadDataByKey(Actor::Regulator(), "k1")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(store.GetSystemLogs(Actor::Regulator(), 0,
                                  store.clock()->NowMicros())
                  .ok());
  // Customers cannot pull system logs.
  EXPECT_TRUE(store.GetSystemLogs(Actor::Customer("neo"), 0, 1)
                  .status()
                  .IsPermissionDenied());
}

TEST(KvGdprStore, ObjectionBlocksProcessing) {
  KvGdprStore store((KvGdprOptions()));
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"ads", "2fa"}))
      .ok();
  ASSERT_TRUE(store.ReadDataByKey(Actor::Processor("p", "ads"), "k1").ok());
  MetadataUpdate objection;
  objection.objections = std::vector<std::string>{"ads"};
  ASSERT_TRUE(
      store.UpdateMetadataByKey(Actor::Customer("neo"), "k1", objection).ok());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Processor("p", "ads"), "k1")
                  .status()
                  .IsPermissionDenied());
  // The other purpose still works.
  EXPECT_TRUE(store.ReadDataByKey(Actor::Processor("p", "2fa"), "k1").ok());
}

TEST(KvGdprStore, RightToBeForgottenAndVerify) {
  KvGdprStore store((KvGdprOptions()));
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 10; ++i) {
    store.CreateRecord(Actor::Controller(),
                       MakeRec("k" + std::to_string(i),
                               i < 6 ? "neo" : "trinity"))
        .ok();
  }
  // Not deleted yet: verification must come back false.
  EXPECT_FALSE(store.VerifyDeletion(Actor::Regulator(), "k0").value());
  auto erased = store.DeleteRecordsByUser(Actor::Customer("neo"), "neo");
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), 6u);
  EXPECT_EQ(store.RecordCount(), 4u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(
        store.VerifyDeletion(Actor::Regulator(), "k" + std::to_string(i))
            .value());
  }
  EXPECT_FALSE(store.VerifyDeletion(Actor::Regulator(), "k7").value());
  // A customer cannot erase someone else's records.
  EXPECT_TRUE(store.DeleteRecordsByUser(Actor::Customer("neo"), "trinity")
                  .status()
                  .IsPermissionDenied());
}

TEST(KvGdprStore, AuditTrailRecordsDenials) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"ads"})).ok();
  clock.AdvanceMicros(10);
  store.ReadDataByKey(Actor::Processor("rogue", "fraud"), "k1").ok();
  auto logs =
      store.GetSystemLogs(Actor::Regulator(), 0, clock.NowMicros());
  ASSERT_TRUE(logs.ok());
  bool saw_denial = false;
  for (const auto& e : logs.value()) {
    if (e.actor_id == "rogue" && e.op == "READ-DATA-BY-KEY" && !e.allowed) {
      saw_denial = true;
    }
  }
  EXPECT_TRUE(saw_denial);
  EXPECT_TRUE(store.audit_log()->VerifyChain());
}

TEST(KvGdprStore, ExpiryReclaimedAndInvisible) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  GdprRecord rec = MakeRec("k1", "neo");
  rec.metadata.expiry_micros = 5000;
  store.CreateRecord(Actor::Controller(), rec).ok();
  store.CreateRecord(Actor::Controller(), MakeRec("k2", "neo")).ok();
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k1").ok());
  clock.AdvanceMicros(10000);
  // Dead to reads even before reclamation.
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k1")
                  .status()
                  .IsNotFound());
  auto n = store.DeleteExpiredRecords(Actor::Controller());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "k1").value());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k2").ok());
}

// The tentpole invariant: the indexed fast path and the scan path must be
// semantically identical — same results for every metadata query — with the
// index only changing the cost.
TEST(KvGdprStore, IndexedAndScanPathsAgree) {
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "scan");
    SimulatedClock clock(1000);
    KvGdprOptions o;
    o.clock = &clock;
    o.compliance.metadata_indexing = indexed;
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (size_t i = 0; i < 300; ++i) {
      GdprRecord rec = MakeRec(StringPrintf("k%03zu", i),
                               StringPrintf("user-%zu", i % 10),
                               {StringPrintf("pur-%zu", i % 5)});
      if (i % 3 == 0) {
        rec.metadata.shared_with = {StringPrintf("partner-%zu", i % 4)};
      }
      if (i % 7 == 0) rec.metadata.expiry_micros = 5000 + int64_t(i);
      ASSERT_TRUE(store.CreateRecord(Actor::Controller(), rec).ok());
    }

    auto keys_of = [](const std::vector<GdprRecord>& recs) {
      std::set<std::string> keys;
      for (const auto& r : recs) keys.insert(r.key);
      return keys;
    };

    auto by_user = store.ReadMetadataByUser(Actor::Controller(), "user-3");
    ASSERT_TRUE(by_user.ok());
    EXPECT_EQ(by_user.value().size(), 30u);
    for (const auto& r : by_user.value()) EXPECT_TRUE(r.data.empty());

    auto by_purpose =
        store.ReadMetadataByPurpose(Actor::Controller(), "pur-2");
    ASSERT_TRUE(by_purpose.ok());
    EXPECT_EQ(by_purpose.value().size(), 60u);

    auto by_sharing =
        store.ReadMetadataBySharing(Actor::Regulator(), "partner-0");
    ASSERT_TRUE(by_sharing.ok());
    // i % 3 == 0 and i % 4 == 0 -> i % 12 == 0 -> 25 of 300.
    EXPECT_EQ(keys_of(by_sharing.value()).size(), 25u);

    clock.AdvanceMicros(10000);
    auto reclaimed = store.DeleteExpiredRecords(Actor::Controller());
    ASSERT_TRUE(reclaimed.ok());
    EXPECT_EQ(reclaimed.value(), 43u);  // ceil(300/7)
    EXPECT_EQ(store.RecordCount(), 300u - 43u);

    auto erased = store.DeleteRecordsByUser(Actor::Customer("user-3"),
                                            "user-3");
    ASSERT_TRUE(erased.ok());
    // user-3 owns i in {3,13,...,293}; those with i % 7 == 0 were already
    // reclaimed by TTL above.
    size_t expect = 0;
    for (size_t i = 3; i < 300; i += 10) {
      if (i % 7 != 0) ++expect;
    }
    EXPECT_EQ(erased.value(), expect);
    EXPECT_TRUE(store.ReadMetadataByUser(Actor::Controller(), "user-3")
                    .value()
                    .empty());
  }
}

TEST(KvGdprStore, CustomerCannotRunCrossSubjectQueries) {
  KvGdprStore store((KvGdprOptions()));
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(),
                     MakeRec("k1", "neo", {"ads"}, {"partner-1"}))
      .ok();
  // Sharing/purpose queries span other subjects' records: customers are
  // denied, regulators and controllers are not.
  EXPECT_TRUE(store.ReadMetadataBySharing(Actor::Customer("neo"), "partner-1")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(store.ReadMetadataByPurpose(Actor::Customer("neo"), "ads")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(
      store.ReadMetadataBySharing(Actor::Regulator(), "partner-1").ok());
}

TEST(KvGdprStore, IndexesRebuiltAfterAofReplay) {
  MemEnv env;
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "gdpr.aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 20; ++i) {
      store
          .CreateRecord(Actor::Controller(),
                        MakeRec("k" + std::to_string(i),
                                i % 2 ? "neo" : "trinity", {"billing"},
                                {"partner-1"}))
          .ok();
    }
    ASSERT_TRUE(store.Close().ok());
  }
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(store.RecordCount(), 20u);
    // These all take the indexed path; without a rebuild they would
    // silently return nothing.
    EXPECT_EQ(store.ReadMetadataByUser(Actor::Controller(), "neo")
                  .value()
                  .size(),
              10u);
    EXPECT_EQ(store.ReadMetadataBySharing(Actor::Regulator(), "partner-1")
                  .value()
                  .size(),
              20u);
    auto erased = store.DeleteRecordsByUser(Actor::Customer("neo"), "neo");
    ASSERT_TRUE(erased.ok());
    EXPECT_EQ(erased.value(), 10u);
    EXPECT_EQ(store.RecordCount(), 10u);
  }
}

TEST(KvGdprStore, ExpiredUpsertDoesNotLeaveStaleIndexEntries) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  o.compliance.metadata_indexing = true;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  GdprRecord rec = MakeRec("k1", "alice");
  rec.metadata.expiry_micros = 2000;
  store.CreateRecord(Actor::Controller(), rec).ok();
  clock.AdvanceMicros(5000);  // alice's record is now expired, unreclaimed
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "bob")).ok();
  // alice must not be able to reach (or erase) bob's record via stale
  // index entries.
  EXPECT_TRUE(store.ReadMetadataByUser(Actor::Controller(), "alice")
                  .value()
                  .empty());
  auto erased = store.DeleteRecordsByUser(Actor::Customer("alice"), "alice");
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), 0u);
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("bob"), "k1").ok());
}

// Rewriting expiries must not grow the TTL index: 1,000 records (every
// other one expiring), 20,000 metadata updates of which half move an
// expiry, and the index ends at the bytes it started with and one TTL
// entry per expiring record. The sweep still reclaims exactly the records
// that are due.
TEST(KvGdprStore, TtlIndexStaysBoundedUnderExpiryRewrites) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  o.compliance.metadata_indexing = true;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();
  auto gauge = [&](const char* name) {
    return store.StatsSnapshot().GaugeValue(name);
  };
  constexpr int kRecords = 1000;
  constexpr int64_t kFar = 1'000'000'000;
  for (int i = 0; i < kRecords; ++i) {
    GdprRecord rec = MakeRec("k" + std::to_string(i),
                             "u" + std::to_string(i % 50), {"billing"});
    if (i % 2 == 0) rec.metadata.expiry_micros = kFar + i;
    ASSERT_TRUE(store.CreateRecord(controller, rec).ok());
  }
  const int64_t bytes_before = gauge("gdpr_index_bytes");
  EXPECT_EQ(gauge("gdpr_ttl_backlog"), kRecords / 2);

  std::mt19937 rng(13);
  for (int u = 0; u < 20000; ++u) {
    MetadataUpdate up;
    int i;
    if (u % 2 == 0) {
      i = 2 * int(rng() % (kRecords / 2));  // an expiring record
      up.expiry_micros = kFar + 2 * kRecords + u;
    } else {
      i = int(rng() % kRecords);
      up.origin = "origin-" + std::to_string(u % 7);
    }
    ASSERT_TRUE(
        store.UpdateMetadataByKey(controller, "k" + std::to_string(i), up)
            .ok());
  }
  EXPECT_EQ(gauge("gdpr_index_bytes"), bytes_before);
  EXPECT_LE(gauge("gdpr_ttl_backlog"), 2 * kRecords / 2);

  // Bring 100 of the expiring records due; only those are reclaimed.
  for (int i = 0; i < 200; i += 2) {
    MetadataUpdate up;
    up.expiry_micros = clock.NowMicros() + 500;
    ASSERT_TRUE(
        store.UpdateMetadataByKey(controller, "k" + std::to_string(i), up)
            .ok());
  }
  clock.AdvanceMicros(1000);
  auto reclaimed = store.DeleteExpiredRecords(controller);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 100u);
  EXPECT_EQ(store.RecordCount(), size_t(kRecords - 100));
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "k0").value());
  EXPECT_TRUE(store.ReadDataByKey(controller, "k200").ok());
  EXPECT_EQ(gauge("gdpr_ttl_backlog"), kRecords / 2 - 100);
  EXPECT_EQ(store.DeleteExpiredRecords(controller).value(), 0u);
}

TEST(KvGdprStore, AccessControlOffAllowsEverything) {
  KvGdprOptions o;
  o.compliance.enforce_access_control = false;
  o.compliance.audit_enabled = false;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"ads"})).ok();
  EXPECT_TRUE(store.ReadDataByKey(Actor::Processor("p", "fraud"), "k1").ok());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Regulator(), "k1").ok());
  EXPECT_EQ(store.audit_log()->size(), 0u);
}

TEST(AuditLog, GroupSealingVerifiesAcrossIntervals) {
  for (const size_t k : {size_t(1), size_t(7), size_t(32)}) {
    AuditLog log(k);
    for (int i = 0; i < 100; ++i) {
      AuditEntry e;
      e.timestamp_micros = 1000 + i;
      e.actor_id = "controller";
      e.op = "CREATE-RECORD";
      e.key = "k" + std::to_string(i);
      log.Append(std::move(e));
    }
    EXPECT_EQ(log.size(), 100u) << "k=" << k;
    // 100 is not a multiple of 7: the partial tail group must seal too.
    EXPECT_TRUE(log.VerifyChain()) << "k=" << k;
    // The head is stable once sealed, and reads agree with appends.
    EXPECT_EQ(log.head_hash(), log.head_hash());
    EXPECT_EQ(log.Query(1000, 1049).size(), 50u);
  }
}

TEST(AuditLog, HeadAdvancesWithNewGroups) {
  AuditLog log(8);
  AuditEntry e;
  e.actor_id = "a";
  e.op = "OP";
  log.Append(e);
  const std::string h1 = log.head_hash();  // seals the 1-entry tail
  log.Append(e);
  const std::string h2 = log.head_hash();
  EXPECT_NE(h1, h2);
  EXPECT_TRUE(log.VerifyChain());
}

TEST(KvGdprStore, ScanRecordsSurfacesAtRestCorruption) {
  MemEnv env;
  KvGdprOptions o;
  o.compliance.encrypt_at_rest = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "gdpr-corrupt.aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.CreateRecord(Actor::Controller(),
                                     MakeRec("k" + std::to_string(i), "neo"))
                      .ok());
    }
    size_t seen = 0;
    ASSERT_TRUE(store.ScanRecords(Actor::Controller(), [&](const GdprRecord&) {
      ++seen;
      return true;
    }).ok());
    EXPECT_EQ(seen, 3u);
    ASSERT_TRUE(store.Close().ok());
  }
  // Flip one sealed bit on disk: a full scan must now report DataLoss
  // instead of silently returning two of three records.
  auto contents = env.ReadFileToString("gdpr-corrupt.aof");
  ASSERT_TRUE(contents.ok());
  std::string corrupted = contents.value();
  // The file ends with an 'S' frame whose last 8 bytes are the expiry;
  // byte -9 is the tail of the sealed value (the MAC).
  const size_t mac_tail = corrupted.size() - 9;
  corrupted[mac_tail] = char(uint8_t(corrupted[mac_tail]) ^ 0x01);
  auto f = env.NewWritableFile("gdpr-corrupt.aof", /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append(corrupted).ok());
  ASSERT_TRUE(f.value()->Close().ok());
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    size_t seen = 0;
    Status s = store.ScanRecords(Actor::Controller(), [&](const GdprRecord&) {
      ++seen;
      return true;
    });
    EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(store.raw()->ScanDecryptFailures(), 1u);
    // Every scan-built operation must refuse to pretend completeness: a
    // metadata query may be missing the corrupt record, a user erasure
    // cannot prove it erased everything, an export would drop it.
    EXPECT_TRUE(store.ReadMetadataByUser(Actor::Controller(), "neo")
                    .status()
                    .IsDataLoss());
    EXPECT_TRUE(store.DeleteRecordsByUser(Actor::Controller(), "neo")
                    .status()
                    .IsDataLoss());
    EXPECT_TRUE(store.ExportRecords([](const std::string&) { return true; })
                    .status()
                    .IsDataLoss());
  }
  // With metadata_indexing on, the corrupt record is resident but in NO
  // index after the Open-time rebuild — indexed collections must report
  // it rather than silently answer from the holey index.
  {
    KvGdprOptions oi = o;
    oi.compliance.metadata_indexing = true;
    KvGdprStore store(oi);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_TRUE(store.ReadMetadataByUser(Actor::Controller(), "neo")
                    .status()
                    .IsDataLoss());
    EXPECT_TRUE(store.DeleteExpiredRecords(Actor::Controller())
                    .status()
                    .IsDataLoss());
  }
}

TEST(KvGdprStore, FeaturesReflectConfiguration) {
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.compliance.encrypt_at_rest = true;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  auto f = store.GetFeatures(Actor::Regulator());
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f.value().Supports("G 30"));
  EXPECT_TRUE(f.value().Supports("G 25/32"));
  EXPECT_FALSE(RenderComplianceMatrix(f.value()).empty());
}

}  // namespace
}  // namespace gdpr
