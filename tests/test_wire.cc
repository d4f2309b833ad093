// Wire-protocol robustness: every op round-trips losslessly (including
// Status codes and messages — the router's merge logic depends on
// Unavailable and DataLoss surviving the seam byte-for-byte), and every
// malformed input — truncation, oversized length prefixes, unknown tags,
// bad versions, trailing bytes, random byte flips — decodes to a clean
// DataLoss/InvalidArgument. Never a crash, a hang, or an over-read (the CI
// asan job runs this suite under AddressSanitizer).

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "crypto/sha256.h"
#include "net/wire.h"

namespace gdpr::net {
namespace {

GdprRecord SampleRecord(const std::string& key) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "payload-bytes \x01\x02\xff for " + key;
  rec.metadata.user = "user-000042";
  rec.metadata.purposes = {"ads", "analytics"};
  rec.metadata.objections = {"ads"};
  rec.metadata.origin = "first-party";
  rec.metadata.shared_with = {"partner-a", "partner-b"};
  rec.metadata.expiry_micros = 1723455678901234;
  rec.metadata.created_micros = 1713455678901234;
  return rec;
}

void ExpectSameRecord(const GdprRecord& a, const GdprRecord& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.metadata.user, b.metadata.user);
  EXPECT_EQ(a.metadata.purposes, b.metadata.purposes);
  EXPECT_EQ(a.metadata.objections, b.metadata.objections);
  EXPECT_EQ(a.metadata.origin, b.metadata.origin);
  EXPECT_EQ(a.metadata.shared_with, b.metadata.shared_with);
  EXPECT_EQ(a.metadata.expiry_micros, b.metadata.expiry_micros);
  EXPECT_EQ(a.metadata.created_micros, b.metadata.created_micros);
}

// Every request op with its full argument surface, for reuse by the
// truncation and fuzz tests below.
std::vector<WireRequest> AllRequests() {
  std::vector<WireRequest> reqs;
  const Actor actors[] = {Actor::Controller(), Actor::Customer("user-000001"),
                          Actor::Processor("proc-7", "analytics"),
                          Actor::Regulator()};
  size_t a = 0;
  const auto with = [&](WireOp op) -> WireRequest& {
    WireRequest r;
    r.op = op;
    r.actor = actors[a++ % 4];
    reqs.push_back(std::move(r));
    return reqs.back();
  };
  with(WireOp::kPing);
  with(WireOp::kOpen);
  with(WireOp::kClose);
  with(WireOp::kCreateRecord).record = SampleRecord("key-create");
  with(WireOp::kReadData).key = "key-read";
  with(WireOp::kReadMeta).key = "key-meta";
  with(WireOp::kReadMetaUser).key = "user-000042";
  with(WireOp::kReadMetaPurpose).key = "ads";
  with(WireOp::kReadMetaSharing).key = "partner-a";
  with(WireOp::kReadRecordsUser).key = "user-000042";
  {
    WireRequest& r = with(WireOp::kUpdateMeta);
    r.key = "key-update";
    r.update.user = "user-000099";
    r.update.purposes = std::vector<std::string>{"billing"};
    r.update.objections = std::vector<std::string>{};
    r.update.shared_with = std::vector<std::string>{"partner-c"};
    r.update.origin = "third-party";
    r.update.expiry_micros = 42;
  }
  {
    WireRequest& r = with(WireOp::kUpdateData);
    r.key = "key-data";
    r.data = std::string("new\0data", 8);
  }
  with(WireOp::kDeleteKey).key = "key-del";
  with(WireOp::kDeleteUser).key = "user-000042";
  with(WireOp::kDeleteExpired);
  with(WireOp::kVerifyDeletion).key = "key-verify";
  {
    WireRequest& r = with(WireOp::kGetLogs);
    r.from_micros = -5;
    r.to_micros = 9999999999999;
  }
  with(WireOp::kGetFeatures);
  with(WireOp::kScanRecords);
  with(WireOp::kRecordCount);
  with(WireOp::kTotalBytes);
  with(WireOp::kReset);
  with(WireOp::kHealth);
  with(WireOp::kStatsSnapshot);
  with(WireOp::kCompactNow);
  with(WireOp::kCompactionStats);
  {
    WireRequest& r = with(WireOp::kExportRecords);
    r.slot = 17;
    r.num_slots = 1024;
  }
  {
    WireRequest& r = with(WireOp::kExportTombstones);
    r.slot = 1023;
    r.num_slots = 1024;
  }
  with(WireOp::kImportRecord).record = SampleRecord("key-import");
  with(WireOp::kAdoptTombstone).key = "key-tomb";
  with(WireOp::kEvictRecord).key = "key-evict";
  with(WireOp::kClearTombstone).key = "key-clear";
  with(WireOp::kVerifyAuditChain);
  return reqs;
}

TEST(WireRequests, EveryOpRoundTrips) {
  for (const WireRequest& req : AllRequests()) {
    const std::string payload = EncodeRequest(req);
    WireRequest back;
    ASSERT_TRUE(DecodeRequest(payload, &back).ok())
        << WireOpName(req.op);
    EXPECT_EQ(back.op, req.op) << WireOpName(req.op);
    EXPECT_EQ(back.actor.role, req.actor.role);
    EXPECT_EQ(back.actor.id, req.actor.id);
    EXPECT_EQ(back.actor.purpose, req.actor.purpose);
    EXPECT_EQ(back.key, req.key);
    EXPECT_EQ(back.data, req.data);
    EXPECT_EQ(back.from_micros, req.from_micros);
    EXPECT_EQ(back.to_micros, req.to_micros);
    EXPECT_EQ(back.slot, req.slot);
    EXPECT_EQ(back.num_slots, req.num_slots);
    if (req.op == WireOp::kCreateRecord || req.op == WireOp::kImportRecord) {
      ExpectSameRecord(back.record, req.record);
    }
    if (req.op == WireOp::kUpdateMeta) {
      EXPECT_EQ(back.update.user, req.update.user);
      EXPECT_EQ(back.update.purposes, req.update.purposes);
      EXPECT_EQ(back.update.objections, req.update.objections);
      EXPECT_EQ(back.update.shared_with, req.update.shared_with);
      EXPECT_EQ(back.update.origin, req.update.origin);
      EXPECT_EQ(back.update.expiry_micros, req.update.expiry_micros);
    }
  }
}

TEST(WireRequests, PartialMetadataUpdateKeepsAbsentFieldsAbsent) {
  WireRequest req;
  req.op = WireOp::kUpdateMeta;
  req.actor = Actor::Controller();
  req.key = "k";
  req.update.objections = std::vector<std::string>{"ads"};
  WireRequest back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(req), &back).ok());
  EXPECT_FALSE(back.update.user.has_value());
  EXPECT_FALSE(back.update.purposes.has_value());
  ASSERT_TRUE(back.update.objections.has_value());
  EXPECT_EQ(*back.update.objections, std::vector<std::string>{"ads"});
  EXPECT_FALSE(back.update.shared_with.has_value());
  EXPECT_FALSE(back.update.origin.has_value());
  EXPECT_FALSE(back.update.expiry_micros.has_value());
}

// Every Status code — and its message — survives the seam. The router's
// merge logic branches on Unavailable and DataLoss specifically.
TEST(WireResponses, StatusRoundTripsLosslessly) {
  const Status statuses[] = {
      Status::OK(),
      Status::NotFound("no such key: abc"),
      Status::AlreadyExists("key exists"),
      Status::InvalidArgument("bad request"),
      Status::PermissionDenied("customer may not read another subject"),
      Status::FailedPrecondition("store not open"),
      Status::IOError("fsync failed: EIO"),
      Status::DataLoss("aof frame 17 corrupt"),
      Status::Unimplemented("not here"),
      Status::Internal("bug"),
      Status::Unavailable("degraded read-only: audit log lost"),
  };
  for (const Status& s : statuses) {
    WireResponse resp;
    resp.op = WireOp::kReadData;
    resp.status = s;
    if (s.ok()) resp.record = SampleRecord("k");
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.status.code(), s.code());
    EXPECT_EQ(back.status.message(), s.message());
  }
}

TEST(WireResponses, ResultPayloadsRoundTrip) {
  {  // record vectors (scan / metadata queries / exports)
    WireResponse resp;
    resp.op = WireOp::kScanRecords;
    resp.status = Status::DataLoss("2 records unreadable");  // partial scan
    resp.records = {SampleRecord("a"), SampleRecord("b"), SampleRecord("c")};
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_TRUE(back.status.IsDataLoss());
    ASSERT_EQ(back.records.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      ExpectSameRecord(back.records[i], resp.records[i]);
    }
  }
  {  // metadata
    WireResponse resp;
    resp.op = WireOp::kReadMeta;
    resp.metadata = SampleRecord("x").metadata;
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.metadata.user, resp.metadata.user);
    EXPECT_EQ(back.metadata.purposes, resp.metadata.purposes);
    EXPECT_EQ(back.metadata.shared_with, resp.metadata.shared_with);
    EXPECT_EQ(back.metadata.expiry_micros, resp.metadata.expiry_micros);
  }
  {  // tombstone keys
    WireResponse resp;
    resp.op = WireOp::kExportTombstones;
    resp.keys = {"k1", "k2", std::string("k\x00\x03", 4)};
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.keys, resp.keys);
  }
  {  // audit entries
    WireResponse resp;
    resp.op = WireOp::kGetLogs;
    AuditEntry e;
    e.timestamp_micros = 123456789;
    e.actor_id = "controller";
    e.role = Actor::Role::kRegulator;
    e.op = "READ-DATA";
    e.key = "k";
    e.allowed = true;
    resp.entries = {e, e};
    resp.entries[1].allowed = false;
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    ASSERT_EQ(back.entries.size(), 2u);
    EXPECT_EQ(back.entries[0].timestamp_micros, e.timestamp_micros);
    EXPECT_EQ(back.entries[0].actor_id, e.actor_id);
    EXPECT_EQ(back.entries[0].role, e.role);
    EXPECT_EQ(back.entries[0].op, e.op);
    EXPECT_EQ(back.entries[0].key, e.key);
    EXPECT_TRUE(back.entries[0].allowed);
    EXPECT_FALSE(back.entries[1].allowed);
  }
  {  // counts, flags, health, head hash
    WireResponse resp;
    resp.op = WireOp::kVerifyAuditChain;
    resp.flag = true;
    resp.head_hash = std::string("\x01\x02\x03\xff", 4);
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_TRUE(back.flag);
    EXPECT_EQ(back.head_hash, resp.head_hash);

    WireResponse h;
    h.op = WireOp::kHealth;
    h.health = HealthState::kDegradedReadOnly;
    h.health_cause = Status::IOError("audit fsync failed");
    WireResponse hback;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(h), &hback).ok());
    EXPECT_EQ(hback.health, HealthState::kDegradedReadOnly);
    EXPECT_EQ(hback.health_cause.code(), StatusCode::kIOError);

    WireResponse c;
    c.op = WireOp::kRecordCount;
    c.count = 0xFFFFFFFFFFFFull;
    WireResponse cback;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(c), &cback).ok());
    EXPECT_EQ(cback.count, c.count);
  }
  {  // compaction stats
    WireResponse resp;
    resp.op = WireOp::kCompactNow;
    resp.stats.compactions = 3;
    resp.stats.log_bytes = 4096;
    resp.stats.live_bytes = 2048;
    resp.stats.last_bytes_before = 8192;
    resp.stats.last_bytes_after = 4096;
    resp.stats.last_compaction_micros = 1700000000000000;
    resp.stats.erasure_barrier = 777;
    resp.stats.erasures_pending_compaction = 2;
    resp.stats.audit_segments = 5;
    resp.stats.audit_dropped_entries = 11;
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.stats.compactions, resp.stats.compactions);
    EXPECT_EQ(back.stats.log_bytes, resp.stats.log_bytes);
    EXPECT_EQ(back.stats.live_bytes, resp.stats.live_bytes);
    EXPECT_EQ(back.stats.last_bytes_before, resp.stats.last_bytes_before);
    EXPECT_EQ(back.stats.last_bytes_after, resp.stats.last_bytes_after);
    EXPECT_EQ(back.stats.last_compaction_micros,
              resp.stats.last_compaction_micros);
    EXPECT_EQ(back.stats.erasure_barrier, resp.stats.erasure_barrier);
    EXPECT_EQ(back.stats.erasures_pending_compaction,
              resp.stats.erasures_pending_compaction);
    EXPECT_EQ(back.stats.audit_segments, resp.stats.audit_segments);
    EXPECT_EQ(back.stats.audit_dropped_entries,
              resp.stats.audit_dropped_entries);
  }
  {  // metrics snapshot
    WireResponse resp;
    resp.op = WireOp::kStatsSnapshot;
    obs::MetricsRegistry reg;
    reg.GetCounter("ops_total")->Add(7);
    reg.GetGauge("health")->Set(-2);
    obs::Histogram* h = reg.GetHistogram("lat_us");
    h->Record(3);
    h->Record(70000);
    resp.snapshot = reg.Snapshot();
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    ASSERT_EQ(back.snapshot.counters.size(), 1u);
    EXPECT_EQ(back.snapshot.counters[0].first, "ops_total");
    EXPECT_EQ(back.snapshot.counters[0].second, 7u);
    ASSERT_EQ(back.snapshot.gauges.size(), 1u);
    EXPECT_EQ(back.snapshot.gauges[0].second, -2);
    ASSERT_EQ(back.snapshot.histograms.size(), 1u);
    EXPECT_EQ(back.snapshot.histograms[0].count, 2u);
    EXPECT_EQ(back.snapshot.histograms[0].sum, 70003u);
    EXPECT_EQ(back.snapshot.histograms[0].counts,
              resp.snapshot.histograms[0].counts);
  }
}

// ---- golden frames ----------------------------------------------------------

// One response with every result field set; each op's encoder picks out
// only the fields its layout carries.
WireResponse FullyPopulatedResponse() {
  WireResponse r;
  r.status = Status::Unavailable("degraded read-only: audit log lost");
  r.record = SampleRecord("key-golden");
  r.metadata = SampleRecord("key-meta").metadata;
  r.records = {SampleRecord("rec-a"), SampleRecord("rec-b")};
  r.keys = {"tomb-1", std::string("tomb\x00\x02", 6)};
  AuditEntry e;
  e.timestamp_micros = 1713455678901234;
  e.actor_id = "proc-7";
  e.role = Actor::Role::kProcessor;
  e.op = "READ-DATA-BY-KEY";
  e.key = "key-read";
  e.allowed = true;
  r.entries = {e, e};
  r.entries[1].role = Actor::Role::kCustomer;
  r.entries[1].allowed = false;
  r.features.backend = "memkv";
  r.features.rows = {{"G 17", "erase on request", "tombstones", true},
                     {"G 20", "portability", "export", false}};
  r.stats.compactions = 3;
  r.stats.log_bytes = 4096;
  r.stats.live_bytes = 2048;
  r.stats.last_bytes_before = 8192;
  r.stats.last_bytes_after = 4000;
  r.stats.last_compaction_micros = -1700000000000000;
  r.stats.erasure_barrier = 777;
  r.stats.erasures_pending_compaction = 2;
  r.stats.audit_segments = 5;
  r.stats.audit_dropped_entries = 11;
  r.snapshot.counters = {{"ops_total", 7}};
  r.snapshot.gauges = {{"health", -2}};
  obs::HistogramSnapshot h;
  h.name = "lat_us";
  h.counts[3] = 1;
  h.counts[40] = 1;
  h.count = 2;
  h.sum = 70003;
  r.snapshot.histograms = {h};
  r.count = 0xFFFFFFFFFFFFull;
  r.flag = true;
  r.health = HealthState::kDegradedReadOnly;
  r.health_cause = Status::IOError("audit fsync failed");
  r.head_hash = std::string("\x01\x02\x03\xff\x00\x7f", 6);
  return r;
}

// SHA-256 of Frame(EncodeRequest(r)) for every AllRequests() entry and of
// Frame(EncodeResponse(FullyPopulatedResponse())) with that entry's op.
// These pin the wire format: a codec change that moves a single byte of
// any frame fails here.
struct GoldenFrame {
  WireOp op;
  const char* request;
  const char* response;
};

const GoldenFrame kGoldenFrames[] = {
    {WireOp::kPing,
     "09142a025c73962f57d3d74cd5c040f5e148514df0299c704ab74581a58eb467",
     "39f30b6f9fe5edd05c37e17dd1055df0cd37625abbe4359cefeb1dde4e2502a9"},
    {WireOp::kOpen,
     "0fc623055987e37b7f760f99e8a28948854ecc4cb60df2a48c6edddb81e95380",
     "7845a16248e66767858b76685b0f0a55bdc0aa2fdb8b1699de37b40829ff18d8"},
    {WireOp::kClose,
     "2ddf094629e1e608a8f28522408e56cb4fe420646dd3c14a85c4874dc2a4448e",
     "d268b104b4a75ff29058caf902a2b83f4d58dbe97c3aab67704bfed0fc296ba8"},
    {WireOp::kCreateRecord,
     "7a9ab2b1b8123d7cfa22109d253cf72d7ea3af559fb0e67666da762aa7f673fe",
     "c34c7daa00a246b3f6c1dc644fa4b48eefeac3acde64705a1cd17bd870b7c6ac"},
    {WireOp::kReadData,
     "e6e6ccae6594dd5edefd85bca4bfde0653161171f64966f4d4c4e8e6a6a28586",
     "51b32d4166dcd0b3a182a44789d1dd1084cfa9ddc82dcfb0ff45a53640677e06"},
    {WireOp::kReadMeta,
     "2925091bc29f5d8408ddcd0234bdfa763a93850ee23494574618df5ba143cae7",
     "aabb349441b8552e9c7626e76c90ac939565f5492399119f0c6dc01206baa075"},
    {WireOp::kReadMetaUser,
     "5c79cc12050783aa40b7ec048fbdbb2d35ee0741a54561988aa46afdf2be4fe0",
     "f7242e82b996847119acb374b52d6ec1e117176efadb5d10407e7501bc14845f"},
    {WireOp::kReadMetaPurpose,
     "7d4293b279cfd1d0835a470cc5143171147795c05e6ca7254af75f16dfe7c831",
     "002a4d93b1f6ab8aeca7aca811699b014224d09b2969d7d1190986b60802cf45"},
    {WireOp::kReadMetaSharing,
     "50d8f565a8443e1b318725d94de57b5121910ca32b72124cd78ca2203f8e8770",
     "3fa6bbf1261b4e3d3543290e9f05d38a1e79431bf24997df66540da7bc4e2011"},
    {WireOp::kReadRecordsUser,
     "2dd4cc00b8f6103500c9208ac5adf6498574a2e9f915903727d1c73d86de347a",
     "c7773de713dc9d86ccc415e70782408d34006c512d06795a2fc8aa7fabe4dcd8"},
    {WireOp::kUpdateMeta,
     "9f0ff23c1f8404ea06b52c8d07bdca83176985d3781c69c1facf05323fd9850a",
     "c7d18b8ff0b8bdb65558aea550ef44512a54827fae9308d2f37b42b9a0e61c08"},
    {WireOp::kUpdateData,
     "e48009bf9d940180bccec47901890f06716033ba85c97ee694d0c1bd2e8e8291",
     "462176f47079571a6ae0bebbcbc62a6c693b2aacd32ef9bac46d022e6dfeb93d"},
    {WireOp::kDeleteKey,
     "76b8184a31ebf64fde17e28f6c18e6c0a9e503c8015c7e43e8814cf8bdcf9d2d",
     "9ce6656d8774691c7c84a795f9fc2ec8be14521c661a5f46680c0ba4c0a7c55f"},
    {WireOp::kDeleteUser,
     "4329e5533f3754c56cf7c0f814d5766c4c019e44a8211576626d39e5a3e0c2a2",
     "a34d51ce357429a7a0b9e32cc4108de2091429ff296f6a1cb63f80cea091a6f1"},
    {WireOp::kDeleteExpired,
     "c4fb9dadeb32b80e12f0644efffbce2e5152801e0cf44c003f07181ddb7653b1",
     "8bf7b163c41e9c182a10ea5b9580f8c0459706fbd67dda6c0fad41327a18239c"},
    {WireOp::kVerifyDeletion,
     "94e9eff27e8ad90e1649683b2b513f9c76279179557fb10f52e9c4d0864c06f3",
     "330f46318c4b5bf10a2e03a53b21a5bc8f3b50197b247a31f92a6f648ead37fe"},
    {WireOp::kGetLogs,
     "4da0669d6282a68e5738f8218ef66998e0682a3c589cd757ce88698a5c525fc0",
     "456425df4cc8d94e875dfbd259b43f05d42cb2d9f66757302fe1ab954ea55c3e"},
    {WireOp::kGetFeatures,
     "b59944ea8376a8ff6c3142f5c1c44a66fac899ca923e77c551c1d8680b0b1ffc",
     "263ac3fc6a7c9d3ea849809a670143910fc0b189b6d987d44bb226a8dff94d56"},
    {WireOp::kScanRecords,
     "0faa260ad956bfe9f36d2af3fbe5b2ca7431a918e6265dcd7371029033c72652",
     "7f818eefd2fa42148359813d816e18a0283c5bed80394101e59ecd06e7b3a7ae"},
    {WireOp::kRecordCount,
     "7f22f1f83ee54b2ced643c0236920096ac091c14c4e3428d3c649ca4f773e968",
     "be270914549664f55380f7bd3433d06352d7a58223195e7b291f75c1f7a27b40"},
    {WireOp::kTotalBytes,
     "270d89938524559203a0adceee9f54d9dc4c0869465653a97c358eae4053ba53",
     "92a8dfbc7dc6a2c43e598c0f3f62891e62e7003d5e89d72d4c191edb373f9d8b"},
    {WireOp::kReset,
     "84920a57b8241b06c55e9aea4776b6c0cfac1aa2f7b52158e051c3229f0037a3",
     "5dce85ffc6bf280b14767f1cee3e58908206c955915bcf9db79c3b76be7f8636"},
    {WireOp::kHealth,
     "9e1502ff20f4c87df1ace9859dacaeda3a954ab8549a0021645c39871ba05566",
     "ec97fef3873e3ff65f30b65fef15f3dc9af1ba292cf16676ef775961b1bcd0a7"},
    {WireOp::kStatsSnapshot,
     "f1c7e6ebdc43008f4989bf67edda1534eddcac2852128d02e8cb793bc6646a19",
     "7d942ad44ce2665fe864fdcdcf1ad870d21a8035978e614565021716fcbb816e"},
    {WireOp::kCompactNow,
     "16771f6e9ee345a3523012106de0b56ba922d06b53e23ae51e1faf6dccd65dc0",
     "8c048c2f3ac0b38db23c95a11e190cc71035c571d6857730871b512c99cbbe08"},
    {WireOp::kCompactionStats,
     "0b3f39eff5bfb57b65ebe95a1666706421eb4b69a49163ed0d7dc2448788d4cd",
     "2104ee150bbd7d0e742d7f899620d8f9198d925b6dc4f2620b62b36409060a32"},
    {WireOp::kExportRecords,
     "3997bc9f302c8c72a8fb14761c3a25ab69cf005553aed52e0ad25ff5afcd9b8e",
     "0861d10e6a4368c878b6b787773cd461aa9e0a1588ea8a2b897250d44fb99ddd"},
    {WireOp::kExportTombstones,
     "3779141f442adf3637e6b7f1e667f4b70c5c41989bdab4641dec6b5552d70a23",
     "3689b2ed5aa1cb58a2ab1f557c7654fc56feedb281b17a83e2186e90e96761fe"},
    {WireOp::kImportRecord,
     "b261122aa3aaeb6ce054c0a94e9c1dba71fdfa0dbb02b8c21bfd8b8035c56c0e",
     "1116ae0f48ef5eb74e03dc9ffbf4457e27ad59f18a28d727106fcb690245f07c"},
    {WireOp::kAdoptTombstone,
     "725b67c3cd51f3254a99bd680c19f968c242208a82f616703a4b14ad511c0461",
     "02a2fc98f2eea02c24ddf243f1858cd1d5088d676e42188d3bf717713aa8bfa4"},
    {WireOp::kEvictRecord,
     "eca2a3ebef80a4c675fced890f51826fc52a9d4b963d49beed481111cc78544e",
     "068c9b121b8fde1b76dd40e3b2976863e2abbafd779c4c53868c5f647f591a94"},
    {WireOp::kClearTombstone,
     "b95d74b38431a3971e430d94c407ce41c495216431c25b3daa2a645303396e6e",
     "ecb9be13bd95a9a47dc7f9b4e2b434cdaaf499979634f03a3b7a6c83f863b750"},
    {WireOp::kVerifyAuditChain,
     "ce0cd05d5c49fc7e7a45232d7ad3313da2d45b459cca2575980218fc7f0bc5bd",
     "039e234c9d6f52d3a79b7b5b782669adba4f5fe56a389bc37aabc1791c9c9c52"},
};

TEST(WireGolden, EveryOpFramesByteForByte) {
  const std::vector<WireRequest> reqs = AllRequests();
  ASSERT_EQ(reqs.size(), std::size(kGoldenFrames));
  WireResponse resp = FullyPopulatedResponse();
  for (size_t i = 0; i < reqs.size(); ++i) {
    const GoldenFrame& g = kGoldenFrames[i];
    ASSERT_EQ(reqs[i].op, g.op) << i;
    resp.op = g.op;
    EXPECT_EQ(Sha256::HexDigest(Frame(EncodeRequest(reqs[i]))), g.request)
        << "request frame of " << WireOpName(g.op);
    EXPECT_EQ(Sha256::HexDigest(Frame(EncodeResponse(resp))), g.response)
        << "response frame of " << WireOpName(g.op);
  }
}

// ---- the op table -----------------------------------------------------------

std::vector<WireOp> TableOps() {
  return {
#define GDPR_TEST_OP(op, tag, name, request, response) WireOp::op,
      GDPR_WIRE_OPS(GDPR_TEST_OP)
#undef GDPR_TEST_OP
  };
}

TEST(WireOpTable, ValidTagsAreExactlyTheTableRows) {
  std::set<int> rows;
  for (const WireOp op : TableOps()) rows.insert(int(op));
  EXPECT_EQ(rows.size(), TableOps().size()) << "duplicate tag in the table";
  for (int tag = 0; tag < 256; ++tag) {
    EXPECT_EQ(ValidWireOp(uint8_t(tag)), rows.count(tag) == 1) << tag;
  }
}

TEST(WireOpTable, NamesAreUniqueAndKnown) {
  std::set<std::string> names;
  for (const WireOp op : TableOps()) {
    const std::string name = WireOpName(op);
    EXPECT_NE(name, "UNKNOWN") << int(op);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

// A row added without a test case here fails: every golden, round-trip,
// truncation and fuzz test iterates AllRequests().
TEST(WireOpTable, AllRequestsCoversEveryRow) {
  std::set<WireOp> covered;
  for (const WireRequest& req : AllRequests()) covered.insert(req.op);
  for (const WireOp op : TableOps()) {
    EXPECT_EQ(covered.count(op), 1u) << WireOpName(op) << " has no request";
  }
}

// ---- framing --------------------------------------------------------------

TEST(FrameBufferTest, ReassemblesFramesFedByteByByte) {
  const std::string p1 = EncodeRequest(AllRequests()[3]);  // kCreateRecord
  const std::string p2 = "x";
  const std::string stream = Frame(p1) + Frame(p2) + Frame("");
  FrameBuffer buf;
  std::vector<std::string> out;
  for (size_t i = 0; i < stream.size(); ++i) {
    buf.Feed(stream.data() + i, 1);
    bool have = true;
    while (have) {
      std::string payload;
      ASSERT_TRUE(buf.Next(&payload, &have).ok());
      if (have) out.push_back(std::move(payload));
    }
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], p1);
  EXPECT_EQ(out[1], p2);
  EXPECT_EQ(out[2], "");
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(FrameBufferTest, OversizedLengthPrefixPoisonsTheStream) {
  // 0xFFFFFFFF little-endian: far over kMaxFrameBytes. The buffer must
  // refuse — allocating it would be a bomb — and stay refused: there is no
  // way to resynchronize a length-framed stream after a bad length.
  FrameBuffer buf;
  const char evil[4] = {'\xff', '\xff', '\xff', '\xff'};
  buf.Feed(evil, 4);
  std::string payload;
  bool have = false;
  EXPECT_TRUE(buf.Next(&payload, &have).IsDataLoss());
  EXPECT_FALSE(have);
  // Still poisoned after more (valid-looking) bytes arrive.
  const std::string good = Frame("hello");
  buf.Feed(good.data(), good.size());
  EXPECT_TRUE(buf.Next(&payload, &have).IsDataLoss());
  EXPECT_FALSE(have);
}

TEST(FrameBufferTest, TruncatedFrameJustWaits) {
  const std::string framed = Frame(EncodeRequest(AllRequests()[0]));
  FrameBuffer buf;
  buf.Feed(framed.data(), framed.size() - 1);  // all but the last byte
  std::string payload;
  bool have = true;
  ASSERT_TRUE(buf.Next(&payload, &have).ok());
  EXPECT_FALSE(have);  // incomplete ≠ corrupt: more bytes may arrive
  buf.Feed(framed.data() + framed.size() - 1, 1);
  ASSERT_TRUE(buf.Next(&payload, &have).ok());
  EXPECT_TRUE(have);
}

// ---- malformed payloads ---------------------------------------------------

TEST(WireMalformed, UnknownOpTagIsInvalidArgument) {
  std::string payload;
  payload.push_back(char(kWireVersion));
  payload.push_back(char(200));  // no such op
  WireRequest req;
  EXPECT_TRUE(DecodeRequest(payload, &req).code() == StatusCode::kInvalidArgument);
  WireResponse resp;
  EXPECT_TRUE(DecodeResponse(payload, &resp).code() == StatusCode::kInvalidArgument);
}

TEST(WireMalformed, UnsupportedVersionIsRefusedNotMisparsed) {
  std::string payload = EncodeRequest(AllRequests()[3]);
  payload[0] = char(kWireVersion + 1);
  WireRequest req;
  EXPECT_TRUE(DecodeRequest(payload, &req).code() == StatusCode::kInvalidArgument);
}

TEST(WireMalformed, EveryTruncationDecodesCleanly) {
  // Chop every valid payload at every length. Within its own schema a
  // strict prefix must decode to a clean error — a request missing its
  // last byte is never a shorter valid request. The opposite-schema
  // decoder just has to return without crashing or over-reading: requests
  // and responses share no discriminator, so response bytes occasionally
  // parse as a (different) valid request, and that is fine.
  std::vector<std::string> request_payloads;
  for (const WireRequest& req : AllRequests()) {
    request_payloads.push_back(EncodeRequest(req));
  }
  std::vector<std::string> response_payloads;
  {
    WireResponse resp;
    resp.op = WireOp::kScanRecords;
    resp.records = {SampleRecord("a"), SampleRecord("b")};
    response_payloads.push_back(EncodeResponse(resp));
    WireResponse logs;
    logs.op = WireOp::kGetLogs;
    AuditEntry e;
    e.actor_id = "x";
    e.op = "OP";
    logs.entries = {e};
    response_payloads.push_back(EncodeResponse(logs));
  }
  for (const std::string& payload : request_payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      WireRequest req;
      EXPECT_FALSE(DecodeRequest(prefix, &req).ok())
          << "request prefix of length " << cut << "/" << payload.size()
          << " decoded as op " << static_cast<int>(req.op);
      WireResponse resp;
      (void)DecodeResponse(prefix, &resp);  // must return, any verdict
    }
  }
  for (const std::string& payload : response_payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      WireResponse resp;
      EXPECT_FALSE(DecodeResponse(prefix, &resp).ok())
          << "response prefix of length " << cut << "/" << payload.size()
          << " decoded OK";
      WireRequest req;
      (void)DecodeRequest(prefix, &req);  // must return, any verdict
    }
  }
}

TEST(WireMalformed, CorruptListCountCannotInflateTheAllocation) {
  // A record list claiming one element per remaining byte passes the
  // count check, but a record is ~200 bytes in memory: reserving the
  // claimed count would ask for ~200x the frame (13 GB for a 64 MB one).
  std::string payload;
  payload.push_back(char(kWireVersion));
  payload.push_back(char(uint8_t(WireOp::kScanRecords)));
  payload.append(2, '\0');  // OK status, empty message
  const uint64_t n = 100000;
  PutVarint64(&payload, n);
  payload.append(n, '\0');  // n empty blobs: none parses as a record
  WireResponse resp;
  EXPECT_TRUE(DecodeResponse(payload, &resp).IsDataLoss());
  EXPECT_LE(resp.records.capacity() * sizeof(GdprRecord), payload.size());
}

TEST(WireMalformed, TrailingBytesAreRejected) {
  for (const WireRequest& req : AllRequests()) {
    std::string payload = EncodeRequest(req);
    payload.push_back('\0');
    WireRequest back;
    EXPECT_FALSE(DecodeRequest(payload, &back).ok()) << WireOpName(req.op);
  }
}

TEST(WireMalformed, ByteFlipFuzzNeverCrashes) {
  // Seeded, deterministic: flip 1-3 bytes of a valid payload and decode.
  // The decoder may accept (the flip hit a don't-care byte) or reject, but
  // must always return — no crash, no hang, no over-read under asan.
  Random rng(20260808);
  const std::vector<WireRequest> reqs = AllRequests();
  std::vector<std::string> payloads;
  for (const WireRequest& req : reqs) payloads.push_back(EncodeRequest(req));
  {
    WireResponse resp;
    resp.op = WireOp::kScanRecords;
    resp.status = Status::Unavailable("degraded");
    resp.records = {SampleRecord("fuzz-a"), SampleRecord("fuzz-b")};
    payloads.push_back(EncodeResponse(resp));
  }
  for (int iter = 0; iter < 4000; ++iter) {
    std::string p = payloads[rng.Uniform(payloads.size())];
    const size_t flips = 1 + rng.Uniform(3);
    for (size_t f = 0; f < flips && !p.empty(); ++f) {
      p[rng.Uniform(p.size())] ^= char(1 + rng.Uniform(255));
    }
    WireRequest req;
    (void)DecodeRequest(p, &req);
    WireResponse resp;
    (void)DecodeResponse(p, &resp);
  }
  // Pure garbage too.
  for (int iter = 0; iter < 2000; ++iter) {
    std::string p;
    const size_t n = rng.Uniform(64);
    for (size_t i = 0; i < n; ++i) p.push_back(char(rng.Uniform(256)));
    WireRequest req;
    (void)DecodeRequest(p, &req);
    WireResponse resp;
    (void)DecodeResponse(p, &resp);
  }
}

// ---- slot hash ------------------------------------------------------------

TEST(SlotHash, DeterministicBoundedAndSpread) {
  EXPECT_EQ(SlotForKey("some-key", 1024), SlotForKey("some-key", 1024));
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 4096; ++i) {
    const uint32_t s = SlotForKey("key-" + std::to_string(i), 16);
    ASSERT_LT(s, 16u);
    ++hits[s];
  }
  for (const int h : hits) EXPECT_GT(h, 0);  // no empty slot at 256x load
}

}  // namespace
}  // namespace gdpr::net
