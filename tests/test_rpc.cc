// The RPC seam end to end: DispatchRequest against a live store, the
// server/client pair over loopback sockets and a unix listener, the failure
// model (timeouts → Unavailable, reconnection, malformed frames answered
// without dropping the connection), and the cluster-level consequence that
// matters most — a killed node makes Forget report partial failure naming
// that node, never a silent success.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_store.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/socket_io.h"
#include "net/wire.h"

namespace gdpr::net {
namespace {

GdprRecord MakeRecord(const std::string& key, const std::string& user) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "data-for-" + key;
  rec.metadata.user = user;
  rec.metadata.purposes = {"ads"};
  rec.metadata.origin = "first-party";
  return rec;
}

// ---- DispatchRequest: the server-side op switch ---------------------------

TEST(Dispatch, CoversTheVocabularyAgainstALiveStore) {
  KvGdprStore store(KvGdprOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();

  const auto call = [&](WireRequest req) {
    req.actor = controller;
    return DispatchRequest(&store, req);
  };

  WireRequest req;
  req.op = WireOp::kPing;
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kCreateRecord;
  req.record = MakeRecord("k1", "user-A");
  EXPECT_TRUE(call(req).status.ok());
  req.record = MakeRecord("k2", "user-B");
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kReadData;
  req.key = "k1";
  {
    const WireResponse resp = call(req);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.op, WireOp::kReadData);
    EXPECT_EQ(resp.record.data, "data-for-k1");
  }
  req.key = "missing";
  EXPECT_TRUE(call(req).status.IsNotFound());

  req = {};
  req.op = WireOp::kReadMeta;
  req.key = "k1";
  EXPECT_EQ(call(req).metadata.user, "user-A");

  req = {};
  req.op = WireOp::kReadMetaUser;
  req.key = "user-A";
  EXPECT_EQ(call(req).records.size(), 1u);

  req = {};
  req.op = WireOp::kUpdateData;
  req.key = "k1";
  req.data = "rewritten";
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kUpdateMeta;
  req.key = "k1";
  req.update.objections = std::vector<std::string>{"ads"};
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kScanRecords;
  EXPECT_EQ(call(req).records.size(), 2u);

  req = {};
  req.op = WireOp::kRecordCount;
  EXPECT_EQ(call(req).count, 2u);
  req.op = WireOp::kTotalBytes;
  EXPECT_GT(call(req).count, 0u);

  req = {};
  req.op = WireOp::kDeleteUser;
  req.key = "user-B";
  EXPECT_EQ(call(req).count, 1u);

  req = {};
  req.op = WireOp::kVerifyDeletion;
  req.key = "k2";
  req.actor = Actor::Regulator();
  EXPECT_TRUE(DispatchRequest(&store, req).flag);

  req = {};
  req.op = WireOp::kExportRecords;
  req.slot = SlotForKey("k1", 8);
  req.num_slots = 8;
  EXPECT_EQ(call(req).records.size(), 1u);
  req.op = WireOp::kExportTombstones;
  req.slot = SlotForKey("k2", 8);
  EXPECT_EQ(call(req).keys, std::vector<std::string>{"k2"});

  req = {};
  req.op = WireOp::kHealth;
  {
    const WireResponse resp = call(req);
    EXPECT_EQ(resp.health, HealthState::kHealthy);
    EXPECT_TRUE(resp.health_cause.ok());
  }

  req = {};
  req.op = WireOp::kGetFeatures;
  EXPECT_FALSE(call(req).features.rows.empty());

  req = {};
  req.op = WireOp::kGetLogs;
  req.actor = Actor::Regulator();
  req.from_micros = 0;
  req.to_micros = INT64_MAX;
  EXPECT_FALSE(DispatchRequest(&store, req).entries.empty());

  req = {};
  req.op = WireOp::kStatsSnapshot;
  EXPECT_GT(call(req).snapshot.counters.size(), 0u);

  req = {};
  req.op = WireOp::kCompactNow;
  EXPECT_TRUE(call(req).status.ok());
  req.op = WireOp::kCompactionStats;
  EXPECT_TRUE(call(req).status.ok());

  req = {};
  req.op = WireOp::kVerifyAuditChain;
  {
    const WireResponse resp = call(req);
    EXPECT_TRUE(resp.flag);
    EXPECT_FALSE(resp.head_hash.empty());
  }

  req = {};
  req.op = WireOp::kReset;
  EXPECT_TRUE(call(req).status.ok());
  req.op = WireOp::kRecordCount;
  EXPECT_EQ(call(req).count, 0u);

  ASSERT_TRUE(store.Close().ok());
}

// Statuses the cluster's merge logic branches on must arrive intact.
TEST(Dispatch, PermissionDeniedSurvivesTheSwitch) {
  KvGdprStore store(KvGdprOptions{});
  ASSERT_TRUE(store.Open().ok());
  WireRequest req;
  req.op = WireOp::kCreateRecord;
  req.actor = Actor::Controller();
  req.record = MakeRecord("k", "user-A");
  ASSERT_TRUE(DispatchRequest(&store, req).status.ok());

  req = {};
  req.op = WireOp::kReadMetaUser;
  req.actor = Actor::Customer("user-B");
  req.key = "user-A";  // another subject's data
  EXPECT_TRUE(DispatchRequest(&store, req).status.IsPermissionDenied());
  ASSERT_TRUE(store.Close().ok());
}

// ---- RemoteHandle over a live server --------------------------------------

class RpcLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<KvGdprStore>(KvGdprOptions{});
    server_ = std::make_unique<RpcServer>(store_.get());
    ASSERT_TRUE(server_->Start().ok());
    RemoteHandleOptions ro;
    ro.timeout_ms = 5000;
    RpcServer* srv = server_.get();
    ro.reconnect_fn = [srv] { return srv->CreateLoopbackConnection(); };
    ro.metrics = &registry_;
    ro.node_label = "0";
    handle_ = std::make_unique<RemoteHandle>(
        server_->CreateLoopbackConnection(), std::move(ro));
  }

  std::unique_ptr<KvGdprStore> store_;
  std::unique_ptr<RpcServer> server_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<RemoteHandle> handle_;
};

TEST_F(RpcLoopback, FullOpFlowOverTheWire) {
  ASSERT_TRUE(handle_->Open().ok());
  const Actor controller = Actor::Controller();
  for (int i = 0; i < 20; ++i) {
    const std::string user = (i % 2) ? "user-A" : "user-B";
    ASSERT_TRUE(handle_
                    ->CreateRecord(controller,
                                   MakeRecord("k" + std::to_string(i), user))
                    .ok());
  }
  EXPECT_EQ(handle_->RecordCount(), 20u);
  EXPECT_EQ(handle_->ReadDataByKey(controller, "k3").value().data,
            "data-for-k3");
  EXPECT_EQ(handle_->ReadMetadataByUser(controller, "user-A").value().size(),
            10u);

  // Scan replays the callback client-side, honoring early stop.
  size_t seen = 0;
  ASSERT_TRUE(handle_
                  ->ScanRecords(controller,
                                [&](const GdprRecord&) {
                                  ++seen;
                                  return seen < 5;
                                })
                  .ok());
  EXPECT_EQ(seen, 5u);

  // Forget over the wire: the ack frame is the durable-tombstone ack.
  const auto erased = handle_->DeleteRecordsByUser(controller, "user-A");
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), 10u);
  EXPECT_TRUE(handle_->VerifyDeletion(Actor::Regulator(), "k1").value());
  EXPECT_EQ(handle_->RecordCount(), 10u);

  // Introspection and evidence.
  EXPECT_EQ(handle_->GetHealth(), HealthState::kHealthy);
  EXPECT_GT(handle_->TotalBytes(), 0u);
  const auto verdict = handle_->VerifyAuditChain();
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value().chain_ok);
  EXPECT_EQ(verdict.value().head_hash, store_->audit_log()->head_hash());
  EXPECT_TRUE(handle_->CompactNow(controller).ok());

  // RPC metrics observed every round trip.
  const auto snap = registry_.Snapshot();
  EXPECT_GT(snap.CounterValue("cluster_rpc_bytes_total"), 0u);
  ASSERT_TRUE(handle_->Close().ok());
}

TEST_F(RpcLoopback, ReconnectsAfterInjectedDisconnectAndCountsIt) {
  ASSERT_TRUE(handle_->Open().ok());
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(handle_->CreateRecord(controller, MakeRecord("k", "u")).ok());
  handle_->InjectDisconnect();
  // Next call re-establishes through reconnect_fn and succeeds.
  const auto read = handle_->ReadDataByKey(controller, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, "data-for-k");
  EXPECT_GE(registry_.Snapshot().CounterValue("cluster_rpc_reconnects_total"),
            1u);
}

TEST_F(RpcLoopback, StoppedServerSurfacesUnavailableNotAHang) {
  ASSERT_TRUE(handle_->Open().ok());
  server_->Stop();
  const Status s =
      handle_->CreateRecord(Actor::Controller(), MakeRecord("k", "u"));
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // Statusless introspection degrades instead of erroring...
  EXPECT_EQ(handle_->RecordCount(), 0u);
  // ...and health reports the node unreachable.
  EXPECT_EQ(handle_->GetHealth(), HealthState::kDegradedReadOnly);
  EXPECT_TRUE(handle_->GetHealthCause().IsUnavailable());
}

TEST_F(RpcLoopback, MalformedFrameGetsErrorResponseConnectionSurvives) {
  // Speak the framing by hand: a well-framed but garbage payload must get
  // an error response — not kill the connection, not kill the server.
  const int fd = server_->CreateLoopbackConnection();
  ASSERT_GE(fd, 0);
  FrameBuffer buf;
  std::string payload;

  ASSERT_TRUE(WriteAll(fd, Frame("\xde\xad\xbe\xef"), 5000).ok());
  ASSERT_TRUE(ReadFrame(fd, &buf, &payload, 5000).ok());
  WireResponse resp;
  ASSERT_TRUE(DecodeResponse(payload, &resp).ok());
  EXPECT_FALSE(resp.status.ok());

  // Same connection still serves valid requests.
  WireRequest ping;
  ping.op = WireOp::kPing;
  ping.actor = Actor::Controller();
  ASSERT_TRUE(WriteAll(fd, Frame(EncodeRequest(ping)), 5000).ok());
  ASSERT_TRUE(ReadFrame(fd, &buf, &payload, 5000).ok());
  ASSERT_TRUE(DecodeResponse(payload, &resp).ok());
  EXPECT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.op, WireOp::kPing);
  CloseFd(fd);
}

TEST(RpcClient, TimeoutSurfacesUnavailable) {
  // A peer that accepts bytes but never answers: the request must come
  // back Unavailable within the budget, not hang the caller.
  auto [peer, client] = StreamPair();
  ASSERT_GE(client, 0);
  RemoteHandleOptions ro;
  ro.timeout_ms = 100;
  RemoteHandle handle(client, std::move(ro));
  const Status s = handle.Open();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  CloseFd(peer);
}

TEST(RpcClient, DeadHandleWithNoReconnectPathStaysCleanlyDead) {
  RemoteHandleOptions ro;
  ro.timeout_ms = 100;
  RemoteHandle handle(-1, std::move(ro));
  EXPECT_TRUE(handle.Open().IsUnavailable());
  EXPECT_TRUE(
      handle.ReadDataByKey(Actor::Controller(), "k").status().IsUnavailable());
  EXPECT_EQ(handle.RecordCount(), 0u);
  EXPECT_EQ(handle.GetHealth(), HealthState::kDegradedReadOnly);
}

// ---- non-blocking fds: the write budget holds -----------------------------

bool NonBlocking(int fd) { return (fcntl(fd, F_GETFL) & O_NONBLOCK) != 0; }

TEST(RpcSocket, WriteAllOnAnUnreadPeerGivesUpWithinItsBudget) {
  // A peer that stops reading a large response must cost the writer its
  // budget, not a hung thread: with a blocking fd, send() would sleep in
  // the kernel and the poll budget would never fire.
  auto [writer, peer] = StreamPair();
  ASSERT_GE(writer, 0);
  const std::string big(8 << 20, 'x');
  std::promise<std::pair<Status, int64_t>> result;
  std::future<std::pair<Status, int64_t>> done = result.get_future();
  std::thread t([&, fd = writer] {
    const auto start = std::chrono::steady_clock::now();
    const Status s = WriteAll(fd, big, /*timeout_ms=*/200);
    result.set_value({s, std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count()});
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  CloseFd(peer);  // frees a writer stuck in send() so the test cannot hang
  t.join();
  ASSERT_TRUE(returned) << "WriteAll still blocked 2 s into a 200 ms budget";
  const auto [s, elapsed_ms] = done.get();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_LT(elapsed_ms, 400);
  CloseFd(writer);
}

TEST(RpcSocket, WriteBudgetCoversTheWholeBufferNotEachWait) {
  // A peer that drains a little before every wait must not stretch the
  // budget: at most 1 MB per 100 ms, 8 MB needs 800 ms, far over 300 ms.
  auto [writer, peer] = StreamPair();
  ASSERT_GE(writer, 0);
  std::atomic<bool> stop{false};
  std::thread reader([&stop, fd = peer] {
    std::vector<char> buf(1 << 20);
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      [[maybe_unused]] const ssize_t n = read(fd, buf.data(), buf.size());
    }
  });
  const auto start = std::chrono::steady_clock::now();
  const Status s = WriteAll(writer, std::string(8 << 20, 'x'), 300);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  stop.store(true);
  reader.join();
  CloseFd(writer);
  CloseFd(peer);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_LT(elapsed_ms, 600);
}

TEST(RpcSocket, EveryFdTheLayerHandsOutIsNonBlocking) {
  auto [server_end, client_end] = StreamPair();
  EXPECT_TRUE(NonBlocking(server_end));
  EXPECT_TRUE(NonBlocking(client_end));
  CloseFd(server_end);
  CloseFd(client_end);

  const std::string path =
      "/tmp/gdpr_rpc_nonblock_" + std::to_string(::getpid()) + ".sock";
  std::string err;
  const int listener = Listen("unix:" + path, &err);
  ASSERT_GE(listener, 0) << err;
  EXPECT_TRUE(NonBlocking(listener));
  EXPECT_LT(Accept(listener), 0);  // nothing pending: returns at once
  const int dialed = Dial("unix:" + path, 1000, &err);
  ASSERT_GE(dialed, 0) << err;
  EXPECT_TRUE(NonBlocking(dialed));
  const int accepted = Accept(listener);
  ASSERT_GE(accepted, 0);
  EXPECT_TRUE(NonBlocking(accepted));
  CloseFd(accepted);
  CloseFd(dialed);
  CloseFd(listener);
  ::unlink(path.c_str());
}

// ---- unix-socket listener: genuinely cross-process-capable ----------------

TEST(RpcUnixSocket, DialServeAndReconnectOverAListener) {
  const std::string path =
      "/tmp/gdpr_rpc_test_" + std::to_string(::getpid()) + ".sock";
  const std::string addr = "unix:" + path;
  KvGdprStore store(KvGdprOptions{});
  RpcServer server(&store);
  ASSERT_TRUE(server.Start(addr).ok());

  RemoteHandleOptions ro;
  ro.timeout_ms = 5000;
  ro.dial_addr = addr;
  RemoteHandle handle(-1, std::move(ro));  // lazy dial on first use
  ASSERT_TRUE(handle.Open().ok());
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(handle.CreateRecord(controller, MakeRecord("k", "u")).ok());
  EXPECT_EQ(handle.ReadDataByKey(controller, "k").value().data, "data-for-k");

  handle.InjectDisconnect();  // re-dials the listener on the next call
  EXPECT_EQ(handle.RecordCount(), 1u);
  ASSERT_TRUE(handle.Close().ok());
  server.Stop();
  ::unlink(path.c_str());
}

// ---- the cluster-level failure contract -----------------------------------

TEST(ClusterKilledNode, ForgetReportsPartialFailureNamingTheNode) {
  using cluster::ClusterGdprStore;
  using cluster::ClusterOptions;
  using cluster::ClusterTransport;
  ClusterOptions co;
  co.nodes = 3;
  co.transport = ClusterTransport::kLoopbackSocket;
  co.rpc_timeout_ms = 2000;
  co.compliance.metadata_indexing = true;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  const Actor controller = Actor::Controller();

  // One user's records spread across all three nodes.
  size_t made = 0;
  for (int i = 0; made < 30; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(
        cluster.CreateRecord(controller, MakeRecord(key, "user-A")).ok());
    ++made;
  }
  for (size_t n = 0; n < co.nodes; ++n) {
    ASSERT_GT(cluster.node(n)->RecordCount(), 0u)
        << "spread assumption broken";
  }
  const size_t on_node1 = cluster.node(1)->RecordCount();

  // Kill node 1's server: its RPCs now fail, its store keeps its records.
  cluster.node_server(1)->Stop();

  const auto erased = cluster.DeleteRecordsByUser(controller, "user-A");
  ASSERT_FALSE(erased.ok());
  EXPECT_TRUE(erased.status().IsUnavailable()) << erased.status().ToString();
  // The partial-failure report names the node still holding records.
  EXPECT_NE(erased.status().message().find("erasure incomplete"),
            std::string::npos)
      << erased.status().ToString();
  EXPECT_NE(erased.status().message().find("node 1"), std::string::npos)
      << erased.status().ToString();
  EXPECT_EQ(erased.status().message().find("node 0"), std::string::npos);
  EXPECT_EQ(erased.status().message().find("node 2"), std::string::npos);

  // The healthy nodes really erased; the dead node really did not.
  EXPECT_EQ(cluster.node(0)->RecordCount(), 0u);
  EXPECT_EQ(cluster.node(2)->RecordCount(), 0u);
  EXPECT_EQ(cluster.node(1)->RecordCount(), on_node1);

  // Cluster health reflects the unreachable node, and its chain cannot be
  // remotely verified while it is down.
  EXPECT_EQ(cluster.GetHealth(), HealthState::kDegradedReadOnly);
  EXPECT_EQ(cluster.NodeHealth(1), HealthState::kDegradedReadOnly);
  std::vector<bool> per_node;
  EXPECT_FALSE(cluster.VerifyAuditChains(&per_node));
  ASSERT_EQ(per_node.size(), co.nodes + 1);
  EXPECT_TRUE(per_node[0]);
  EXPECT_FALSE(per_node[1]);
  EXPECT_TRUE(per_node[2]);
}

}  // namespace
}  // namespace gdpr::net
