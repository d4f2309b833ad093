#include "net/rpc_server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "net/node_handle.h"
#include "net/socket_io.h"

namespace gdpr::net {

namespace {

// The loop never hangs on a slow reader: a peer that cannot drain a
// response within this budget is treated as dead.
constexpr int kWriteTimeoutMs = 10'000;

// Puts a handle call's outcome into the response: a bare Status, or a
// result (a StatusOr's value, or a statusless value) into `field`.
void Put(WireResponse* resp, Status s) { resp->status = std::move(s); }

template <typename T, typename F>
void Put(WireResponse* resp, StatusOr<T> r, F WireResponse::*field) {
  if (r.ok()) {
    resp->*field = F(std::move(r.value()));
  } else {
    resp->status = r.status();
  }
}

template <typename T, typename F>
void Put(WireResponse* resp, T v, F WireResponse::*field) {
  resp->*field = F(std::move(v));
}

// One line per op: the request's fields into the matching handle call.
void Serve(InProcessHandle& h, const WireRequest& req, WireResponse* resp) {
  const Actor& a = req.actor;
  const std::string& k = req.key;
  using R = WireResponse;
  switch (req.op) {
    case WireOp::kPing:
      return;
    case WireOp::kOpen:
      return Put(resp, h.Open());
    case WireOp::kClose:
      return Put(resp, h.Close());
    case WireOp::kCreateRecord:
      return Put(resp, h.CreateRecord(a, req.record));
    case WireOp::kReadData:
      return Put(resp, h.ReadDataByKey(a, k), &R::record);
    case WireOp::kReadMeta:
      return Put(resp, h.ReadMetadataByKey(a, k), &R::metadata);
    case WireOp::kReadMetaUser:
      return Put(resp, h.ReadMetadataByUser(a, k), &R::records);
    case WireOp::kReadMetaPurpose:
      return Put(resp, h.ReadMetadataByPurpose(a, k), &R::records);
    case WireOp::kReadMetaSharing:
      return Put(resp, h.ReadMetadataBySharing(a, k), &R::records);
    case WireOp::kReadRecordsUser:
      return Put(resp, h.ReadRecordsByUser(a, k), &R::records);
    case WireOp::kUpdateMeta:
      return Put(resp, h.UpdateMetadataByKey(a, k, req.update));
    case WireOp::kUpdateData:
      return Put(resp, h.UpdateDataByKey(a, k, req.data));
    case WireOp::kDeleteKey:
      return Put(resp, h.DeleteRecordByKey(a, k));
    case WireOp::kDeleteUser:
      // Returns only once the node's tombstones are decided durable (the
      // erasure path blocks in the commit pipeline), so the response frame
      // IS the durable-tombstone ack.
      return Put(resp, h.DeleteRecordsByUser(a, k), &R::count);
    case WireOp::kDeleteExpired:
      return Put(resp, h.DeleteExpiredRecords(a), &R::count);
    case WireOp::kVerifyDeletion:
      return Put(resp, h.VerifyDeletion(a, k), &R::flag);
    case WireOp::kGetLogs:
      return Put(resp, h.GetSystemLogs(a, req.from_micros, req.to_micros),
                 &R::entries);
    case WireOp::kGetFeatures:
      return Put(resp, h.GetFeatures(a), &R::features);
    case WireOp::kScanRecords:
      // The callback cannot cross the wire: ship every readable record and
      // let the handle replay the caller's callback locally. The op Status
      // (DataLoss partial-scan verdicts included) rides alongside.
      return Put(resp, h.ScanRecords(a, [resp](const GdprRecord& rec) {
        resp->records.push_back(rec);
        return true;
      }));
    case WireOp::kRecordCount:
      return Put(resp, h.RecordCount(), &R::count);
    case WireOp::kTotalBytes:
      return Put(resp, h.TotalBytes(), &R::count);
    case WireOp::kReset:
      return Put(resp, h.Reset());
    case WireOp::kHealth:
      resp->health_cause = h.GetHealthCause();
      return Put(resp, h.GetHealth(), &R::health);
    case WireOp::kStatsSnapshot:
      return Put(resp, h.StatsSnapshot(), &R::snapshot);
    case WireOp::kCompactNow:
      return Put(resp, h.CompactNow(a), &R::stats);
    case WireOp::kCompactionStats:
      return Put(resp, h.GetCompactionStats(), &R::stats);
    case WireOp::kExportRecords:
      return Put(resp, h.ExportSlotRecords(req.slot, req.num_slots),
                 &R::records);
    case WireOp::kExportTombstones:
      return Put(resp, h.ExportSlotTombstones(req.slot, req.num_slots),
                 &R::keys);
    case WireOp::kImportRecord:
      return Put(resp, h.ImportRecord(req.record));
    case WireOp::kAdoptTombstone:
      return Put(resp, h.AdoptTombstone(k));
    case WireOp::kEvictRecord:
      return Put(resp, h.EvictRecord(k));
    case WireOp::kClearTombstone:
      return Put(resp, h.ClearTombstone(k));
    case WireOp::kVerifyAuditChain: {
      AuditChainVerdict v = h.VerifyAuditChain().value();
      resp->flag = v.chain_ok;
      return Put(resp, std::move(v.head_hash), &R::head_hash);
    }
  }
}

}  // namespace

WireResponse DispatchRequest(KvGdprStore* store, const WireRequest& req) {
  InProcessHandle handle(store);
  WireResponse resp;
  resp.op = req.op;
  Serve(handle, req, &resp);
  return resp;
}

RpcServer::RpcServer(KvGdprStore* store) : store_(store) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start(const std::string& listen_addr) {
  if (running()) {
    return Status::FailedPrecondition("rpc server already running");
  }
  if (!listen_addr.empty()) {
    std::string err;
    listen_fd_ = net::Listen(listen_addr, &err);
    if (listen_fd_ < 0) return Status::IOError(err);
    listen_addr_ = listen_addr;
  }
  int pipefd[2];
  if (pipe2(pipefd, O_NONBLOCK) != 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("rpc server wake pipe");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  Wake();
  if (loop_.joinable()) loop_.join();
  for (Conn& c : conns_) CloseFd(c.fd);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (int fd : pending_fds_) CloseFd(fd);
    pending_fds_.clear();
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  CloseFd(wake_rd_);
  CloseFd(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
}

void RpcServer::Wake() {
  if (wake_wr_ >= 0) {
    const char b = 1;
    [[maybe_unused]] ssize_t n = write(wake_wr_, &b, 1);
  }
}

int RpcServer::CreateLoopbackConnection() {
  if (!running()) return -1;
  auto [server_fd, client_fd] = StreamPair();
  if (server_fd < 0) return -1;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_fds_.push_back(server_fd);
  }
  Wake();
  return client_fd;
}

bool RpcServer::ServeBuffered(size_t i) {
  Conn& c = conns_[i];
  for (;;) {
    std::string payload;
    bool have = false;
    Status fs = c.buf.Next(&payload, &have);
    if (!fs.ok()) return false;  // unframeable stream: drop the connection
    if (!have) return true;
    WireRequest req;
    WireResponse resp;
    Status ds = DecodeRequest(payload, &req);
    if (ds.ok()) {
      resp = DispatchRequest(store_, req);
    } else {
      // Malformed payload: answer with the decode error so the client sees
      // exactly why, and keep the connection — the framing is still sound.
      resp.op = WireOp::kPing;
      resp.status = ds;
    }
    const std::string frame = Frame(EncodeResponse(resp));
    if (!WriteAll(c.fd, frame, kWriteTimeoutMs).ok()) return false;
  }
}

void RpcServer::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (int fd : pending_fds_) conns_.push_back(Conn{fd, {}});
      pending_fds_.clear();
    }
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back(pollfd{wake_rd_, POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const size_t conn_base = fds.size();
    for (const Conn& c : conns_) fds.push_back(pollfd{c.fd, POLLIN, 0});
    // A connection accept() adds below joins conns_ but has no pollfd this
    // round — only walk the entries that were actually polled.
    const size_t polled = conns_.size();
    const int rc = poll(fds.data(), nfds_t(fds.size()), 500);
    if (rc <= 0) continue;
    if (fds[0].revents & POLLIN) {
      char drain[64];
      [[maybe_unused]] ssize_t n = read(wake_rd_, drain, sizeof(drain));
    }
    if (listen_fd_ >= 0 && (fds[1].revents & POLLIN)) {
      const int fd = Accept(listen_fd_);
      if (fd >= 0) conns_.push_back(Conn{fd, {}});
    }
    // Walk backwards so dropping connection i cannot shift unprocessed
    // entries under the iteration.
    for (size_t i = polled; i-- > 0;) {
      const short rev = fds[conn_base + i].revents;
      if (!(rev & (POLLIN | POLLHUP | POLLERR))) continue;
      bool alive = true;
      if (rev & POLLIN) {
        char chunk[16 * 1024];
        const ssize_t n = recv(conns_[i].fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          conns_[i].buf.Feed(chunk, size_t(n));
          alive = ServeBuffered(i);
        } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                              errno != EWOULDBLOCK)) {
          alive = false;
        }
      } else {
        alive = false;  // hangup/error with nothing readable
      }
      if (!alive) {
        CloseFd(conns_[i].fd);
        conns_.erase(conns_.begin() + long(i));
      }
    }
  }
}

}  // namespace gdpr::net
