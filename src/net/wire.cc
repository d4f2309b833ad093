#include "net/wire.h"

#include <algorithm>
#include <numeric>

#include "common/coding.h"
#include "gdpr/ops.h"

namespace gdpr::net {

namespace {

// ---- the two codec directions ----------------------------------------------
// Every layout below is a template over a coder C. Writer appends the wire
// form of each field; Reader parses it back into the same field and fails
// the whole decode on truncation or an out-of-range value. So a layout's
// bytes and its decode checks are one function, and encode and decode can
// never disagree about field order. Decode resets the message first, so
// every field a Reader fills starts empty.

class Writer {
 public:
  static constexpr bool kReading = false;
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(char(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  template <typename E>
  void Enum(E v, E /*max*/) { U8(uint8_t(v)); }
  void Varint(uint64_t v) { PutVarint64(out_, v); }
  void Fixed(uint64_t v) { PutFixed64(out_, v); }
  void Fixed(int64_t v) { PutFixed64(out_, uint64_t(v)); }
  void Str(std::string_view s) { PutLengthPrefixed(out_, s); }
  // Records ride as their existing compact serialization (gdpr/record.cc),
  // the one codec the AOF, migration and the wire share.
  void Rec(const GdprRecord& r) { Str(r.Serialize()); }
  template <typename T, typename F>
  void List(const std::vector<T>& v, F each) {
    Varint(v.size());
    for (const T& x : v) each(x);
  }
  template <typename T, typename F>
  void Opt(const std::optional<T>& v, bool present, F each) {
    if (present) each(*v);
  }
  void Check(bool /*valid*/) {}

 private:
  std::string* out_;
};

class Reader {
 public:
  static constexpr bool kReading = true;
  explicit Reader(std::string_view in) : in_(in) {}

  bool ok() const { return ok_; }
  bool done() const { return in_.empty(); }
  void Check(bool valid) { ok_ = ok_ && valid; }

  void U8(uint8_t& v) {
    Check(!in_.empty());
    if (!ok_) return;
    v = uint8_t(in_.front());
    in_.remove_prefix(1);
  }
  void Bool(bool& v) {
    uint8_t b = 0;
    U8(b);
    v = b != 0;
  }
  // Enum bytes are range-checked: no out-of-range enumerator leaves here.
  template <typename E>
  void Enum(E& v, E max) {
    uint8_t b = 0;
    U8(b);
    Check(b <= uint8_t(max));
    if (ok_) v = E(b);
  }
  void Varint(uint64_t& v) { Check(ok_ && GetVarint64(&in_, &v)); }
  void Varint(uint32_t& v) {
    uint64_t w = 0;
    Varint(w);
    Check(w < (uint64_t(1) << 32));
    v = uint32_t(w);
  }
  void Fixed(uint64_t& v) { Check(ok_ && GetFixed64(&in_, &v)); }
  // Signed fields travel as their two's-complement bits; reading an object
  // through its unsigned counterpart type is well-defined.
  void Fixed(int64_t& v) { Fixed(reinterpret_cast<uint64_t&>(v)); }
  void Str(std::string& s) {
    std::string_view v;
    Check(ok_ && GetLengthPrefixed(&in_, &v));
    s.assign(v);
  }
  void Rec(GdprRecord& r) {
    std::string_view blob;
    Check(ok_ && GetLengthPrefixed(&in_, &blob));
    if (!ok_) return;
    StatusOr<GdprRecord> rec = GdprRecord::Parse(blob);
    Check(rec.ok());
    if (ok_) r = std::move(rec.value());
  }
  // A count is bounded by the bytes left (every element takes at least
  // one), and so is the up-front reservation: an element can be far larger
  // in memory than on the wire (a record is ~200 bytes, its smallest
  // encoding one), so a corrupt count must not size the allocation.
  template <typename T, typename F>
  void List(std::vector<T>& v, F each) {
    uint64_t n = 0;
    Varint(n);
    Check(n <= in_.size());
    if (ok_) v.reserve(size_t(std::min<uint64_t>(n, in_.size() / sizeof(T))));
    for (uint64_t i = 0; i < n && ok_; ++i) each(v.emplace_back());
  }
  template <typename T, typename F>
  void Opt(std::optional<T>& v, bool present, F each) {
    if (present) each(v.emplace());
  }

 private:
  std::string_view in_;
  bool ok_ = true;
};

// ---- shared field groups ---------------------------------------------------
// M is `const T` when writing and `T` when reading.

template <typename C, typename M>
void CodeStatus(C& c, M& s) {
  StatusCode code = s.code();
  std::string message = s.message();
  c.Enum(code, StatusCode::kUnavailable);
  c.Str(message);
  if constexpr (C::kReading) s = Status(code, std::move(message));
}

template <typename C, typename M>
void CodeActor(C& c, M& a) {
  c.Enum(a.role, Actor::Role::kRegulator);
  c.Str(a.id);
  c.Str(a.purpose);
}

// Presence bitmap, then only the fields that are set.
template <typename C, typename M>
void CodeUpdate(C& c, M& u) {
  uint8_t bits = uint8_t(
      u.user.has_value() | u.purposes.has_value() << 1 |
      u.objections.has_value() << 2 | u.shared_with.has_value() << 3 |
      u.origin.has_value() << 4 | u.expiry_micros.has_value() << 5);
  c.U8(bits);
  const auto str = [&](auto& s) { c.Str(s); };
  const auto list = [&](auto& v) { c.List(v, str); };
  c.Opt(u.user, bits & 1, str);
  c.Opt(u.purposes, bits & 2, list);
  c.Opt(u.objections, bits & 4, list);
  c.Opt(u.shared_with, bits & 8, list);
  c.Opt(u.origin, bits & 16, str);
  c.Opt(u.expiry_micros, bits & 32, [&](auto& t) { c.Fixed(t); });
}

// ---- request layouts (after the actor) -------------------------------------

template <typename C, typename R>
void EmptyRequest(C&, R&) {}

template <typename C, typename R>
void KeyRequest(C& c, R& r) { c.Str(r.key); }

template <typename C, typename R>
void RecordRequest(C& c, R& r) { c.Rec(r.record); }

template <typename C, typename R>
void KeyDataRequest(C& c, R& r) {
  c.Str(r.key);
  c.Str(r.data);
}

template <typename C, typename R>
void KeyUpdateRequest(C& c, R& r) {
  c.Str(r.key);
  CodeUpdate(c, r.update);
}

template <typename C, typename R>
void TimeRangeRequest(C& c, R& r) {
  c.Fixed(r.from_micros);
  c.Fixed(r.to_micros);
}

template <typename C, typename R>
void SlotSpecRequest(C& c, R& r) {
  c.Varint(r.slot);
  c.Varint(r.num_slots);
  c.Check(r.num_slots != 0 && r.slot < r.num_slots);
}

// ---- response layouts (after the op status) --------------------------------

template <typename C, typename R>
void EmptyResponse(C&, R&) {}

template <typename C, typename R>
void RecordResponse(C& c, R& r) { c.Rec(r.record); }

// Metadata rides as a record with empty key and data; a second layout
// would just be a second set of truncation bugs.
template <typename C, typename R>
void MetadataResponse(C& c, R& r) {
  GdprRecord shell;
  if constexpr (!C::kReading) shell.metadata = r.metadata;
  c.Rec(shell);
  if constexpr (C::kReading) r.metadata = std::move(shell.metadata);
}

template <typename C, typename R>
void RecordsResponse(C& c, R& r) {
  c.List(r.records, [&](auto& rec) { c.Rec(rec); });
}

template <typename C, typename R>
void CountResponse(C& c, R& r) { c.Varint(r.count); }

template <typename C, typename R>
void FlagResponse(C& c, R& r) { c.Bool(r.flag); }

template <typename C, typename R>
void EntriesResponse(C& c, R& r) {
  c.List(r.entries, [&](auto& e) {
    c.Fixed(e.timestamp_micros);
    c.Str(e.actor_id);
    c.Enum(e.role, Actor::Role::kRegulator);
    c.Str(e.op);
    c.Str(e.key);
    c.Bool(e.allowed);
  });
}

template <typename C, typename R>
void FeaturesResponse(C& c, R& r) {
  c.Str(r.features.backend);
  c.List(r.features.rows, [&](auto& row) {
    c.Str(row.article);
    c.Str(row.requirement);
    c.Str(row.mechanism);
    c.Bool(row.supported);
  });
}

template <typename C, typename R>
void HealthResponse(C& c, R& r) {
  c.Enum(r.health, HealthState::kFailed);
  CodeStatus(c, r.health_cause);
}

template <typename C, typename R>
void SnapshotResponse(C& c, R& r) {
  const auto named = [&](auto& kv) {
    c.Str(kv.first);
    c.Fixed(kv.second);
  };
  c.List(r.snapshot.counters, named);
  c.List(r.snapshot.gauges, named);
  c.List(r.snapshot.histograms, [&](auto& h) {
    c.Str(h.name);
    for (auto& n : h.counts) c.Varint(n);
    c.Fixed(h.sum);
    if constexpr (C::kReading) {
      h.count = std::accumulate(h.counts.begin(), h.counts.end(), uint64_t{0});
    }
  });
}

template <typename C, typename R>
void CompactionStatsResponse(C& c, R& r) {
  auto& s = r.stats;
  c.Fixed(s.compactions);
  c.Fixed(s.log_bytes);
  c.Fixed(s.live_bytes);
  c.Fixed(s.last_bytes_before);
  c.Fixed(s.last_bytes_after);
  c.Fixed(s.last_compaction_micros);
  c.Fixed(s.erasure_barrier);
  c.Fixed(s.erasures_pending_compaction);
  c.Fixed(s.audit_segments);
  c.Fixed(s.audit_dropped_entries);
}

template <typename C, typename R>
void KeysResponse(C& c, R& r) { c.List(r.keys, [&](auto& k) { c.Str(k); }); }

template <typename C, typename R>
void ChainVerdictResponse(C& c, R& r) {
  c.Bool(r.flag);
  c.Str(r.head_hash);
}

// ---- whole messages --------------------------------------------------------
// The op table picks each op's layout.

template <typename C, typename R>
void RequestBody(C& c, R& r) {
  CodeActor(c, r.actor);
  switch (r.op) {
#define GDPR_WIRE_REQUEST(op, tag, name, request, response) \
  case WireOp::op:                                          \
    return request##Request(c, r);
    GDPR_WIRE_OPS(GDPR_WIRE_REQUEST)
#undef GDPR_WIRE_REQUEST
  }
}

template <typename C, typename R>
void ResponseBody(C& c, R& r) {
  CodeStatus(c, r.status);
  switch (r.op) {
#define GDPR_WIRE_RESPONSE(op, tag, name, request, response) \
  case WireOp::op:                                           \
    return response##Response(c, r);
    GDPR_WIRE_OPS(GDPR_WIRE_RESPONSE)
#undef GDPR_WIRE_RESPONSE
  }
}

// payload = [u8 version][u8 op tag][body]
template <typename M, typename F>
std::string Encode(const M& msg, F body) {
  std::string out;
  Writer w(&out);
  w.U8(kWireVersion);
  w.U8(uint8_t(msg.op));
  body(w, msg);
  return out;
}

// `kind` names the message ("request"/"response") in error statuses.
template <typename M, typename F>
Status Decode(std::string_view payload, const char* kind, M* msg, F body) {
  Reader in(payload);
  uint8_t version = 0, tag = 0;
  in.U8(version);
  in.U8(tag);
  if (!in.ok()) {
    return Status::DataLoss(std::string("truncated wire ") + kind + " header");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        std::string("unsupported wire ") + kind + " version " +
        std::to_string(version) + " (this node speaks " +
        std::to_string(kWireVersion) + ")");
  }
  if (!ValidWireOp(tag)) {
    return Status::InvalidArgument(std::string("unknown wire ") + kind +
                                   " op tag " + std::to_string(tag));
  }
  *msg = M{};
  msg->op = WireOp(tag);
  body(in, *msg);
  if (in.ok() && in.done()) return Status::OK();
  const char* what = in.ok() ? "trailing bytes in" : "malformed";
  return Status::DataLoss(std::string(what) + " wire " + kind + " for " +
                          WireOpName(msg->op));
}

}  // namespace

bool ValidWireOp(uint8_t tag) {
  switch (WireOp(tag)) {
#define GDPR_WIRE_VALID(op, tag, name, request, response) case WireOp::op:
    GDPR_WIRE_OPS(GDPR_WIRE_VALID)
#undef GDPR_WIRE_VALID
    return true;
  }
  return false;
}

const char* WireOpName(WireOp op) {
  switch (op) {
#define GDPR_WIRE_NAME(op, tag, name, request, response) \
  case WireOp::op:                                       \
    return name;
    GDPR_WIRE_OPS(GDPR_WIRE_NAME)
#undef GDPR_WIRE_NAME
  }
  return "UNKNOWN";
}

uint32_t SlotForKey(std::string_view key, uint32_t num_slots) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= uint8_t(c);
    h *= 1099511628211ull;
  }
  return num_slots ? uint32_t(h % num_slots) : 0;
}

std::string EncodeRequest(const WireRequest& req) {
  return Encode(req, [](auto& c, auto& r) { RequestBody(c, r); });
}

Status DecodeRequest(std::string_view payload, WireRequest* req) {
  return Decode(payload, "request", req,
                [](auto& c, auto& r) { RequestBody(c, r); });
}

std::string EncodeResponse(const WireResponse& resp) {
  return Encode(resp, [](auto& c, auto& r) { ResponseBody(c, r); });
}

Status DecodeResponse(std::string_view payload, WireResponse* resp) {
  return Decode(payload, "response", resp,
                [](auto& c, auto& r) { ResponseBody(c, r); });
}

std::string Frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(char(payload.size() >> (8 * i)));
  out.append(payload.data(), payload.size());
  return out;
}

Status FrameBuffer::Next(std::string* payload, bool* have) {
  *have = false;
  if (poisoned_) {
    return Status::DataLoss("frame stream poisoned by oversized frame");
  }
  if (buf_.size() < kFrameHeaderBytes) return Status::OK();
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= uint32_t(uint8_t(buf_[i])) << (8 * i);
  if (len > kMaxFrameBytes) {
    // The reader has no way to find the next frame boundary after a bogus
    // length: poison, and let the transport drop the connection.
    poisoned_ = true;
    return Status::DataLoss("frame length " + std::to_string(len) +
                            " exceeds limit " +
                            std::to_string(kMaxFrameBytes));
  }
  if (buf_.size() < kFrameHeaderBytes + len) return Status::OK();
  payload->assign(buf_, kFrameHeaderBytes, len);
  buf_.erase(0, kFrameHeaderBytes + len);
  *have = true;
  return Status::OK();
}

}  // namespace gdpr::net
