// SHA-256 (FIPS 180-4) with a streaming interface, plus HMAC-SHA256 for the
// AEAD tag and the audit log's tamper-evident hash chain. The compression
// function runs on SHA-NI where the CPU has it (crypto/impl.h).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gdpr {

class Sha256 {
 public:
  using Digest = std::array<uint8_t, 32>;

  Sha256();
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  Digest Finish();

  static Digest Hash(std::string_view data) {
    Sha256 h;
    h.Update(data);
    return h.Finish();
  }
  static std::string HexDigest(std::string_view data);
  static std::string ToHex(const Digest& d);

 private:
  // Compresses `nblocks` consecutive 64-byte blocks into h_.
  void Compress(const uint8_t* blocks, size_t nblocks);

  uint32_t h_[8];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

// HMAC-SHA256(key, message).
Sha256::Digest HmacSha256(std::string_view key, std::string_view message);

// HMAC-SHA256 under one fixed key. The keyed inner and outer states (the
// ipad and opad blocks) are absorbed once, here; each Mac() resumes from
// them, which saves two compressions per message over HmacSha256().
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::string_view key);
  Sha256::Digest Mac(std::string_view message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

}  // namespace gdpr
