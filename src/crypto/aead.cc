#include "crypto/aead.h"

#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace gdpr {

namespace {

void SeqToNonce(uint64_t seq, uint8_t nonce[12]) {
  memset(nonce, 0, 4);
  for (int i = 0; i < 8; ++i) nonce[4 + i] = uint8_t(seq >> (8 * i));
}

bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  uint8_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

// SHA-256(label || key_material): one 32-byte subkey per purpose.
std::string DeriveKey(std::string_view label, std::string_view key_material) {
  Sha256 h;
  h.Update(label);
  h.Update(key_material);
  const Sha256::Digest d = h.Finish();
  return std::string(reinterpret_cast<const char*>(d.data()), d.size());
}

}  // namespace

Aead::Aead(std::string_view key_material)
    : mac_(DeriveKey("aead-mac\x02", key_material)) {
  memcpy(enc_key_, DeriveKey("aead-enc\x01", key_material).data(), 32);
}

std::string Aead::Seal(std::string_view plaintext, uint64_t seq) const {
  std::string out;
  out.resize(8 + plaintext.size() + 16);
  for (int i = 0; i < 8; ++i) out[i] = char(uint8_t(seq >> (8 * i)));
  memcpy(out.data() + 8, plaintext.data(), plaintext.size());

  uint8_t nonce[12];
  SeqToNonce(seq, nonce);
  ChaCha20 cipher(enc_key_, nonce, /*counter=*/1);
  cipher.Process(reinterpret_cast<uint8_t*>(out.data()) + 8, plaintext.size());

  const Sha256::Digest tag =
      mac_.Mac(std::string_view(out.data(), 8 + plaintext.size()));
  memcpy(out.data() + 8 + plaintext.size(), tag.data(), 16);
  return out;
}

StatusOr<std::string> Aead::Open(std::string_view sealed) const {
  if (sealed.size() < kOverhead) {
    return Status::DataLoss("sealed blob too short");
  }
  const size_t ct_len = sealed.size() - kOverhead;
  const Sha256::Digest tag = mac_.Mac(sealed.substr(0, 8 + ct_len));
  if (!ConstantTimeEqual(
          tag.data(),
          reinterpret_cast<const uint8_t*>(sealed.data()) + 8 + ct_len, 16)) {
    return Status::DataLoss("authentication tag mismatch");
  }
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) seq |= uint64_t(uint8_t(sealed[i])) << (8 * i);
  std::string plain(sealed.substr(8, ct_len));
  uint8_t nonce[12];
  SeqToNonce(seq, nonce);
  ChaCha20 cipher(enc_key_, nonce, /*counter=*/1);
  cipher.Process(reinterpret_cast<uint8_t*>(plain.data()), plain.size());
  return plain;
}

}  // namespace gdpr
