// ChaCha20 stream cipher (RFC 8439). Process() XORs the keystream over a
// buffer in place, so encryption and decryption are the same call. Whole
// blocks run on AVX2, four at a time, where the CPU has it (crypto/impl.h).

#pragma once

#include <cstddef>
#include <cstdint>

namespace gdpr {

class ChaCha20 {
 public:
  // key: 32 bytes, nonce: 12 bytes. counter is the initial block counter
  // (RFC test vectors use 1; our AEAD reserves block 0 elsewhere).
  ChaCha20(const uint8_t key[32], const uint8_t nonce[12],
           uint32_t counter = 0);

  // XOR the keystream into data. May be called repeatedly; the stream
  // position carries over across calls.
  void Process(uint8_t* data, size_t len);

 private:
  uint32_t state_[16];  // state_[12] is the next block's counter
  // Keystream of the last, partly used block; bytes before block_pos_
  // are spent. 64 means no partial block is pending.
  uint8_t block_[64];
  size_t block_pos_ = 64;
};

}  // namespace gdpr
