// Per-implementation entry points of the crypto hot paths, and the
// CPUID-based choice among them. Internal: sha256.h, chacha20.h and aead.h
// are the API, and they always run the implementation chosen here. Tests
// and the micro bench include this header to run every implementation the
// host supports side by side, or to report which one was chosen.
//
// The choice is made once per process, on first use, from CPUID alone:
// SHA-256 takes the SHA-NI path when the CPU has the SHA extensions, and
// ChaCha20 the AVX2 path when it has AVX2. The portable scalar code is the
// reference and the fallback everywhere else; every path produces the same
// bytes.

#pragma once

#include <cstddef>
#include <cstdint>

namespace gdpr {
namespace crypto_impl {

// Runs the SHA-256 compression function over `nblocks` consecutive 64-byte
// blocks, updating the eight-word chaining state `h` in place.
using Sha256CompressFn = void (*)(uint32_t h[8], const uint8_t* blocks,
                                  size_t nblocks);

void Sha256CompressScalar(uint32_t h[8], const uint8_t* blocks,
                          size_t nblocks);
// Only callable when HasShaNi().
void Sha256CompressShaNi(uint32_t h[8], const uint8_t* blocks,
                         size_t nblocks);

// XORs `len` bytes of ChaCha20 keystream into `data`, starting at the
// block whose counter is state[12]. Consumes ceil(len / 64) keystream
// blocks and advances state[12] by that many (mod 2^32, as RFC 8439's
// 32-bit counter does). When len is not a multiple of 64, the whole
// keystream of the last, partly used block is written to `last_block` so
// a stream can continue from the middle of it.
using ChaCha20XorFn = void (*)(uint32_t state[16], uint8_t* data, size_t len,
                               uint8_t last_block[64]);

void ChaCha20XorScalar(uint32_t state[16], uint8_t* data, size_t len,
                       uint8_t last_block[64]);
// Computes four blocks per pass (two per 256-bit register). Only callable
// when HasAvx2().
void ChaCha20XorAvx2(uint32_t state[16], uint8_t* data, size_t len,
                     uint8_t last_block[64]);

// RFC 8439 §2.3 initial state: constants, key, counter, nonce.
void ChaCha20InitState(uint32_t state[16], const uint8_t key[32],
                       const uint8_t nonce[12], uint32_t counter);

// CPU feature probes (false on non-x86 builds).
bool HasShaNi();
bool HasAvx2();

// The implementations this process runs, chosen on first call.
Sha256CompressFn SelectedSha256Compress();
ChaCha20XorFn SelectedChaCha20Xor();
// "sha-ni" or "scalar"; "avx2" or "scalar".
const char* SelectedSha256Name();
const char* SelectedChaCha20Name();

}  // namespace crypto_impl
}  // namespace gdpr
