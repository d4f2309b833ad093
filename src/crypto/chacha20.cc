#include "crypto/chacha20.h"

#include <cstring>

#include "crypto/impl.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GDPR_CRYPTO_X86 1
#endif

namespace gdpr {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t Load32(const uint8_t* p) {
  return uint32_t(p[0]) | (uint32_t(p[1]) << 8) | (uint32_t(p[2]) << 16) |
         (uint32_t(p[3]) << 24);
}

inline void Store32(uint8_t* p, uint32_t v) {
  p[0] = uint8_t(v);
  p[1] = uint8_t(v >> 8);
  p[2] = uint8_t(v >> 16);
  p[3] = uint8_t(v >> 24);
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl(d, 16);
  c += d; b ^= c; b = Rotl(b, 12);
  a += b; d ^= a; d = Rotl(d, 8);
  c += d; b ^= c; b = Rotl(b, 7);
}

// One keystream block as 16 words, for the counter in state[12].
void BlockWords(const uint32_t state[16], uint32_t out[16]) {
  uint32_t x[16];
  memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) out[i] = x[i] + state[i];
}

// XORs n keystream bytes into data, eight at a time while it can.
inline void XorBytes(uint8_t* data, const uint8_t* ks, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t d, k;
    memcpy(&d, data + i, 8);
    memcpy(&k, ks + i, 8);
    d ^= k;
    memcpy(data + i, &d, 8);
  }
  for (; i < n; ++i) data[i] ^= ks[i];
}

}  // namespace

namespace crypto_impl {

void ChaCha20InitState(uint32_t state[16], const uint8_t key[32],
                       const uint8_t nonce[12], uint32_t counter) {
  static const char kSigma[] = "expand 32-byte k";
  for (int i = 0; i < 4; ++i) {
    state[i] = Load32(reinterpret_cast<const uint8_t*>(kSigma + 4 * i));
  }
  for (int i = 0; i < 8; ++i) state[4 + i] = Load32(key + 4 * i);
  state[12] = counter;
  state[13] = Load32(nonce);
  state[14] = Load32(nonce + 4);
  state[15] = Load32(nonce + 8);
}

void ChaCha20XorScalar(uint32_t state[16], uint8_t* data, size_t len,
                       uint8_t last_block[64]) {
  uint8_t ks[64];
  while (len > 0) {
    uint32_t words[16];
    BlockWords(state, words);
    state[12]++;  // block counter
    for (int i = 0; i < 16; ++i) Store32(ks + 4 * i, words[i]);
    const size_t n = len < 64 ? len : 64;
    XorBytes(data, ks, n);
    if (n < 64) memcpy(last_block, ks, 64);
    data += n;
    len -= n;
  }
}

#ifdef GDPR_CRYPTO_X86

namespace {

// Two blocks per register: the low 128-bit lane holds one block's row, the
// high lane the next block's. Rows a, b, c, d are the state's four rows;
// the diagonal round rotates b, c and d within each lane so the column
// quarter-round code serves both.
struct Avx2Rows {
  __m256i a, b, c, d;
};

__attribute__((target("avx2"))) inline __m256i RotlAvx2(__m256i x, int n) {
  return _mm256_or_si256(_mm256_slli_epi32(x, n), _mm256_srli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) inline void QuarterRoundAvx2(
    Avx2Rows& r, __m256i rot16, __m256i rot8) {
  r.a = _mm256_add_epi32(r.a, r.b);
  r.d = _mm256_shuffle_epi8(_mm256_xor_si256(r.d, r.a), rot16);
  r.c = _mm256_add_epi32(r.c, r.d);
  r.b = RotlAvx2(_mm256_xor_si256(r.b, r.c), 12);
  r.a = _mm256_add_epi32(r.a, r.b);
  r.d = _mm256_shuffle_epi8(_mm256_xor_si256(r.d, r.a), rot8);
  r.c = _mm256_add_epi32(r.c, r.d);
  r.b = RotlAvx2(_mm256_xor_si256(r.b, r.c), 7);
}

// Row i of the state in both lanes.
__attribute__((target("avx2"))) inline __m256i BroadcastRow(
    const uint32_t state[16], int i) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4 * i)));
}

// Keystream for kPairs * 2 consecutive blocks starting at state[12],
// written block by block to out[0 .. kPairs * 128).
template <int kPairs>
__attribute__((target("avx2"))) void KeystreamAvx2(const uint32_t state[16],
                                                   uint8_t* out) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  Avx2Rows init[kPairs];
  Avx2Rows x[kPairs];
  for (int p = 0; p < kPairs; ++p) {
    // Counter offsets 2p (low lane) and 2p + 1 (high lane).
    const __m256i ctr = _mm256_setr_epi32(2 * p, 0, 0, 0, 2 * p + 1, 0, 0, 0);
    init[p] = Avx2Rows{BroadcastRow(state, 0), BroadcastRow(state, 1),
                       BroadcastRow(state, 2),
                       _mm256_add_epi32(BroadcastRow(state, 3), ctr)};
    x[p] = init[p];
  }
  for (int round = 0; round < 10; ++round) {
    for (int p = 0; p < kPairs; ++p) QuarterRoundAvx2(x[p], rot16, rot8);
    for (int p = 0; p < kPairs; ++p) {
      x[p].b = _mm256_shuffle_epi32(x[p].b, 0x39);
      x[p].c = _mm256_shuffle_epi32(x[p].c, 0x4E);
      x[p].d = _mm256_shuffle_epi32(x[p].d, 0x93);
    }
    for (int p = 0; p < kPairs; ++p) QuarterRoundAvx2(x[p], rot16, rot8);
    for (int p = 0; p < kPairs; ++p) {
      x[p].b = _mm256_shuffle_epi32(x[p].b, 0x93);
      x[p].c = _mm256_shuffle_epi32(x[p].c, 0x4E);
      x[p].d = _mm256_shuffle_epi32(x[p].d, 0x39);
    }
  }
  for (int p = 0; p < kPairs; ++p) {
    const __m256i a = _mm256_add_epi32(x[p].a, init[p].a);
    const __m256i b = _mm256_add_epi32(x[p].b, init[p].b);
    const __m256i c = _mm256_add_epi32(x[p].c, init[p].c);
    const __m256i d = _mm256_add_epi32(x[p].d, init[p].d);
    __m256i* o = reinterpret_cast<__m256i*>(out + 128 * p);
    _mm256_storeu_si256(o + 0, _mm256_permute2x128_si256(a, b, 0x20));
    _mm256_storeu_si256(o + 1, _mm256_permute2x128_si256(c, d, 0x20));
    _mm256_storeu_si256(o + 2, _mm256_permute2x128_si256(a, b, 0x31));
    _mm256_storeu_si256(o + 3, _mm256_permute2x128_si256(c, d, 0x31));
  }
}

}  // namespace

__attribute__((target("avx2"))) void ChaCha20XorAvx2(uint32_t state[16],
                                                     uint8_t* data, size_t len,
                                                     uint8_t last_block[64]) {
  uint8_t ks[256];
  for (; len >= 256; data += 256, len -= 256) {
    KeystreamAvx2<2>(state, ks);
    state[12] += 4;
    XorBytes(data, ks, 256);
  }
  if (len == 0) return;
  // The tail: one pass of two or four blocks covers up to 256 bytes.
  const size_t blocks = (len + 63) / 64;
  if (blocks <= 2) {
    KeystreamAvx2<1>(state, ks);
  } else {
    KeystreamAvx2<2>(state, ks);
  }
  state[12] += uint32_t(blocks);
  XorBytes(data, ks, len);
  if (len % 64 != 0) memcpy(last_block, ks + 64 * (blocks - 1), 64);
}

bool HasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

#else

void ChaCha20XorAvx2(uint32_t state[16], uint8_t* data, size_t len,
                     uint8_t last_block[64]) {
  ChaCha20XorScalar(state, data, len, last_block);  // never selected off x86
}

bool HasAvx2() { return false; }

#endif  // GDPR_CRYPTO_X86

ChaCha20XorFn SelectedChaCha20Xor() {
  static const ChaCha20XorFn fn =
      HasAvx2() ? ChaCha20XorAvx2 : ChaCha20XorScalar;
  return fn;
}

const char* SelectedChaCha20Name() {
  return SelectedChaCha20Xor() == ChaCha20XorAvx2 ? "avx2" : "scalar";
}

}  // namespace crypto_impl

ChaCha20::ChaCha20(const uint8_t key[32], const uint8_t nonce[12],
                   uint32_t counter) {
  crypto_impl::ChaCha20InitState(state_, key, nonce, counter);
}

void ChaCha20::Process(uint8_t* data, size_t len) {
  // Finish the block a previous call left partly used.
  if (block_pos_ < 64) {
    const size_t n = len < 64 - block_pos_ ? len : 64 - block_pos_;
    XorBytes(data, block_ + block_pos_, n);
    block_pos_ += n;
    data += n;
    len -= n;
  }
  if (len == 0) return;
  crypto_impl::SelectedChaCha20Xor()(state_, data, len, block_);
  block_pos_ = len % 64 == 0 ? 64 : len % 64;
}

}  // namespace gdpr
