#include "crypto/sha256.h"

#include <cstring>

#include "crypto/impl.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GDPR_CRYPTO_X86 1
#endif

namespace gdpr {

namespace {

const uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace crypto_impl {

void Sha256CompressScalar(uint32_t h[8], const uint8_t* blocks,
                          size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(blocks[4 * i]) << 24) |
             (uint32_t(blocks[4 * i + 1]) << 16) |
             (uint32_t(blocks[4 * i + 2]) << 8) | uint32_t(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
}

#ifdef GDPR_CRYPTO_X86

// Intel SHA extensions. The state lives in two registers as ABEF and CDGH
// (the layout sha256rnds2 wants); each sha256rnds2 runs two rounds, and
// sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(
    uint32_t h[8], const uint8_t* blocks, size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  s1 = _mm_shuffle_epi32(s1, 0x1B);             // EFGH
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);     // ABEF
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);          // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef = s0;
    const __m128i cdgh = s1;
    // w[i & 3] holds message words 4i..4i+3 while quad i is consumed.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i));
      __m128i m = _mm_add_epi32(w[i & 3], k);
      s1 = _mm_sha256rnds2_epu32(s1, s0, m);
      m = _mm_shuffle_epi32(m, 0x0E);
      s0 = _mm_sha256rnds2_epu32(s0, s1, m);
      if (i < 12) {
        // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]) for quad i+4.
        __m128i next = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
        next = _mm_add_epi32(
            next, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
        w[i & 3] = _mm_sha256msg2_epu32(next, w[(i + 3) & 3]);
      }
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  tmp = _mm_shuffle_epi32(s0, 0x1B);            // FEBA
  s1 = _mm_shuffle_epi32(s1, 0xB1);             // DCHG
  s0 = _mm_blend_epi16(tmp, s1, 0xF0);          // DCBA
  s1 = _mm_alignr_epi8(s1, tmp, 8);             // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4), s1);
}

bool HasShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

#else

void Sha256CompressShaNi(uint32_t h[8], const uint8_t* blocks,
                         size_t nblocks) {
  Sha256CompressScalar(h, blocks, nblocks);  // never selected off x86
}

bool HasShaNi() { return false; }

#endif  // GDPR_CRYPTO_X86

Sha256CompressFn SelectedSha256Compress() {
  static const Sha256CompressFn fn =
      HasShaNi() ? Sha256CompressShaNi : Sha256CompressScalar;
  return fn;
}

const char* SelectedSha256Name() {
  return SelectedSha256Compress() == Sha256CompressShaNi ? "sha-ni"
                                                         : "scalar";
}

}  // namespace crypto_impl

Sha256::Sha256() {
  h_[0] = 0x6a09e667; h_[1] = 0xbb67ae85; h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a; h_[4] = 0x510e527f; h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab; h_[7] = 0x5be0cd19;
}

void Sha256::Compress(const uint8_t* blocks, size_t nblocks) {
  crypto_impl::SelectedSha256Compress()(h_, blocks, nblocks);
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buf_len_ > 0) {
    const size_t take = len < 64 - buf_len_ ? len : 64 - buf_len_;
    memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ == 64) {
      Compress(buf_, 1);
      buf_len_ = 0;
    }
  }
  if (len >= 64) {
    Compress(p, len / 64);
    p += len & ~size_t(63);
    len &= 63;
  }
  if (len > 0) {
    memcpy(buf_, p, len);
    buf_len_ = len;
  }
}

Sha256::Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buf_len_ < 56) ? 56 - buf_len_ : 120 - buf_len_;
  memset(pad, 0, sizeof(pad));
  pad[0] = 0x80;
  for (int i = 0; i < 8; ++i) pad[pad_len + i] = uint8_t(bit_len >> (56 - 8 * i));
  Update(pad, pad_len + 8);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = uint8_t(h_[i] >> 24);
    out[4 * i + 1] = uint8_t(h_[i] >> 16);
    out[4 * i + 2] = uint8_t(h_[i] >> 8);
    out[4 * i + 3] = uint8_t(h_[i]);
  }
  return out;
}

std::string Sha256::ToHex(const Digest& d) {
  static const char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (size_t i = 0; i < d.size(); ++i) {
    out[2 * i] = kHex[d[i] >> 4];
    out[2 * i + 1] = kHex[d[i] & 0xf];
  }
  return out;
}

std::string Sha256::HexDigest(std::string_view data) {
  return ToHex(Hash(data));
}

HmacSha256Key::HmacSha256Key(std::string_view key) {
  uint8_t k[64];
  memset(k, 0, sizeof(k));
  if (key.size() > 64) {
    const Sha256::Digest kd = Sha256::Hash(key);
    memcpy(k, kd.data(), kd.size());
  } else {
    memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad, 64);
  outer_.Update(opad, 64);
}

Sha256::Digest HmacSha256Key::Mac(std::string_view message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  const Sha256::Digest id = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(id.data(), id.size());
  return outer.Finish();
}

Sha256::Digest HmacSha256(std::string_view key, std::string_view message) {
  return HmacSha256Key(key).Mac(message);
}

}  // namespace gdpr
