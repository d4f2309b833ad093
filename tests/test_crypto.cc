#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/impl.h"
#include "crypto/sha256.h"

namespace gdpr {
namespace {

namespace ci = crypto_impl;

// ---- per-implementation helpers --------------------------------------------
// The public classes always run the implementation the CPU dispatch chose.
// These helpers drive one named implementation directly, so every path the
// host supports is checked against the scalar reference and the vectors.

struct ShaImpl {
  const char* name;
  ci::Sha256CompressFn fn;
};
struct ChaChaImpl {
  const char* name;
  ci::ChaCha20XorFn fn;
};

std::vector<ShaImpl> ShaImpls() {
  std::vector<ShaImpl> out = {{"scalar", ci::Sha256CompressScalar}};
  if (ci::HasShaNi()) out.push_back({"sha-ni", ci::Sha256CompressShaNi});
  return out;
}

std::vector<ChaChaImpl> ChaChaImpls() {
  std::vector<ChaChaImpl> out = {{"scalar", ci::ChaCha20XorScalar}};
  if (ci::HasAvx2()) out.push_back({"avx2", ci::ChaCha20XorAvx2});
  return out;
}

std::string RandomBytes(std::mt19937_64& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = char(rng());
  return s;
}

std::string Hex(std::string_view bytes) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kHex[uint8_t(c) >> 4]);
    out.push_back(kHex[uint8_t(c) & 0xf]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(char(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// SHA-256 of msg through one compress implementation: FIPS 180-4 padding,
// then the padded blocks fed in chunks of random block counts when `rng`
// is given (one call otherwise).
std::string DigestWith(ci::Sha256CompressFn fn, std::string_view msg,
                       std::mt19937_64* rng = nullptr) {
  std::string padded(msg);
  padded.push_back(char(0x80));
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const uint64_t bits = uint64_t(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(char(bits >> (8 * i)));
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const uint8_t* p = reinterpret_cast<const uint8_t*>(padded.data());
  size_t left = padded.size() / 64;
  while (left > 0) {
    const size_t n = rng ? 1 + (*rng)() % left : left;
    fn(h, p, n);
    p += 64 * n;
    left -= n;
  }
  std::string out;
  for (const uint32_t w : h) {
    for (int i = 3; i >= 0; --i) out.push_back(char(w >> (8 * i)));
  }
  return out;
}

std::string HmacWith(ci::Sha256CompressFn fn, std::string_view key,
                     std::string_view msg) {
  std::string k = key.size() > 64 ? DigestWith(fn, key) : std::string(key);
  k.resize(64, '\0');
  std::string ipad = k, opad = k;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = char(ipad[i] ^ 0x36);
    opad[i] = char(opad[i] ^ 0x5c);
  }
  return DigestWith(fn, opad + DigestWith(fn, ipad + std::string(msg)));
}

// Aead::Seal's wire format ([8B LE seq][ChaCha20 ciphertext, counter 1]
// [first 16 B of HMAC-SHA256(seq || ciphertext)]) rebuilt from the
// primitives of one implementation pair.
std::string SealWith(ci::Sha256CompressFn sha, ci::ChaCha20XorFn chacha,
                     std::string_view key_material, std::string_view plain,
                     uint64_t seq) {
  const std::string km(key_material);
  const std::string enc_key = DigestWith(sha, "aead-enc\x01" + km);
  const std::string mac_key = DigestWith(sha, "aead-mac\x02" + km);
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i) out[i] = char(seq >> (8 * i));
  uint8_t nonce[12] = {0};
  memcpy(nonce + 4, out.data(), 8);
  out += plain;
  uint32_t state[16];
  ci::ChaCha20InitState(state, reinterpret_cast<const uint8_t*>(enc_key.data()),
                        nonce, /*counter=*/1);
  uint8_t last[64];
  chacha(state, reinterpret_cast<uint8_t*>(out.data()) + 8, plain.size(), last);
  return out + HmacWith(sha, mac_key, out).substr(0, 16);
}

TEST(ChaCha20, Rfc8439Vector) {
  // RFC 8439 §2.4.2 test vector.
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) key[i] = uint8_t(i);
  const uint8_t nonce[12] = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  cipher.Process(reinterpret_cast<uint8_t*>(plaintext.data()),
                 plaintext.size());
  const uint8_t expected_head[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                     0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                     0xdd, 0x0d, 0x69, 0x81};
  EXPECT_EQ(memcmp(plaintext.data(), expected_head, 16), 0);
  const uint8_t expected_tail[4] = {0x5e, 0x42, 0x87, 0x4d};
  EXPECT_EQ(memcmp(plaintext.data() + plaintext.size() - 4, expected_tail, 4),
            0);
}

TEST(ChaCha20, RoundTripAndStreaming) {
  uint8_t key[32] = {9};
  uint8_t nonce[12] = {3};
  std::string msg(1000, '\0');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = char(i * 31);
  std::string enc = msg;
  ChaCha20 a(key, nonce);
  a.Process(reinterpret_cast<uint8_t*>(enc.data()), enc.size());
  EXPECT_NE(enc, msg);
  // Decrypt in uneven chunks: the stream position must carry over.
  ChaCha20 b(key, nonce);
  b.Process(reinterpret_cast<uint8_t*>(enc.data()), 13);
  b.Process(reinterpret_cast<uint8_t*>(enc.data()) + 13, 700);
  b.Process(reinterpret_cast<uint8_t*>(enc.data()) + 713, enc.size() - 713);
  EXPECT_EQ(enc, msg);
}

TEST(ChaCha20, Rfc8439VectorEveryImplementation) {
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) key[i] = uint8_t(i);
  const uint8_t nonce[12] = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  const std::string sunscreen =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  // RFC 8439 §2.4.2 ciphertext.
  const std::string expected = Unhex(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
  for (const ChaChaImpl& impl : ChaChaImpls()) {
    std::string text = sunscreen;
    uint32_t state[16];
    ci::ChaCha20InitState(state, key, nonce, /*counter=*/1);
    uint8_t last[64];
    impl.fn(state, reinterpret_cast<uint8_t*>(text.data()), text.size(), last);
    EXPECT_EQ(Hex(text), Hex(expected)) << impl.name;
    EXPECT_EQ(state[12], 1u + 2u) << impl.name;  // 114 B = 2 blocks
  }
}

// The AVX2 path against the scalar reference at every length across the
// one-, two- and four-block passes and the 256-byte loop, with the block
// counter near its 32-bit wrap for some of them.
TEST(ChaCha20, Avx2MatchesScalarAtEveryLength) {
  if (!ci::HasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  std::mt19937_64 rng(0xc4ac4a20);
  for (size_t len = 0; len <= 700; ++len) {
    SCOPED_TRACE("len " + std::to_string(len));
    const std::string key = RandomBytes(rng, 32);
    const std::string nonce = RandomBytes(rng, 12);
    const uint32_t counter = len % 3 == 0 ? 0xfffffffdu : uint32_t(rng());
    uint32_t s_ref[16], s_fast[16];
    ci::ChaCha20InitState(s_ref, reinterpret_cast<const uint8_t*>(key.data()),
                          reinterpret_cast<const uint8_t*>(nonce.data()),
                          counter);
    memcpy(s_fast, s_ref, sizeof(s_ref));
    const std::string msg = RandomBytes(rng, len);
    std::string ref = msg, fast = msg;
    uint8_t last_ref[64] = {0}, last_fast[64] = {0};
    ci::ChaCha20XorScalar(s_ref, reinterpret_cast<uint8_t*>(ref.data()), len,
                          last_ref);
    ci::ChaCha20XorAvx2(s_fast, reinterpret_cast<uint8_t*>(fast.data()), len,
                        last_fast);
    EXPECT_EQ(Hex(fast), Hex(ref));
    EXPECT_EQ(s_fast[12], s_ref[12]);
    EXPECT_EQ(memcmp(last_fast, last_ref, 64), 0);
  }
}

// The public class (whichever path the CPU dispatch chose) fed in pieces
// whose ends fall just before, on and just after 64-byte block boundaries,
// against one scalar pass over the whole message.
TEST(ChaCha20, StreamingSplitsMatchScalar) {
  std::mt19937_64 rng(0x5b117);
  for (int iter = 0; iter < 300; ++iter) {
    const std::string key = RandomBytes(rng, 32);
    const std::string nonce = RandomBytes(rng, 12);
    const uint32_t counter = iter % 4 == 0 ? 0xfffffffeu : uint32_t(rng());
    const std::string msg = RandomBytes(rng, rng() % 2049);
    std::string ref = msg;
    uint32_t state[16];
    ci::ChaCha20InitState(state, reinterpret_cast<const uint8_t*>(key.data()),
                          reinterpret_cast<const uint8_t*>(nonce.data()),
                          counter);
    uint8_t last[64];
    ci::ChaCha20XorScalar(state, reinterpret_cast<uint8_t*>(ref.data()),
                          ref.size(), last);

    std::string got = msg;
    ChaCha20 cipher(reinterpret_cast<const uint8_t*>(key.data()),
                    reinterpret_cast<const uint8_t*>(nonce.data()), counter);
    size_t pos = 0;
    while (pos < got.size()) {
      size_t end;
      if (rng() % 4 == 0) {
        end = pos + rng() % 300;  // anywhere
      } else {
        // Next boundary at or after pos, then one byte short, on or past.
        const size_t boundary = (pos / 64 + 1 + rng() % 3) * 64;
        end = boundary - 1 + rng() % 3;
      }
      end = std::min(std::max(end, pos), got.size());
      cipher.Process(reinterpret_cast<uint8_t*>(got.data()) + pos, end - pos);
      pos = end;
    }
    ASSERT_EQ(Hex(got), Hex(ref)) << "iteration " << iter;
  }
}

TEST(Sha256, KnownVectorsEveryImplementation) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const ShaImpl& impl : ShaImpls()) {
    for (const auto& [msg, hex] : vectors) {
      EXPECT_EQ(Hex(DigestWith(impl.fn, msg)), hex)
          << impl.name << " len " << msg.size();
    }
  }
}

// SHA-NI against the scalar compress on random chaining states and block
// runs, then whole messages of 0-2048 bytes: each implementation hashes the
// padded message in random multi-block chunks, and the public class takes
// the same message in random byte-level pieces.
TEST(Sha256, ShaNiMatchesScalarOnRandomStreams) {
  std::mt19937_64 rng(0x5a256);
  const std::vector<ShaImpl> impls = ShaImpls();
  if (impls.size() > 1) {
    for (size_t nblocks = 0; nblocks <= 40; ++nblocks) {
      uint32_t ref[8], fast[8];
      for (uint32_t& w : ref) w = uint32_t(rng());
      memcpy(fast, ref, sizeof(ref));
      const std::string blocks = RandomBytes(rng, 64 * nblocks);
      const auto* p = reinterpret_cast<const uint8_t*>(blocks.data());
      ci::Sha256CompressScalar(ref, p, nblocks);
      ci::Sha256CompressShaNi(fast, p, nblocks);
      EXPECT_EQ(memcmp(ref, fast, sizeof(ref)), 0) << nblocks << " blocks";
    }
  }
  for (int iter = 0; iter < 400; ++iter) {
    const size_t len = iter < 130 ? size_t(iter) : rng() % 2049;
    const std::string msg = RandomBytes(rng, len);
    const std::string ref = DigestWith(ci::Sha256CompressScalar, msg);
    for (const ShaImpl& impl : impls) {
      ASSERT_EQ(Hex(DigestWith(impl.fn, msg, &rng)), Hex(ref))
          << impl.name << " len " << len;
    }
    Sha256 h;
    for (size_t pos = 0; pos < len;) {
      const size_t n = std::min<size_t>(len - pos, rng() % 150);
      h.Update(msg.data() + pos, n);
      pos += n;
    }
    const Sha256::Digest d = h.Finish();
    ASSERT_EQ(Hex(std::string_view(reinterpret_cast<const char*>(d.data()),
                                   d.size())),
              Hex(ref))
        << "len " << len;
  }
}

TEST(CryptoDispatch, ChoosesTheFastestSupportedPath) {
  EXPECT_STREQ(ci::SelectedSha256Name(), ci::HasShaNi() ? "sha-ni" : "scalar");
  EXPECT_STREQ(ci::SelectedChaCha20Name(), ci::HasAvx2() ? "avx2" : "scalar");
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string data(100000, 'q');
  Sha256 h;
  h.Update(data.substr(0, 1));
  h.Update(data.substr(1, 62));
  h.Update(data.substr(63));
  EXPECT_EQ(Sha256::ToHex(h.Finish()), Sha256::HexDigest(data));
}

// RFC 4231 §4.2-4.8, through the free function, through the precomputed
// key schedule Aead seals with (reused across calls), and through each
// compress implementation. Case 5's tag is truncated to 128 bits; cases 6
// and 7 use a 131-byte key, which HMAC hashes down before use.
TEST(HmacSha256, Rfc4231Cases1To7) {
  struct Case {
    std::string key, data, tag_hex;
  };
  const std::string long_key(131, char(0xaa));
  const std::vector<Case> cases = {
      {std::string(20, char(0x0b)), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::string(20, char(0xaa)), std::string(50, char(0xdd)),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       std::string(50, char(0xcd)),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::string(20, char(0x0c)), "Test With Truncation",
       "a3b6167473100ee06e0c796c2955552b"},
      {long_key, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {long_key,
       "This is a test using a larger than block-size key and a larger "
       "than block-size data. The key needs to be hashed before being used "
       "by the HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("RFC 4231 case " + std::to_string(i + 1));
    const Case& c = cases[i];
    const size_t n = c.tag_hex.size();
    EXPECT_EQ(Sha256::ToHex(HmacSha256(c.key, c.data)).substr(0, n), c.tag_hex);
    const HmacSha256Key key(c.key);
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(Sha256::ToHex(key.Mac(c.data)).substr(0, n), c.tag_hex);
    }
    for (const ShaImpl& impl : ShaImpls()) {
      EXPECT_EQ(Hex(HmacWith(impl.fn, c.key, c.data)).substr(0, n), c.tag_hex)
          << impl.name;
    }
  }
}

TEST(Aead, SealOpenRoundTrip) {
  Aead aead("secret-key-material");
  const std::string msg = "personal data: 123-456-7890";
  const std::string sealed = aead.Seal(msg, 42);
  EXPECT_EQ(sealed.size(), Aead::SealedSize(msg.size()));
  auto opened = aead.Open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

TEST(Aead, DetectsTampering) {
  Aead aead("key");
  const std::string sealed = aead.Seal("payload-payload", 7);
  for (const size_t flip : {size_t(0), sealed.size() / 2, sealed.size() - 1}) {
    std::string bad = sealed;
    bad[flip] = char(bad[flip] ^ 1);
    EXPECT_FALSE(aead.Open(bad).ok()) << "flip at " << flip;
  }
  EXPECT_FALSE(aead.Open("short").ok());
}

// Seal output recorded from the portable implementation before the
// dispatched fast paths existed: key "golden-key-material", plaintext byte
// i = (131 i + 7) mod 256, seq 0x0123456789abcdef + length. Every sealed
// byte on disk (AOF, WAL, snapshots) depends on this staying identical.
TEST(Aead, SealMatchesGoldenBlobs) {
  const std::vector<std::pair<size_t, std::string>> golden = {
    {0,
     "efcdab896745230195b2a911fc42c90b039e9a596f0e5382"},
    {1,
     "f0cdab8967452301088639153dbbd99a424ab22b83b319a159"},
    {63,
     "2eceab896745230129f47d342e9a30b13f33dbe7240f6bedf65f9942fb57e987"
     "ce1044d654d6a85e98a475dfddd4d0e7b2f6a9d692b815cef1f5e5ce2ef71eae"
     "6b985a0b5f6f1e3adb720326e28173a91e3d2a5cf26d3f"},
    {64,
     "2fceab89674523013eeb9ebd71fb2133587944f8f36ab26c5740e3e253f968c5"
     "ee75b1a54998790c71959005624df99f95821abd95d6c560555d8fdd0c632865"
     "2f03ca1db144372c5688135d47b552a53b5947b502613410"},
    {65,
     "30ceab8967452301a74dbe531bfc4bb0e367ca821cc2b84854e9dcb4e00dff20"
     "0423b64aaea83082c5759b508a1c20b316d58e01654b176ea3cc98e85ca61a11"
     "966be826cab2679b500eb22c8a702a78b593b3be400cfbf9ea"},
    {100,
     "53ceab89674523017af36eea0a7a5dd136bee3acc63a0d448f5a56f1644a3b32"
     "d9dbe7598b7ab26136e7fbabefab80fb7110a2b8f63d7086b45c9f2a730b3bc7"
     "c8904de27f8222ee57d7c728f70a865f8b8bece0429d50fadc204871dfa9b01a"
     "3fbaf3603b2f0f7b0918e3bb76ede4f32d560ca547367d19fd3d54ff"},
    {180,
     "a3ceab8967452301bbeb56d9e6c892418ede7590b0616877da9ccfb27feddcad"
     "c787e57ff76445470856b0b0abba460aba4b7c1aa95d0a0bfb89a768ff8c47e3"
     "b80fb87f64c59fb2242e8d87a46c8af529e84ef1ec7e8397627c7e5a64d972d9"
     "b8175e550c660cf5de2b3f5f291e004106d919369590a0d22bd993f6c227af91"
     "0be40aaa493cd00bfbc414d876040162677ad62a19827b150fb30939db5ac0f8"
     "c67686e4b2037490c66cbfb8af91a48407e2c8f5919563b0ed32f48f01f4e2a4"
     "b5076f3ac741dc8914eddf8c"},
    {1000,
     "d7d1ab8967452301393f5fe1616ab59e7b00e6f48b392a15f6d367ca7bb2f8a2"
     "4478f3b41a8baa68e7ec6f0084b093b9a5595c2879610777ee7996b8fb5809f7"
     "9044e128cf82e42580eacc6f33a7f2192bdb09205f39b9f8c39704fc1ccdbd86"
     "e08bafa70d00e77e1740acade39f83f97f5ec077688225f33f911b16b5c3726e"
     "2e39e671a1fb450341a1f66ea1e2292fb9f834633f4bc6099b4ec092266df897"
     "241bcb28530e65de6f20b73dc38ee98ec3610cbba7c3069809db112f71c10900"
     "820173db0b0592251f495e74253cff61905e7e81f57259d9f43d39c7b2017d98"
     "564dddc49ff553d5c8e1b3bab2c1e0220fbb08ac148507b26c77fefba8e0d5e3"
     "b09858ff0f8172005fd4023d838f139ab58a49f3f6d781b56e0452bce6f1964e"
     "aa0c6bbb2a718feb236b6114f9d5134f0242f0c31796b7243ff6950d7cffbd83"
     "ff285c04fab2f853f738c193fd686baea3368ca4c5a59d600082a0c2467a014f"
     "dcb2932ccbea9c544c3c029e47a180ef0042b6904190e0c29c8ba4af1ea3cee7"
     "5d20a7c966120618dd29763cfd7be1bc8c82dd25fd763a6b0fed538b16fdf2e0"
     "4898e30930677a6fe060ddb4fc1999f07cfb6de46215fa84657501ad200dee81"
     "ca4a1563c5a3fff3231a0bb76e13f13074cd273ad0263934aa01d6c8988800f3"
     "35b7a5b992ec36d529a36c38b140fcab6ec36b4f789472194e86b6e2d502cd67"
     "4badabe3e0b8dd83f1c16e621a7aec88af566a6cf20b4bb692ae0f3a1ebaf3cd"
     "f17932bd756b7bdb75e1d31373503464ce9bc1cc9effd01bb6ecf26181fbd345"
     "0ec57cc030047f302a80c4e63586c82c5a25bef6a90421f836e173948c6b5f52"
     "3309cdcc2ba337f6ecf7a755c02ebf8d48c4e38bf5b39bba613ca3d94c5b17f2"
     "f1bc2b1849d665ab5bf81a010eadc540a046e669e3df02f28601547aca6a97de"
     "5de94b9966c216926f29e4712745ff1c895658ae0ba7b7deafe5881e4479eabd"
     "417eabd86d36743fd513420556faaf2b542ac770f43b255c1dd37323477b6abf"
     "86673c34a4101fd7b045e1d22e87c5a5535a6a0966f8d4f78e171cb285bf8613"
     "a3ac8899ec180dd22228d24f2404c684fe656e7a1b289583e5c91df65e579a50"
     "0a2bbabed3cfabafdb4545d4eb53686f6adb5d84f1408c57dbfe0c9dc6fba96b"
     "0067b146cfa7e46cde1cace30218ee18a03ec7dab057da78f5962cd82cbc4fd5"
     "48c405f85b899d8c3eb35b088093ac44dc85f6baa79ac50b85ee84e9f180fbe7"
     "b0b61a4c41e933d9acead1935a23c661a254825ea88e811898b35016c3f89684"
     "b55d48589c2345d57ed4c62cecd874d05130e55f4cddabe8909b8105dad81ad2"
     "c2b15ae595efbeacb2485703802a531de74f40421f2e5aa0a258d868516399e2"
     "7ff2d09141ea654b4f10c9812be7163744b5e535314f3ac0fb7e150d4ca78ed1"},
  };
  const Aead aead("golden-key-material");
  for (const auto& [n, hex] : golden) {
    SCOPED_TRACE("length " + std::to_string(n));
    std::string plain(n, '\0');
    for (size_t i = 0; i < n; ++i) plain[i] = char((i * 131 + 7) & 0xff);
    const uint64_t seq = 0x0123456789abcdefULL + n;
    const std::string sealed = aead.Seal(plain, seq);
    EXPECT_EQ(Hex(sealed), hex);
    auto opened = aead.Open(Unhex(hex));
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), plain);
    // The same blob from each implementation pair, the scalar fallback
    // included.
    for (const ShaImpl& sha : ShaImpls()) {
      for (const ChaChaImpl& chacha : ChaChaImpls()) {
        EXPECT_EQ(Hex(SealWith(sha.fn, chacha.fn, "golden-key-material",
                               plain, seq)),
                  hex)
            << sha.name << "/" << chacha.name;
      }
    }
  }
}

TEST(Aead, DistinctSequencesDistinctCiphertexts) {
  Aead aead("key");
  EXPECT_NE(aead.Seal("same message", 1), aead.Seal("same message", 2));
  // Wrong key fails to open.
  Aead other("other-key");
  EXPECT_FALSE(other.Open(aead.Seal("msg", 3)).ok());
}

}  // namespace
}  // namespace gdpr
