/* SHA-256 block compression with the x86 SHA extensions (SHA-NI).

   [Sha256] calls [clanbft_sha256_hw_compress] only when
   [clanbft_sha256_hw_available] reported the extensions at start-up; the
   OCaml compression function stays the fallback and the test oracle. The
   kernel computes exactly the FIPS 180-4 compression, so every digest is
   bit-identical on either path.

   The instructions are enabled per function with a target attribute, so
   the rest of the library builds without any -m flag and runs on CPUs
   that lack them. Off x86-64 both entry points compile to "unavailable". */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

static const uint32_t K[64] = {
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
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Four rounds on message words [w] (rounds 4g .. 4g+3). The state lives
   as ABEF in [s0] and CDGH in [s1], the layout sha256rnds2 works on; each
   sha256rnds2 runs two rounds on the low two words of its third operand. */
#define ROUNDS4(w, g)                                                       \
  do {                                                                      \
    __m128i m = _mm_add_epi32(                                              \
        (w), _mm_loadu_si128((const __m128i *)&K[4 * (g)]));                \
    s1 = _mm_sha256rnds2_epu32(s1, s0, m);                                  \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(m, 0x0E));         \
  } while (0)

/* Message schedule: replace W[g-4] in [w0] by W[g], given W[g-3], W[g-2]
   and W[g-1] (four words each). msg1 adds sigma0 of W[t-15] to W[t-16],
   the alignr supplies W[t-7], and msg2 adds sigma1 of W[t-2]. */
#define SCHEDULE(w0, w1, w2, w3)                                            \
  (w0) = _mm_sha256msg2_epu32(                                              \
      _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)),                       \
                    _mm_alignr_epi8((w3), (w2), 4)),                        \
      (w3))

__attribute__((target("sha,sse4.1,ssse3"))) static void
compress_blocks(uint32_t state[8], const uint8_t *p, intnat blocks)
{
  /* Byte-swap each 32-bit word: the message is big-endian. */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i s0, s1, tmp;

  /* Repack H0..H7 into ABEF / CDGH. */
  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&state[0]), 0xB1);
  s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&state[4]), 0x1B);
  s0 = _mm_alignr_epi8(tmp, s1, 8);
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);

  for (; blocks > 0; blocks--, p += 64) {
    const __m128i abef = s0, cdgh = s1;
    __m128i w0, w1, w2, w3;
    int g;

    w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    ROUNDS4(w0, 0);
    w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    ROUNDS4(w1, 1);
    w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    ROUNDS4(w2, 2);
    w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS4(w3, 3);
    for (g = 4; g < 16; g += 4) {
      SCHEDULE(w0, w1, w2, w3);
      ROUNDS4(w0, g);
      SCHEDULE(w1, w2, w3, w0);
      ROUNDS4(w1, g + 1);
      SCHEDULE(w2, w3, w0, w1);
      ROUNDS4(w2, g + 2);
      SCHEDULE(w3, w0, w1, w2);
      ROUNDS4(w3, g + 3);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }

  /* ABEF / CDGH back to H0..H7. */
  tmp = _mm_shuffle_epi32(s0, 0x1B);
  s1 = _mm_shuffle_epi32(s1, 0xB1);
  _mm_storeu_si128((__m128i *)&state[0], _mm_blend_epi16(tmp, s1, 0xF0));
  _mm_storeu_si128((__m128i *)&state[4], _mm_alignr_epi8(s1, tmp, 8));
}

/* CPUID leaf 7 EBX bit 29 is SHA; leaf 1 ECX bits 9 and 19 are SSSE3 and
   SSE4.1, which the kernel also uses. */
value clanbft_sha256_hw_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return Val_false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  return Val_bool((b >> 29) & 1);
}

/* [h] holds the 8 chaining words as OCaml ints; compress [count] 64-byte
   blocks of [src] starting at byte [off]. The caller checks the range. */
value clanbft_sha256_hw_compress(value h, value src, value off, value count)
{
  uint32_t state[8];
  int i;
  for (i = 0; i < 8; i++) state[i] = (uint32_t)Long_val(Field(h, i));
  compress_blocks(state, Bytes_val(src) + Long_val(off), Long_val(count));
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(state[i]);
  return Val_unit;
}

#else

value clanbft_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Unreachable: [Sha256] never calls the kernel when it is unavailable. */
value clanbft_sha256_hw_compress(value h, value src, value off, value count)
{
  (void)h; (void)src; (void)off; (void)count;
  abort();
}

#endif
