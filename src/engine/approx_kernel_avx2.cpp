// AVX2 tier of the packed approximate-match kernel.  Same planar layout
// as packed_kernel_avx2.cpp: one 256-bit load covers 4 rows' care (or
// value) words, so the digit collapse and the per-lane popcount
// (pshufb nibble LUT + psadbw) run on 4 rows per vector op.
//
// Early exit is per 4-row group: once every lane's accumulated distance
// exceeds the threshold the remaining words cannot change any outcome.
// Lanes still within the threshold keep accumulating, so (within,
// distance) pairs are bit-exact against the scalar tier (enforced by
// tests/engine/approx_kernel_test.cpp).
#include "engine/approx_kernel.hpp"

#if defined(FETCAM_HAVE_AVX2)

#include <immintrin.h>

#include <bit>
#include <stdexcept>

namespace fetcam::engine::detail {

namespace {

constexpr std::uint64_t kEvenDigits = 0x5555555555555555ULL;
constexpr std::uint64_t kThirdMask[3] = {
    0x9249249249249249ULL,
    0x2492492492492492ULL,
    0x4924924924924924ULL,
};

/// Per-64-bit-lane popcount: nibble LUT via pshufb, lane sums via psadbw.
inline __m256i popcount_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), low);
  const __m256i cnt8 = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                       _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt8, _mm256_setzero_si256());
}

/// Fold a 4-row mismatch vector onto the digit-start bits (the vector
/// analogue of detail::collapse_digits — same per-lane result).
inline __m256i collapse_digits_epi64(__m256i mis, __m256i next, int w,
                                     int digit_bits) {
  switch (digit_bits) {
    case 1:
      return mis;
    case 2:
      return _mm256_and_si256(
          _mm256_or_si256(mis, _mm256_srli_epi64(mis, 1)),
          _mm256_set1_epi64x(static_cast<long long>(kEvenDigits)));
    case 3: {
      const __m256i s1 = _mm256_or_si256(_mm256_srli_epi64(mis, 1),
                                         _mm256_slli_epi64(next, 63));
      const __m256i s2 = _mm256_or_si256(_mm256_srli_epi64(mis, 2),
                                         _mm256_slli_epi64(next, 62));
      const __m256i gather =
          _mm256_or_si256(mis, _mm256_or_si256(s1, s2));
      return _mm256_and_si256(
          gather, _mm256_set1_epi64x(
                      static_cast<long long>(kThirdMask[(3 - w % 3) % 3])));
    }
    default:
      throw std::invalid_argument("digit_bits must be in [1, 3]");
  }
}

}  // namespace

arch::SearchStats approx_match_avx2(const ShardView& s,
                                    const std::uint64_t* query,
                                    int digit_bits, int threshold,
                                    std::uint64_t* within_mask,
                                    std::uint16_t* distances) {
  arch::SearchStats stats;
  stats.rows = s.rows;
  stats.step2_evaluated = s.rows;  // single-step accounting
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  const __m256i thr = _mm256_set1_epi64x(static_cast<long long>(threshold));
  for (int i = 0; i < s.rows_pad; ++i) {
    distances[static_cast<std::size_t>(i)] = kDistanceOverflow;
  }
  for (int b = 0; b < blocks; ++b) {
    const std::size_t r0 = static_cast<std::size_t>(b) * 64;
    std::uint64_t ok_bits = 0;
    alignas(32) std::uint64_t group_dist[4];
    for (int g = 0; g < 16; ++g) {
      const std::size_t r = r0 + static_cast<std::size_t>(g) * 4;
      __m256i dist = _mm256_setzero_si256();
      const auto mis_at = [&](int w) {
        const std::size_t at = static_cast<std::size_t>(w) * pad + r;
        const __m256i q =
            _mm256_set1_epi64x(static_cast<long long>(query[w]));
        const __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.care + at));
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(s.value + at));
        return _mm256_and_si256(c, _mm256_xor_si256(v, q));
      };
      __m256i next = mis_at(0);
      for (int w = 0; w < s.wpr; ++w) {
        const __m256i mis = next;
        next = w + 1 < s.wpr ? mis_at(w + 1) : _mm256_setzero_si256();
        dist = _mm256_add_epi64(
            dist,
            popcount_epi64(collapse_digits_epi64(mis, next, w, digit_bits)));
        // All 4 rows already past the threshold: no later word can bring
        // a distance back down, so the group's outcome is settled.
        if (w + 1 < s.wpr &&
            _mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(dist, thr))) == 0xf) {
          break;
        }
      }
      const std::uint64_t near_lanes =
          static_cast<std::uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(
              _mm256_cmpgt_epi64(dist, thr)))) ^ 0xf;
      if (near_lanes != 0) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(group_dist), dist);
        for (int l = 0; l < 4; ++l) {
          if (((near_lanes >> l) & 1ULL) == 0) continue;
          const std::size_t row = r + static_cast<std::size_t>(l);
          // The valid gate is applied below on the whole block; only
          // rows that survive it keep a real distance.
          if ((s.valid[static_cast<std::size_t>(b)] >>
               (g * 4 + l)) & 1ULL) {
            distances[row] = static_cast<std::uint16_t>(group_dist[l]);
          }
        }
      }
      ok_bits |= near_lanes << (g * 4);
    }
    const std::uint64_t within =
        ok_bits & s.valid[static_cast<std::size_t>(b)];
    within_mask[static_cast<std::size_t>(b)] = within;
    stats.matches += std::popcount(within);
  }
  return stats;
}

}  // namespace fetcam::engine::detail

#endif  // FETCAM_HAVE_AVX2
