// Scalar tier + dispatch of the packed approximate-match kernels.  The
// scalar loop is the golden reference (the AVX2 tier and the behavioral
// arch::approx_search are validated against it and each other by
// tests/engine/approx_kernel_test.cpp).
#include "engine/approx_kernel.hpp"

#include <bit>
#include <stdexcept>

namespace fetcam::engine {

namespace detail {

namespace {

constexpr std::uint64_t kEvenDigits = 0x5555555555555555ULL;
/// Digit-start masks for d = 3, indexed by the word's phase
/// (3 - w % 3) % 3: bits i with (64w + i) % 3 == 0.
constexpr std::uint64_t kThirdMask[3] = {
    0x9249249249249249ULL,  // bits 0, 3, ..., 63
    0x2492492492492492ULL,  // bits 1, 4, ..., 61
    0x4924924924924924ULL,  // bits 2, 5, ..., 62
};

}  // namespace

std::uint64_t collapse_digits(std::uint64_t mis, std::uint64_t next, int w,
                              int digit_bits) {
  switch (digit_bits) {
    case 1:
      return mis;
    case 2:
      // 64 % 2 == 0: groups never straddle words, `next` is irrelevant.
      return (mis | (mis >> 1)) & kEvenDigits;
    case 3: {
      // Groups straddle word boundaries: pull the next word's low bits
      // into the straddling group's start position, then keep only the
      // starts whose global bit index is a multiple of 3.  64 ≡ 1 (mod
      // 3), so the start offset cycles with w mod 3.
      const std::uint64_t gather = mis | ((mis >> 1) | (next << 63)) |
                                   ((mis >> 2) | (next << 62));
      return gather & kThirdMask[(3 - w % 3) % 3];
    }
    default:
      throw std::invalid_argument("digit_bits must be in [1, 3]");
  }
}

arch::SearchStats approx_match_scalar(const ShardView& s,
                                      const std::uint64_t* query,
                                      int digit_bits, int threshold,
                                      std::uint64_t* within_mask,
                                      std::uint16_t* distances) {
  arch::SearchStats stats;
  stats.rows = s.rows;
  stats.step2_evaluated = s.rows;  // single-step accounting
  const std::size_t pad = static_cast<std::size_t>(s.rows_pad);
  const int blocks = s.rows_pad / 64;
  for (int i = 0; i < s.rows_pad; ++i) {
    distances[static_cast<std::size_t>(i)] = kDistanceOverflow;
  }
  for (int b = 0; b < blocks; ++b) {
    const std::uint64_t valid = s.valid[static_cast<std::size_t>(b)];
    std::uint64_t ok = 0;
    const int real_rows = s.rows - b * 64 < 64 ? s.rows - b * 64 : 64;
    for (int i = 0; i < real_rows; ++i) {
      if (((valid >> i) & 1ULL) == 0) continue;  // erased rows never match
      const std::size_t r = static_cast<std::size_t>(b) * 64 +
                            static_cast<std::size_t>(i);
      int dist = 0;
      std::uint64_t next = s.care[r] & (s.value[r] ^ query[0]);
      for (int w = 0; w < s.wpr; ++w) {
        const std::uint64_t mis = next;
        if (w + 1 < s.wpr) {
          const std::size_t at = static_cast<std::size_t>(w + 1) * pad + r;
          next = s.care[at] & (s.value[at] ^ query[w + 1]);
        } else {
          next = 0;
        }
        dist += std::popcount(collapse_digits(mis, next, w, digit_bits));
        if (dist > threshold) break;  // outcome settled: row is too far
      }
      if (dist <= threshold) {
        ok |= 1ULL << i;
        distances[r] = static_cast<std::uint16_t>(dist);
      }
    }
    within_mask[static_cast<std::size_t>(b)] = ok;
    stats.matches += std::popcount(ok);
  }
  return stats;
}

}  // namespace detail

namespace {

void check_approx_args(const PackedShard& shard, const PackedQuery& query,
                       int digit_bits, int threshold) {
  if (digit_bits < 1 || digit_bits > 3) {
    throw std::invalid_argument("digit_bits must be in [1, 3]");
  }
  if (shard.cols() % digit_bits != 0) {
    throw std::invalid_argument("cols must be a multiple of digit_bits");
  }
  if (threshold < 0) {
    throw std::invalid_argument("distance_threshold must be >= 0");
  }
  if (query.cols != shard.cols()) {
    throw std::invalid_argument("query width mismatch");
  }
}

}  // namespace

arch::SearchStats approx_match(const PackedShard& shard,
                               const PackedQuery& query, int digit_bits,
                               int threshold,
                               std::vector<std::uint64_t>& within_mask,
                               std::vector<std::uint16_t>& distances) {
  return approx_match(shard, query, digit_bits, threshold, within_mask,
                      distances, active_kernel_tier());
}

arch::SearchStats approx_match(const PackedShard& shard,
                               const PackedQuery& query, int digit_bits,
                               int threshold,
                               std::vector<std::uint64_t>& within_mask,
                               std::vector<std::uint16_t>& distances,
                               KernelTier tier) {
  check_approx_args(shard, query, digit_bits, threshold);
  within_mask.assign(shard.mask_words(), 0);
  distances.assign(shard.mask_words() * 64, kDistanceOverflow);
  if (shard.rows() == 0) {
    arch::SearchStats stats;
    return stats;
  }
  const detail::ShardView s = shard.view();
  switch (tier) {
    case KernelTier::kAvx2:
#if defined(FETCAM_HAVE_AVX2)
      return detail::approx_match_avx2(s, query.bits.data(), digit_bits,
                                       threshold, within_mask.data(),
                                       distances.data());
#else
      break;
#endif
    case KernelTier::kScalar:
      break;
  }
  return detail::approx_match_scalar(s, query.bits.data(), digit_bits,
                                     threshold, within_mask.data(),
                                     distances.data());
}

}  // namespace fetcam::engine
