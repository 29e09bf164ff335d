// Differential suite for the packed approximate-match kernels: scalar and
// AVX2 tiers must reproduce the behavioral arch::approx_search reference
// bit-exactly — within flags, distances of within-threshold rows, and
// single-step SearchStats — across digit widths d in {1, 2, 3}, word
// lengths that straddle the 64-bit word boundary (63/64/65 digits), all-X
// rows, and every threshold regime (0, 1, whole-row).  Rows past the threshold must report
// kDistanceOverflow regardless of where the early exit fired.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "arch/approx_search.hpp"
#include "arch/behavioral_array.hpp"
#include "engine/approx_kernel.hpp"
#include "engine/packed_kernel.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

arch::TernaryWord random_word(std::mt19937& rng, int cols,
                              double x_fraction) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> bit(0, 1);
  arch::TernaryWord w;
  w.reserve(static_cast<std::size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    if (u(rng) < x_fraction) {
      w.push_back(arch::Ternary::kX);
    } else {
      w.push_back(bit(rng) != 0 ? arch::Ternary::kOne : arch::Ternary::kZero);
    }
  }
  return w;
}

arch::BitWord random_query(std::mt19937& rng, int cols) {
  std::uniform_int_distribution<int> bit(0, 1);
  arch::BitWord q(static_cast<std::size_t>(cols));
  for (auto& b : q) b = static_cast<std::uint8_t>(bit(rng));
  return q;
}

void build_pair(std::mt19937& rng, int rows, int cols, arch::TcamArray& a,
                PackedShard& p) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int r = 0; r < rows; ++r) {
    const double style = u(rng);
    if (style < 0.12) continue;  // never written (invalid)
    const double xf = style < 0.25 ? 1.0 : 0.25;  // some rows all-X
    const auto w = random_word(rng, cols, xf);
    a.write(r, w);
    p.write(r, w);
    if (style >= 0.9) {
      a.erase(r);
      p.erase(r);
    }
  }
}

/// Compare one tier's output against the behavioral reference.
void expect_matches_reference(const arch::TcamArray& a, const PackedShard& p,
                              const arch::BitWord& query, int digit_bits,
                              int threshold, KernelTier tier,
                              const char* what) {
  const arch::ApproxSearchResult ref =
      arch::approx_search(a, query, digit_bits, threshold);
  const PackedQuery packed = PackedQuery::pack(query);
  std::vector<std::uint64_t> within;
  std::vector<std::uint16_t> distances;
  const arch::SearchStats stats =
      approx_match(p, packed, digit_bits, threshold, within, distances, tier);
  for (int r = 0; r < p.rows(); ++r) {
    const bool got =
        (within[static_cast<std::size_t>(r) / 64] >> (r % 64) & 1) != 0;
    ASSERT_EQ(got, ref.within[static_cast<std::size_t>(r)])
        << what << ": row " << r << " d=" << digit_bits
        << " t=" << threshold;
    if (got) {
      ASSERT_EQ(distances[static_cast<std::size_t>(r)],
                ref.distances[static_cast<std::size_t>(r)])
          << what << ": row " << r << " within but distance differs";
    } else {
      // Past-threshold / invalid / padded rows all report the overflow
      // sentinel — the early exit may not know the true distance.
      ASSERT_EQ(distances[static_cast<std::size_t>(r)], kDistanceOverflow)
          << what << ": row " << r << " not within but not overflow";
    }
  }
  // Single-step accounting: every valid row fires once, no step-1 saving.
  EXPECT_EQ(stats.rows, ref.stats.rows) << what;
  EXPECT_EQ(stats.step1_misses, 0) << what;
  EXPECT_EQ(stats.step2_evaluated, ref.stats.step2_evaluated) << what;
  EXPECT_EQ(stats.matches, ref.stats.matches) << what;
}

TEST(ApproxKernel, ScalarMatchesBehavioralAcrossShapes) {
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    auto rng = util::trial_rng(31, trial, 0);
    for (const int d : {1, 2, 3}) {
      // Digit counts that straddle the word boundary: 63, 64, 65 digits
      // plus a trial-varied count, all times d columns.
      for (const int digits : {63, 64, 65, 5 + static_cast<int>(trial)}) {
        const int cols = digits * d;
        const int rows = std::uniform_int_distribution<int>(0, 90)(rng);
        arch::TcamArray a(rows, cols);
        PackedShard p(rows, cols);
        build_pair(rng, rows, cols, a, p);
        const auto query = random_query(rng, cols);
        for (const int threshold : {0, 1, digits}) {
          expect_matches_reference(a, p, query, d, threshold,
                                   KernelTier::kScalar, "scalar");
        }
      }
    }
  }
}

TEST(ApproxKernel, Avx2MatchesScalarBitExactly) {
  if (!kernel_tier_available(KernelTier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier unavailable in this build/host";
  }
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    auto rng = util::trial_rng(32, trial, 0);
    for (const int d : {1, 2, 3}) {
      const int digits = 40 + static_cast<int>(trial % 30);
      const int cols = digits * d;
      // Row counts around the 4-row AVX2 group size, plus bigger shards.
      const int rows = std::uniform_int_distribution<int>(0, 260)(rng);
      arch::TcamArray a(rows, cols);
      PackedShard p(rows, cols);
      build_pair(rng, rows, cols, a, p);
      const auto query = random_query(rng, cols);
      for (const int threshold : {0, 1, 3, digits}) {
        expect_matches_reference(a, p, query, d, threshold,
                                 KernelTier::kAvx2, "avx2");
      }
    }
  }
}

TEST(ApproxKernel, ExactDegenerationAtDigitOneThresholdZero) {
  // d = 1, threshold = 0: the within mask must equal the exact full-match
  // mask bit for bit — the anchor that ties the approx tier to the
  // validated exact kernels.
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    auto rng = util::trial_rng(33, trial, 0);
    const int cols = 1 + static_cast<int>(trial * 11 % 150);
    const int rows = std::uniform_int_distribution<int>(0, 120)(rng);
    arch::TcamArray a(rows, cols);
    PackedShard p(rows, cols);
    build_pair(rng, rows, cols, a, p);
    const auto query = random_query(rng, cols);
    const auto exact = a.search(query);
    const PackedQuery packed = PackedQuery::pack(query);
    std::vector<std::uint64_t> within;
    std::vector<std::uint16_t> distances;
    approx_match(p, packed, 1, 0, within, distances);
    for (int r = 0; r < rows; ++r) {
      const bool got =
          (within[static_cast<std::size_t>(r) / 64] >> (r % 64) & 1) != 0;
      ASSERT_EQ(got, exact[static_cast<std::size_t>(r)])
          << "trial " << trial << " row " << r;
      if (got) {
        ASSERT_EQ(distances[static_cast<std::size_t>(r)], 0);
      }
    }
  }
}

TEST(ApproxKernel, CollapseDigitsFoldsStraddlingGroups) {
  // d = 1: identity.
  EXPECT_EQ(detail::collapse_digits(0xDEADBEEFULL, 0, 0, 1), 0xDEADBEEFULL);

  // d = 2: any mismatch inside a 2-bit group folds onto the even bit.
  //   bits 0..1 -> bit 0, bits 2..3 -> bit 2, ...
  EXPECT_EQ(detail::collapse_digits(0b10ULL, 0, 0, 2), 0b01ULL);
  EXPECT_EQ(detail::collapse_digits(0b1100ULL, 0, 0, 2), 0b0100ULL);
  EXPECT_EQ(detail::collapse_digits(0b1010ULL, 0, 0, 2), 0b0101ULL);

  // d = 3, word 0 (phase 0): group starts at bits 0, 3, 6, ...  A word-63
  // mismatch belongs to the group starting at bit 63 — together with the
  // NEXT word's bits 0..1.
  EXPECT_EQ(detail::collapse_digits(1ULL << 1, 0, 0, 3), 1ULL << 0);
  EXPECT_EQ(detail::collapse_digits(1ULL << 5, 0, 0, 3), 1ULL << 3);
  EXPECT_EQ(detail::collapse_digits(1ULL << 63, 0, 0, 3), 1ULL << 63);
  // The straddling group's tail lives in `next`: a mismatch in next's bit
  // 0 or 1 must fold back onto THIS word's bit 63 start.
  EXPECT_EQ(detail::collapse_digits(0, 1ULL << 0, 0, 3), 1ULL << 63);
  EXPECT_EQ(detail::collapse_digits(0, 1ULL << 1, 0, 3), 1ULL << 63);
  // ...and a mismatch in next's bit 2 belongs to the NEXT word's first
  // full group, not to this word.
  EXPECT_EQ(detail::collapse_digits(0, 1ULL << 2, 0, 3), 0ULL);

  // d = 3, word 1 (phase 64 mod 3 = 1): the first two bits finish word
  // 0's straddling group (already counted there), so the first start here
  // is bit 2.
  EXPECT_EQ(detail::collapse_digits(1ULL << 0, 0, 1, 3), 0ULL);
  EXPECT_EQ(detail::collapse_digits(1ULL << 1, 0, 1, 3), 0ULL);
  EXPECT_EQ(detail::collapse_digits(1ULL << 2, 0, 1, 3), 1ULL << 2);
  EXPECT_EQ(detail::collapse_digits(1ULL << 4, 0, 1, 3), 1ULL << 2);

  // d = 3, word 2 (phase 128 mod 3 = 2): one carried bit, first start at
  // bit 1.
  EXPECT_EQ(detail::collapse_digits(1ULL << 0, 0, 2, 3), 0ULL);
  EXPECT_EQ(detail::collapse_digits(1ULL << 1, 0, 2, 3), 1ULL << 1);
  EXPECT_EQ(detail::collapse_digits(1ULL << 3, 0, 2, 3), 1ULL << 1);
}

TEST(ApproxKernel, ValidationThrowsNamedErrors) {
  PackedShard p(8, 12);
  const PackedQuery q = PackedQuery::pack(arch::BitWord(12, 0));
  std::vector<std::uint64_t> within;
  std::vector<std::uint16_t> distances;
  EXPECT_THROW(approx_match(p, q, 0, 0, within, distances),
               std::invalid_argument);
  EXPECT_THROW(approx_match(p, q, 4, 0, within, distances),
               std::invalid_argument);
  EXPECT_THROW(approx_match(p, q, 1, -1, within, distances),
               std::invalid_argument);
  // 12 % 3 == 0 is fine; a 5-wide digit never is, and cols that d does
  // not divide must throw too.
  PackedShard p2(8, 13);
  const PackedQuery q2 = PackedQuery::pack(arch::BitWord(13, 0));
  EXPECT_THROW(approx_match(p2, q2, 2, 0, within, distances),
               std::invalid_argument);
}

}  // namespace
}  // namespace fetcam::engine
