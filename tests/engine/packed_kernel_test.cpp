// PackedShard golden equivalence: the bit-packed kernel must reproduce the
// behavioral TcamArray::search and arch::two_step_search bit-exactly —
// match flags AND SearchStats — across word lengths spanning sub-word,
// word-aligned, and multi-word rows, with invalid rows and all-X entries
// mixed in.  Randomized property-style, counter-keyed RNG (the cases are
// reproducible from the seed printed on failure).
#include <gtest/gtest.h>

#include <random>

#include "arch/behavioral_array.hpp"
#include "arch/search_scheduler.hpp"
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

/// Build paired behavioral/packed arrays with a mix of entry styles:
/// normal ternary rows, all-X rows, rows left erased, rows written then
/// invalidated.
void build_pair(std::mt19937& rng, int rows, int cols, arch::TcamArray& a,
                PackedShard& p) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int r = 0; r < rows; ++r) {
    const double style = u(rng);
    if (style < 0.15) continue;  // never written (invalid, all-X content)
    const double xf = style < 0.3 ? 1.0 : 0.3;  // some rows all-X
    const auto w = random_word(rng, cols, xf);
    a.write(r, w);
    p.write(r, w);
    if (style >= 0.85) {  // written then invalidated
      a.erase(r);
      p.erase(r);
    }
  }
}

TEST(PackedKernel, FullMatchEquivalenceAcrossWordLengths) {
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    auto rng = util::trial_rng(11, trial, 0);
    // Word lengths 1..192: sub-word, exactly 64/128, straddling tails.
    const int cols = 1 + static_cast<int>(trial * 7 % 192);
    const int rows =
        std::uniform_int_distribution<int>(0, 100)(rng);
    arch::TcamArray a(rows, cols);
    PackedShard p(rows, cols);
    build_pair(rng, rows, cols, a, p);
    for (int q = 0; q < 8; ++q) {
      const auto query = random_query(rng, cols);
      EXPECT_EQ(p.search(query), a.search(query))
          << "trial " << trial << " cols " << cols << " rows " << rows;
    }
  }
}

TEST(PackedKernel, TwoStepEquivalenceMatchesAndStats) {
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    auto rng = util::trial_rng(13, trial, 0);
    const int cols = 2 * (1 + static_cast<int>(trial * 5 % 96));  // 2..192
    const int rows = std::uniform_int_distribution<int>(0, 100)(rng);
    arch::TcamArray a(rows, cols);
    PackedShard p(rows, cols);
    build_pair(rng, rows, cols, a, p);
    for (int q = 0; q < 8; ++q) {
      const auto query = random_query(rng, cols);
      const auto golden = arch::two_step_search(a, query);
      const auto packed = p.two_step_search(query);
      EXPECT_EQ(packed.matches, golden.matches)
          << "trial " << trial << " cols " << cols;
      EXPECT_EQ(packed.stats.rows, golden.stats.rows);
      EXPECT_EQ(packed.stats.step1_misses, golden.stats.step1_misses)
          << "trial " << trial << " cols " << cols;
      EXPECT_EQ(packed.stats.step2_evaluated, golden.stats.step2_evaluated)
          << "trial " << trial << " cols " << cols;
      EXPECT_EQ(packed.stats.matches, golden.stats.matches)
          << "trial " << trial << " cols " << cols;
    }
  }
}

TEST(PackedKernel, EntryRoundTripsAndErasePreservesContent) {
  auto rng = util::trial_rng(17, 0, 0);
  const int cols = 70;  // straddles a word boundary
  PackedShard p(4, cols);
  const auto w = random_word(rng, cols, 0.3);
  p.write(1, w);
  EXPECT_TRUE(p.valid(1));
  EXPECT_EQ(p.entry(1), w);
  p.erase(1);
  EXPECT_FALSE(p.valid(1));
  EXPECT_EQ(p.entry(1), w);  // content retained, like TcamArray
  EXPECT_FALSE(p.valid(0));
  EXPECT_EQ(p.entry(0), arch::TernaryWord(70, arch::Ternary::kX));
}

TEST(PackedKernel, AllXEntryMatchesEverything) {
  PackedShard p(2, 66);
  p.write(0, arch::TernaryWord(66, arch::Ternary::kX));
  const arch::BitWord q(66, 1);
  const auto res = p.two_step_search(q);
  EXPECT_TRUE(res.matches[0]);
  EXPECT_FALSE(res.matches[1]);  // invalid row never matches
  EXPECT_EQ(res.stats.step1_misses, 1);  // the invalid row
  EXPECT_EQ(res.stats.step2_evaluated, 1);
  EXPECT_EQ(res.stats.matches, 1);
}

TEST(PackedKernel, ZeroRowShardReportsEmptyStats) {
  PackedShard p(0, 8);
  EXPECT_EQ(p.mask_words(), 0u);
  const auto res = p.two_step_search(arch::BitWord(8, 0));
  EXPECT_EQ(res.stats.rows, 0);
  EXPECT_EQ(res.stats.step1_miss_rate(), 0.0);
  EXPECT_TRUE(res.matches.empty());
}

TEST(PackedKernel, RejectsBadShapes) {
  EXPECT_THROW(PackedShard(-1, 4), std::invalid_argument);
  EXPECT_THROW(PackedShard(4, 0), std::invalid_argument);
  PackedShard p(4, 6);
  EXPECT_THROW(p.write(4, arch::TernaryWord(6, arch::Ternary::kX)),
               std::out_of_range);
  EXPECT_THROW(p.write(0, arch::TernaryWord(5, arch::Ternary::kX)),
               std::invalid_argument);
  EXPECT_THROW(p.search(arch::BitWord(5, 0)), std::invalid_argument);
  PackedShard odd(4, 7);
  try {
    odd.two_step_search(arch::BitWord(7, 0));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error must name the shape, like arch::two_step_search.
    EXPECT_NE(std::string(e.what()).find("4 rows"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("7 cols"), std::string::npos);
  }
}

}  // namespace
}  // namespace fetcam::engine
