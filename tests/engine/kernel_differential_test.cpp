// Differential / property test layer for the match kernel tiers.
//
// Thousands of counter-keyed randomized cases (reproducible from the seed
// baked into each trial key) drive the scalar-packed kernels, the SIMD
// kernels (when the build/CPU has them), and the behavioral references
// (TcamArray::search, arch::two_step_search) over the same tables and
// queries.  Queries run through the query-blocked kernels — the only
// exact-match kernels — at every block size 1..kMaxQueryBlock, and every
// lane of every tier is compared DIRECTLY against the references: match
// flags row by row, mask padding, and the full SearchStats counters,
// across:
//
//   * widths spanning the word boundaries (1, 7, 63, 64, 65, 128, 130),
//   * row counts spanning the 64-row block boundaries (1, 3, 64, 65, 200),
//   * entry styles: random ternary, all-X (wildcard), all-care,
//     single-care-bit, erased and never-written rows,
//   * query styles: random, all-zeros, all-ones, exact row images, and
//     single-bit perturbations of a stored row.
//
// Both tiers stop reading a row group's words once every lane of the block
// has mismatched it.  These tests are what pins the claim that early-out
// and block composition change only cost, never any observable outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "arch/behavioral_array.hpp"
#include "arch/search_scheduler.hpp"
#include "engine/packed_kernel.hpp"
#include "util/rng.hpp"

namespace fetcam::engine {
namespace {

constexpr std::uint64_t kSeed = 0x7CA9D1FFul;

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

/// Entry-style mix exercising every storage corner: random ternary rows,
/// all-X rows, all-care rows, single-care-bit rows, never-written rows,
/// and written-then-erased rows.
void build_pair(std::mt19937& rng, int rows, int cols, arch::TcamArray& a,
                PackedShard& p) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> col(0, cols - 1);
  for (int r = 0; r < rows; ++r) {
    const double style = u(rng);
    if (style < 0.10) continue;  // never written
    arch::TernaryWord w;
    if (style < 0.25) {
      w = random_word(rng, cols, 1.0);  // all-wildcard
    } else if (style < 0.40) {
      w = random_word(rng, cols, 0.0);  // all-care
    } else if (style < 0.50) {
      // single-care-bit: matches half the query space on one digit
      w = random_word(rng, cols, 1.0);
      w[static_cast<std::size_t>(col(rng))] =
          u(rng) < 0.5 ? arch::Ternary::kOne : arch::Ternary::kZero;
    } else {
      w = random_word(rng, cols, 0.3);
    }
    a.write(r, w);
    p.write(r, w);
    if (style >= 0.92) {  // written then invalidated
      a.erase(r);
      p.erase(r);
    }
  }
}

/// Query styles: random, all-zeros, all-ones, the exact image of a stored
/// row (X digits resolved randomly), and a one-bit perturbation of it.
arch::BitWord make_query(std::mt19937& rng, int style, int cols,
                         const arch::TcamArray& array) {
  std::uniform_int_distribution<int> bit(0, 1);
  arch::BitWord q(static_cast<std::size_t>(cols), 0);
  switch (style % 5) {
    case 0:
      for (auto& b : q) b = static_cast<std::uint8_t>(bit(rng));
      break;
    case 1:
      break;  // all zeros
    case 2:
      for (auto& b : q) b = 1;
      break;
    default: {
      std::uniform_int_distribution<int> row(0, array.rows() - 1);
      const int r = row(rng);
      if (array.valid(r)) {
        const arch::TernaryWord& w = array.entry(r);
        for (int c = 0; c < cols; ++c) {
          const arch::Ternary t = w[static_cast<std::size_t>(c)];
          q[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(
              t == arch::Ternary::kX ? bit(rng) : (t == arch::Ternary::kOne));
        }
      } else {
        for (auto& b : q) b = static_cast<std::uint8_t>(bit(rng));
      }
      if (style % 5 == 4) {
        std::uniform_int_distribution<int> col(0, cols - 1);
        const std::size_t c = static_cast<std::size_t>(col(rng));
        q[c] = static_cast<std::uint8_t>(1 - q[c]);
      }
      break;
    }
  }
  return q;
}

void expect_stats_eq(const arch::SearchStats& want,
                     const arch::SearchStats& got, const char* what,
                     std::uint64_t key) {
  EXPECT_EQ(want.rows, got.rows) << what << " key=" << key;
  EXPECT_EQ(want.step1_misses, got.step1_misses) << what << " key=" << key;
  EXPECT_EQ(want.step2_evaluated, got.step2_evaluated)
      << what << " key=" << key;
  EXPECT_EQ(want.matches, got.matches) << what << " key=" << key;
}

/// Per-lane flag comparison + the padding property: mask bits at and past
/// `rows` must be zero in every tier.
void expect_mask_eq(const std::vector<bool>& want,
                    const std::vector<std::uint64_t>& mask, int rows,
                    const char* what, std::uint64_t key) {
  for (int r = 0; r < rows; ++r) {
    const bool got =
        ((mask[static_cast<std::size_t>(r) >> 6] >> (r & 63)) & 1ULL) != 0;
    ASSERT_EQ(want[static_cast<std::size_t>(r)], got)
        << what << " row " << r << " key=" << key;
  }
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t padded = mask[w];
    if (w == static_cast<std::size_t>(rows) / 64 && (rows & 63) != 0) {
      padded &= ~((1ULL << (rows & 63)) - 1);
    } else if (w < static_cast<std::size_t>(rows) / 64) {
      padded = 0;
    }
    ASSERT_EQ(padded, 0u) << what << " pad word " << w << " key=" << key;
  }
}

struct TierGuard {
  ~TierGuard() { clear_kernel_tier_override(); }
};

/// One block of queries (1..kMaxQueryBlock lanes) through both kernels of
/// every available tier, each lane checked against the behavioral
/// references: flags row by row, mask padding, and the full SearchStats
/// (single-step for full match: every row evaluates, no step-1 misses).
/// Masks start as all-ones, so a kernel that fails to overwrite a word
/// shows up as a padding or flag mismatch.
void expect_block_matches_reference(const arch::TcamArray& array,
                                    const PackedShard& shard,
                                    const std::vector<arch::BitWord>& queries,
                                    std::uint64_t key) {
  const int nq = static_cast<int>(queries.size());
  const int rows = array.rows();
  const bool two_step = array.cols() % 2 == 0;
  std::vector<PackedQuery> packed(queries.size());
  std::vector<std::vector<bool>> full_ref(queries.size());
  std::vector<arch::ScheduledSearchResult> two_ref(queries.size());
  const PackedQuery* qp[kMaxQueryBlock];
  for (int q = 0; q < nq; ++q) {
    const std::size_t i = static_cast<std::size_t>(q);
    packed[i].repack(queries[i]);
    qp[q] = &packed[i];
    full_ref[i] = array.search(queries[i]);
    if (two_step) two_ref[i] = arch::two_step_search(array, queries[i]);
  }
  std::vector<std::vector<std::uint64_t>> masks(queries.size());
  std::uint64_t* mp[kMaxQueryBlock];
  arch::SearchStats stats[kMaxQueryBlock];
  const auto reset_masks = [&] {
    for (int q = 0; q < nq; ++q) {
      masks[static_cast<std::size_t>(q)].assign(shard.mask_words(), ~0ULL);
      mp[q] = masks[static_cast<std::size_t>(q)].data();
    }
  };
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (!kernel_tier_available(tier)) continue;
    reset_masks();
    shard.full_match_block(qp, nq, mp, stats, tier);
    for (int q = 0; q < nq; ++q) {
      const std::size_t i = static_cast<std::size_t>(q);
      const std::string what = std::string("full/") + kernel_tier_name(tier) +
                               " lane " + std::to_string(q) + "/" +
                               std::to_string(nq);
      expect_mask_eq(full_ref[i], masks[i], rows, what.c_str(), key);
      arch::SearchStats want;
      want.rows = rows;
      want.step2_evaluated = rows;
      want.matches = static_cast<int>(
          std::count(full_ref[i].begin(), full_ref[i].end(), true));
      expect_stats_eq(want, stats[q], what.c_str(), key);
    }
    if (!two_step) continue;
    reset_masks();
    shard.two_step_match_block(qp, nq, mp, stats, tier);
    for (int q = 0; q < nq; ++q) {
      const std::size_t i = static_cast<std::size_t>(q);
      const std::string what = std::string("two-step/") +
                               kernel_tier_name(tier) + " lane " +
                               std::to_string(q) + "/" + std::to_string(nq);
      expect_mask_eq(two_ref[i].matches, masks[i], rows, what.c_str(), key);
      expect_stats_eq(two_ref[i].stats, stats[q], what.c_str(), key);
    }
  }
}

/// Randomized sweep: each table's query stream is cut into consecutive
/// blocks whose size cycles 1, 2, ..., kMaxQueryBlock, 1, ... so every
/// block size meets every table shape.
void run_differential(int rows, int cols, int tables, int queries) {
  for (int t = 0; t < tables; ++t) {
    const std::uint64_t table_key = util::trial_key(
        kSeed, static_cast<std::uint64_t>(rows) * 1000003u +
                   static_cast<std::uint64_t>(cols) * 1009u +
                   static_cast<std::uint64_t>(t));
    std::mt19937 rng = util::trial_rng(kSeed, table_key);
    arch::TcamArray array(rows, cols);
    PackedShard shard(rows, cols);
    build_pair(rng, rows, cols, array, shard);

    std::vector<arch::BitWord> block;
    std::size_t block_size = 1;
    for (int qi = 0; qi < queries; ++qi) {
      block.push_back(make_query(rng, qi, cols, array));
      if (block.size() < block_size && qi + 1 < queries) continue;
      expect_block_matches_reference(
          array, shard, block, table_key + static_cast<std::uint64_t>(qi));
      if (::testing::Test::HasFailure()) return;  // one bad case is enough
      block.clear();
      block_size = block_size % kMaxQueryBlock + 1;
    }
  }
}

TEST(KernelDifferential, WordBoundaryWidths) {
  // 63 / 64 / 65 plus a two-word even width: the packing edge cases.
  for (const int cols : {63, 64, 65, 130}) {
    run_differential(/*rows=*/96, cols, /*tables=*/3, /*queries=*/40);
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, RowBlockBoundaries) {
  // 1 / 3 rows (sub-block), 64 (exact block), 65 (block + 1), 200
  // (3 blocks + tail): the SIMD per-64-row-block accounting edges.
  for (const int rows : {1, 3, 64, 65, 200}) {
    run_differential(rows, /*cols=*/64, /*tables=*/3, /*queries=*/40);
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, NarrowAndOddWidths) {
  for (const int cols : {1, 2, 7, 16}) {
    run_differential(/*rows=*/70, cols, /*tables=*/2, /*queries=*/40);
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, RandomizedSweep) {
  // The bulk randomized sweep: ~3k additional (table, query) cases over
  // mixed shapes; together with the boundary suites the differential
  // layer runs >10k tier-vs-reference comparisons.
  std::mt19937 shape_rng = util::trial_rng(kSeed, 999);
  std::uniform_int_distribution<int> rows_d(1, 160);
  std::uniform_int_distribution<int> cols_d(1, 100);
  for (int i = 0; i < 24; ++i) {
    const int rows = rows_d(shape_rng);
    int cols = cols_d(shape_rng);
    if (i % 2 == 0 && cols % 2 != 0) ++cols;  // keep two-step covered
    run_differential(rows, cols, /*tables=*/1, /*queries=*/128);
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, ActiveTierOverrideRoundTrip) {
  // The dispatch plumbing itself: overrides select exactly the requested
  // tier and clear back to the CPU-detected best.
  TierGuard guard;
  clear_kernel_tier_override();
  EXPECT_EQ(active_kernel_tier(), best_kernel_tier());
  set_kernel_tier_override(KernelTier::kScalar);
  EXPECT_EQ(active_kernel_tier(), KernelTier::kScalar);
  if (kernel_tier_available(KernelTier::kAvx2)) {
    set_kernel_tier_override(KernelTier::kAvx2);
    EXPECT_EQ(active_kernel_tier(), KernelTier::kAvx2);
  } else {
    EXPECT_THROW(set_kernel_tier_override(KernelTier::kAvx2),
                 std::invalid_argument);
  }
  clear_kernel_tier_override();
  EXPECT_EQ(active_kernel_tier(), best_kernel_tier());
}

TEST(KernelDifferential, DefaultPathFollowsOverride) {
  // The tier-less PackedShard entry points must route through the active
  // tier: force scalar, then (if present) AVX2, and check the default call
  // reproduces the forced call bit for bit.
  TierGuard guard;
  std::mt19937 rng = util::trial_rng(kSeed, 4242);
  arch::TcamArray array(96, 64);
  PackedShard shard(96, 64);
  build_pair(rng, 96, 64, array, shard);
  const arch::BitWord query = make_query(rng, 0, 64, array);
  const PackedQuery packed = PackedQuery::pack(query);

  const PackedQuery* qp[1] = {&packed};
  std::vector<std::uint64_t> forced(shard.mask_words());
  std::vector<std::uint64_t> defaulted(shard.mask_words());
  std::uint64_t* forced_mp[1] = {forced.data()};
  std::uint64_t* defaulted_mp[1] = {defaulted.data()};
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (!kernel_tier_available(tier)) continue;
    set_kernel_tier_override(tier);
    arch::SearchStats a;
    arch::SearchStats b;
    shard.two_step_match_block(qp, 1, forced_mp, &a, tier);
    shard.two_step_match_block(qp, 1, defaulted_mp, &b);
    EXPECT_EQ(forced, defaulted) << kernel_tier_name(tier);
    expect_stats_eq(a, b, kernel_tier_name(tier), 4242);
  }
}

/// Block-size differential: for every block size B = 1..kMaxQueryBlock,
/// every lane of the blocked kernels must reproduce the single-query
/// behavioral references' mask AND stats bit for bit — on every tier.
/// Lane q's result may never depend on its neighbors, which is the
/// property the engine's determinism contract (results invariant under
/// query_block) stands on.
void run_block_differential(int rows, int cols, int tables) {
  for (int t = 0; t < tables; ++t) {
    const std::uint64_t table_key = util::trial_key(
        kSeed, 77000 + static_cast<std::uint64_t>(rows) * 131u +
                   static_cast<std::uint64_t>(cols) * 7u +
                   static_cast<std::uint64_t>(t));
    std::mt19937 rng = util::trial_rng(kSeed, table_key);
    arch::TcamArray array(rows, cols);
    PackedShard shard(rows, cols);
    build_pair(rng, rows, cols, array, shard);

    for (int nq = 1; nq <= kMaxQueryBlock; ++nq) {
      // Lanes reuse the single-query styles, including exact-row images.
      std::vector<arch::BitWord> queries;
      for (int q = 0; q < nq; ++q) {
        queries.push_back(make_query(rng, q, cols, array));
      }
      expect_block_matches_reference(
          array, shard, queries,
          table_key * 100 + static_cast<std::uint64_t>(nq));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(KernelDifferential, BlockedLanesMatchSingleAtWordBoundaries) {
  // 63 / 64 / 65 columns: the packing edges, under every block size.
  for (const int cols : {63, 64, 65, 130}) {
    run_block_differential(/*rows=*/96, cols, /*tables=*/3);
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, BlockedLanesMatchSingleAtRowBoundaries) {
  for (const int rows : {1, 3, 64, 65, 200}) {
    run_block_differential(rows, /*cols=*/64, /*tables=*/3);
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, BlockedAllWildcardRows) {
  // Every valid row all-X: every lane must match every valid row, and the
  // blocked accounting must still agree with the behavioral references.
  for (const int rows : {5, 64, 70}) {
    arch::TcamArray array(rows, 64);
    PackedShard shard(rows, 64);
    const arch::TernaryWord all_x(64, arch::Ternary::kX);
    for (int r = 0; r < rows; r += 2) {  // half valid, half never written
      array.write(r, all_x);
      shard.write(r, all_x);
    }
    std::mt19937 rng = util::trial_rng(kSeed, 31000 + rows);
    run_block_differential(rows, 64, /*tables=*/1);
    std::vector<PackedQuery> packed(4);
    const PackedQuery* qp[4];
    std::vector<std::vector<std::uint64_t>> masks(4);
    std::uint64_t* mp[4];
    arch::SearchStats stats[4];
    for (int q = 0; q < 4; ++q) {
      packed[static_cast<std::size_t>(q)].repack(
          make_query(rng, q, 64, array));
      masks[static_cast<std::size_t>(q)].assign(shard.mask_words(), 0);
      qp[q] = &packed[static_cast<std::size_t>(q)];
      mp[q] = masks[static_cast<std::size_t>(q)].data();
    }
    shard.two_step_match_block(qp, 4, mp, stats);
    for (int q = 0; q < 4; ++q) {
      EXPECT_EQ(stats[q].matches, (rows + 1) / 2) << "rows=" << rows;
      const std::vector<bool> ref =
          array.search(arch::BitWord(64, 0));  // all-X: query irrelevant
      expect_mask_eq(ref, masks[static_cast<std::size_t>(q)], rows,
                     "all-X block", static_cast<std::uint64_t>(rows));
    }
    if (HasFailure()) return;
  }
}

TEST(KernelDifferential, BlockSizeOutOfRangeThrows) {
  PackedShard shard(8, 16);
  PackedQuery q = PackedQuery::pack(arch::BitWord(16, 0));
  std::vector<std::uint64_t> mask(shard.mask_words(), 0);
  const PackedQuery* qp[1] = {&q};
  std::uint64_t* mp[1] = {mask.data()};
  arch::SearchStats stats[1];
  EXPECT_THROW(shard.full_match_block(qp, 0, mp, stats),
               std::invalid_argument);
  EXPECT_THROW(shard.full_match_block(qp, kMaxQueryBlock + 1, mp, stats),
               std::invalid_argument);
}

}  // namespace
}  // namespace fetcam::engine
