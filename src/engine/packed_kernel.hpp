// Bit-packed TCAM shard kernel: the service-engine representation of one
// mat's worth of entries.
//
// The behavioral TcamArray stores one byte per ternary digit and matches
// digit-by-digit — exact, but a serving layer scanning thousands of rows
// per query cannot afford 1 byte/digit.  A PackedShard stores each row as
// (care, value) uint64 mask pairs, 64 ternary digits per word pair:
//
//   care bit  = 1  digit is '0' or '1' (participates in matching)
//   care bit  = 0  digit is 'X' (don't-care)
//   value bit = 1  digit is '1' (kept 0 wherever care = 0, canonical form)
//
// A 64-digit block of a query mismatches iff  care & (value ^ query) != 0,
// so a whole row of N digits is matched in ceil(N/64) word operations.
//
// Digit c lives at bit (c & 63) of word (c >> 6), LSB-first.  Because 64 is
// even, a digit's global parity equals its bit parity, so the paper's
// two-step schedule (step 1 = even/cell1 digits, step 2 = odd/cell2 digits,
// Sec. III-B3) is the same mismatch test under constant parity masks.  The
// two-step kernel reproduces arch::two_step_search semantics AND its
// SearchStats bit-exactly: invalid rows and step-1 mismatches terminate
// early (step1_misses), only survivors evaluate the odd digits
// (step2_evaluated), and matches are flagged per row.
//
// Storage is PLANAR (word-major): word w of every row is contiguous in
// memory (`care[w * rows_pad + r]`), rows padded to a multiple of 64.
// That makes word 0 of consecutive rows a streaming read for the scalar
// kernel, and lets the AVX2 kernel compare 4 rows per 256-bit vector with
// plain aligned-ish loads (no gathers).  Padded rows have care = value =
// valid = 0, so they can never match or perturb statistics.
//
// Kernel tiers: the scalar uint64 loop is the golden reference; an AVX2
// path (compiled only when -DFETCAM_SIMD=ON and the compiler supports
// -mavx2) is selected at runtime via CPU detection.  Both tiers are
// lane- and stats-exact against each other and against the behavioral
// reference — enforced by tests/engine/kernel_differential_test.cpp.
//
// Match results are reported as a row bitmask (64 rows per word) so the
// sharded table can priority-scan hits with countr_zero instead of walking
// a std::vector<bool>.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/behavioral_array.hpp"
#include "arch/search_scheduler.hpp"

namespace fetcam::engine {

/// Match-loop implementation tier.  kScalar is the golden reference and is
/// always available; kAvx2 requires both compile-time support
/// (-DFETCAM_SIMD=ON + a -mavx2-capable compiler) and runtime CPU support.
enum class KernelTier : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// Largest query block the blocked kernels accept.  Eight keeps the AVX2
/// per-query mismatch accumulators register-resident (8 ymm accumulators +
/// the shared care/value/broadcast registers fit in 16); larger blocks
/// spill and lose the bandwidth win they were buying.
inline constexpr int kMaxQueryBlock = 8;

const char* kernel_tier_name(KernelTier tier);

/// True when `tier` was compiled in AND the running CPU supports it.
bool kernel_tier_available(KernelTier tier);

/// Best available tier on this machine (runtime CPU dispatch).
KernelTier best_kernel_tier();

/// Tier PackedShard uses when no explicit tier is passed: the override if
/// one is set, otherwise best_kernel_tier().
KernelTier active_kernel_tier();

/// Force a tier process-wide (testing / benchmarking — e.g. measuring the
/// scalar floor on an AVX2 machine).  Throws std::invalid_argument if the
/// tier is unavailable.  Pass reset=true via clear_kernel_tier_override to
/// restore runtime dispatch.
void set_kernel_tier_override(KernelTier tier);
void clear_kernel_tier_override();

namespace detail {

/// Borrowed view of one shard's planar arrays, consumed by the per-tier
/// kernels.  `mask` outputs are rows_pad/64 words, fully overwritten.
struct ShardView {
  const std::uint64_t* care = nullptr;   ///< wpr planes of rows_pad words
  const std::uint64_t* value = nullptr;  ///< same shape as care
  const std::uint64_t* valid = nullptr;  ///< rows_pad/64 words
  int rows = 0;      ///< real row count
  int rows_pad = 0;  ///< padded row count (multiple of 64)
  int wpr = 0;       ///< words per row (ceil(cols/64))
};

// Query-blocked kernels, the only exact-match kernels: match nq
// (1..kMaxQueryBlock) queries in ONE pass over the shard's planar words, so
// each care/value word loaded from memory is reused nq times instead of
// once; a single query is a block of 1.  queries[q] points to wpr packed
// words; match_masks[q] points to rows_pad/64 words and is fully
// overwritten; stats[q] is reset and filled.  Per-query masks and stats are
// BIT-EXACT against the behavioral references (TcamArray::search,
// arch::two_step_search) for every q — block composition only changes
// cost, never results (the determinism argument the engine's block
// scheduler rests on, docs/ENGINE.md).  A row group stops reading words
// once every lane of every query has mismatched (for two-step: failed step
// 1); that early exit changes cost only.
// The AVX2 pair is defined in packed_kernel_avx2.cpp (FETCAM_HAVE_AVX2
// builds only).
void full_match_block_scalar(const ShardView& s,
                             const std::uint64_t* const* queries, int nq,
                             std::uint64_t* const* match_masks,
                             arch::SearchStats* stats);
void two_step_match_block_scalar(const ShardView& s,
                                 const std::uint64_t* const* queries, int nq,
                                 std::uint64_t* const* match_masks,
                                 arch::SearchStats* stats);
void full_match_block_avx2(const ShardView& s,
                           const std::uint64_t* const* queries, int nq,
                           std::uint64_t* const* match_masks,
                           arch::SearchStats* stats);
void two_step_match_block_avx2(const ShardView& s,
                               const std::uint64_t* const* queries, int nq,
                               std::uint64_t* const* match_masks,
                               arch::SearchStats* stats);

}  // namespace detail

/// A query packed to the shard's digit layout: bit (c & 63) of word
/// (c >> 6) is query digit c; bits at and above `cols` are zero.
struct PackedQuery {
  int cols = 0;
  std::vector<std::uint64_t> bits;

  static PackedQuery pack(const arch::BitWord& query);
  /// Allocation-free repack into an existing PackedQuery (hot path: the
  /// engine packs every query once per fan-out task; reusing the buffer
  /// keeps that off the allocator).
  void repack(const arch::BitWord& query);
};

class PackedShard {
 public:
  /// rows entries of `cols` ternary digits, all-'X' and invalid (erased).
  /// rows >= 0, cols > 0.
  PackedShard(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int words_per_row() const { return words_per_row_; }

  /// Store an entry (marks the row valid).
  void write(int row, const arch::TernaryWord& entry);
  /// Invalidate a row (content is retained, like TcamArray::erase).
  void erase(int row);
  bool valid(int row) const;
  /// Reconstruct the stored word from the packed masks (exact: the packing
  /// is lossless per digit).
  arch::TernaryWord entry(int row) const;

  /// Query-blocked match: nq (1..kMaxQueryBlock) queries in one pass over
  /// the planar words (a single query is a block of 1).  match_masks[q]
  /// must hold mask_words() words and is fully overwritten; stats[q] is
  /// reset.  Per-query results are independent of block composition.
  ///
  /// full_match_block: single-step full match (TcamArray::search
  /// semantics: invalid rows never match); sets bit (r & 63) of
  /// match_masks[q][r >> 6] per matching row; stats are single-step (every
  /// row evaluates fully: step2_evaluated = rows, no step-1 misses).
  /// two_step_match_block: two-step early-terminating match, bit-exact vs
  /// arch::two_step_search (match flags and SearchStats); requires an even
  /// word length.  The tier-less overloads use active_kernel_tier().
  void full_match_block(const PackedQuery* const* queries, int nq,
                        std::uint64_t* const* match_masks,
                        arch::SearchStats* stats) const;
  void full_match_block(const PackedQuery* const* queries, int nq,
                        std::uint64_t* const* match_masks,
                        arch::SearchStats* stats, KernelTier tier) const;
  void two_step_match_block(const PackedQuery* const* queries, int nq,
                            std::uint64_t* const* match_masks,
                            arch::SearchStats* stats) const;
  void two_step_match_block(const PackedQuery* const* queries, int nq,
                            std::uint64_t* const* match_masks,
                            arch::SearchStats* stats, KernelTier tier) const;

  /// One-lane convenience wrappers mirroring the behavioral API (used by
  /// the golden-equivalence tests).
  std::vector<bool> search(const arch::BitWord& query) const;
  arch::ScheduledSearchResult two_step_search(const arch::BitWord& query) const;

  /// Words in a row bitmask covering all rows.
  std::size_t mask_words() const {
    return static_cast<std::size_t>(rows_pad_) / 64;
  }

  /// Borrowed read-only view of the planar arrays, consumed by the
  /// per-tier kernels (including the approximate-match kernels in
  /// approx_kernel.hpp, which live in their own translation unit).
  /// Valid until the next mutating call.
  detail::ShardView view() const;

 private:
  void check_row(int row) const;
  void check_query(const PackedQuery& query) const;
  void check_block(const PackedQuery* const* queries, int nq) const;
  std::size_t plane_index(int row, int word) const {
    return static_cast<std::size_t>(word) *
               static_cast<std::size_t>(rows_pad_) +
           static_cast<std::size_t>(row);
  }

  int rows_;
  int cols_;
  int words_per_row_;
  int rows_pad_;  ///< rows rounded up to a multiple of 64 (0 when rows = 0)
  std::vector<std::uint64_t> care_;   ///< planar: wpr x rows_pad
  std::vector<std::uint64_t> value_;  ///< planar: wpr x rows_pad
  std::vector<std::uint64_t> valid_;  ///< row bitmask, 64 rows/word
};

}  // namespace fetcam::engine
