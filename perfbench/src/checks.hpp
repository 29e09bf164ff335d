// Reference answers computed apart from the program: the benchmark packs
// rules and queries itself and resolves them by brute force, so a fault in
// the program's packing, kernels, merge or compiler cannot hide in the
// reference it is checked against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/ternary.hpp"
#include "engine/table.hpp"

namespace perfbench {

/// A ternary word packed by the benchmark: bit (c % 64) of word (c / 64)
/// is column c; `care` is clear at 'X' columns.
struct PackedRule {
  std::vector<std::uint64_t> care;
  std::vector<std::uint64_t> value;
  int cared = 0;  ///< non-'X' columns (the prefix length of an IP prefix)
};
PackedRule pack_rule(const fetcam::arch::TernaryWord& w);
std::vector<std::uint64_t> pack_bits(const fetcam::arch::BitWord& q);
bool rule_matches(const PackedRule& r, const std::vector<std::uint64_t>& q);

/// Longest-prefix match: the largest cared-column count among the rules
/// matching `q`, or -1 when none matches.
int longest_prefix(const std::vector<PackedRule>& rules,
                   const std::vector<std::uint64_t>& q);

/// First match over an uncompiled rule list: the matching rule with the
/// lowest priority, earliest in the list on ties; -1 on a miss.
int first_match(const std::vector<PackedRule>& rules,
                const std::vector<int>& priority,
                const std::vector<std::uint64_t>& q);

/// Digit distance: digits of `digit_bits` adjacent columns that hold at
/// least one cared, mismatching bit.
int digit_distance(const PackedRule& r, const std::vector<std::uint64_t>& q,
                   int cols, int digit_bits);

/// Brute-force threshold kNN: rules within `threshold` digits of `q`,
/// ordered by (distance, priority, id) and cut to k.  ids[i] is rule i's
/// entry id.
std::vector<fetcam::engine::NearCandidate> brute_nearest(
    const std::vector<PackedRule>& rules, const std::vector<int>& priority,
    const std::vector<fetcam::engine::EntryId>& ids,
    const std::vector<std::uint64_t>& q, int cols, int digit_bits, int k,
    int threshold);

using Objectives = std::array<double, 4>;
/// a is no worse than b everywhere and better somewhere (minimized).
bool dominates(const Objectives& a, const Objectives& b);

/// Frontier properties of a sweep: frontier points are mutually
/// non-dominated, and every other simulated point is dominated by (or
/// equal to) a frontier point.  Returns an empty string when they hold,
/// otherwise what broke.
std::string check_frontier(const std::vector<Objectives>& simulated,
                           const std::vector<std::size_t>& frontier);

/// Exact dominated share of the box [0, ref] covered by `front` (all
/// objectives minimized), by inclusion over the grid the points induce.
double box_hypervolume(const std::vector<Objectives>& front,
                       const Objectives& ref);

}  // namespace perfbench
