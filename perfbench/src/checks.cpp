#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace perfbench {

using fetcam::arch::Ternary;

PackedRule pack_rule(const fetcam::arch::TernaryWord& w) {
  PackedRule r;
  const std::size_t words = (w.size() + 63) / 64;
  r.care.assign(words, 0);
  r.value.assign(words, 0);
  for (std::size_t c = 0; c < w.size(); ++c) {
    if (w[c] == Ternary::kX) continue;
    const std::uint64_t bit = std::uint64_t{1} << (c % 64);
    r.care[c / 64] |= bit;
    if (w[c] == Ternary::kOne) r.value[c / 64] |= bit;
    ++r.cared;
  }
  return r;
}

std::vector<std::uint64_t> pack_bits(const fetcam::arch::BitWord& q) {
  std::vector<std::uint64_t> out((q.size() + 63) / 64, 0);
  for (std::size_t c = 0; c < q.size(); ++c) {
    if (q[c] != 0) out[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  return out;
}

bool rule_matches(const PackedRule& r, const std::vector<std::uint64_t>& q) {
  for (std::size_t i = 0; i < r.care.size(); ++i) {
    if (((q[i] ^ r.value[i]) & r.care[i]) != 0) return false;
  }
  return true;
}

int longest_prefix(const std::vector<PackedRule>& rules,
                   const std::vector<std::uint64_t>& q) {
  int best = -1;
  for (const auto& r : rules) {
    if (r.cared > best && rule_matches(r, q)) best = r.cared;
  }
  return best;
}

int first_match(const std::vector<PackedRule>& rules,
                const std::vector<int>& priority,
                const std::vector<std::uint64_t>& q) {
  int best = -1;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (best >= 0 && priority[i] >= priority[static_cast<std::size_t>(best)]) {
      continue;
    }
    if (rule_matches(rules[i], q)) best = static_cast<int>(i);
  }
  return best;
}

int digit_distance(const PackedRule& r, const std::vector<std::uint64_t>& q,
                   int cols, int digit_bits) {
  if (64 % digit_bits == 0) {
    // Digits never straddle a word: fold each digit's mismatch bits onto
    // its first column and count.
    std::uint64_t first = 0;  // one bit at the first column of each digit
    for (int b = 0; b < 64; b += digit_bits) first |= std::uint64_t{1} << b;
    int d = 0;
    for (std::size_t i = 0; i < r.care.size(); ++i) {
      std::uint64_t m = (q[i] ^ r.value[i]) & r.care[i];
      std::uint64_t fold = m;
      for (int s = 1; s < digit_bits; ++s) fold |= m >> s;
      d += std::popcount(fold & first);
    }
    return d;
  }
  int d = 0;
  for (int g = 0; g * digit_bits < cols; ++g) {
    for (int b = g * digit_bits; b < (g + 1) * digit_bits; ++b) {
      const std::uint64_t bit = std::uint64_t{1} << (b % 64);
      const auto w = static_cast<std::size_t>(b / 64);
      if ((r.care[w] & bit) != 0 && ((q[w] ^ r.value[w]) & bit) != 0) {
        ++d;
        break;
      }
    }
  }
  return d;
}

std::vector<fetcam::engine::NearCandidate> brute_nearest(
    const std::vector<PackedRule>& rules, const std::vector<int>& priority,
    const std::vector<fetcam::engine::EntryId>& ids,
    const std::vector<std::uint64_t>& q, int cols, int digit_bits, int k,
    int threshold) {
  std::vector<fetcam::engine::NearCandidate> all;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const int d = digit_distance(rules[i], q, cols, digit_bits);
    if (d <= threshold) all.push_back({ids[i], priority[i], d});
  }
  const auto less = [](const fetcam::engine::NearCandidate& a,
                       const fetcam::engine::NearCandidate& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.entry < b.entry;
  };
  std::sort(all.begin(), all.end(), less);
  if (all.size() > static_cast<std::size_t>(k)) {
    all.resize(static_cast<std::size_t>(k));
  }
  return all;
}

bool dominates(const Objectives& a, const Objectives& b) {
  bool better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] <= b[i])) return false;
    if (a[i] < b[i]) better = true;
  }
  return better;
}

std::string check_frontier(const std::vector<Objectives>& simulated,
                           const std::vector<std::size_t>& frontier) {
  std::vector<bool> on(simulated.size(), false);
  for (const auto f : frontier) {
    if (f >= simulated.size()) return "frontier index out of range";
    on[f] = true;
  }
  for (const auto a : frontier) {
    for (const auto b : frontier) {
      if (dominates(simulated[a], simulated[b])) {
        return "frontier point " + std::to_string(b) +
               " is dominated by frontier point " + std::to_string(a);
      }
    }
  }
  for (std::size_t i = 0; i < simulated.size(); ++i) {
    if (on[i]) continue;
    bool covered = false;
    for (const auto f : frontier) {
      if (dominates(simulated[f], simulated[i]) ||
          simulated[f] == simulated[i]) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return "simulated point " + std::to_string(i) +
             " is off the frontier but no frontier point dominates it";
    }
  }
  return "";
}

double box_hypervolume(const std::vector<Objectives>& front,
                       const Objectives& ref) {
  constexpr std::size_t kDim = 4;
  // Per dimension: the sorted distinct lower corners inside the box, then
  // the box edge.  Cell (i, j, k, l) spans consecutive coordinates and is
  // dominated iff some point is <= its lower corner in every dimension.
  std::array<std::vector<double>, kDim> axis;
  std::vector<Objectives> pts;
  for (const auto& p : front) {
    bool inside = true;
    for (std::size_t d = 0; d < kDim; ++d) {
      if (!(p[d] < ref[d])) inside = false;
    }
    if (!inside) continue;
    Objectives c = p;
    for (std::size_t d = 0; d < kDim; ++d) c[d] = std::max(0.0, c[d]);
    pts.push_back(c);
  }
  if (pts.empty()) return 0.0;
  double box = 1.0;
  for (std::size_t d = 0; d < kDim; ++d) {
    for (const auto& p : pts) axis[d].push_back(p[d]);
    std::sort(axis[d].begin(), axis[d].end());
    axis[d].erase(std::unique(axis[d].begin(), axis[d].end()), axis[d].end());
    axis[d].push_back(ref[d]);
    box *= ref[d];
  }
  double vol = 0.0;
  for (std::size_t i = 0; i + 1 < axis[0].size(); ++i) {
    for (std::size_t j = 0; j + 1 < axis[1].size(); ++j) {
      for (std::size_t k = 0; k + 1 < axis[2].size(); ++k) {
        for (std::size_t l = 0; l + 1 < axis[3].size(); ++l) {
          const Objectives lo = {axis[0][i], axis[1][j], axis[2][k],
                                 axis[3][l]};
          bool dom = false;
          for (const auto& p : pts) {
            if (p[0] <= lo[0] && p[1] <= lo[1] && p[2] <= lo[2] &&
                p[3] <= lo[3]) {
              dom = true;
              break;
            }
          }
          if (dom) {
            vol += (axis[0][i + 1] - lo[0]) * (axis[1][j + 1] - lo[1]) *
                   (axis[2][k + 1] - lo[2]) * (axis[3][l + 1] - lo[3]);
          }
        }
      }
    }
  }
  return box > 0.0 ? vol / box : 0.0;
}

}  // namespace perfbench
