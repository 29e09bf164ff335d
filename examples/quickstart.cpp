// Quickstart: store ternary entries in a 1.5T1DG-Fe TCAM, search it, and
// inspect the energy/latency the architecture model charges for it.
//
//   $ ./quickstart
//
// Walks the three layers of the library:
//   1. behavioral array  — functional content-addressable search;
//   2. service table     — bit-packed search with the paper's
//                          early-terminating two-step accounting;
//   3. circuit harness    — a SPICE-level search of one stored word.
#include <cstdio>

#include "arch/behavioral_array.hpp"
#include "engine/table.hpp"
#include "tcam/sim_harness.hpp"

using namespace fetcam;

int main() {
  // ---- 1. A small TCAM holding ternary rules ------------------------------
  arch::TcamArray array(/*rows=*/8, /*cols=*/8);
  array.write(0, arch::word_from_string("01010101"));
  array.write(1, arch::word_from_string("0101XXXX"));  // wildcard tail
  array.write(2, arch::word_from_string("1111XXXX"));
  array.write(3, arch::word_from_string("XXXXXXXX"));  // match-all fallback

  const auto query = arch::bits_from_string("01011100");
  std::printf("query %s matches rows:", arch::to_string(query).c_str());
  for (const int r : array.all_matches(query)) std::printf(" %d", r);
  std::printf("  (first match: row %d)\n",
              array.first_match(query).value_or(-1));

  // ---- 2. The service table: search + write with telemetry --------------
  engine::TableConfig tcfg;
  tcfg.design = arch::TcamDesign::k1p5DgFe;
  tcfg.mats = 1;
  tcfg.rows_per_mat = 8;
  tcfg.cols = 8;
  tcfg.subarrays_per_mat = 2;
  engine::TcamTable table(tcfg);
  for (int r = 0; r < 4; ++r) table.insert(array.entry(r), /*priority=*/r);
  const engine::TableMatch hit = table.search(query);
  std::printf("two-step search: %d/%d rows terminated after step 1, "
              "%d ran step 2, %d matched (winner: entry %lld)\n",
              hit.stats.step1_misses, hit.stats.rows,
              hit.stats.step2_evaluated, hit.stats.matches,
              static_cast<long long>(hit.entry));
  std::printf("telemetry: %.3f fJ total energy, %lld write pulses, "
              "hottest row at %.1e of its endurance budget\n",
              table.total_energy_j() * 1e15, table.write_pulses(),
              table.endurance(0).wear_fraction());

  // ---- 3. The same word at circuit level ----------------------------------
  std::printf("\ncircuit-level search of row 1 (stored 0101XXXX):\n");
  tcam::WordOptions opts;
  opts.n_bits = 8;
  tcam::SearchConfig cfg;
  cfg.stored = array.entry(1);
  cfg.query = query;
  const auto m = tcam::measure_search(arch::TcamDesign::k1p5DgFe, opts, cfg);
  if (!m.ok) {
    std::printf("  simulation failed: %s\n", m.error.c_str());
    return 1;
  }
  std::printf("  SA verdict: %s (expected %s)\n",
              m.measured_match ? "match" : "miss",
              m.expected_match ? "match" : "miss");
  std::printf("  energy/cell: %.3f fJ  (precharge %.3f, SA %.3f, "
              "signals %.3f fJ total)\n",
              m.energy_per_cell * 1e15, m.energy.precharge * 1e15,
              m.energy.sense_amp * 1e15, m.energy.signals * 1e15);
  return m.measured_match == m.expected_match ? 0 : 1;
}
