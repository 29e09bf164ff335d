// Bit-exact golden for dse::evaluate_point: one 2SG-FeFET point and one
// 1.5T1DG-Fe point, both 8-bit words of 2-bit digits, through the whole
// pipeline (transient latency and energy, write energy, area, yield MC).
// Solver and assembly work must leave every figure unchanged to the last
// bit; a change that moves one of these constants changed the numerics.
//
// The constants are printed with %a; all comparisons are exact (EXPECT_EQ
// on doubles, deliberately).
#include <gtest/gtest.h>

#include <string>

#include "dse/evaluate.hpp"

namespace fetcam::dse {
namespace {

struct Golden {
  arch::TcamDesign design;
  double latency_ps;
  double search_energy_fj_per_bit;
  double write_energy_fj_per_bit;
  double area_um2_per_bit;
  double yield;
};

PointMetrics evaluate_golden_point(arch::TcamDesign design) {
  DesignPoint p;
  p.design = design;
  p.rows = 16;
  p.word_bits = 8;
  p.mats = 2;
  p.digit_bits = 2;
  EvalOptions opts;
  opts.mc_samples = 8;
  opts.seed = 5;
  return evaluate_point(p, opts, 41);
}

TEST(EvaluatePointGolden, MetricsAreBitExact) {
  const Golden goldens[] = {
      {arch::TcamDesign::k2SgFefet, 0x1.9d67788135246p+6,
       0x1.5cb0fbcc00ec2p-3, 0x1.ff968e81a503fp+0, 0x1.1c28f5c28f5c2p+0,
       0x1.8p-2},
      {arch::TcamDesign::k1p5DgFe, 0x1.9ed8fb04fcef5p+7,
       0x1.3afa477015dd5p-2, 0x1.ee284b9ba2df7p-2, 0x1.53f67f4dbdf8fp+0,
       0x0p+0},
  };
  for (const Golden& g : goldens) {
    const PointMetrics m = evaluate_golden_point(g.design);
    const std::string name = flavor_name(g.design);
    ASSERT_TRUE(m.ok) << name << ": " << m.error;
    EXPECT_EQ(m.latency_ps, g.latency_ps) << name;
    EXPECT_EQ(m.search_energy_fj_per_bit, g.search_energy_fj_per_bit)
        << name;
    EXPECT_EQ(m.write_energy_fj_per_bit, g.write_energy_fj_per_bit) << name;
    EXPECT_EQ(m.area_um2_per_bit, g.area_um2_per_bit) << name;
    EXPECT_EQ(m.yield, g.yield) << name;
  }
}

}  // namespace
}  // namespace fetcam::dse
