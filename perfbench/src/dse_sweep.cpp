// dse_sweep: the simulation path end to end.
//
// A fixed-size, budgeted, surrogate-pruned dse::run_dse over
// dse::default_space() at one thread per CPU.  The candidate set is fixed
// (the sweep's own sampling seed stays 1); the workload seed drives the
// per-point Monte-Carlo streams.  Transient simulation is nearly all of the
// point time and no serving layer runs.  The traced run also times the
// layers under one design point: eval, tcam harness build, spice transient,
// numeric LU reuse and device evaluation.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "checks.hpp"
#include "common.hpp"
#include "devices/fefet.hpp"
#include "dse/design_space.hpp"
#include "dse/driver.hpp"
#include "dse/evaluate.hpp"
#include "dse/pareto.hpp"
#include "eval/fom.hpp"
#include "eval/variability.hpp"
#include "spice/circuit.hpp"
#include "spice/transient.hpp"
#include "tcam/sim_harness.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace dse = fetcam::dse;
using fetcam::arch::TcamDesign;

constexpr std::size_t kBudget = 64;
constexpr std::uint64_t kCandidateSeed = 1;
constexpr int kEvalProbes = 4;      // strided sample of simulated points
constexpr int kHarnessBits = 256;   // word of the spice/tcam probe
constexpr int kHarnessReps = 3;
constexpr int kFefetGrid = 32;      // bias grid side of the device probe
constexpr int kFefetReps = 200;
constexpr int kSetupReps = 1001;

dse::DseOptions sweep_options(std::uint64_t seed) {
  dse::DseOptions opts;
  opts.space = dse::default_space();
  opts.budget = kBudget;
  opts.seed = kCandidateSeed;
  opts.eval.seed = seed;
  return opts;
}

struct Box {
  Objectives ref{};
  double exhaustive_hv = 0.0;
};

/// Read the reference box that --regen-box writes.
Box read_box(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read reference box " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const auto number_after = [&](const std::string& key, std::size_t from) {
    const auto at = text.find(key, from);
    if (at == std::string::npos) throw std::runtime_error("box lacks " + key);
    return at + key.size();
  };
  Box box;
  std::size_t pos = text.find('[', number_after("\"ref\":", 0)) + 1;
  for (auto& r : box.ref) {
    std::size_t used = 0;
    r = std::stod(text.substr(pos), &used);
    pos += used;
    pos = text.find_first_of(",]", pos) + 1;
  }
  box.exhaustive_hv =
      std::stod(text.substr(number_after("\"exhaustive_hypervolume\":", 0)));
  return box;
}

bool is_one_point_five(TcamDesign d) {
  return d == TcamDesign::k1p5SgFe || d == TcamDesign::k1p5DgFe;
}

/// Timing wrapper around the evaluation run_dse would do itself: the same
/// evaluate_point call with the same per-point seed.
struct Timed {
  const dse::DseOptions* opts = nullptr;
  Tracer* tr = nullptr;
  int root = -1;
  std::mutex mu;
  std::vector<double> point_s;

  dse::EvalFn fn() {
    return [this](std::size_t i, const dse::DesignPoint& p) {
      const double t0 = now_s();
      dse::PointMetrics m;
      {
        Scope span(tr, "dse.evaluate_point", root, i);
        m = dse::evaluate_point(p, opts->eval,
                                fetcam::util::trial_key(opts->eval.seed, i));
      }
      const double dt = now_s() - t0;
      const std::lock_guard<std::mutex> lock(mu);
      point_s.push_back(dt);
      return m;
    };
  }
};

struct Sweep {
  dse::DseResult result;
  double wall = 0.0;
  std::vector<double> point_s;
};

/// The candidate preparation run_dse does before its first simulation:
/// space validation, the seeded budget subset, and the surrogate feature
/// vectors.  Returns the median process CPU time over kSetupReps
/// repetitions.
double set_up(std::uint64_t seed) {
  std::vector<double> t;
  std::size_t sink = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t0 = cpu_s();
    const auto opts = sweep_options(seed);
    opts.space.validate();
    const auto points = opts.space.sample_points(opts.budget, opts.seed);
    for (const auto& p : points) sink += opts.space.features(p).size();
    t.push_back(cpu_s() - t0);
  }
  if (sink == 0) throw std::runtime_error("empty candidate set");
  return median(t);
}

Sweep sweep(const dse::DseOptions& opts, Tracer* tr) {
  Timed timed;
  timed.opts = &opts;
  timed.tr = tr;
  timed.root = tr != nullptr ? tr->begin("dse_sweep.run_dse") : -1;
  Sweep s;
  const double t0 = now_s();
  s.result = dse::run_dse(opts, timed.fn());
  s.wall = now_s() - t0;
  if (tr != nullptr) tr->end(timed.root);
  s.point_s = std::move(timed.point_s);
  return s;
}

/// Checks of one sweep; returns the number of failed candidates.
std::uint64_t judge(const dse::DseOptions& opts, const Box& box,
                    const Sweep& s, Report& rep, bool plant,
                    double* quality, double* energy) {
  const auto& cands = s.result.candidates;
  std::vector<Objectives> sim;
  std::vector<std::size_t> sim_of(cands.size(), SIZE_MAX);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (!cands[i].simulated) continue;
    const auto& m = cands[i].metrics;
    if (!m.ok) {
      ++failed;
      continue;
    }
    const auto o = m.objectives(opts.eval.write_weight);
    bool finite = true;
    for (const double x : o) finite = finite && std::isfinite(x);
    if (!finite || !(m.yield >= 0.0 && m.yield <= 1.0)) {
      rep.fail("dse_sweep: candidate " + std::to_string(i) +
               " has non-finite objectives or a yield outside [0, 1]");
    }
    sim_of[i] = sim.size();
    sim.push_back({o[0], o[1], o[2], o[3]});
  }
  std::vector<std::size_t> front;
  bool fam2 = false, fam15 = false;
  std::vector<Objectives> front_obj;
  *energy = INFINITY;
  for (const auto f : s.result.frontier) {
    if (f >= cands.size() || sim_of[f] == SIZE_MAX) {
      rep.fail("dse_sweep: frontier names a point that was not simulated");
      continue;
    }
    front.push_back(sim_of[f]);
    front_obj.push_back(sim[sim_of[f]]);
    const auto& m = cands[f].metrics;
    (is_one_point_five(m.point.design) ? fam15 : fam2) = true;
    *energy = std::min(*energy, m.search_energy_fj_per_bit *
                                    m.point.bits_per_word());
  }
  if (plant) {
    // Add a simulated point that a frontier point strictly dominates.
    for (std::size_t i = 0; i < sim.size() && front.size() == front_obj.size(); ++i) {
      for (const auto& f : front_obj) {
        if (dominates(f, sim[i])) {
          front.push_back(i);
          break;
        }
      }
    }
  }
  const std::string why = check_frontier(sim, front);
  if (!why.empty()) rep.fail("dse_sweep: " + why);
  if (!fam2 || !fam15) rep.fail("dse_sweep: a cell family is missing from the frontier");
  *quality = box_hypervolume(front_obj, box.ref) / box.exhaustive_hv;
  return failed;
}

void pin_threads() { fetcam::util::set_thread_count(nproc()); }

/// The eval-layer options evaluate_point derives from a design point.
fetcam::eval::FomOptions fom_options(const dse::DesignPoint& p) {
  fetcam::eval::FomOptions f;
  f.n_bits = p.word_bits;
  f.rows = p.rows;
  f.vdd = p.vdd;
  f.tuning = p.tuning();
  return f;
}

void eval_probe(const dse::DseOptions& opts, const dse::DseResult& r,
                Tracer& tr) {
  std::vector<std::size_t> picks;
  const std::size_t n = r.candidates.size();
  for (int k = 0; k < kEvalProbes; ++k) {
    picks.push_back(static_cast<std::size_t>(k) * n / kEvalProbes);
  }
  // The yield Monte-Carlo is timed on 1.5T1Fe points only (2FeFET yield is
  // analytic); make sure the sample holds one.
  bool has15 = false;
  for (const auto i : picks) has15 = has15 || is_one_point_five(r.candidates[i].point.design);
  for (std::size_t i = 0; !has15 && i < n; ++i) {
    if (is_one_point_five(r.candidates[i].point.design)) {
      picks.back() = i;
      has15 = true;
    }
  }
  const int root = tr.begin("dse_sweep.eval_probe");
  for (const auto i : picks) {
    const auto& p = r.candidates[i].point;
    const auto f = fom_options(p);
    fetcam::eval::LatencyResult lat;
    {
      Scope span(&tr, "eval.measure_worst_latency", root, i);
      lat = fetcam::eval::measure_worst_latency(p.design, f);
    }
    {
      Scope span(&tr, "eval.measure_search_energy", root, i);
      fetcam::eval::measure_search_energy(p.design, f, lat.sized_timing);
    }
    {
      Scope span(&tr, "eval.measure_write_energy", root, i);
      fetcam::eval::measure_write_energy(p.design, f);
    }
    if (is_one_point_five(p.design)) {
      fetcam::eval::VariabilityParams vp = opts.eval.variability;
      vp.samples = opts.eval.mc_samples;
      vp.seed = static_cast<unsigned>(fetcam::util::trial_key(opts.eval.seed, i));
      const auto flavor = p.design == TcamDesign::k1p5SgFe
                              ? fetcam::tcam::Flavor::kSg
                              : fetcam::tcam::Flavor::kDg;
      Scope span(&tr, "eval.analyze_variability", root, i);
      fetcam::eval::analyze_variability(flavor, dse::divider_design_for(p), vp);
    }
  }
  tr.end(root);
}

struct SimProbe {
  std::vector<double> newton, rejected, hit_rate;
  double fefet_ns = 0.0;
};

/// One 256-bit 1.5T1Fe word search: harness build, then the transient on
/// the sparse solver with factorization reuse; then device evaluation over
/// a bias grid.
SimProbe sim_probe(Tracer& tr) {
  SimProbe out;
  const int root = tr.begin("dse_sweep.sim_probe");
  for (int rep = 0; rep < kHarnessReps; ++rep) {
    fetcam::tcam::WordOptions wo;
    wo.n_bits = kHarnessBits;
    fetcam::tcam::SearchConfig cfg;
    for (int c = 0; c < kHarnessBits; ++c) {
      cfg.stored.push_back(c % 3 == 0   ? fetcam::arch::Ternary::kX
                           : c % 3 == 1 ? fetcam::arch::Ternary::kOne
                                        : fetcam::arch::Ternary::kZero);
      cfg.query.push_back(c % 3 == 1 ? 1 : 0);
    }
    cfg.query[kHarnessBits - 2] ^= 1;  // one mismatching cell: worst case
    std::unique_ptr<fetcam::tcam::WordHarness> h;
    {
      Scope span(&tr, "tcam.build_harness", root, static_cast<std::uint64_t>(rep));
      h = fetcam::tcam::make_word_harness(TcamDesign::k1p5DgFe, wo);
      h->build_search(cfg);
      h->circuit().finalize();
    }
    fetcam::num::SparseNewtonWorkspace ws;
    fetcam::spice::TransientOptions topts;
    topts.t_stop = h->t_stop();
    topts.dt = h->suggested_dt();
    topts.solver = fetcam::spice::SolverKind::kSparse;
    topts.workspace = &ws;
    fetcam::spice::TransientResult res;
    {
      Scope span(&tr, "spice.run_transient", root, static_cast<std::uint64_t>(rep));
      res = fetcam::spice::run_transient(h->circuit(), topts);
    }
    if (!res.ok) throw std::runtime_error("probe transient failed: " + res.error);
    out.newton.push_back(res.total_newton_iterations);
    out.rejected.push_back(res.rejected_steps);
    const auto& st = ws.lu.stats();
    out.hit_rate.push_back(static_cast<double>(st.refactors) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, st.refactors + st.full_factors)));
  }
  {
    fetcam::spice::Circuit ckt;
    const auto d = ckt.node("d"), g = ckt.node("g"), s = ckt.node("s"),
               b = ckt.node("b");
    auto& fet = ckt.emplace<fetcam::dev::FeFet>("M1", d, g, s, b,
                                                fetcam::dev::dg_fefet_params());
    ckt.finalize();
    fetcam::num::Vector x(ckt.system_size());
    double sink = 0.0;
    const double t0 = now_s();
    {
      Scope span(&tr, "devices.fefet_drain_current", root);
      for (int r = 0; r < kFefetReps; ++r) {
        for (int i = 0; i < kFefetGrid; ++i) {
          for (int j = 0; j < kFefetGrid; ++j) {
            x[ckt.node_sys_index(d)] = 0.8 * i / (kFefetGrid - 1);
            x[ckt.node_sys_index(g)] = -0.5 + 2.0 * j / (kFefetGrid - 1);
            x[ckt.node_sys_index(b)] = 0.1 * (r % 3);
            sink += fet.drain_current(fetcam::spice::Solution(ckt, x));
          }
        }
      }
    }
    out.fefet_ns = (now_s() - t0) / (static_cast<double>(kFefetReps) *
                                     kFefetGrid * kFefetGrid) * 1e9;
    if (!std::isfinite(sink)) throw std::runtime_error("device probe diverged");
  }
  tr.end(root);
  return out;
}

}  // namespace

Report run_dse_sweep(const Context& ctx) {
  Report rep;
  const auto opts = sweep_options(ctx.seed);
  const Box box = read_box(ctx.box_path);
  pin_threads();
  const double setup = set_up(ctx.seed);
  // Warm-up: one design point through the whole pipeline.
  dse::evaluate_point(opts.space.grid_point(0), opts.eval, 0);

  std::vector<double> rates, walls, quality, energy;
  const CpuTimes c0 = read_cpu_times();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::uint64_t resolved = 0;
  bool plant = !ctx.plant.empty();
  do {
    const Sweep s = sweep(opts, nullptr);
    double q = 0.0, e = 0.0;
    rep.failed += judge(opts, box, s, rep, plant, &q, &e);
    plant = false;
    resolved += s.result.candidates.size();
    rates.push_back(static_cast<double>(s.result.candidates.size()) / s.wall);
    walls.push_back(s.wall);
    quality.push_back(q);
    energy.push_back(e);
  } while (now_s() - t0 < ctx.seconds);
  const double cpu = cpu_s() - cpu0;
  rep.attempted = resolved;
  rep.add("setup_s", setup, "s");
  rep.add("cpu_us_per_op", cpu / static_cast<double>(resolved) * 1e6, "us");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("model_energy_fj_per_search", median(energy), "fJ");
  rep.add("result_quality", median(quality), "ratio");
  rep.notes.push_back(
      "dse_sweep: steal_share=" +
      std::to_string(steal_share(c0, read_cpu_times())) +
      " ops_per_s=" + std::to_string(median(rates)) +
      " latency_p50_us=" + std::to_string(median(walls) * 1e6) +
      " sweeps=" + std::to_string(rates.size()) +
      " threads=" + std::to_string(fetcam::util::thread_count()));
  return rep;
}

void trace_dse_sweep(const Context& ctx, bool subject, Report& out) {
  const auto opts = sweep_options(ctx.seed);
  const Box box = read_box(ctx.box_path);
  pin_threads();
  dse::evaluate_point(opts.space.grid_point(0), opts.eval, 0);
  double q = 0.0, e = 0.0;
  Sweep plain;
  if (subject) {
    plain = sweep(opts, nullptr);
    out.attempted += plain.result.candidates.size();
    out.failed += judge(opts, box, plain, out, false, &q, &e);
  }
  Tracer tr;
  const Sweep traced = sweep(opts, &tr);
  out.attempted += traced.result.candidates.size();
  out.failed += judge(opts, box, traced, out, false, &q, &e);

  double busy = 0.0;
  for (const double t : traced.point_s) busy += t;
  const double threads = fetcam::util::thread_count();
  std::vector<dse::ObjVec> objs;
  for (const auto& c : traced.result.candidates) {
    if (c.simulated) objs.push_back(c.metrics.objectives(opts.eval.write_weight));
  }
  {
    const int root = tr.begin("dse_sweep.pareto");
    for (int r = 0; r < 5; ++r) {
      Scope span(&tr, "dse.pareto_front", root);
      dse::pareto_front(objs);
    }
    tr.end(root);
  }
  eval_probe(opts, traced.result, tr);
  const SimProbe sim = sim_probe(tr);

  const auto& r = traced.result;
  out.add("dse.point_s", tr.p50("dse.evaluate_point"), "s");
  out.add("dse.points_simulated",
          static_cast<double>(r.n_evaluated + r.n_validated), "count");
  out.add("dse.points_skipped", static_cast<double>(r.n_skipped), "count");
  out.add("dse.parallel_efficiency", busy / (traced.wall * threads), "ratio");
  out.add("dse.serial_s", traced.wall - busy / threads, "s");
  out.add("dse.pareto_ms", tr.p50("dse.pareto_front") * 1e3, "ms");
  out.add("eval.worst_latency_s", tr.p50("eval.measure_worst_latency"), "s");
  out.add("eval.search_energy_s", tr.p50("eval.measure_search_energy"), "s");
  out.add("eval.write_energy_s", tr.p50("eval.measure_write_energy"), "s");
  out.add("eval.yield_s", tr.p50("eval.analyze_variability"), "s");
  out.add("tcam.harness_build_ms", tr.p50("tcam.build_harness") * 1e3, "ms");
  out.add("spice.transient_ms", tr.p50("spice.run_transient") * 1e3, "ms");
  out.add("spice.newton_iters", median(sim.newton), "count");
  out.add("spice.rejected_steps", median(sim.rejected), "count");
  out.add("numeric.refactor_hit_rate", median(sim.hit_rate), "ratio");
  out.add("devices.fefet_eval_ns", sim.fefet_ns, "ns");
  if (subject) {
    const double overhead =
        (traced.wall / static_cast<double>(traced.result.candidates.size())) /
        (plain.wall / static_cast<double>(plain.result.candidates.size()));
    tr.report_subject(ctx, overhead, out);
  }
}

int regen_box(const Context& ctx) {
  auto opts = sweep_options(ctx.seed);
  opts.use_surrogate = false;
  pin_threads();
  const dse::DseResult r = dse::run_dse(opts);
  std::vector<Objectives> sim, front;
  Objectives ref{};
  for (const auto& c : r.candidates) {
    if (!c.simulated || !c.metrics.ok) continue;
    const auto o = c.metrics.objectives(opts.eval.write_weight);
    sim.push_back({o[0], o[1], o[2], o[3]});
    for (std::size_t d = 0; d < ref.size(); ++d) ref[d] = std::max(ref[d], o[d]);
  }
  for (auto& x : ref) x *= 1.1;
  for (const auto f : r.frontier) {
    const auto o = r.candidates[f].metrics.objectives(opts.eval.write_weight);
    front.push_back({o[0], o[1], o[2], o[3]});
  }
  const double hv = box_hypervolume(front, ref);
  std::ofstream f(ctx.box_path);
  f.precision(12);
  f << "{\n  \"about\": \"dse_sweep reference box: 1.1 x the per-objective "
       "maximum of an exhaustive (surrogate off) sweep of the candidate set; "
       "objectives latency_ps, energy_fj_per_bit, area_um2_per_bit, "
       "yield_loss\",\n"
    << "  \"budget\": " << kBudget << ",\n  \"candidate_seed\": "
    << kCandidateSeed << ",\n  \"eval_seed\": " << ctx.seed
    << ",\n  \"simulated\": " << sim.size() << ",\n  \"frontier_points\": "
    << front.size() << ",\n  \"ref\": [" << ref[0] << ", " << ref[1] << ", "
    << ref[2] << ", " << ref[3] << "],\n  \"exhaustive_hypervolume\": " << hv
    << "\n}\n";
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", ctx.box_path.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu points simulated, %zu on the frontier, "
              "hypervolume %.6f of the box\n",
              ctx.box_path.c_str(), sim.size(), front.size(), hv);
  return 0;
}

}  // namespace perfbench
