// acl_churn: a classifier rule set replaced version after version while
// the same engine serves exact-search bursts between versions.
//
// Each version goes compile_rules -> plan_update -> apply_plan through the
// serving SearchEngine, then one fixed-size burst of searches runs.  The
// versions are made with engine::churn_rules before timing and visited in
// a ping-pong cycle (v0 .. vN-1 .. v1, back to v0), so every step is a real
// churn delta and every round repeats the same work.  This puts writes
// beside reads: the compiler, phase-B apply, mat-skip upkeep and the HV
// driver admission model do most of the work here and none in lpm_wire.
#include <map>
#include <memory>
#include <unordered_map>

#include "checks.hpp"
#include "common.hpp"
#include "compiler/applier.hpp"
#include "compiler/compile.hpp"
#include "compiler/planner.hpp"
#include "compiler/rules.hpp"
#include "engine/engine.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace fe = fetcam::engine;
namespace fc = fetcam::compiler;

constexpr int kCols = 64;
constexpr int kRules = 1024;
constexpr int kVersions = 8;
constexpr int kBurst = 4096;
constexpr int kCheckStride = 16;  // every 16th burst query is checked
constexpr int kMats = 8;
constexpr int kRowsPerMat = 256;
constexpr int kSetupReps = 31;

struct Version {
  fc::RuleSet rules;
  std::vector<PackedRule> packed;
  std::vector<int> priority;
};

struct Inputs {
  std::vector<Version> versions;
  std::vector<fetcam::arch::BitWord> queries;
  std::vector<std::vector<std::uint64_t>> packed_queries;
  std::vector<int> cycle;  // version visited at each step of one round
};

Inputs make_inputs(std::uint64_t seed) {
  fe::TraceSpec spec;
  spec.kind = fe::TraceKind::kClassifier;
  spec.cols = kCols;
  spec.rules = kRules;
  spec.queries = kBurst;
  spec.match_rate = 0.5;
  spec.seed = seed;
  const fe::Trace trace = fe::generate_trace(spec);
  fe::ChurnSpec churn;
  churn.seed = seed;
  Inputs in;
  std::vector<fe::TraceRule> rules = trace.rules;
  for (int v = 0; v < kVersions; ++v) {
    if (v > 0) rules = fe::churn_rules(rules, spec.kind, kCols, churn, v);
    Version ver;
    ver.rules = fc::rule_set_from_rules(kCols, rules);
    for (const auto& r : rules) {
      ver.packed.push_back(pack_rule(r.entry));
      ver.priority.push_back(r.priority);
    }
    in.versions.push_back(std::move(ver));
  }
  in.queries = trace.queries;
  for (const auto& q : in.queries) in.packed_queries.push_back(pack_bits(q));
  for (int v = 1; v < kVersions; ++v) in.cycle.push_back(v);
  for (int v = kVersions - 2; v >= 0; --v) in.cycle.push_back(v);
  return in;
}

struct State {
  std::unique_ptr<fe::TcamTable> table;
  std::unique_ptr<fe::SearchEngine> engine;
  fc::Installation installed;
};

/// Initial install of v0 on a fresh table and engine; returns its process
/// CPU time.
double set_up(const Inputs& in, State& s) {
  const double t0 = cpu_s();
  fe::TableConfig cfg;
  cfg.mats = kMats;
  cfg.rows_per_mat = kRowsPerMat;
  cfg.cols = kCols;
  s.table = std::make_unique<fe::TcamTable>(cfg);
  s.engine = std::make_unique<fe::SearchEngine>(*s.table);
  const auto compiled = fc::compile_rules(in.versions[0].rules);
  const auto plan = fc::plan_update({}, compiled, *s.table);
  s.installed = fc::apply_plan(*s.engine, plan, compiled).installed;
  return cpu_s() - t0;
}

/// One checked answer: the source rule the engine's winner came from.
struct Sample {
  int version = 0;
  int query = 0;
  int rule = -1;  // -1 = miss
};

struct Loop {
  double wall = 0.0;
  double cpu = 0.0;
  double steal = 0.0;
  std::uint64_t searches = 0;
  std::uint64_t steps = 0;
  double energy_per_search = 0.0;  // first round only
  std::vector<double> update_us;
  std::vector<double> entries;
  std::vector<double> write_phases;
  double naive_phases = 0.0;
  double delta_phases = 0.0;
  long long driver_cycles = 0;
  long long driver_stalls = 0;
  std::vector<Sample> samples;
};

/// Whole rounds of the version cycle, stopping at the first round boundary
/// after `seconds`.  Starts and ends with v0 installed.
Loop churn_loop(const Inputs& in, State& s, double seconds, Tracer* tr,
                bool plant) {
  Loop res;
  std::vector<fe::Request> burst;
  for (const auto& q : in.queries) burst.push_back(fe::make_search(q));
  const long long cycles0 = s.engine->driver_cycles();
  const long long stalls0 = s.engine->driver_stalls();
  const double e0 = s.table->total_energy_j();
  const CpuTimes c0 = read_cpu_times();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::uint64_t step = 0;
  do {
    const int v = in.cycle[step % in.cycle.size()];
    const int root = tr != nullptr ? tr->begin("acl_churn.version", -1, step) : -1;
    const double u0 = now_s();
    fc::CompiledRuleSet compiled;
    {
      Scope span(tr, "compiler.compile_rules", root, step);
      compiled = fc::compile_rules(in.versions[static_cast<std::size_t>(v)].rules);
    }
    fc::UpdatePlan plan;
    {
      Scope span(tr, "compiler.plan_update", root, step);
      plan = fc::plan_update(s.installed, compiled, *s.table);
    }
    {
      Scope span(tr, "compiler.apply_plan", root, step);
      s.installed = fc::apply_plan(*s.engine, plan, compiled).installed;
    }
    res.update_us.push_back((now_s() - u0) * 1e6);
    res.entries.push_back(static_cast<double>(compiled.entries.size()));
    res.write_phases.push_back(static_cast<double>(plan.cost.write_phases));
    res.delta_phases += static_cast<double>(plan.cost.write_phases);
    res.naive_phases += static_cast<double>(plan.cost.naive_write_phases);

    fe::BatchResult out;
    {
      auto batch = burst;
      Scope span(tr, "engine.execute", root, step);
      out = s.engine->execute(std::move(batch));
    }
    res.searches += out.results.size();
    std::unordered_map<fe::EntryId, int> source;
    for (const auto& e : s.installed.entries) source[e.id] = e.source_rule;
    for (std::size_t q = 0; q < out.results.size(); q += kCheckStride) {
      const auto& r = out.results[q];
      Sample smp{v, static_cast<int>(q), -1};
      if (r.hit) {
        const auto it = source.find(r.entry);
        smp.rule = it != source.end() ? it->second : -2;
      }
      if (plant) {
        smp.rule = smp.rule == 0 ? 1 : 0;
        plant = false;
      }
      res.samples.push_back(smp);
    }
    if (tr != nullptr) tr->end(root);
    ++step;
    if (step == in.cycle.size()) {
      res.energy_per_search = (s.table->total_energy_j() - e0) /
                              (static_cast<double>(step) * kBurst);
    }
  } while (step % in.cycle.size() != 0 || now_s() - t0 < seconds);
  res.wall = now_s() - t0;
  res.cpu = cpu_s() - cpu0;
  res.steal = steal_share(c0, read_cpu_times());
  res.steps = step;
  res.driver_cycles = s.engine->driver_cycles() - cycles0;
  res.driver_stalls = s.engine->driver_stalls() - stalls0;
  return res;
}

/// Check the sampled answers against first-match over the raw rule list of
/// the version in force.
void judge(const Inputs& in, const Loop& l, Report& rep) {
  rep.attempted += l.searches;
  std::map<std::pair<int, int>, int> memo;
  std::uint64_t wrong = 0;
  for (const auto& smp : l.samples) {
    const auto key = std::make_pair(smp.version, smp.query);
    auto it = memo.find(key);
    if (it == memo.end()) {
      const auto& ver = in.versions[static_cast<std::size_t>(smp.version)];
      it = memo.emplace(key, first_match(ver.packed, ver.priority,
                                         in.packed_queries[static_cast<std::size_t>(smp.query)]))
               .first;
    }
    if (it->second != smp.rule) ++wrong;
  }
  if (wrong > 0) {
    rep.fail("acl_churn: " + std::to_string(wrong) + " of " +
             std::to_string(l.samples.size()) +
             " sampled answers differ from first match over the raw rules");
  }
}

/// One engine thread: the compiler runs on the caller's thread between
/// bursts, so updates and searches never compete for CPUs, and a burst's
/// wall time is not set by the slowest of several dispatchers.
int thread_budget() {
  fetcam::util::set_thread_count(1);
  return 1;
}

}  // namespace

Report run_acl_churn(const Context& ctx) {
  Report rep;
  const Inputs in = make_inputs(ctx.seed);
  thread_budget();
  std::vector<double> setups;
  auto s = std::make_unique<State>();
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) s = std::make_unique<State>();
    setups.push_back(set_up(in, *s));
  }
  const Loop warm = churn_loop(in, *s, 0.0, nullptr, !ctx.plant.empty());
  judge(in, warm, rep);
  const Loop l = churn_loop(in, *s, ctx.seconds, nullptr, false);
  judge(in, l, rep);
  rep.add("setup_s", median(setups), "s");
  rep.add("cpu_us_per_op", l.cpu / static_cast<double>(l.searches) * 1e6, "us");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("model_energy_fj_per_search", warm.energy_per_search * 1e15, "fJ");
  rep.add("result_quality", rep.correct ? 1.0 : 0.0, "ratio");
  rep.notes.push_back(
      "acl_churn: steal_share=" + std::to_string(l.steal) +
      " ops_per_s=" + std::to_string(static_cast<double>(l.searches) / l.wall) +
      " latency_p50_us=" + std::to_string(median(l.update_us)) +
      " versions_applied=" + std::to_string(l.steps) + " engine_threads=1");
  return rep;
}

void trace_acl_churn(const Context& ctx, bool subject, Report& out) {
  const Inputs in = make_inputs(ctx.seed);
  thread_budget();
  State s;
  set_up(in, s);
  // One round per arm in the census; half the run per arm for the subject.
  const double arm = subject ? ctx.seconds / 2 : 0.0;
  const Loop plain = churn_loop(in, s, arm, nullptr, false);
  Tracer tr;
  const Loop traced = churn_loop(in, s, arm, &tr, false);
  judge(in, plain, out);
  judge(in, traced, out);
  const double steps = static_cast<double>(traced.steps);
  out.add("compiler.compile_ms", tr.p50("compiler.compile_rules") * 1e3, "ms");
  out.add("compiler.plan_ms", tr.p50("compiler.plan_update") * 1e3, "ms");
  out.add("compiler.apply_ms", tr.p50("compiler.apply_plan") * 1e3, "ms");
  out.add("compiler.entries", median(traced.entries), "count");
  out.add("compiler.write_phases_per_version",
          median(traced.write_phases), "count");
  out.add("compiler.delta_share",
          traced.delta_phases / std::max(1.0, traced.naive_phases), "ratio");
  out.add("engine.search_burst_us", tr.p50("engine.execute") * 1e6, "us");
  out.add("engine.driver_cycles",
          static_cast<double>(traced.driver_cycles) / steps, "count");
  out.add("engine.driver_stalls",
          static_cast<double>(traced.driver_stalls) / steps, "count");
  if (subject) {
    const double overhead =
        (traced.wall / static_cast<double>(traced.searches)) /
        (plain.wall / static_cast<double>(plain.searches));
    tr.report_subject(ctx, overhead, out);
  }
}

}  // namespace perfbench
