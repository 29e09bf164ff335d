// knn_embed: threshold kNN over a planted-near-duplicate embedding store.
//
// The store (2 bits per digit) is several times larger than one core's
// 2 MiB L2, so rows stream from L2/L3 and mat-skip rarely prunes: the
// opposite regime to lpm_wire.  The approximate kernel and the top-k merge
// dominate.  It runs at the program's default thread resolution, capped at
// the CPUs the process may use, and is the serving workload that scales
// with threads.
#include <map>
#include <memory>

#include "checks.hpp"
#include "common.hpp"
#include "engine/approx_kernel.hpp"
#include "engine/engine.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace fe = fetcam::engine;

constexpr int kCols = 128;
constexpr int kDigitBits = 2;
constexpr int kMats = 48;
constexpr int kRowsPerMat = 4096;  // 196,608 rows: 6 MiB of planar words
constexpr int kQueries = 2048;     // one round
constexpr int kBatch = 256;
constexpr int kK = 4;
constexpr int kThreshold = 2;
constexpr int kCheckStride = 8;
constexpr int kSetupReps = 5;
constexpr int kProbeQueries = 128;

struct Inputs {
  fe::Trace trace;
  std::vector<std::vector<fe::Request>> batches;
  std::vector<PackedRule> rules;
  std::vector<int> priority;
};

Inputs make_inputs(std::uint64_t seed) {
  fe::TraceSpec spec;
  spec.kind = fe::TraceKind::kEmbedding;
  spec.cols = kCols;
  spec.rules = kMats * kRowsPerMat;
  spec.queries = kQueries;
  spec.match_rate = 0.5;
  spec.digit_bits = kDigitBits;
  spec.seed = seed;
  Inputs in;
  in.trace = fe::generate_trace(spec);
  for (const auto& r : in.trace.rules) {
    in.rules.push_back(pack_rule(r.entry));
    in.priority.push_back(r.priority);
  }
  for (int b = 0; b < kQueries / kBatch; ++b) {
    std::vector<fe::Request> reqs;
    for (int q = b * kBatch; q < (b + 1) * kBatch; ++q) {
      reqs.push_back(fe::make_search_nearest(
          in.trace.queries[static_cast<std::size_t>(q)], kK, kThreshold));
    }
    in.batches.push_back(std::move(reqs));
  }
  return in;
}

struct State {
  std::unique_ptr<fe::TcamTable> table;
  std::vector<fe::EntryId> ids;
  std::unique_ptr<fe::SearchEngine> engine;
};

/// Table build, store load and engine start; returns its process CPU time.
double set_up(const Inputs& in, State& s) {
  const double t0 = cpu_s();
  fe::TableConfig cfg;
  cfg.mats = kMats;
  cfg.rows_per_mat = kRowsPerMat;
  cfg.cols = kCols;
  cfg.digit_bits = kDigitBits;
  s.table = std::make_unique<fe::TcamTable>(cfg);
  s.ids = fe::load_rules(*s.table, in.trace);
  s.engine = std::make_unique<fe::SearchEngine>(*s.table);
  return cpu_s() - t0;
}

struct Sample {
  int query = 0;
  std::vector<fe::NearCandidate> got;
};

struct Loop {
  double wall = 0.0;
  double cpu = 0.0;
  double steal = 0.0;
  std::uint64_t queries = 0;
  std::vector<double> batch_us;
  std::vector<Sample> samples;
};

/// Synchronous execute() of every batch, in whole rounds, stopping at the
/// first round boundary after `seconds`.
Loop knn_loop(const Inputs& in, State& s, double seconds, Tracer* tr,
              bool plant) {
  Loop res;
  const std::size_t nb = in.batches.size();
  const CpuTimes c0 = read_cpu_times();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::uint64_t b = 0;
  int root = tr != nullptr ? tr->begin("knn_embed.round") : -1;
  do {
    auto batch = in.batches[b % nb];
    const double bt = now_s();
    fe::BatchResult out;
    {
      Scope span(tr, "engine.execute", root, b);
      out = s.engine->execute(std::move(batch));
    }
    res.batch_us.push_back((now_s() - bt) * 1e6);
    res.queries += out.results.size();
    const std::size_t base = (b % nb) * kBatch;
    for (std::size_t q = 0; q < out.results.size(); ++q) {
      if ((base + q) % kCheckStride != 0) continue;
      Sample smp{static_cast<int>(base + q), out.results[q].neighbors};
      if (plant && !smp.got.empty()) {
        smp.got.pop_back();
        plant = false;
      }
      res.samples.push_back(std::move(smp));
    }
    ++b;
    if (b % nb == 0) {
      if (tr != nullptr) tr->end(root);
      if (now_s() - t0 >= seconds) break;
      if (tr != nullptr) root = tr->begin("knn_embed.round");
    }
  } while (true);
  res.wall = now_s() - t0;
  res.cpu = cpu_s() - cpu0;
  res.steal = steal_share(c0, read_cpu_times());
  return res;
}

/// Compare the sampled neighbour lists with the brute-force top-k.
void judge(const Inputs& in, const State& s, const Loop& l, Report& rep) {
  rep.attempted += l.queries;
  std::map<int, std::vector<fe::NearCandidate>> ref;
  std::uint64_t wrong = 0;
  for (const auto& smp : l.samples) {
    auto it = ref.find(smp.query);
    if (it == ref.end()) {
      const auto q = pack_bits(in.trace.queries[static_cast<std::size_t>(smp.query)]);
      it = ref.emplace(smp.query, brute_nearest(in.rules, in.priority, s.ids, q,
                                                kCols, kDigitBits, kK, kThreshold))
               .first;
    }
    const auto& want = it->second;
    bool same = want.size() == smp.got.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].entry == smp.got[i].entry &&
             want[i].distance == smp.got[i].distance &&
             want[i].priority == smp.got[i].priority;
    }
    if (!same) ++wrong;
  }
  if (wrong > 0) {
    rep.fail("knn_embed: " + std::to_string(wrong) + " of " +
             std::to_string(l.samples.size()) +
             " sampled neighbour lists differ from the brute-force top-k");
  }
}

int thread_budget() {
  fetcam::util::set_thread_count(0);
  const int t = std::min(fetcam::util::thread_count(), nproc());
  fetcam::util::set_thread_count(t);
  return t;
}

}  // namespace

Report run_knn_embed(const Context& ctx) {
  Report rep;
  const Inputs in = make_inputs(ctx.seed);
  const int threads = thread_budget();
  std::vector<double> setups;
  auto s = std::make_unique<State>();
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) s = std::make_unique<State>();
    setups.push_back(set_up(in, *s));
  }
  // Warm-up round; it also prices one round of searches on the model.
  const double e0 = s->table->total_energy_j();
  const Loop warm = knn_loop(in, *s, 0.0, nullptr, !ctx.plant.empty());
  const double energy = (s->table->total_energy_j() - e0) / kQueries;
  judge(in, *s, warm, rep);
  const Loop l = knn_loop(in, *s, ctx.seconds, nullptr, false);
  judge(in, *s, l, rep);
  rep.add("setup_s", median(setups), "s");
  rep.add("cpu_us_per_op", l.cpu / static_cast<double>(l.queries) * 1e6, "us");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("model_energy_fj_per_search", energy * 1e15, "fJ");
  rep.add("result_quality", rep.correct ? 1.0 : 0.0, "ratio");
  rep.notes.push_back(
      "knn_embed: steal_share=" + std::to_string(l.steal) +
      " ops_per_s=" + std::to_string(static_cast<double>(l.queries) / l.wall) +
      " latency_p50_us=" + std::to_string(median(l.batch_us)) +
      " engine_threads=" + std::to_string(threads));
  return rep;
}

void trace_knn_embed(const Context& ctx, bool subject, Report& out) {
  const Inputs in = make_inputs(ctx.seed);
  const int threads = thread_budget();
  State s;
  set_up(in, s);
  judge(in, s, knn_loop(in, s, 0.0, nullptr, false), out);  // warm-up
  const double arm = subject ? ctx.seconds / 4 : 0.0;
  const Loop plain = knn_loop(in, s, arm, nullptr, false);
  Tracer tr;
  const Loop traced = knn_loop(in, s, arm, &tr, false);
  judge(in, s, plain, out);
  judge(in, s, traced, out);

  // The same rounds at one engine thread, for the scaling ratio.
  s.engine.reset();
  fetcam::util::set_thread_count(1);
  s.engine = std::make_unique<fe::SearchEngine>(*s.table);
  const Loop single = knn_loop(in, s, arm, nullptr, false);
  judge(in, s, single, out);
  s.engine.reset();
  fetcam::util::set_thread_count(threads);

  // Table and kernel layers, one thread, on a strided query sample.
  const auto& table = *s.table;
  double nearest_s = 0.0;
  {
    const int root = tr.begin("knn_embed.table");
    fe::NearestScratch scratch;
    for (int i = 0; i < kProbeQueries; ++i) {
      const auto q = static_cast<std::size_t>(i * (kQueries / kProbeQueries));
      fe::NearestMatch m;
      const double t = now_s();
      {
        Scope span(&tr, "table.nearest_mats", root, q);
        table.nearest_mats(in.trace.queries[q], kK, kThreshold, 0,
                           table.mats(), scratch, m);
      }
      nearest_s += now_s() - t;
    }
    tr.end(root);
  }
  double kernel_s = 0.0, row_queries = 0.0;
  {
    const int root = tr.begin("knn_embed.kernel");
    std::vector<std::uint64_t> within;
    std::vector<std::uint16_t> dist;
    for (int i = 0; i < kProbeQueries; ++i) {
      const auto q = static_cast<std::size_t>(i * (kQueries / kProbeQueries));
      const auto pq = fe::PackedQuery::pack(in.trace.queries[q]);
      const double t = now_s();
      {
        Scope span(&tr, "approx_kernel.approx_match", root, q);
        for (int m = 0; m < table.mats(); ++m) {
          fe::approx_match(table.shard(m), pq, kDigitBits, kThreshold, within,
                           dist);
        }
      }
      kernel_s += now_s() - t;
      row_queries += static_cast<double>(kMats) * kRowsPerMat;
    }
    tr.end(root);
  }

  const double rate_t = static_cast<double>(plain.queries) / plain.wall;
  const double rate_1 = static_cast<double>(single.queries) / single.wall;
  out.add("table.nearest_us_per_query", nearest_s / kProbeQueries * 1e6, "us");
  out.add("approx_kernel.ns_per_row_query", kernel_s / row_queries * 1e9, "ns");
  out.add("engine.thread_scaling", rate_t / rate_1, "ratio");
  if (subject) {
    const double overhead =
        (traced.wall / static_cast<double>(traced.queries)) /
        (plain.wall / static_cast<double>(plain.queries));
    tr.report_subject(ctx, overhead, out);
  }
}

}  // namespace perfbench
