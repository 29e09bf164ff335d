// lpm_wire: IP longest-prefix match served over the wire protocol.
//
// One loopback SearchClient connection sends 64-query kSearchBatch frames
// in a closed loop at a fixed pipeline depth.  It is the only workload that
// crosses the server's read/decode, the completion hand-off and the reply
// encoding; its small, well-pruned table makes fixed per-frame and
// per-query costs dominate.  The engine gets one thread: client, server IO,
// completion and engine threads then fill a 4-CPU host exactly.
#include <array>
#include <deque>
#include <future>
#include <memory>

#include "checks.hpp"
#include "common.hpp"
#include "engine/client.hpp"
#include "engine/engine.hpp"
#include "engine/server.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace fe = fetcam::engine;
using fetcam::arch::BitWord;

constexpr int kCols = 64;
constexpr int kRules = 2048;
constexpr int kQueries = 16384;  // one round
constexpr int kFrame = 64;
constexpr int kDepth = 8;
constexpr int kMats = 8;
constexpr int kRowsPerMat = 256;
constexpr int kSetupReps = 31;
constexpr double kCensusSeconds = 2.0;

struct Inputs {
  fe::Trace trace;
  std::vector<std::vector<BitWord>> frames;
  std::vector<PackedRule> rules;
  std::vector<std::vector<std::uint64_t>> queries;  // benchmark-packed
  std::vector<int> ref;  // longest matching prefix length, -1 = miss
};

Inputs make_inputs(std::uint64_t seed) {
  fe::TraceSpec spec;
  spec.kind = fe::TraceKind::kIpPrefix;
  spec.cols = kCols;
  spec.rules = kRules;
  spec.queries = kQueries;
  spec.match_rate = 0.25;
  spec.seed = seed;
  Inputs in;
  in.trace = fe::generate_trace(spec);
  for (const auto& r : in.trace.rules) in.rules.push_back(pack_rule(r.entry));
  for (int f = 0; f < kQueries / kFrame; ++f) {
    in.frames.emplace_back(in.trace.queries.begin() + f * kFrame,
                           in.trace.queries.begin() + (f + 1) * kFrame);
  }
  for (const auto& q : in.trace.queries) {
    in.queries.push_back(pack_bits(q));
    in.ref.push_back(longest_prefix(in.rules, in.queries.back()));
  }
  return in;
}

/// Everything a served run holds, destroyed client-first.
struct Served {
  std::unique_ptr<fe::TcamTable> table;
  std::vector<fe::EntryId> ids;
  std::unique_ptr<fe::SearchEngine> engine;
  std::unique_ptr<fe::SearchServer> server;
  std::unique_ptr<fe::SearchClient> client;
  std::vector<int> rule_of;  // entry id -> rule index (-1 = none)
};

fe::TableConfig table_config() {
  fe::TableConfig cfg;
  cfg.mats = kMats;
  cfg.rows_per_mat = kRowsPerMat;
  cfg.cols = kCols;
  return cfg;
}

/// Build the table, start engine and server, connect.  Returns the set-up
/// cost: process CPU time from the first call into the program until a
/// frame can be sent.
double set_up(const Inputs& in, Served& s) {
  const double t0 = cpu_s();
  s.table = std::make_unique<fe::TcamTable>(table_config());
  s.ids = fe::load_rules_clustered(*s.table, in.trace);
  s.engine = std::make_unique<fe::SearchEngine>(*s.table);
  s.server = std::make_unique<fe::SearchServer>(*s.engine, kCols);
  s.server->start();
  s.client = std::make_unique<fe::SearchClient>();
  s.client->connect("127.0.0.1", s.server->port());
  const double dt = cpu_s() - t0;
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    const auto id = static_cast<std::size_t>(s.ids[i]);
    if (id >= s.rule_of.size()) s.rule_of.resize(id + 1, -1);
    s.rule_of[id] = static_cast<int>(i);
  }
  return dt;
}

bool answer_ok(const Inputs& in, const Served& s, std::size_t q, bool hit,
               std::int64_t entry) {
  const int want = in.ref[q];
  if (want < 0) return !hit;
  if (!hit || entry < 0 ||
      static_cast<std::size_t>(entry) >= s.rule_of.size()) {
    return false;
  }
  const int rule = s.rule_of[static_cast<std::size_t>(entry)];
  return rule >= 0 && in.rules[static_cast<std::size_t>(rule)].cared == want &&
         rule_matches(in.rules[static_cast<std::size_t>(rule)], in.queries[q]);
}

/// An entry id whose rule does not match query q (the planted fault).
std::int64_t wrong_entry(const Inputs& in, const Served& s, std::size_t q) {
  for (std::size_t id = 0; id < s.rule_of.size(); ++id) {
    const int rule = s.rule_of[id];
    if (rule >= 0 &&
        !rule_matches(in.rules[static_cast<std::size_t>(rule)], in.queries[q])) {
      return static_cast<std::int64_t>(id);
    }
  }
  return -1;
}

struct Loop {
  double wall = 0.0;
  double cpu = 0.0;
  double steal = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<double> rtt_us;
};

/// Closed loop at kDepth frames in flight, in whole rounds of every frame:
/// it stops sending at the first round boundary after `seconds`.  Every
/// reply is checked against the brute-force reference.
Loop wire_loop(const Inputs& in, Served& s, double seconds, Tracer* tr,
               bool plant) {
  const std::size_t nf = in.frames.size();
  std::array<double, 2 * kDepth> sent_at{};
  Loop res;
  std::uint64_t sent = 0, recvd = 0;
  bool stopped = false;
  const CpuTimes c0 = read_cpu_times();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  int round = tr != nullptr ? tr->begin("lpm_wire.round") : -1;
  const auto send_one = [&] {
    if (sent % nf == 0 && sent > 0 && now_s() - t0 >= seconds) {
      stopped = true;
      return;
    }
    sent_at[sent % sent_at.size()] = now_s();
    {
      Scope span(tr, "client.send_batch", round, sent);
      s.client->send_batch(in.frames[sent % nf], kCols);
    }
    ++sent;
  };
  while (sent < kDepth && !stopped) send_one();
  while (recvd < sent) {
    fe::SearchClient::Reply reply;
    {
      Scope span(tr, "client.recv_reply", round, recvd);
      reply = s.client->recv_reply();
    }
    const double t = now_s();
    res.rtt_us.push_back((t - sent_at[recvd % sent_at.size()]) * 1e6);
    const std::size_t base = (recvd % nf) * kFrame;
    if (!reply.ok || reply.records.size() != static_cast<std::size_t>(kFrame)) {
      res.failed += kFrame;
    } else {
      for (std::size_t k = 0; k < reply.records.size(); ++k) {
        auto rec = reply.records[k];
        if (plant) {
          rec.hit = 1;
          rec.entry = wrong_entry(in, s, base + k);
          plant = false;
        }
        if (!answer_ok(in, s, base + k, rec.hit != 0, rec.entry)) ++res.wrong;
      }
    }
    ++recvd;
    if (recvd % nf == 0) {
      if (tr != nullptr) {
        tr->end(round);
        round = recvd < sent || !stopped ? tr->begin("lpm_wire.round") : -1;
      }
    }
    if (!stopped) send_one();
  }
  if (tr != nullptr && round >= 0) tr->end(round);
  res.wall = now_s() - t0;
  res.cpu = cpu_s() - cpu0;
  res.steal = steal_share(c0, read_cpu_times());
  res.queries = recvd * kFrame;
  return res;
}

void judge(const Loop& l, Report& rep) {
  rep.attempted += l.queries;
  rep.failed += l.failed;
  if (l.wrong > 0) {
    rep.fail("lpm_wire: " + std::to_string(l.wrong) +
             " answers differ from the brute-force longest-prefix match");
  }
}

std::vector<std::vector<fe::Request>> frame_requests(const Inputs& in) {
  std::vector<std::vector<fe::Request>> out;
  for (const auto& f : in.frames) {
    std::vector<fe::Request> reqs;
    for (const auto& q : f) reqs.push_back(fe::make_search(q));
    out.push_back(std::move(reqs));
  }
  return out;
}

}  // namespace

Report run_lpm_wire(const Context& ctx) {
  Report rep;
  const Inputs in = make_inputs(ctx.seed);
  fetcam::util::set_thread_count(1);
  std::vector<double> setups;
  auto s = std::make_unique<Served>();
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) s = std::make_unique<Served>();
    setups.push_back(set_up(in, *s));
  }
  // Warm-up round; it also prices one round of searches on the model.
  const double e0 = s->table->total_energy_j();
  judge(wire_loop(in, *s, 0.0, nullptr, !ctx.plant.empty()), rep);
  s->engine->drain();
  const double energy = (s->table->total_energy_j() - e0) / kQueries;

  const Loop l = wire_loop(in, *s, ctx.seconds, nullptr, false);
  judge(l, rep);
  rep.add("setup_s", median(setups), "s");
  rep.add("cpu_us_per_op", l.cpu / static_cast<double>(l.queries) * 1e6, "us");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("model_energy_fj_per_search", energy * 1e15, "fJ");
  rep.add("result_quality", rep.correct ? 1.0 : 0.0, "ratio");
  rep.notes.push_back(
      "lpm_wire: steal_share=" + std::to_string(l.steal) +
      " ops_per_s=" + std::to_string(static_cast<double>(l.queries) / l.wall) +
      " latency_p50_us=" + std::to_string(median(l.rtt_us)) +
      " frames=" + std::to_string(l.rtt_us.size()) +
      " engine_threads=1 depth=" + std::to_string(kDepth));
  return rep;
}

void trace_lpm_wire(const Context& ctx, bool subject, Report& out) {
  const double budget = subject ? ctx.seconds : kCensusSeconds;
  const Inputs in = make_inputs(ctx.seed);
  fetcam::util::set_thread_count(1);
  Served s;
  set_up(in, s);
  judge(wire_loop(in, s, 0.0, nullptr, false), out);  // warm-up

  // Untraced and traced arms of the same closed loop: their wall time per
  // query is the tracing overhead.
  const Loop plain = wire_loop(in, s, budget / 3, nullptr, false);
  Tracer tr;
  const Loop traced = wire_loop(in, s, budget / 3, &tr, false);
  judge(plain, out);
  judge(traced, out);
  const auto backpressure = s.server->backpressure_stalls();
  s.engine->drain();
  const double windows = static_cast<double>(s.engine->windows());
  const double batches = static_cast<double>(s.engine->batches());
  const double skip_rate =
      static_cast<double>(s.engine->mats_skipped()) /
      static_cast<double>(std::max<long long>(1, s.engine->mats_considered()));

  // The same frames in process, without sockets: synchronous execute, then
  // submit at the wire loop's depth.
  const auto reqs = frame_requests(in);
  {
    const int root = tr.begin("lpm_wire.inproc_execute");
    for (std::size_t f = 0; f < reqs.size(); ++f) {
      auto batch = reqs[f];
      Scope span(&tr, "engine.execute", root, f);
      s.engine->execute(std::move(batch));
    }
    tr.end(root);
  }
  double inproc_qps = 0.0, inproc_cpu = 0.0;
  {
    const int root = tr.begin("lpm_wire.inproc_submit");
    std::deque<std::future<fe::BatchResult>> inflight;
    std::uint64_t n = 0;
    const double t0 = now_s(), cpu0 = cpu_s();
    while (n % reqs.size() != 0 || n == 0 || now_s() - t0 < budget / 6) {
      auto batch = reqs[n % reqs.size()];
      {
        Scope span(&tr, "engine.submit", root, n);
        inflight.push_back(s.engine->submit(std::move(batch)));
      }
      ++n;
      if (inflight.size() >= static_cast<std::size_t>(kDepth)) {
        Scope span(&tr, "engine.wait", root, n - kDepth);
        inflight.front().get();
        inflight.pop_front();
      }
    }
    while (!inflight.empty()) {
      Scope span(&tr, "engine.wait", root, n - inflight.size());
      inflight.front().get();
      inflight.pop_front();
    }
    const double wall = now_s() - t0;
    const double q = static_cast<double>(n * kFrame);
    inproc_qps = q / wall;
    inproc_cpu = (cpu_s() - cpu0) / q * 1e6;
    tr.end(root);
  }

  // Table and kernel layers on the same table, one thread, blocks of 8
  // (the engine is idle: every batch above has completed).
  const auto& table = *s.table;
  double match_s = 0.0;
  {
    const int root = tr.begin("lpm_wire.table");
    fe::BlockMatchScratch scratch;
    std::vector<fe::TableMatch> outs(fe::kMaxQueryBlock);
    for (std::size_t q = 0; q < in.trace.queries.size();
         q += fe::kMaxQueryBlock) {
      const BitWord* qs[fe::kMaxQueryBlock];
      fe::TableMatch* os[fe::kMaxQueryBlock];
      const int nq = static_cast<int>(
          std::min<std::size_t>(fe::kMaxQueryBlock, in.trace.queries.size() - q));
      for (int k = 0; k < nq; ++k) {
        qs[k] = &in.trace.queries[q + static_cast<std::size_t>(k)];
        outs[static_cast<std::size_t>(k)] = fe::TableMatch{};
        os[k] = &outs[static_cast<std::size_t>(k)];
      }
      const double t = now_s();
      {
        Scope span(&tr, "table.match_mats_block", root, q);
        table.match_mats_block(qs, nq, 0, table.mats(), scratch, os);
      }
      match_s += now_s() - t;
    }
    tr.end(root);
  }
  double kernel_s = 0.0;
  double row_queries = 0.0;
  double rows = 0.0, step1_misses = 0.0;
  {
    std::vector<fe::PackedQuery> packed;
    for (const auto& q : in.trace.queries) packed.push_back(fe::PackedQuery::pack(q));
    const int root = tr.begin("lpm_wire.kernel");
    for (int m = 0; m < table.mats(); ++m) {
      const auto& shard = table.shard(m);
      std::vector<std::vector<std::uint64_t>> masks(
          fe::kMaxQueryBlock, std::vector<std::uint64_t>(shard.mask_words()));
      fetcam::arch::SearchStats stats[fe::kMaxQueryBlock];
      for (std::size_t q = 0; q < packed.size(); q += fe::kMaxQueryBlock) {
        const fe::PackedQuery* qs[fe::kMaxQueryBlock];
        std::uint64_t* ms[fe::kMaxQueryBlock];
        const int nq = static_cast<int>(
            std::min<std::size_t>(fe::kMaxQueryBlock, packed.size() - q));
        for (int k = 0; k < nq; ++k) {
          qs[k] = &packed[q + static_cast<std::size_t>(k)];
          ms[k] = masks[static_cast<std::size_t>(k)].data();
        }
        const double t = now_s();
        {
          Scope span(&tr, "packed_kernel.two_step_match_block", root, q);
          shard.two_step_match_block(qs, nq, ms, stats);
        }
        kernel_s += now_s() - t;
        for (int k = 0; k < nq; ++k) {
          rows += stats[k].rows;
          step1_misses += stats[k].step1_misses;
        }
        row_queries += static_cast<double>(shard.rows()) * nq;
      }
    }
    tr.end(root);
  }

  const double plain_cpu = plain.cpu / static_cast<double>(plain.queries) * 1e6;
  out.add("client.send_us", tr.p50("client.send_batch") * 1e6, "us");
  out.add("client.recv_us", tr.p50("client.recv_reply") * 1e6, "us");
  out.add("server.backpressure_stalls",
          static_cast<double>(backpressure), "count");
  out.add("engine.frame_us", tr.p50("engine.execute") * 1e6, "us");
  out.add("engine.inproc_ops_per_s", inproc_qps, "1/s");
  out.add("engine.inproc_cpu_us_per_op", inproc_cpu, "us");
  out.add("wire.cpu_us_per_op", plain_cpu - inproc_cpu, "us");
  out.add("wire.rtt_p99_us", quantile(plain.rtt_us, 0.99), "us");
  out.add("engine.windows_per_batch",
          windows / std::max(1.0, batches), "ratio");
  out.add("table.match_us_per_query",
          match_s / static_cast<double>(in.trace.queries.size()) * 1e6, "us");
  out.add("table.mat_skip_rate", skip_rate, "ratio");
  out.add("packed_kernel.ns_per_row_query", kernel_s / row_queries * 1e9, "ns");
  out.add("packed_kernel.step1_miss_rate", step1_misses / std::max(1.0, rows),
          "ratio");
  if (subject) {
    const double overhead =
        (traced.wall / static_cast<double>(traced.queries)) /
        (plain.wall / static_cast<double>(plain.queries));
    tr.report_subject(ctx, overhead, out);
  }
}

}  // namespace perfbench
