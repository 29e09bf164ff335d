// Workload layer: trace generation determinism and shape, trace file
// round-trip, and the run harness's aggregate accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "engine/workload.hpp"

namespace fetcam::engine {
namespace {

TEST(Workload, GenerationIsDeterministic) {
  TraceSpec spec;
  spec.kind = TraceKind::kClassifier;
  spec.cols = 32;
  spec.rules = 64;
  spec.queries = 200;
  spec.seed = 9;
  const Trace a = generate_trace(spec);
  const Trace b = generate_trace(spec);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (std::size_t r = 0; r < a.rules.size(); ++r) {
    EXPECT_EQ(a.rules[r].entry, b.rules[r].entry) << r;
    EXPECT_EQ(a.rules[r].priority, b.rules[r].priority) << r;
  }
  ASSERT_EQ(a.queries, b.queries);

  spec.seed = 10;
  const Trace c = generate_trace(spec);
  bool any_diff = false;
  for (std::size_t r = 0; r < a.rules.size() && !any_diff; ++r) {
    any_diff = a.rules[r].entry != c.rules[r].entry;
  }
  EXPECT_TRUE(any_diff) << "different seeds give different traces";
}

TEST(Workload, AppendingQueriesPreservesPrefix) {
  // Counter-keyed generation: growing the trace must not disturb what was
  // already generated.
  TraceSpec spec;
  spec.cols = 16;
  spec.rules = 32;
  spec.queries = 50;
  const Trace small = generate_trace(spec);
  spec.queries = 100;
  const Trace big = generate_trace(spec);
  for (std::size_t q = 0; q < small.queries.size(); ++q) {
    EXPECT_EQ(small.queries[q], big.queries[q]) << q;
  }
  for (std::size_t r = 0; r < small.rules.size(); ++r) {
    EXPECT_EQ(small.rules[r].entry, big.rules[r].entry) << r;
  }
}

TEST(Workload, IpPrefixRulesAreContiguousPrefixes) {
  TraceSpec spec;
  spec.kind = TraceKind::kIpPrefix;
  spec.cols = 32;
  spec.rules = 100;
  spec.queries = 0;
  const Trace t = generate_trace(spec);
  for (const auto& rule : t.rules) {
    ASSERT_EQ(static_cast<int>(rule.entry.size()), spec.cols);
    // Once a rule goes 'X' it stays 'X' (host bits), and priority is
    // cols - prefix_len so longer prefixes win.
    int len = 0;
    bool in_host = false;
    for (const auto d : rule.entry) {
      if (d == arch::Ternary::kX) {
        in_host = true;
      } else {
        EXPECT_FALSE(in_host) << "care digit after host bits";
        ++len;
      }
    }
    EXPECT_EQ(rule.priority, spec.cols - len);
  }
}

TEST(Workload, MatchRateIsRoughlyHonored) {
  TraceSpec spec;
  spec.kind = TraceKind::kIpPrefix;
  spec.cols = 32;
  spec.rules = 64;
  spec.queries = 2000;
  spec.match_rate = 0.5;
  spec.seed = 4;
  const Trace trace = generate_trace(spec);

  TableConfig cfg;
  cfg.mats = 2;
  cfg.rows_per_mat = 64;
  cfg.cols = 32;
  cfg.subarrays_per_mat = 2;
  TcamTable table(cfg);
  load_rules(table, trace);

  int hits = 0;
  BlockMatchScratch scratch;
  TableMatch m;
  for (const auto& q : trace.queries) {
    table.match(q, scratch, m);
    if (m.hit) ++hits;
  }
  // Derived queries always hit; uniform ones may accidentally hit a short
  // prefix too, so the hit rate brackets match_rate from above.
  const double hit_rate = static_cast<double>(hits) / spec.queries;
  EXPECT_GE(hit_rate, 0.45);
  EXPECT_LE(hit_rate, 0.95);
}

TEST(Workload, SaveLoadRoundTrip) {
  TraceSpec spec;
  spec.kind = TraceKind::kClassifier;
  spec.cols = 24;
  spec.rules = 20;
  spec.queries = 30;
  const Trace t = generate_trace(spec);
  const std::string path = "workload_roundtrip_test.trace";
  ASSERT_TRUE(save_trace(t, path));
  const auto back = load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cols, t.cols);
  ASSERT_EQ(back->rules.size(), t.rules.size());
  for (std::size_t r = 0; r < t.rules.size(); ++r) {
    EXPECT_EQ(back->rules[r].entry, t.rules[r].entry) << r;
    EXPECT_EQ(back->rules[r].priority, t.rules[r].priority) << r;
  }
  EXPECT_EQ(back->queries, t.queries);
}

TEST(Workload, LoadRejectsGarbage) {
  EXPECT_FALSE(load_trace("does_not_exist.trace").has_value());
}

TEST(Workload, RunTraceAggregatesMatchTheEngine) {
  TraceSpec spec;
  spec.cols = 16;
  spec.rules = 40;
  spec.queries = 500;
  spec.match_rate = 0.3;
  const Trace trace = generate_trace(spec);

  TableConfig cfg;
  cfg.mats = 2;
  cfg.rows_per_mat = 32;
  cfg.cols = 16;
  cfg.subarrays_per_mat = 2;
  TcamTable table(cfg);
  const auto ids = load_rules(table, trace);

  SearchEngine engine(table);
  RunOptions opts;
  opts.batch_size = 64;
  opts.update_rate = 0.05;
  const RunSummary s = run_trace(engine, table, trace, ids, opts);

  // update_rate converts query slots into rewrites, so searches + writes
  // partition the trace.
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(spec.queries));
  EXPECT_EQ(s.requests, s.searches + s.writes);
  EXPECT_GT(s.writes, 0u) << "update_rate=0.05 over 500 queries";
  EXPECT_EQ(s.requests, engine.requests());
  EXPECT_EQ(s.batches, engine.batches());
  EXPECT_GT(s.hits, 0u);
  EXPECT_NEAR(s.hit_rate, static_cast<double>(s.hits) / s.searches, 1e-12);
  EXPECT_GT(s.step1_miss_rate, 0.0);
  EXPECT_LE(s.step1_miss_rate, 1.0);
  EXPECT_GT(s.energy_j, 0.0);
  EXPECT_GT(s.energy_per_search_j, 0.0);
  EXPECT_GT(s.model_time_s, 0.0);
  EXPECT_GT(s.write_cycles, 0);
  EXPECT_GE(s.wall_s, 0.0);
  EXPECT_GE(s.p99_batch_us, s.p50_batch_us);
}

TEST(Workload, LoadRulesThrowsWhenTableTooSmall) {
  TraceSpec spec;
  spec.cols = 16;
  spec.rules = 40;
  spec.queries = 0;
  const Trace trace = generate_trace(spec);
  TableConfig cfg;
  cfg.mats = 1;
  cfg.rows_per_mat = 16;
  cfg.cols = 16;
  cfg.subarrays_per_mat = 2;
  TcamTable table(cfg);
  EXPECT_THROW(load_rules(table, trace), std::invalid_argument);
}

}  // namespace
}  // namespace fetcam::engine
