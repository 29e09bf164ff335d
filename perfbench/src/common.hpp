// Shared plumbing of the benchmark runner: clocks, process CPU time, host
// steal, order statistics, the metric record, and the in-memory span
// tracer used by traced runs.
//
// Everything here lives in the benchmark, not in the program: traced runs
// time the calls the benchmark makes into each layer's public API, so the
// program under test is built and run exactly as its users see it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();
/// CPU time of the whole process (all threads), seconds.  Time the host
/// steals from the VM is not charged to it, which is what keeps CPU-time
/// figures steady on a shared host where wall-clock ones are not.
double cpu_s();
/// Peak resident set of the process, MB.
double peak_rss_mb();
/// CPUs this process may run on (affinity mask), at least 1.
int nproc();

/// Aggregate /proc/stat CPU counters; the difference of two samples gives
/// the steal share of a window.  Both fields stay 0 where /proc/stat is
/// unreadable.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes read_cpu_times();
double steal_share(const CpuTimes& a, const CpuTimes& b);

/// Quantile of a sample by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload reports: the verdict of its checks, its operation
/// counts, its metrics, and free-form host/context lines printed before the
/// result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed check; the run's verdict becomes false.
  void fail(const std::string& why);
};

/// Run parameters shared by every workload.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Planted fault for the checker self-test ("" = none): "winner",
  /// "neighbour" or "frontier".
  std::string plant;
  /// Fixed hypervolume reference box of dse_sweep (JSON file).
  std::string box_path = "perfbench/hv_box.json";
  /// Chrome-trace output of a traced run ("" = do not write).
  std::string trace_out;
};

/// In-memory span recorder.  A span has a name, start and end, the index
/// of its parent span (-1 for a root), and a correlation id shared by the
/// spans of one frame, version or design point.  Thread-safe; spans are
/// written out as Chrome-trace JSON at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double t0 = 0.0;  ///< seconds, now_s() clock
    double t1 = 0.0;
    int parent = -1;
    std::uint64_t id = 0;
    std::uint32_t tid = 0;
  };

  int begin(const char* name, int parent = -1, std::uint64_t id = 0);
  void end(int span);
  std::vector<Span> spans() const;
  /// Durations (seconds) of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Median duration (seconds) of the spans with this name.
  double p50(const std::string& name) const { return median(durations(name)); }
  /// Share of the root spans' total duration that no descendant span
  /// covers (interval union over all threads, clipped to each root).
  double unattributed_share() const;
  /// Per-name self time: duration minus the part covered by child spans.
  std::map<std::string, double> self_times() const;
  bool write_chrome(const std::string& path) const;
  /// For the workload named on the command line: add trace_overhead (traced
  /// over untraced wall time per operation) and unattributed_share, note
  /// every span name's self time, and write the Chrome trace.
  void report_subject(const Context& ctx, double overhead, Report& out) const;

 private:
  static std::uint32_t thread_index();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced arm).
class Scope {
 public:
  Scope(Tracer* t, const char* name, int parent = -1, std::uint64_t id = 0)
      : t_(t), idx_(t != nullptr ? t->begin(name, parent, id) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

// Workload entry points.  run_* measure the end-to-end metrics (untraced);
// trace_* add the workload's per-layer metrics to `out`.  `subject` marks
// the workload named on the command line: it runs for the full --seconds
// and also reports trace_overhead and unattributed_share; the others run a
// short census so that every traced run reports every layer.
Report run_lpm_wire(const Context& ctx);
Report run_acl_churn(const Context& ctx);
Report run_knn_embed(const Context& ctx);
Report run_dse_sweep(const Context& ctx);
void trace_lpm_wire(const Context& ctx, bool subject, Report& out);
void trace_acl_churn(const Context& ctx, bool subject, Report& out);
void trace_knn_embed(const Context& ctx, bool subject, Report& out);
void trace_dse_sweep(const Context& ctx, bool subject, Report& out);
/// Write the exhaustive-sweep reference box for dse_sweep to ctx.box_path.
int regen_box(const Context& ctx);

/// Name of the match-kernel tier the program selected, for the host record.
std::string kernel_tier();

}  // namespace perfbench
