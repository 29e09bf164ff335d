// perfbench_runner: one benchmark run of one workload.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--box FILE] [--trace-out FILE] [--plant-fault KIND]
//   perfbench_runner --regen-box --seed N [--box FILE]
//
// Prints context lines (host record, notes), then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics of the named workload; --trace 1 reports every
// per-layer metric (the named workload in full, the others as a short
// census) plus trace_overhead and unattributed_share of the named one.
// --plant-fault corrupts one answer before it is checked (winner,
// neighbour or frontier) so the checkers can be shown to fail.
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "util/parallel.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_field(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        while (!v.empty() && v.front() == ' ') v.erase(v.begin());
        return v;
      }
    }
  }
  return "unknown";
}

std::string host_record(const Context& ctx, int threads) {
  std::istringstream flags(cpu_field("flags"));
  std::string flag, simd;
  while (flags >> flag) {
    if (flag == "avx2" || flag == "avx512f" || flag == "avx512bw" ||
        flag == "avx512vl" || flag == "avx512_vpopcntdq") {
      simd += (simd.empty() ? "" : " ") + flag;
    }
  }
  std::ostringstream os;
  os << "{\"workload\": \"" << ctx.workload << "\", \"seed\": " << ctx.seed
     << ", \"nproc\": " << nproc() << ", \"cpu\": \""
     << json_escape(cpu_field("model name")) << "\", \"simd_flags\": \""
     << simd << "\", \"kernel_tier\": \"" << kernel_tier()
     << "\", \"threads\": " << threads << "}";
  return os.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 [--box FILE] [--trace-out FILE] "
               "[--plant-fault winner|neighbour|frontier]\n"
               "       perfbench_runner --regen-box --seed N [--box FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  bool regen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " wants a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        ctx.workload = value();
      } else if (a == "--seed") {
        ctx.seed = std::stoull(value());
      } else if (a == "--seconds") {
        ctx.seconds = std::stod(value());
      } else if (a == "--trace") {
        ctx.trace = value() == "1";
      } else if (a == "--box") {
        ctx.box_path = value();
      } else if (a == "--trace-out") {
        ctx.trace_out = value();
      } else if (a == "--plant-fault") {
        ctx.plant = value();
      } else if (a == "--regen-box") {
        regen = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
  }
  if (regen) return regen_box(ctx);

  using RunFn = std::function<Report(const Context&)>;
  using TraceFn = std::function<void(const Context&, bool, Report&)>;
  const std::vector<std::tuple<std::string, RunFn, TraceFn>> workloads = {
      {"lpm_wire", run_lpm_wire, trace_lpm_wire},
      {"acl_churn", run_acl_churn, trace_acl_churn},
      {"knn_embed", run_knn_embed, trace_knn_embed},
      {"dse_sweep", run_dse_sweep, trace_dse_sweep},
  };
  const RunFn* run = nullptr;
  for (const auto& [name, fn, tfn] : workloads) {
    if (name == ctx.workload) run = &fn;
  }
  if (run == nullptr || !(ctx.seconds > 0.0)) return usage();

  Report rep;
  try {
    if (!ctx.trace) {
      rep = (*run)(ctx);
    } else {
      for (const auto& [name, fn, tfn] : workloads) {
        tfn(ctx, name == ctx.workload, rep);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }
  std::cout << "host: " << host_record(ctx, fetcam::util::thread_count())
            << "\n";
  for (const auto& n : rep.notes) std::cout << "note: " << n << "\n";
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (rep.correct ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    os << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
