#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "engine/packed_kernel.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  if (!(f >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice, so it is not added again).
  std::uint64_t v[8] = {};
  for (auto& x : v) {
    if (!(f >> x)) return t;
  }
  for (const auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::fail(const std::string& why) {
  if (correct) notes.push_back("check failed: " + why);
  correct = false;
}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

int Tracer::begin(const char* name, int parent, std::uint64_t id) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.id = id;
  s.tid = thread_index();
  s.t0 = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  const double t = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].t1 = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    if (name == s.name && s.t1 >= s.t0) out.push_back(s.t1 - s.t0);
  }
  return out;
}

namespace {

/// Root span of every span (index of the ancestor whose parent is -1).
std::vector<int> roots_of(const std::vector<Tracer::Span>& spans) {
  std::vector<int> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int r = static_cast<int>(i);
    while (spans[static_cast<std::size_t>(r)].parent >= 0) {
      r = spans[static_cast<std::size_t>(r)].parent;
    }
    root[i] = r;
  }
  return root;
}

/// Length of the union of [a, b) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
    } else {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace

double Tracer::unattributed_share() const {
  const auto all = spans();
  const auto root = roots_of(all);
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[root[i]].emplace_back(all[i].t0, all[i].t1);
    }
  }
  double wall = 0.0, cov = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) continue;
    wall += all[i].t1 - all[i].t0;
    cov += covered(children[static_cast<int>(i)], all[i].t0, all[i].t1);
  }
  return wall > 0.0 ? std::max(0.0, 1.0 - cov / wall) : 0.0;
}

std::map<std::string, double> Tracer::self_times() const {
  const auto all = spans();
  std::vector<std::vector<std::pair<double, double>>> kids(all.size());
  for (const auto& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name] += (all[i].t1 - all[i].t0) -
                        covered(kids[i], all[i].t0, all[i].t1);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const auto all = spans();
  double epoch = all.empty() ? 0.0 : all.front().t0;
  for (const auto& s : all) epoch = std::min(epoch, s.t0);
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"trace_id\":%llu}}%s\n",
                  s.name, (s.t0 - epoch) * 1e6, (s.t1 - s.t0) * 1e6, s.tid, i,
                  s.parent, static_cast<unsigned long long>(s.id),
                  i + 1 < all.size() ? "," : "");
    f << buf;
  }
  f << "]\n";
  return static_cast<bool>(f);
}

void Tracer::report_subject(const Context& ctx, double overhead,
                            Report& out) const {
  out.add("trace_overhead", overhead, "ratio");
  out.add("unattributed_share", unattributed_share(), "ratio");
  for (const auto& [name, self] : self_times()) {
    out.notes.push_back("self_s " + name + " " + std::to_string(self));
  }
  if (!ctx.trace_out.empty() && !write_chrome(ctx.trace_out)) {
    out.notes.push_back("could not write " + ctx.trace_out);
  }
}

std::string kernel_tier() {
  return fetcam::engine::kernel_tier_name(
      fetcam::engine::active_kernel_tier());
}

}  // namespace perfbench
