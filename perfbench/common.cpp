// Shared helpers of the benchmark binary (declared in common.hpp).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // Linux: reset VmHWM
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

std::string work_path(const Args& args, const std::string& name) {
  return args.workdir + "/" + name;
}

std::unique_ptr<plfoc::LikelihoodEngine> traced_engine(plfoc::Session& session,
                                                       TimedStore& timed) {
  if (session.options().threads > 1)
    throw std::invalid_argument("traced_engine: multi-threaded session");
  return std::make_unique<plfoc::LikelihoodEngine>(
      session.alignment(), session.tree(), session.engine().config(), timed);
}

void set_store_metrics(Outcome& out, const AcquireTrace& trace,
                       const plfoc::OocStats& stats, std::uint64_t io_ops) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("ooc.acquire_hit_ns",
          trace.hits == 0 ? 0.0 : trace.hit_seconds * 1e9 / count(trace.hits));
  out.set("ooc.acquire_miss_us", median(trace.miss_us));
  out.set("ooc.acquire_miss_us_p90", quantile(trace.miss_us, 0.9));
  out.set("ooc.stall_s", trace.stall_seconds);
  out.set("ooc.accesses", count(stats.accesses));
  out.set("ooc.misses", count(stats.misses));
  out.set("ooc.miss_rate", stats.miss_rate());
  out.set("ooc.skipped_reads", count(stats.skipped_reads));
  out.set("ooc.read_skip_rate", stats.read_skip_rate());
  out.set("ooc.file_reads", count(stats.file_reads));
  out.set("ooc.file_writes", count(stats.file_writes));
  out.set("ooc.evictions", count(stats.evictions));
  out.set("ooc.bytes_read", count(stats.bytes_read));
  out.set("ooc.bytes_written", count(stats.bytes_written));
  out.set("ooc.io_ops", count(io_ops));
  out.set("ooc.io_batches", count(stats.io_batches));
  out.set("ooc.io_coalesced", count(stats.io_coalesced));
  out.set("ooc.prefetch_reads", count(stats.prefetch_reads));
  out.set("ooc.prefetch_wasted", count(stats.prefetch_wasted));
  out.set("ooc.prefetch_useful_ratio",
          stats.prefetch_reads == 0
              ? 0.0
              : 1.0 - count(stats.prefetch_wasted) /
                          count(stats.prefetch_reads));
}

}  // namespace perfbench
