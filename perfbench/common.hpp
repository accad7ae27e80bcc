// Shared plumbing of the benchmark binary: arguments, metric records,
// process-level measurements (CPU time, peak RSS), order statistics, and the
// forwarding store that times every vector acquire in traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ooc/ooc_store.hpp"
#include "session.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for generated inputs
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value. Units live in the metric tables of main.cpp,
  /// which also reject names they do not list.
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (diagnostics).
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// A correctness failure: the run is wrong and counts as failed.
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    note("CORRECTNESS FAILURE: " + why);
  }
};

using Clock = std::chrono::steady_clock;

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds (all threads).
double cpu_seconds();
/// Starts a peak-memory window: returns freed heap to the OS and resets the
/// kernel's resident high-water mark, so setup and earlier phases do not
/// count in the next peak_rss_mb().
void reset_peak_rss();
/// Peak resident set size since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Host CPU time stolen by the hypervisor so far, in seconds summed over
/// CPUs (/proc/stat); a diagnostic for noisy timings on shared hosts.
double steal_seconds();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Bit pattern of a double, for bit-identity checks.
std::uint64_t bits(double value);

/// "<workdir>/<name>"
std::string work_path(const Args& args, const std::string& name);

/// Counters of a traced store: every acquire is timed and classified as a
/// hit or a miss from the wrapped store's miss-counter delta.
struct AcquireTrace {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;  ///< write-mode acquires = newview calls
  double hit_seconds = 0.0;
  double stall_seconds = 0.0;  ///< all acquire time, hits and misses
  std::vector<double> miss_us;
};

/// Forwarding AncestralStore used by traced runs: the engine acquires
/// through it, it acquires from the real store and keeps the lease until the
/// engine releases.
class TimedStore final : public plfoc::AncestralStore {
 public:
  explicit TimedStore(plfoc::AncestralStore& inner)
      : AncestralStore(inner.count(), inner.width()),
        inner_(inner),
        leases_(inner.count()) {}

  const char* backend_name() const override { return inner_.backend_name(); }
  const AcquireTrace& trace() const { return trace_; }
  void reset_trace() { trace_ = AcquireTrace{}; }

 protected:
  double* do_acquire(std::uint32_t index, plfoc::AccessMode mode) override {
    const std::uint64_t misses_before = inner_.stats_snapshot().misses;
    const auto start = Clock::now();
    plfoc::VectorLease lease = inner_.acquire(index, mode);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    trace_.stall_seconds += seconds;
    if (mode == plfoc::AccessMode::kWrite) ++trace_.writes;
    if (inner_.stats_snapshot().misses != misses_before) {
      ++trace_.misses;
      trace_.miss_us.push_back(seconds * 1e6);
    } else {
      ++trace_.hits;
      trace_.hit_seconds += seconds;
    }
    double* data = lease.data();
    leases_[index] = std::move(lease);
    return data;
  }
  void do_release(std::uint32_t index) override { leases_[index].release(); }

 private:
  plfoc::AncestralStore& inner_;
  std::vector<plfoc::VectorLease> leases_;
  AcquireTrace trace_;
};

/// A likelihood engine on `session`'s alignment, tree and model that
/// acquires through `timed`, a TimedStore around session.store(), so a traced
/// run computes on the very store an untraced run builds. The session's own
/// engine stays idle while this one runs. Single-threaded sessions only: the
/// session's kernel pool is not shared.
std::unique_ptr<plfoc::LikelihoodEngine> traced_engine(plfoc::Session& session,
                                                       TimedStore& timed);

/// The `ooc.*` per-layer metrics: acquire timings from a TimedStore plus the
/// wrapped store's counters and the backing file's operation count.
void set_store_metrics(Outcome& out, const AcquireTrace& trace,
                       const plfoc::OocStats& stats, std::uint64_t io_ops);

/// The `likelihood.*` kernel metrics (ns per pattern, computed flops and
/// bytes per pattern, achieved GB/s, 2-thread newview speedup), timed on
/// synthetic vectors of the given dimensions. `dna_patterns` sizes the
/// 4-state kernels; `aa_patterns` the 20-state newview (0 = the workload has
/// no 20-state data, reported as 0).
void set_kernel_metrics(Outcome& out, std::size_t dna_patterns,
                        std::size_t aa_patterns);

/// The workloads (search.cpp, traverse.cpp, serve.cpp).
Outcome search_workload(const Args& args);
Outcome traverse_workload(const Args& args);
Outcome serve_workload(const Args& args);

}  // namespace perfbench
