// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload search|traverse|serve --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric. Metrics of a layer that the
// workload does not put on its path read 0. The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the host and build fingerprint.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "likelihood/kernels_internal.hpp"
#include "util/args.hpp"
#include "util/checks.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" list.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},
    {"device_s", "s"},      {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Must match BENCHMARK.json's "per_layer" list.
constexpr MetricSpec kPerLayer[] = {
    {"likelihood.newview_ii_ns_pp", "ns"},
    {"likelihood.newview_ti_ns_pp", "ns"},
    {"likelihood.newview_aa_ns_pp", "ns"},
    {"likelihood.evaluate_ns_pp", "ns"},
    {"likelihood.evaluate_d_ns_pp", "ns"},
    {"likelihood.newview_2t_speedup", "ratio"},
    {"likelihood.newview_ii_flops_pp", "flop"},
    {"likelihood.newview_ii_bytes_pp", "B"},
    {"likelihood.newview_ii_gbs", "GB/s"},
    {"likelihood.newview_ti_flops_pp", "flop"},
    {"likelihood.newview_ti_bytes_pp", "B"},
    {"likelihood.newview_ti_gbs", "GB/s"},
    {"likelihood.newview_aa_flops_pp", "flop"},
    {"likelihood.newview_aa_bytes_pp", "B"},
    {"likelihood.newview_aa_gbs", "GB/s"},
    {"likelihood.evaluate_flops_pp", "flop"},
    {"likelihood.evaluate_bytes_pp", "B"},
    {"likelihood.evaluate_gbs", "GB/s"},
    {"likelihood.evaluate_d_flops_pp", "flop"},
    {"likelihood.evaluate_d_bytes_pp", "B"},
    {"likelihood.evaluate_d_gbs", "GB/s"},
    {"likelihood.newview_calls", "count"},
    {"likelihood.engine_self_s", "s"},
    {"ooc.acquire_hit_ns", "ns"},
    {"ooc.acquire_miss_us", "us"},
    {"ooc.acquire_miss_us_p90", "us"},
    {"ooc.stall_s", "s"},
    {"ooc.accesses", "count"},
    {"ooc.misses", "count"},
    {"ooc.miss_rate", "ratio"},
    {"ooc.skipped_reads", "count"},
    {"ooc.read_skip_rate", "ratio"},
    {"ooc.file_reads", "count"},
    {"ooc.file_writes", "count"},
    {"ooc.evictions", "count"},
    {"ooc.bytes_read", "B"},
    {"ooc.bytes_written", "B"},
    {"ooc.io_ops", "count"},
    {"ooc.io_batches", "count"},
    {"ooc.io_coalesced", "count"},
    {"ooc.prefetch_reads", "count"},
    {"ooc.prefetch_wasted", "count"},
    {"ooc.prefetch_useful_ratio", "ratio"},
    {"session.construct_ms.dna-small", "ms"},
    {"session.construct_ms.dna-ooc", "ms"},
    {"session.construct_ms.protein", "ms"},
    {"session.evaluate_ms.dna-small", "ms"},
    {"session.evaluate_ms.dna-ooc", "ms"},
    {"session.evaluate_ms.protein", "ms"},
    {"msa.parse_ms.dna-small", "ms"},
    {"msa.parse_ms.dna-ooc", "ms"},
    {"msa.parse_ms.protein", "ms"},
    {"net.overhead_ms_p50", "ms"},
    {"net.overhead_ms_p99", "ms"},
    {"net.busy_rejects", "count"},
    {"net.encode_submit_us", "us"},
    {"net.decode_result_us", "us"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p99", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.run_ms_p99", "ms"},
    {"service.degraded", "count"},
    {"service.shed", "count"},
    {"service.expired", "count"},
    {"cache.hit_rate", "ratio"},
    {"cache.lookups", "count"},
    {"cache.hits", "count"},
    {"search.smoothing_s", "s"},
    {"search.model_opt_s", "s"},
    {"search.spr_s", "s"},
    {"search.spr_insertions_tried", "count"},
    {"search.spr_moves_accepted", "count"},
    {"bench.latency_p50_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.generator_late_ms_p99", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.fail_frac", "ratio"},
};

std::string read_first_line_matching(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      std::size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

std::string llc_size() {
  // The highest cache index is the last level.
  std::string size = "unknown";
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream in(dir + "/size");
    if (!in) break;
    std::getline(in, size);
  }
  return size;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Host and build fingerprint as one JSON object.
std::string fingerprint_json() {
  std::ostringstream out;
  out << "{\"cpu\": \""
      << json_escape(read_first_line_matching("/proc/cpuinfo", "model name"))
      << "\", \"kernel_isa\": \""
      << (plfoc::detail::cpu_has_avx2() ? "avx2" : "scalar")
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"llc\": \"" << json_escape(llc_size())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\"}";
  return out.str();
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::uint64_t trace = 0;
  plfoc::ArgParser parser("perfbench", "plfoc's benchmark (see README.md)");
  parser
      .add_string("workload", &args.workload, "search | traverse | serve",
                  true)
      .add_uint("seed", &args.seed, "input generation seed", true)
      .add_double("seconds", &args.seconds, "length of the timed phase", true)
      .add_uint("trace", &trace, "1: traced run, per-layer metrics", true)
      .add_string("workdir", &args.workdir, "directory for generated inputs",
                  true);
  parser.parse(argc - 1, argv + 1);
  PLFOC_REQUIRE(args.seconds > 0.0, "--seconds must be positive");
  args.trace = trace != 0;
  return args;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  Outcome outcome;
  try {
    args = parse_args(argc, argv);
    if (args.workload == "search") {
      outcome = search_workload(args);
    } else if (args.workload == "traverse") {
      outcome = traverse_workload(args);
    } else if (args.workload == "serve") {
      outcome = serve_workload(args);
    } else {
      throw std::runtime_error("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  if (args.trace) {
    outcome.set("bench.fail_frac",
                outcome.attempted == 0
                    ? 0.0
                    : static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted));
  }

  // Every listed metric is printed; a traced run may leave a layer it does
  // not exercise unset (0), an untraced run must set every metric, and no
  // run may produce a name the table does not list.
  const std::span<const MetricSpec> table =
      args.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& [name, value] : outcome.metrics) {
    const bool listed =
        std::any_of(table.begin(), table.end(),
                    [&](const MetricSpec& spec) { return name == spec.name; });
    if (!listed) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return 1;
    }
  }
  std::ostringstream metrics;
  for (const MetricSpec& spec : table) {
    const auto it = outcome.metrics.find(spec.name);
    if (it == outcome.metrics.end() && !args.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), spec.name);
      return 1;
    }
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", spec.name);
      return 1;
    }
    metrics << (&spec == table.data() ? "" : ", ") << "\"" << spec.name
            << "\": {\"value\": " << json_number(value) << ", \"unit\": \""
            << spec.unit << "\"}";
  }

  for (const std::string& line : outcome.notes)
    std::printf("# %s\n", line.c_str());
  std::printf("fingerprint: %s\n", fingerprint_json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      metrics.str().c_str());
  return 0;
}
