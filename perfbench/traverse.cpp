// `traverse`: the Fig. 5 worst case — full traversals (every ancestral vector
// recomputed, RAxML's -f z) over a vector footprint of about 320 MiB under a
// 16 MiB RAM budget (f = 0.05, 12 slots): out of core, LRU, read skipping,
// the sync engine, no prefetcher. Miss- and write-dominated (reads are mostly
// skipped), so store, checksum, copy and write-back gains show here; it uses
// the same store as `search` in the opposite mix. The footprint is kept this
// small so that the vector file and the in-RAM reference fit a host with a
// few GiB of memory and disk.
#include <cstdio>
#include <memory>
#include <utility>

#include "common.hpp"
#include "msa/fasta.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "tree/newick.hpp"

namespace perfbench {
namespace {

using namespace plfoc;

constexpr std::size_t kTaxa = 256;
// Sites are drawn for 371 MiB; pattern compression merges ~13% of them,
// leaving a footprint of about 320 MiB.
constexpr std::uint64_t kSiteBytes = 371ull << 20;
constexpr std::uint64_t kRamBudgetBytes = 16ull << 20;
constexpr int kSetups = 25;
constexpr int kMinTraversals = 5;

struct Inputs {
  std::string fasta;
  std::string newick;
  std::string vector_file;
};

Inputs make_inputs(const Args& args) {
  DatasetPlan plan;
  plan.num_taxa = kTaxa;
  plan.target_ancestral_bytes = kSiteBytes;
  plan.seed = args.seed;
  plan.alpha = 0.6;
  const PlannedDataset data = make_dna_dataset(plan);
  Inputs inputs{work_path(args, "traverse.fasta"),
                work_path(args, "traverse.nwk"),
                work_path(args, "traverse.vectors")};
  write_fasta_file(inputs.fasta, data.alignment);
  write_newick_file(inputs.newick, data.tree);
  return inputs;
}

SessionOptions ooc_options(const std::string& vector_file) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_budget_bytes = kRamBudgetBytes;
  options.policy = ReplacementPolicy::kLru;
  options.read_skipping = true;
  options.io_engine = AioEngineKind::kSync;
  options.threads = 1;
  options.vector_file = vector_file;
  options.device = DeviceModel::hdd_2010();
  return options;
}

/// What setup_s times: parse the alignment and tree files, construct the
/// Session (which creates the vector file).
std::unique_ptr<Session> set_up(const Inputs& inputs) {
  std::remove(inputs.vector_file.c_str());
  return std::make_unique<Session>(
      read_fasta_file(inputs.fasta, DataType::kDna),
      read_newick_file(inputs.newick), benchmark_gtr(),
      ooc_options(inputs.vector_file));
}

/// Traced pass: the same traversals on the Session an untraced run builds,
/// through an engine whose store is wrapped in a TimedStore. Returns the
/// median traversal wall time; `logl` receives the (identical) result of
/// every traversal.
double traced_traversals(const Inputs& inputs, int traversals, Outcome& out,
                         double& logl) {
  const std::unique_ptr<Session> session = set_up(inputs);
  OutOfCoreStore& store = *session->out_of_core();
  TimedStore timed(store);
  const std::unique_ptr<LikelihoodEngine> engine_owner =
      traced_engine(*session, timed);
  LikelihoodEngine& engine = *engine_owner;

  logl = engine.full_traversal_log_likelihood();  // first touch, untraced
  store.reset_stats();
  const std::uint64_t io_ops0 = store.file().io_operations();
  timed.reset_trace();
  std::vector<double> walls;
  for (int i = 0; i < traversals; ++i) {
    const double mark = now_s();
    if (bits(engine.full_traversal_log_likelihood()) != bits(logl))
      out.fail("traced traversal " + std::to_string(i) + " changed logL");
    walls.push_back(now_s() - mark);
  }
  double total = 0.0;
  for (double wall : walls) total += wall;

  const AcquireTrace& trace = timed.trace();
  out.set("likelihood.newview_calls", static_cast<double>(trace.writes));
  out.set("likelihood.engine_self_s", total - trace.stall_seconds);
  set_store_metrics(out, trace, store.stats(),
                    store.file().io_operations() - io_ops0);
  std::remove(inputs.vector_file.c_str());
  return median(walls);
}

}  // namespace

Outcome traverse_workload(const Args& args) {
  Outcome out;
  const Inputs inputs = make_inputs(args);

  std::vector<double> setups;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    const double mark = now_s();
    session = set_up(inputs);
    setups.push_back(now_s() - mark);
  }

  // First touch populates the file; every later traversal is steady state.
  const double logl = session->engine().full_traversal_log_likelihood();
  FileBackend& file = session->out_of_core()->file();
  std::vector<double> walls, cpus, devices;
  reset_peak_rss();
  const double start = now_s();
  while (static_cast<int>(walls.size()) < kMinTraversals ||
         (!args.trace && now_s() - start < args.seconds)) {
    const double device0 = file.modeled_device_seconds();
    const double cpu0 = cpu_seconds();
    const double mark = now_s();
    const double value = session->engine().full_traversal_log_likelihood();
    walls.push_back(now_s() - mark);
    cpus.push_back(cpu_seconds() - cpu0);
    devices.push_back(file.modeled_device_seconds() - device0);
    ++out.attempted;
    if (bits(value) != bits(logl))
      out.fail("traversal " + std::to_string(walls.size()) +
               " differs from the first");
  }
  const double peak_rss = peak_rss_mb();
  char line[200];
  std::snprintf(line, sizeof line,
                "traverse: %zu traversals, logL %.10f, %zu patterns, %zu "
                "slots of %zu vectors, miss rate %.4f",
                walls.size(), logl, session->patterns(),
                session->out_of_core()->num_slots(),
                session->store().count(), session->stats().miss_rate());
  out.note(line);
  const std::size_t patterns = session->patterns();
  session.reset();  // frees the slots and the file before the reference

  {
    Session reference(read_fasta_file(inputs.fasta, DataType::kDna),
                      read_newick_file(inputs.newick), benchmark_gtr());
    if (bits(reference.evaluate().log_likelihood) != bits(logl))
      out.fail("out-of-core traversal differs from a fresh in-RAM Session");
  }

  if (args.trace) {
    double traced_logl = 0.0;
    const double traced =
        traced_traversals(inputs, kMinTraversals, out, traced_logl);
    ++out.attempted;
    if (bits(traced_logl) != bits(logl))
      out.fail("traced traversal result differs from the untraced one");
    out.set("bench.trace_overhead", traced / median(walls));
    set_kernel_metrics(out, patterns, 0);
  } else {
    out.set("setup_s", median(setups));
    out.set("wall_s", median(walls));
    out.set("cpu_s", median(cpus));
    out.set("device_s", median(devices));
    out.set("peak_rss_mb", peak_rss);
  }
  std::remove(inputs.vector_file.c_str());
  return out;
}

}  // namespace perfbench
