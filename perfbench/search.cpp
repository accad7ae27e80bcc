// `search`: the paper's ML-search traffic (Sec. 4.2) — one smoothing pass,
// Γ-shape optimisation and one lazy-SPR round on 256 taxa × 1000 DNA sites,
// out of core at f = 0.25 with LRU, the sync engine and one kernel thread.
// Kernel-bound with the store mostly hitting: kernel, engine and search gains
// show here, I/O gains barely do.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "common.hpp"
#include "likelihood/model_opt.hpp"
#include "msa/fasta.hpp"
#include "search/search.hpp"
#include "search/stepwise.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "sim/simulate.hpp"
#include "tree/random_tree.hpp"

namespace perfbench {
namespace {

using namespace plfoc;

constexpr std::size_t kTaxa = 256;
constexpr std::size_t kSites = 1000;
constexpr double kRamFraction = 0.25;
constexpr int kMinPasses = 3;
constexpr std::uint64_t kSpeciesTreeSeed = 0x5eed0000;

SessionOptions ooc_options(const std::string& vector_file) {
  SessionOptions options;
  options.backend = Backend::kOutOfCore;
  options.ram_fraction = kRamFraction;
  options.policy = ReplacementPolicy::kLru;
  options.io_engine = AioEngineKind::kSync;
  options.threads = 1;
  options.vector_file = vector_file;
  options.device = DeviceModel::hdd_2010();
  return options;
}

/// The search configuration of bench/bench_common.hpp's
/// run_search_workload at paper scale.
SearchOptions search_options() {
  SearchOptions search;
  search.initial_smoothing_passes = 1;
  search.optimize_model = true;
  search.model.tolerance = 1e-2;
  search.spr.rounds = 1;
  search.spr.radius_max = 5;
  search.spr.prune_stride = 16;
  search.final_smoothing_passes = 0;
  return search;
}

/// One search dataset: an alignment file and the seed of its stepwise-
/// addition starting tree.
struct Dataset {
  std::string fasta;
  std::uint64_t tree_seed;
};

/// The run's datasets. One search's modeled device time varies by about
/// ±40% between datasets of the same shape (how many vectors the lazy-SPR
/// round misses depends on where its moves land), so a run summarizes
/// several.
/// Dataset i evolves on species tree i and is started from parsimony seed i,
/// both the same for every run; --seed draws the sequences. The count
/// follows from --seconds and a pass's ~2.5 s on the reference host, never
/// from measured speed, so a run's datasets depend on its seed and length
/// only.
std::vector<Dataset> make_datasets(const Args& args) {
  const std::size_t count = std::max<std::size_t>(
      kMinPasses, static_cast<std::size_t>(std::lround(args.seconds / 2.5)));
  std::vector<Dataset> datasets;
  for (std::size_t i = 0; i < count; ++i) {
    Rng tree_rng(kSpeciesTreeSeed + i);
    const Tree species = random_tree(kTaxa, tree_rng);
    Rng sequence_rng(args.seed * 1000 + i);
    SimulationOptions simulation;
    simulation.alpha = 0.6;
    datasets.push_back(
        {work_path(args, "search-" + std::to_string(i) + ".fasta"),
         kSpeciesTreeSeed + count + i});
    write_fasta_file(datasets.back().fasta,
                     simulate_alignment(species, benchmark_gtr(), kSites,
                                        sequence_rng, simulation));
  }
  return datasets;
}

/// What setup_s times: parse the alignment file, build the stepwise-addition
/// starting tree, construct the Session.
std::unique_ptr<Session> set_up(const Dataset& dataset,
                                const std::string& vector_file) {
  std::remove(vector_file.c_str());
  Alignment alignment = read_fasta_file(dataset.fasta, DataType::kDna);
  Rng rng(dataset.tree_seed);
  StepwiseOptions stepwise;
  stepwise.max_candidates = 64;
  Tree tree = stepwise_addition_tree(alignment, rng, stepwise);
  return std::make_unique<Session>(std::move(alignment), std::move(tree),
                                   benchmark_gtr(), ooc_options(vector_file));
}

/// A finished pass: its final tree and Γ shape, and the log likelihood the
/// out-of-core session computed for them at the default root branch.
struct PassResult {
  Tree tree;
  double alpha = 1.0;
  double logl = 0.0;
};

/// The same tree and Γ shape evaluated on a fresh in-RAM Session must give
/// the out-of-core result bit for bit.
bool matches_in_ram(const Dataset& dataset, const PassResult& pass) {
  SessionOptions in_ram;
  in_ram.alpha = pass.alpha;
  Session reference(read_fasta_file(dataset.fasta, DataType::kDna), pass.tree,
                    benchmark_gtr(), in_ram);
  return bits(reference.evaluate().log_likelihood) == bits(pass.logl);
}

/// Per-layer run: the search phases called one by one on the Session an
/// untraced pass builds, through an engine whose store is wrapped in a
/// TimedStore.
struct TracedSearch {
  double wall = 0.0;
  double logl = 0.0;
  std::size_t patterns = 0;
};

TracedSearch traced_search(const Dataset& dataset,
                           const std::string& vector_file, Outcome& out) {
  const std::unique_ptr<Session> session = set_up(dataset, vector_file);
  OutOfCoreStore& store = *session->out_of_core();
  TimedStore timed(store);
  const std::unique_ptr<LikelihoodEngine> engine_owner =
      traced_engine(*session, timed);
  LikelihoodEngine& engine = *engine_owner;

  const SearchOptions options = search_options();
  const double start = now_s();
  engine.log_likelihood();
  double mark = now_s();
  engine.optimize_all_branches(options.initial_smoothing_passes);
  out.set("search.smoothing_s", now_s() - mark);
  mark = now_s();
  optimize_model(engine, options.model);
  out.set("search.model_opt_s", now_s() - mark);
  mark = now_s();
  const SprResult spr = spr_search(engine, options.spr);
  out.set("search.spr_s", now_s() - mark);
  TracedSearch traced;
  traced.wall = now_s() - start;
  out.set("search.spr_insertions_tried",
          static_cast<double>(spr.insertions_tried));
  out.set("search.spr_moves_accepted",
          static_cast<double>(spr.moves_accepted));

  const AcquireTrace& trace = timed.trace();
  out.set("likelihood.newview_calls", static_cast<double>(trace.writes));
  out.set("likelihood.engine_self_s", traced.wall - trace.stall_seconds);
  set_store_metrics(out, trace, store.stats(), store.file().io_operations());
  traced.logl = engine.log_likelihood();
  traced.patterns = session->patterns();
  return traced;
}

}  // namespace

Outcome search_workload(const Args& args) {
  Outcome out;
  const std::vector<Dataset> datasets = make_datasets(args);
  const std::string vector_file = work_path(args, "search.vectors");

  // A traced run times one untraced pass, then the same pass traced.
  const std::size_t passes = args.trace ? 1 : datasets.size();
  std::vector<double> setups, walls, cpus, devices, peaks;
  std::vector<PassResult> results;
  double miss_rate = 0.0;
  for (std::size_t i = 0; i < passes; ++i) {
    reset_peak_rss();
    double mark = now_s();
    std::unique_ptr<Session> session = set_up(datasets[i], vector_file);
    setups.push_back(now_s() - mark);

    const FileBackend& file = session->out_of_core()->file();
    const double device0 = file.modeled_device_seconds();
    const double cpu0 = cpu_seconds();
    mark = now_s();
    run_search(session->engine(), search_options());
    walls.push_back(now_s() - mark);
    cpus.push_back(cpu_seconds() - cpu0);
    devices.push_back(file.modeled_device_seconds() - device0);
    ++out.attempted;
    miss_rate += session->stats().miss_rate() / static_cast<double>(passes);
    char line[120];
    std::snprintf(line, sizeof line,
                  "  pass %zu: wall %.3f s, device %.2f s, miss rate %.4f", i,
                  walls.back(), devices.back(), session->stats().miss_rate());
    out.note(line);
    results.push_back({session->tree(), session->engine().config().alpha,
                       session->engine().log_likelihood()});
    peaks.push_back(peak_rss_mb());
  }
  std::remove(vector_file.c_str());

  for (std::size_t i = 0; i < passes; ++i)
    if (!matches_in_ram(datasets[i], results[i]))
      out.fail("search pass " + std::to_string(i) +
               " differs from a fresh in-RAM Session");
  char line[160];
  std::snprintf(line, sizeof line,
                "search: %zu passes of %zu taxa, mean miss rate %.4f",
                passes, kTaxa, miss_rate);
  out.note(line);

  // Per-dataset costs are right-skewed (a few searches miss 3x more than
  // the rest), so the run summarizes them by their geometric mean, as
  // benchmark suites summarize heterogeneous inputs; it moves least with
  // the seed.
  auto geometric_mean = [](const std::vector<double>& values) {
    double log_sum = 0.0;
    for (double value : values) log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
  };
  if (args.trace) {
    const TracedSearch traced = traced_search(datasets[0], vector_file, out);
    std::remove(vector_file.c_str());
    if (bits(traced.logl) != bits(results[0].logl))
      out.fail("traced search result differs from the untraced one");
    ++out.attempted;
    out.set("bench.trace_overhead", traced.wall / walls[0]);
    set_kernel_metrics(out, traced.patterns, 0);
  } else {
    out.set("setup_s", median(setups));
    out.set("wall_s", geometric_mean(walls));
    out.set("cpu_s", geometric_mean(cpus));
    out.set("device_s", geometric_mean(devices));
    out.set("peak_rss_mb", median(peaks));
  }
  return out;
}

}  // namespace perfbench
