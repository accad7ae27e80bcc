#include <gtest/gtest.h>

#include <cmath>

#include "likelihood/engine.hpp"
#include "ooc/inram_store.hpp"
#include "session.hpp"
#include "sim/dataset_planner.hpp"
#include "sim/simulate.hpp"
#include "tree/random_tree.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

struct Fixture {
  Tree tree;
  Alignment alignment;
  InRamStore store;
  LikelihoodEngine engine;

  explicit Fixture(std::uint64_t seed, std::size_t taxa = 10,
                   std::size_t sites = 60, unsigned categories = 2)
      : tree(make_tree(seed, taxa)),
        alignment(make_alignment(seed, sites, tree)),
        store(tree.num_inner(),
              LikelihoodEngine::vector_width(alignment, categories)),
        engine(alignment, tree, ModelConfig{jc69(), categories, 0.8}, store) {}

  static Tree make_tree(std::uint64_t seed, std::size_t taxa) {
    Rng rng(seed);
    return random_tree(taxa, rng);
  }
  static Alignment make_alignment(std::uint64_t seed, std::size_t sites,
                                  const Tree& tree) {
    Rng rng(seed + 1000);
    return simulate_alignment(tree, jc69(), sites, rng,
                              SimulationOptions{2, 0.8});
  }
};

TEST(BranchOpt, SingleBranchNeverDecreasesLikelihood) {
  Fixture fx(3);
  const double before = fx.engine.log_likelihood();
  const auto [a, b] = fx.tree.default_root_branch();
  const double after = fx.engine.optimize_branch(a, b);
  EXPECT_GE(after, before - 1e-9);
}

TEST(BranchOpt, OptimumHasZeroDerivative) {
  Fixture fx(5);
  const auto [a, b] = fx.engine.tree().default_root_branch();
  fx.engine.optimize_branch(a, b, 64);
  const double t = fx.engine.tree().branch_length(a, b);
  const BranchValue value = fx.engine.branch_value(a, b, t, true);
  // At an interior optimum d1 ~ 0; at the boundary the gradient points out.
  if (t > kMinBranchLength * 2 && t < kMaxBranchLength / 2) {
    EXPECT_NEAR(value.d1 / std::max(1.0, std::abs(value.d2)), 0.0, 1e-3);
  }
}

TEST(BranchOpt, RecoversPerturbedBranch) {
  Fixture fx(7);
  const auto [a, b] = fx.engine.tree().default_root_branch();
  fx.engine.optimize_branch(a, b, 64);
  const double optimal = fx.engine.tree().branch_length(a, b);
  const double ll_optimal = fx.engine.log_likelihood(a, b);
  // Perturb and re-optimise from both directions.
  for (double factor : {0.1, 10.0}) {
    fx.engine.tree().set_branch_length(a, b, optimal * factor);
    fx.engine.invalidate_length_change(a, b);
    fx.engine.optimize_branch(a, b, 64);
    EXPECT_NEAR(fx.engine.tree().branch_length(a, b), optimal,
                0.05 * optimal + 1e-6);
    EXPECT_NEAR(fx.engine.log_likelihood(a, b), ll_optimal, 1e-6);
  }
}

TEST(BranchOpt, StaysWithinBounds) {
  Fixture fx(11);
  for (const auto& [a, b] : fx.engine.tree().edges()) {
    fx.engine.optimize_branch(a, b, 32);
    const double t = fx.engine.tree().branch_length(a, b);
    EXPECT_GE(t, kMinBranchLength);
    EXPECT_LE(t, kMaxBranchLength);
  }
}

TEST(BranchOpt, SmoothingPassImprovesMonotonically) {
  Fixture fx(13);
  const double before = fx.engine.log_likelihood();
  const double pass1 = fx.engine.optimize_all_branches(1);
  const double pass2 = fx.engine.optimize_all_branches(1);
  EXPECT_GE(pass1, before - 1e-9);
  EXPECT_GE(pass2, pass1 - 1e-7);
}

TEST(BranchOpt, SmoothingConverges) {
  Fixture fx(17, 8, 40);
  double previous = fx.engine.optimize_all_branches(1);
  for (int pass = 0; pass < 4; ++pass) {
    const double current = fx.engine.optimize_all_branches(1);
    EXPECT_GE(current, previous - 1e-7);
    previous = current;
  }
  // One more pass should gain almost nothing.
  const double final_ll = fx.engine.optimize_all_branches(1);
  EXPECT_NEAR(final_ll, previous, 0.05);
}

TEST(BranchOpt, LazyModeSkipsInvalidation) {
  Fixture fx(19);
  const auto [a, b] = fx.engine.tree().default_root_branch();
  fx.engine.log_likelihood();
  // With update_invalidation=false the orientation of distant vectors stays
  // untouched; with true, vectors containing the branch are invalidated.
  fx.engine.optimize_branch(a, b, 8, false);
  // Evaluating at (a, b) is still exact regardless (the endpoint vectors do
  // not depend on the branch length between them).
  const double direct = fx.engine.log_likelihood(a, b);
  const double t = fx.engine.tree().branch_length(a, b);
  const BranchValue value = fx.engine.branch_value(a, b, t, false);
  EXPECT_NEAR(direct, value.log_likelihood, 1e-9);
}

TEST(BranchOpt, SaturatedBranchWithNearZeroSignalStaysFinite) {
  // Regression for the derivative NaN/Inf guard in evaluate_branch: with
  // every branch stretched to kMaxBranchLength the transition matrices are
  // nearly stationary, per-site likelihoods sink toward the DBL_MIN clamp and
  // the d1/d2 signal is almost zero. Before the guard, an underflowed site
  // could feed Inf/NaN ratios into the Newton step and optimize_branch would
  // return NaN (or walk the branch to garbage). It must stay finite and
  // in-bounds instead.
  Fixture fx(29);
  for (const auto& [a, b] : fx.engine.tree().edges()) {
    fx.engine.tree().set_branch_length(a, b, kMaxBranchLength);
    fx.engine.invalidate_length_change(a, b);
  }
  const auto [a, b] = fx.engine.tree().default_root_branch();
  const double after = fx.engine.optimize_branch(a, b, 64);
  EXPECT_TRUE(std::isfinite(after)) << after;
  const double t = fx.engine.tree().branch_length(a, b);
  EXPECT_GE(t, kMinBranchLength);
  EXPECT_LE(t, kMaxBranchLength);
  const BranchValue value = fx.engine.branch_value(a, b, t, true);
  EXPECT_TRUE(std::isfinite(value.log_likelihood));
  EXPECT_TRUE(std::isfinite(value.d1));
  EXPECT_TRUE(std::isfinite(value.d2));
}

TEST(BranchOpt, TipBranchOptimizable) {
  Fixture fx(23);
  // Find a tip branch.
  const NodeId tip = 0;
  const NodeId inner = fx.engine.tree().neighbors(tip)[0];
  const double before = fx.engine.log_likelihood(tip, inner);
  const double after = fx.engine.optimize_branch(tip, inner);
  EXPECT_GE(after, before - 1e-9);
}

TEST(BranchOpt, ReturnsTheFollowingLogLikelihoodBitExactly) {
  // Newton runs on the sum table, but the returned value is the direct
  // evaluation at the chosen length, so it equals log_likelihood(a, b).
  Fixture fx(31);
  for (const auto& [a, b] : fx.engine.tree().edges()) {
    const double returned = fx.engine.optimize_branch(a, b);
    EXPECT_EQ(returned, fx.engine.log_likelihood(a, b))
        << "branch " << a << "-" << b;
  }
}

/// A GTR+Γ4 DNA dataset of 2 pattern blocks and more (so kernel threads
/// split the work) on a backend picked by name.
Session smoothing_session(const std::string& backend, unsigned threads) {
  DatasetPlan plan;
  plan.num_taxa = 16;
  plan.num_sites = 800;
  plan.mean_branch_length = 0.4;
  plan.seed = 4321;
  PlannedDataset data = make_dna_dataset(plan);
  SessionOptions options;
  options.alpha = 0.7;
  options.threads = threads;
  if (backend == "ooc") {
    options.backend = Backend::kOutOfCore;
    options.policy = ReplacementPolicy::kLru;
    options.ram_fraction = 0.3;
  } else if (backend == "paged") {
    options.backend = Backend::kPaged;
    options.ram_budget_bytes = 1 << 19;
  } else if (backend == "tiered") {
    options.backend = Backend::kTiered;
    options.tiered_fast_slots = 3;
    options.tiered_ram_slots = 4;
  }
  return Session(std::move(data.alignment), std::move(data.tree),
                 benchmark_gtr(), std::move(options));
}

TEST(BranchOpt, SmoothingIsBitIdenticalAcrossThreadsAndStores) {
  struct Outcome {
    double ll;
    std::vector<double> lengths;
  };
  const auto smooth = [](const std::string& backend, unsigned threads) {
    Session session = smoothing_session(backend, threads);
    EXPECT_GT(session.patterns(), 2 * kPatternBlock);
    Outcome outcome{session.engine().optimize_all_branches(2), {}};
    for (const auto& [a, b] : session.tree().edges())
      outcome.lengths.push_back(session.tree().branch_length(a, b));
    return outcome;
  };
  const Outcome reference = smooth("inram", 1);
  for (const std::string backend : {"inram", "ooc", "paged", "tiered"}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(backend + " threads=" + std::to_string(threads));
      const Outcome outcome = smooth(backend, threads);
      EXPECT_EQ(outcome.ll, reference.ll);
      EXPECT_EQ(outcome.lengths, reference.lengths);
    }
  }
}

TEST(BranchOpt, NewtonIterationsMakeNoStoreAcquires) {
  // Out of core, the endpoint vectors are acquired to build the sum table
  // and once more for the returned value, however many iterations run.
  const auto acquires = [](int max_iterations) {
    Session session = smoothing_session("ooc", 1);
    LikelihoodEngine& engine = session.engine();
    const auto [a, b] = engine.tree().default_root_branch();
    engine.log_likelihood(a, b);  // validate the endpoint vectors
    session.reset_stats();
    engine.optimize_branch(a, b, max_iterations);
    return session.stats().accesses;
  };
  const std::uint64_t one = acquires(1);
  EXPECT_LE(one, 4u);
  EXPECT_EQ(acquires(32), one);
}

}  // namespace
}  // namespace plfoc
