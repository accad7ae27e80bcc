// The likelihood layer's kernel metrics: newview and evaluate_branch timed on
// synthetic vectors at a workload's dimensions, with computed flops and
// compulsory bytes per pattern and the bandwidth the timing implies.
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "likelihood/kernel_pool.hpp"
#include "likelihood/kernels.hpp"
#include "model/eigen.hpp"
#include "model/gamma.hpp"
#include "model/protein_matrices.hpp"
#include "model/transition.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace plfoc;

constexpr unsigned kCategories = 4;

struct Fixture {
  KernelDims dims;
  std::vector<double> left, right, parent;
  std::vector<std::int32_t> lscale, rscale, pscale;
  std::vector<double> pmat_left, pmat_right, dmat, d2mat;
  std::vector<std::uint8_t> codes;
  std::vector<double> lookup, freqs, weights;

  Fixture(std::size_t patterns, unsigned states)
      : dims{patterns, kCategories, states} {
    const std::size_t width = patterns * kCategories * states;
    Rng rng(7);
    left.resize(width);
    right.resize(width);
    parent.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      left[i] = rng.uniform(0.01, 1.0);
      right[i] = rng.uniform(0.01, 1.0);
    }
    lscale.assign(patterns, 0);
    rscale.assign(patterns, 0);
    pscale.assign(patterns, 0);
    const EigenSystem eigen = states == 4
                                  ? decompose(jc69())
                                  : decompose(synthetic_protein_model(3));
    const std::vector<double> rates = discrete_gamma_rates(0.6, kCategories);
    category_transition_matrices(eigen, 0.13, rates, pmat_left);
    category_transition_matrices(eigen, 0.29, rates, pmat_right);
    const std::size_t matrix = static_cast<std::size_t>(states) * states;
    dmat.resize(pmat_left.size());
    d2mat.resize(pmat_left.size());
    for (unsigned c = 0; c < kCategories; ++c)
      transition_derivatives(eigen, 0.13 * rates[c], nullptr,
                             dmat.data() + c * matrix,
                             d2mat.data() + c * matrix);
    codes.resize(patterns);
    for (std::size_t p = 0; p < patterns; ++p)
      codes[p] = static_cast<std::uint8_t>(1u << rng.below(4));
    lookup.assign(16u * kCategories * states, 0.3);
    freqs.assign(states, 1.0 / states);
    weights.assign(patterns, 1.0);
  }

  NewviewChild inner(bool is_left) const {
    return is_left ? NewviewChild{left.data(), lscale.data(),
                                  pmat_left.data(), nullptr, nullptr}
                   : NewviewChild{right.data(), rscale.data(),
                                  pmat_right.data(), nullptr, nullptr};
  }
  NewviewChild tip() const {
    return {nullptr, nullptr, nullptr, codes.data(), lookup.data()};
  }
  EvalSide side(bool is_near) const {
    const std::vector<double>& v = is_near ? left : right;
    const std::vector<std::int32_t>& s = is_near ? lscale : rscale;
    return {v.data(), s.data(), nullptr, nullptr, nullptr, nullptr, nullptr};
  }
};

/// Median over 5 repetitions of ~50 ms each of the call's time, in ns per
/// pattern. Parent and scale buffers are rewritten each call, so every
/// repetition does identical work.
template <typename Fn>
double ns_per_pattern(std::size_t patterns, Fn&& call) {
  call();  // warm caches and the kernel pool
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t calls = 0;
    const double start = now_s();
    double elapsed = 0.0;
    do {
      call();
      ++calls;
      elapsed = now_s() - start;
    } while (elapsed < 0.05);
    samples.push_back(elapsed * 1e9 /
                      (static_cast<double>(calls) *
                       static_cast<double>(patterns)));
  }
  return median(samples);
}

void set_kernel(Outcome& out, const std::string& name, double ns_pp,
                double flops_pp, double bytes_pp) {
  out.set("likelihood." + name + "_ns_pp", ns_pp);
  out.set("likelihood." + name + "_flops_pp", flops_pp);
  out.set("likelihood." + name + "_bytes_pp", bytes_pp);
  out.set("likelihood." + name + "_gbs", bytes_pp / ns_pp);  // B/ns = GB/s
}

}  // namespace

void set_kernel_metrics(Outcome& out, std::size_t dna_patterns,
                        std::size_t aa_patterns) {
  // Computed per-pattern costs from the kernels' loop structure (C
  // categories, S states): an inner child propagates through its C S×S
  // matrices (2S² flops per category), a tip child reads a lookup row; the
  // parent multiplies S entries. Bytes are the compulsory vector traffic:
  // 8-byte entries read and written plus 4-byte scale counters.
  const double c = kCategories;
  auto newview_flops = [&](double s, int inner_children) {
    return c * (2.0 * s * s * inner_children + s);
  };

  Fixture dna(dna_patterns, 4);
  const double s4 = 4.0;
  set_kernel(out, "newview_ii",
             ns_per_pattern(dna_patterns,
                            [&] {
                              newview(dna.dims, dna.inner(true),
                                      dna.inner(false), dna.parent.data(),
                                      dna.pscale.data());
                            }),
             newview_flops(s4, 2), 24.0 * c * s4 + 12.0);
  set_kernel(out, "newview_ti",
             ns_per_pattern(dna_patterns,
                            [&] {
                              newview(dna.dims, dna.tip(), dna.inner(false),
                                      dna.parent.data(), dna.pscale.data());
                            }),
             newview_flops(s4, 1), 16.0 * c * s4 + 9.0);
  // evaluate: propagate the far side (2S²), then weight by near side and
  // frequencies (3S); derivatives repeat both for dP and d²P.
  set_kernel(out, "evaluate",
             ns_per_pattern(dna_patterns,
                            [&] {
                              evaluate_branch(dna.dims, dna.freqs.data(),
                                              dna.weights.data(),
                                              dna.side(true), dna.side(false),
                                              dna.pmat_left.data(), nullptr,
                                              nullptr, false);
                            }),
             c * (2.0 * s4 * s4 + 3.0 * s4), 16.0 * c * s4 + 16.0);
  set_kernel(out, "evaluate_d",
             ns_per_pattern(dna_patterns,
                            [&] {
                              evaluate_branch(
                                  dna.dims, dna.freqs.data(),
                                  dna.weights.data(), dna.side(true),
                                  dna.side(false), dna.pmat_left.data(),
                                  dna.dmat.data(), dna.d2mat.data(), true);
                            }),
             3.0 * c * (2.0 * s4 * s4 + 3.0 * s4), 16.0 * c * s4 + 16.0);
  {
    KernelPool pool(2);
    const double two = ns_per_pattern(dna_patterns, [&] {
      newview(dna.dims, dna.inner(true), dna.inner(false), dna.parent.data(),
              dna.pscale.data(), &pool);
    });
    out.set("likelihood.newview_2t_speedup",
            out.metrics["likelihood.newview_ii_ns_pp"] / two);
  }
  if (aa_patterns > 0) {
    Fixture aa(aa_patterns, 20);
    set_kernel(out, "newview_aa",
               ns_per_pattern(aa_patterns,
                              [&] {
                                newview(aa.dims, aa.inner(true),
                                        aa.inner(false), aa.parent.data(),
                                        aa.pscale.data());
                              }),
               newview_flops(20.0, 2), 24.0 * c * 20.0 + 12.0);
  }
}

}  // namespace perfbench
