#include "likelihood/kernels.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "likelihood/kernel_pool.hpp"
#include "likelihood/kernels_internal.hpp"

#include "util/checks.hpp"

namespace plfoc {
namespace {

/// Propagated child likelihood L(x) for one (pattern, category) block.
/// S is the compile-time state count (0 = generic/runtime).
template <unsigned S>
inline void propagate_inner(const double* pmat_c, const double* child_block,
                            unsigned states, double* out) {
  const unsigned s = S != 0 ? S : states;
  for (unsigned x = 0; x < s; ++x) {
    double sum = 0.0;
    const double* row = pmat_c + static_cast<std::size_t>(x) * s;
    for (unsigned y = 0; y < s; ++y) sum += row[y] * child_block[y];
    out[x] = sum;
  }
}

inline std::int32_t site_scale(const std::int32_t* near_scale,
                               const std::int32_t* far_scale, std::size_t p) {
  return (near_scale != nullptr ? near_scale[p] : 0) +
         (far_scale != nullptr ? far_scale[p] : 0);
}

/// Add one pattern's weighted log likelihood (and derivative terms) to
/// `result`. `site_l` is clamped to DBL_MIN, the scaling counter applied.
inline void accumulate_site(BranchValue& result, double w, std::int32_t scale,
                            double site_l, double site_d1, double site_d2,
                            bool with_derivatives) {
  const double guarded = std::max(site_l, std::numeric_limits<double>::min());
  result.log_likelihood += w * (std::log(guarded) + scale * kLogScaleUnit);
  if (!with_derivatives) return;
  const double d1_term = site_d1 / guarded;
  const double d2_term = site_d2 / guarded - d1_term * d1_term;
  // When site_l clamps to numeric_limits::min() (underflowed site) the
  // ratios can overflow to Inf and poison d2 with NaN, derailing the Newton
  // step in optimize_branch. An underflowed site carries no usable
  // curvature signal, so drop its derivative contribution.
  if (std::isfinite(d1_term) && std::isfinite(d2_term)) {
    result.d1 += w * d1_term;
    result.d2 += w * d2_term;
  }
}

template <unsigned S>
std::size_t newview_impl(const KernelDims& dims, const NewviewChild& left,
                         const NewviewChild& right, double* parent,
                         std::int32_t* parent_scale, std::size_t p_begin,
                         std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  std::size_t scaled = 0;

  double lbuf[32];
  double rbuf[32];
  PLFOC_CHECK(states <= 32);

  for (std::size_t p = p_begin; p < p_end; ++p) {
    double* parent_block = parent + p * block;
    bool all_small = true;
    for (unsigned c = 0; c < cats; ++c) {
      const double* l;
      if (left.is_tip()) {
        l = left.lookup +
            (static_cast<std::size_t>(left.codes[p]) * cats + c) * states;
      } else {
        propagate_inner<S>(left.pmat + static_cast<std::size_t>(c) * states * states,
                           left.vector + p * block + static_cast<std::size_t>(c) * states,
                           states, lbuf);
        l = lbuf;
      }
      const double* r;
      if (right.is_tip()) {
        r = right.lookup +
            (static_cast<std::size_t>(right.codes[p]) * cats + c) * states;
      } else {
        propagate_inner<S>(right.pmat + static_cast<std::size_t>(c) * states * states,
                           right.vector + p * block + static_cast<std::size_t>(c) * states,
                           states, rbuf);
        r = rbuf;
      }
      double* out = parent_block + static_cast<std::size_t>(c) * states;
      for (unsigned x = 0; x < states; ++x) {
        const double v = l[x] * r[x];
        out[x] = v;
        if (v >= kScaleThreshold) all_small = false;
      }
    }
    std::int32_t count = (left.scale_counts != nullptr ? left.scale_counts[p] : 0) +
                         (right.scale_counts != nullptr ? right.scale_counts[p] : 0);
    if (all_small) {
      ++scaled;
      // Scale repeatedly until the largest entry clears the threshold: a
      // single application is not enough when one pruning step shrinks the
      // site by more than the multiplier, and the single-precision disk
      // representation relies on max >= threshold.
      while (all_small) {
        all_small = false;
        double max_value = 0.0;
        for (std::size_t i = 0; i < block; ++i) {
          parent_block[i] *= kScaleMultiplier;
          if (parent_block[i] > max_value) max_value = parent_block[i];
        }
        ++count;
        // A block that underflowed to exactly zero stays zero under the
        // (power of two, exact) multiplier; without this break the loop
        // spins forever while count overflows. The AVX2 kernel applies the
        // identical rule, preserving scalar/AVX2 bit-identity.
        if (max_value == 0.0) break;
        all_small = max_value < kScaleThreshold;
      }
    }
    parent_scale[p] = count;
  }
  return scaled;
}

template <unsigned S>
BranchValue evaluate_impl(const KernelDims& dims, const double* freqs,
                          const double* weights, const EvalSide& near_side,
                          const EvalSide& far_side, const double* pmats,
                          const double* dmats, const double* d2mats,
                          bool with_derivatives, std::size_t p_begin,
                          std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  const double cat_weight = 1.0 / cats;

  double fb[32];
  double dfb[32];
  double d2fb[32];
  PLFOC_CHECK(states <= 32);

  BranchValue result;
  for (std::size_t p = p_begin; p < p_end; ++p) {
    double site_l = 0.0;
    double site_d1 = 0.0;
    double site_d2 = 0.0;
    for (unsigned c = 0; c < cats; ++c) {
      // Far side propagated across the branch (and its t-derivatives).
      const double* far;
      const double* dfar = nullptr;
      const double* d2far = nullptr;
      if (far_side.is_tip()) {
        const std::size_t at =
            (static_cast<std::size_t>(far_side.codes[p]) * cats + c) * states;
        far = far_side.lookup_p + at;
        if (with_derivatives) {
          dfar = far_side.lookup_d1 + at;
          d2far = far_side.lookup_d2 + at;
        }
      } else {
        const double* vec = far_side.vector + p * block +
                            static_cast<std::size_t>(c) * states;
        propagate_inner<S>(pmats + static_cast<std::size_t>(c) * states * states,
                           vec, states, fb);
        far = fb;
        if (with_derivatives) {
          propagate_inner<S>(dmats + static_cast<std::size_t>(c) * states * states,
                             vec, states, dfb);
          propagate_inner<S>(d2mats + static_cast<std::size_t>(c) * states * states,
                             vec, states, d2fb);
          dfar = dfb;
          d2far = d2fb;
        }
      }
      // Near side values at this (pattern, category).
      const double* near;
      if (near_side.is_tip()) {
        near = near_side.indicator +
               static_cast<std::size_t>(near_side.codes[p]) * states;
      } else {
        near = near_side.vector + p * block + static_cast<std::size_t>(c) * states;
      }
      double lc = 0.0;
      double d1c = 0.0;
      double d2c = 0.0;
      for (unsigned x = 0; x < states; ++x) {
        const double base = freqs[x] * near[x];
        lc += base * far[x];
        if (with_derivatives) {
          d1c += base * dfar[x];
          d2c += base * d2far[x];
        }
      }
      site_l += lc;
      site_d1 += d1c;
      site_d2 += d2c;
    }
    site_l *= cat_weight;
    site_d1 *= cat_weight;
    site_d2 *= cat_weight;

    const std::int32_t scale =
        site_scale(near_side.scale_counts, far_side.scale_counts, p);
    accumulate_site(result, weights != nullptr ? weights[p] : 1.0, scale,
                    site_l, site_d1, site_d2, with_derivatives);
  }
  return result;
}

/// table[p, c, k] for patterns [p_begin, p_end); `projected_near` is
/// (π ∘ V)ᵀ, row k holding π_x V[x][k], and `tip_rows` (tip near side only)
/// holds its product with each code's indicator row.
template <unsigned S>
void build_sumtable_impl(const KernelDims& dims, const double* projected_near,
                         const double* inverse, const EvalSide& near_side,
                         const double* tip_rows, const EvalSide& far_side,
                         double* table, std::size_t p_begin,
                         std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  double nb[32];
  double fb[32];
  PLFOC_CHECK(states <= 32);
  for (std::size_t p = p_begin; p < p_end; ++p) {
    for (unsigned c = 0; c < cats; ++c) {
      const std::size_t at = p * block + static_cast<std::size_t>(c) * states;
      const double* near;
      if (near_side.is_tip()) {
        near = tip_rows + static_cast<std::size_t>(near_side.codes[p]) * states;
      } else {
        propagate_inner<S>(projected_near, near_side.vector + at, states, nb);
        near = nb;
      }
      propagate_inner<S>(inverse, far_side.vector + at, states, fb);
      for (unsigned k = 0; k < states; ++k) table[at + k] = near[k] * fb[k];
    }
  }
}

/// `exps` holds three C×S arrays: e^{λ_k r_c t} and its first and second
/// t-derivatives. Per-state lanes accumulate over the categories, then fold
/// in state order.
template <unsigned S>
BranchValue sumtable_value_impl(const KernelDims& dims, const double* weights,
                                const double* table,
                                const std::int32_t* near_scale,
                                const std::int32_t* far_scale,
                                const double* exps, std::size_t p_begin,
                                std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  const double* e0 = exps;
  const double* e1 = exps + block;
  const double* e2 = exps + 2 * block;
  const double cat_weight = 1.0 / cats;
  double l[32];
  double d1[32];
  double d2[32];
  PLFOC_CHECK(states <= 32);

  BranchValue result;
  for (std::size_t p = p_begin; p < p_end; ++p) {
    const double* row = table + p * block;
    for (unsigned k = 0; k < states; ++k) {
      l[k] = row[k] * e0[k];
      d1[k] = row[k] * e1[k];
      d2[k] = row[k] * e2[k];
    }
    for (std::size_t i = states; i < block; i += states) {
      for (unsigned k = 0; k < states; ++k) {
        l[k] += row[i + k] * e0[i + k];
        d1[k] += row[i + k] * e1[i + k];
        d2[k] += row[i + k] * e2[i + k];
      }
    }
    double site_l = 0.0;
    double site_d1 = 0.0;
    double site_d2 = 0.0;
    for (unsigned k = 0; k < states; ++k) {
      site_l += l[k];
      site_d1 += d1[k];
      site_d2 += d2[k];
    }
    accumulate_site(result, weights != nullptr ? weights[p] : 1.0,
                    site_scale(near_scale, far_scale, p), site_l * cat_weight,
                    site_d1 * cat_weight, site_d2 * cat_weight, true);
  }
  return result;
}

template <unsigned S>
void per_pattern_impl(const KernelDims& dims, const double* freqs,
                      const EvalSide& near_side, const EvalSide& far_side,
                      const double* pmats, double* out, std::size_t p_begin,
                      std::size_t p_end) {
  const unsigned states = S != 0 ? S : dims.states;
  const unsigned cats = dims.categories;
  const std::size_t block = static_cast<std::size_t>(cats) * states;
  const double cat_weight = 1.0 / cats;
  double fb[32];
  PLFOC_CHECK(states <= 32);
  for (std::size_t p = p_begin; p < p_end; ++p) {
    double site_l = 0.0;
    for (unsigned c = 0; c < cats; ++c) {
      const double* far;
      if (far_side.is_tip()) {
        far = far_side.lookup_p +
              (static_cast<std::size_t>(far_side.codes[p]) * cats + c) * states;
      } else {
        propagate_inner<S>(pmats + static_cast<std::size_t>(c) * states * states,
                           far_side.vector + p * block +
                               static_cast<std::size_t>(c) * states,
                           states, fb);
        far = fb;
      }
      const double* near;
      if (near_side.is_tip()) {
        near = near_side.indicator +
               static_cast<std::size_t>(near_side.codes[p]) * states;
      } else {
        near = near_side.vector + p * block + static_cast<std::size_t>(c) * states;
      }
      double lc = 0.0;
      for (unsigned x = 0; x < states; ++x) lc += freqs[x] * near[x] * far[x];
      site_l += lc;
    }
    site_l *= cat_weight;
    const double guarded = std::max(site_l, std::numeric_limits<double>::min());
    out[p] = std::log(guarded) +
             site_scale(near_side.scale_counts, far_side.scale_counts, p) *
                 kLogScaleUnit;
  }
}

std::size_t newview_range(const KernelDims& dims, const NewviewChild& left,
                          const NewviewChild& right, double* parent,
                          std::int32_t* parent_scale, std::size_t p_begin,
                          std::size_t p_end) {
  switch (dims.states) {
    case 4:
      return newview_impl<4>(dims, left, right, parent, parent_scale, p_begin,
                             p_end);
    case 20:
      return newview_impl<20>(dims, left, right, parent, parent_scale, p_begin,
                              p_end);
    default:
      return newview_impl<0>(dims, left, right, parent, parent_scale, p_begin,
                             p_end);
  }
}

BranchValue evaluate_range(const KernelDims& dims, const double* freqs,
                           const double* weights, const EvalSide& near_side,
                           const EvalSide& far_side, const double* pmats,
                           const double* dmats, const double* d2mats,
                           bool with_derivatives, std::size_t p_begin,
                           std::size_t p_end) {
  switch (dims.states) {
    case 4:
      return evaluate_impl<4>(dims, freqs, weights, near_side, far_side, pmats,
                              dmats, d2mats, with_derivatives, p_begin, p_end);
    case 20:
      return evaluate_impl<20>(dims, freqs, weights, near_side, far_side,
                               pmats, dmats, d2mats, with_derivatives, p_begin,
                               p_end);
    default:
      return evaluate_impl<0>(dims, freqs, weights, near_side, far_side, pmats,
                              dmats, d2mats, with_derivatives, p_begin, p_end);
  }
}

void build_sumtable_range(const KernelDims& dims, const double* projected_near,
                          const double* inverse, const EvalSide& near_side,
                          const double* tip_rows, const EvalSide& far_side,
                          double* table, std::size_t p_begin,
                          std::size_t p_end) {
  switch (dims.states) {
    case 4:
      build_sumtable_impl<4>(dims, projected_near, inverse, near_side,
                             tip_rows, far_side, table, p_begin, p_end);
      break;
    case 20:
      build_sumtable_impl<20>(dims, projected_near, inverse, near_side,
                              tip_rows, far_side, table, p_begin, p_end);
      break;
    default:
      build_sumtable_impl<0>(dims, projected_near, inverse, near_side,
                             tip_rows, far_side, table, p_begin, p_end);
      break;
  }
}

BranchValue sumtable_value_range(const KernelDims& dims, const double* weights,
                                 const double* table,
                                 const std::int32_t* near_scale,
                                 const std::int32_t* far_scale,
                                 const double* exps, std::size_t p_begin,
                                 std::size_t p_end) {
  switch (dims.states) {
    case 4:
      return sumtable_value_impl<4>(dims, weights, table, near_scale,
                                    far_scale, exps, p_begin, p_end);
    case 20:
      return sumtable_value_impl<20>(dims, weights, table, near_scale,
                                     far_scale, exps, p_begin, p_end);
    default:
      return sumtable_value_impl<0>(dims, weights, table, near_scale,
                                    far_scale, exps, p_begin, p_end);
  }
}

void per_pattern_range(const KernelDims& dims, const double* freqs,
                       const EvalSide& near_side, const EvalSide& far_side,
                       const double* pmats, double* out, std::size_t p_begin,
                       std::size_t p_end) {
  switch (dims.states) {
    case 4:
      per_pattern_impl<4>(dims, freqs, near_side, far_side, pmats, out,
                          p_begin, p_end);
      break;
    case 20:
      per_pattern_impl<20>(dims, freqs, near_side, far_side, pmats, out,
                           p_begin, p_end);
      break;
    default:
      per_pattern_impl<0>(dims, freqs, near_side, far_side, pmats, out,
                          p_begin, p_end);
      break;
  }
}

inline std::size_t block_begin(std::size_t b) { return b * kPatternBlock; }

inline std::size_t block_end(std::size_t b, std::size_t patterns) {
  return std::min(patterns, (b + 1) * kPatternBlock);
}

bool pool_active(const KernelPool* pool, std::size_t blocks) {
  return pool != nullptr && pool->threads() > 1 && blocks > 1;
}

/// Run `range(p_begin, p_end)` per pattern block and sum the BranchValue
/// partials serially in block order — also on the single-threaded path — so
/// the floating-point association depends only on the pattern count, never
/// the thread count.
template <typename Range>
BranchValue reduce_blocks(std::size_t patterns, KernelPool* pool,
                          const Range& range) {
  const std::size_t blocks = pattern_block_count(patterns);
  if (blocks <= 1) return range(0, patterns);
  std::vector<BranchValue> partials(blocks);
  const auto body = [&](std::size_t b) {
    partials[b] = range(block_begin(b), block_end(b, patterns));
  };
  if (pool_active(pool, blocks)) {
    pool->run_blocks(blocks, body);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) body(b);
  }
  BranchValue result = partials[0];
  for (std::size_t b = 1; b < blocks; ++b) {
    result.log_likelihood += partials[b].log_likelihood;
    result.d1 += partials[b].d1;
    result.d2 += partials[b].d2;
  }
  return result;
}

}  // namespace

void per_pattern_log_likelihoods(const KernelDims& dims, const double* freqs,
                                 const EvalSide& near_side,
                                 const EvalSide& far_side, const double* pmats,
                                 double* out, KernelPool* pool) {
  const std::size_t blocks = pattern_block_count(dims.patterns);
  if (!pool_active(pool, blocks)) {
    per_pattern_range(dims, freqs, near_side, far_side, pmats, out, 0,
                      dims.patterns);
    return;
  }
  // Each block writes a disjoint slice of out; no reduction needed.
  pool->run_blocks(blocks, [&](std::size_t b) {
    per_pattern_range(dims, freqs, near_side, far_side, pmats, out,
                      block_begin(b), block_end(b, dims.patterns));
  });
}

std::size_t newview_scalar(const KernelDims& dims, const NewviewChild& left,
                           const NewviewChild& right, double* parent,
                           std::int32_t* parent_scale) {
  return newview_range(dims, left, right, parent, parent_scale, 0,
                       dims.patterns);
}

std::size_t newview(const KernelDims& dims, const NewviewChild& left,
                    const NewviewChild& right, double* parent,
                    std::int32_t* parent_scale, KernelPool* pool) {
  const bool use_avx2 =
      dims.states == 4 && dims.categories <= 16 && detail::cpu_has_avx2();
  const auto run_range = [&](std::size_t p_begin, std::size_t p_end) {
    return use_avx2 ? detail::newview4_avx2(dims, left, right, parent,
                                            parent_scale, p_begin, p_end)
                    : newview_range(dims, left, right, parent, parent_scale,
                                    p_begin, p_end);
  };
  const std::size_t blocks = pattern_block_count(dims.patterns);
  if (!pool_active(pool, blocks)) return run_range(0, dims.patterns);
  // Block outputs (parent slices, scale counts) are disjoint and the
  // scaled-pattern tally is an exact integer sum, so any execution order
  // yields the identical result.
  std::vector<std::size_t> partials(blocks, 0);
  pool->run_blocks(blocks, [&](std::size_t b) {
    partials[b] = run_range(block_begin(b), block_end(b, dims.patterns));
  });
  std::size_t scaled = 0;
  for (const std::size_t partial : partials) scaled += partial;
  return scaled;
}

BranchValue evaluate_branch(const KernelDims& dims, const double* freqs,
                            const double* weights, const EvalSide& near_side,
                            const EvalSide& far_side, const double* pmats,
                            const double* dmats, const double* d2mats,
                            bool with_derivatives, KernelPool* pool) {
  if (with_derivatives)
    PLFOC_CHECK((dmats != nullptr && d2mats != nullptr) || far_side.is_tip());
  return reduce_blocks(
      dims.patterns, pool, [&](std::size_t p_begin, std::size_t p_end) {
        return evaluate_range(dims, freqs, weights, near_side, far_side, pmats,
                              dmats, d2mats, with_derivatives, p_begin, p_end);
      });
}

void build_sumtable(const KernelDims& dims, const double* freqs,
                    const double* eigenvectors, const double* inverse,
                    const EvalSide& near_side, const EvalSide& far_side,
                    double* table, KernelPool* pool) {
  PLFOC_CHECK(!far_side.is_tip());
  const unsigned s = dims.states;
  std::vector<double> projected_near(static_cast<std::size_t>(s) * s);
  for (unsigned k = 0; k < s; ++k)
    for (unsigned x = 0; x < s; ++x)
      projected_near[k * s + x] = freqs[x] * eigenvectors[x * s + k];
  std::vector<double> tip_rows;
  if (near_side.is_tip()) {
    const std::uint8_t max_code =
        *std::max_element(near_side.codes, near_side.codes + dims.patterns);
    tip_rows.resize((static_cast<std::size_t>(max_code) + 1) * s);
    for (std::size_t code = 0; code <= max_code; ++code)
      propagate_inner<0>(projected_near.data(), near_side.indicator + code * s,
                         s, tip_rows.data() + code * s);
  }
  const auto range = [&](std::size_t p_begin, std::size_t p_end) {
    build_sumtable_range(dims, projected_near.data(), inverse, near_side,
                         tip_rows.data(), far_side, table, p_begin, p_end);
  };
  const std::size_t blocks = pattern_block_count(dims.patterns);
  if (!pool_active(pool, blocks)) return range(0, dims.patterns);
  pool->run_blocks(blocks, [&](std::size_t b) {
    range(block_begin(b), block_end(b, dims.patterns));
  });
}

BranchValue sumtable_branch_value(const KernelDims& dims, const double* weights,
                                  const double* table,
                                  const std::int32_t* near_scale,
                                  const std::int32_t* far_scale,
                                  const double* eigenvalues,
                                  const double* rates, double t,
                                  KernelPool* pool) {
  const unsigned s = dims.states;
  const std::size_t block = static_cast<std::size_t>(dims.categories) * s;
  // d/dt e^{λ r t} = λ r e^{λ r t}: the chain rule over the category rate.
  std::vector<double> exps(3 * block);
  for (unsigned c = 0; c < dims.categories; ++c) {
    for (unsigned k = 0; k < s; ++k) {
      const std::size_t i = static_cast<std::size_t>(c) * s + k;
      const double lambda = eigenvalues[k] * rates[c];
      exps[i] = std::exp(lambda * t);
      exps[block + i] = lambda * exps[i];
      exps[2 * block + i] = lambda * lambda * exps[i];
    }
  }
  return reduce_blocks(
      dims.patterns, pool, [&](std::size_t p_begin, std::size_t p_end) {
        return sumtable_value_range(dims, weights, table, near_scale,
                                    far_scale, exps.data(), p_begin, p_end);
      });
}

}  // namespace plfoc
