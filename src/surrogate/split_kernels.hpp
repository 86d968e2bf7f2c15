#pragma once

// Internal header (not installed): the count-exact split kernel of the
// exact-greedy tree builder, instantiated only in avx2_kernels.cpp — the
// one TU compiled with -mavx2 — for Avx2Isa. TreeBuilder reaches it
// through avx2_unit_split_kernel() when the dispatch target is AVX2 and
// every live row of the fit is a unit row (h = 1 and w = 1); any other
// fit, and every fit under the scalar target, keeps the builder's sparse
// per-row scatter, which is the oracle this kernel is tested against.
//
// Exactness contract: the kernel returns the split TreeBuilder's offer()
// would keep from the scatter's candidates of the node's sampled
// two-valued columns, bit for bit.
//  - Counts. With unit rows the h, w and row sums of a column are all the
//    number of its rows below the top run, an integer, exact in any order.
//    The kernel counts them in byte lanes and flushes the bytes every 255
//    rows, before a lane can wrap.
//  - The g sum. The kernel folds every row of the node, in ascending row
//    order, into every column's accumulator as `acc += g & lanemask`: the
//    rows a column does not hold add +0.0. The accumulators start at +0.0,
//    and a round-to-nearest sum is -0.0 only when both addends are, so an
//    accumulator never holds -0.0, and acc + (+0.0) == acc bit for bit for
//    every other value, ±inf and NaN included. Adding +0.0 is therefore
//    the same as skipping the row, and each column's sum is the scatter's
//    ordered fold of the same rows.
//  - The gain. The candidates are scored 4 columns per vector with the
//    operations of TreeBuilder::score in its order, mul and add unfused,
//    and the validity tests are its ordered compares. A group of 4 columns
//    with no sampled column that passes them is skipped before its
//    divisions: score() offers none of its candidates.
//  - The best. The scatter offers its candidates in ascending column
//    order to a node whose best is still empty (gain -inf), and offer()
//    keeps a later one only if its gain is strictly greater: equal gains
//    (+0.0 against -0.0 included) keep the earlier column, and a NaN or
//    -inf gain never wins. The kernel keeps a running best from -inf under
//    the same strict `>`, in the same order, and returns the first maximum.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "anb/util/simd.hpp"

namespace anb::detail {

/// One node of a unit-row fit, as the split kernel reads it.
struct UnitNode {
  const std::uint32_t* rows = nullptr;  ///< the node's rows, ascending
  const double* g = nullptr;            ///< g[s] is the gradient of rows[s]
  std::size_t size = 0;                 ///< rows in the node
  const std::uint64_t* masks = nullptr;  ///< ColumnIndex::below_top_masks
  std::size_t words = 0;                 ///< mask words per row
  /// Columns to score, `words` words; the others may be left unscored.
  const std::uint64_t* sampled = nullptr;
  double total_g = 0.0;      ///< the node's g sum
  double parent_gain = 0.0;  ///< leaf gain of the node's totals
  double lambda = 0.0;
  double min_child_weight = 0.0;
  double min_samples_leaf = 0.0;
};

/// A node's best two-valued split: the highest gain, and the two-valued
/// column t (an index into ColumnIndex::two_valued_columns()) that first
/// reaches it, or kNoColumn when no sampled column offers a candidate.
struct UnitBest {
  static constexpr std::size_t kNoColumn = ~std::size_t{0};
  double gain = -std::numeric_limits<double>::infinity();
  std::size_t column = kNoColumn;
};

/// Scores the split at every sampled two-valued column of `node` and
/// returns the one offer() keeps: score()'s gain where score() would offer
/// the candidate (rows on both sides, min_child_weight and
/// min_samples_leaf met), the first maximum in ascending column order.
using UnitSplitFn = UnitBest (*)(const UnitNode& node);

/// The AVX2 instantiation of the split kernel, or nullptr when the
/// toolchain/architecture cannot build it. Defined in avx2_kernels.cpp.
UnitSplitFn avx2_unit_split_kernel();

/// Every Isa op, applied once to fixed inputs, so that a test can check
/// an ISA against ScalarIsa op by op.
struct IsaProbe {
  // Inputs.
  double a[4] = {}, b[4] = {};
  std::uint64_t word = 0;
  std::uint8_t x[32] = {}, y[32] = {};
  // Outputs, one per op.
  double zero[4], splat[4], add[4], sub[4], mul[4], div[4], conj[4],
      ge[4], gt[4], from_u8[4], select[4];
  double keep[16][4];
  unsigned mask_ge = 0, sign_a = 0;
  std::uint8_t bsplat[32], bones[32], bits_lo[32], bits_hi[32], bsub[32],
      band[32], bor[32], blt[32];
};

using IsaProbeFn = void (*)(IsaProbe& p);

/// The AVX2 instantiation of kernels::probe_isa, or nullptr like
/// avx2_unit_split_kernel().
IsaProbeFn avx2_isa_probe();

namespace kernels {

/// Calls f(std::integral_constant<int, K>) for K = 0..N-1, unrolled at
/// compile time so that arrays of vectors indexed by K stay in registers.
template <int... K, class F>
inline void unroll(std::integer_sequence<int, K...>, F&& f) {
  (f(std::integral_constant<int, K>{}), ...);
}

/// Rows a byte counter lane can take before it must be flushed.
constexpr std::size_t kCountFlush = 255;

/// Per lane j, the best candidate among the columns 4i + j scored so far:
/// its gain (-inf while there is none) and its column, as a double.
template <class Isa>
struct LaneBest {
  typename Isa::VF64 gain;
  typename Isa::VF64 column;
};

/// One half (32 columns) of mask word `w`: folds the node's g into 8 f64
/// accumulators of 4 columns each and counts the rows in 32 byte lanes,
/// then scores the half's sampled groups of 4 columns into `best`.
template <class Isa>
inline void unit_split_half(const UnitNode& node, std::size_t w, int half,
                            LaneBest<Isa>& best) {
  using VF64 = typename Isa::VF64;
  using VU8 = typename Isa::VU8;
  const auto want =
      static_cast<std::uint32_t>(node.sampled[w] >> (32 * half));
  if (want == 0 || node.size == 0) return;  // no candidate to score

  VF64 acc[8];
  for (VF64& v : acc) v = Isa::d_zero();
  alignas(32) double sum[32];
  alignas(32) double count[32];
  alignas(32) std::uint8_t bytes[32];
  const std::uint64_t* const masks = node.masks + w;
  for (std::size_t begin = 0; begin < node.size; begin += kCountFlush) {
    const std::size_t end =
        begin + kCountFlush < node.size ? begin + kCountFlush : node.size;
    VU8 counter = Isa::b_splat(0);
    for (std::size_t s = begin; s < end; ++s) {
      const std::uint64_t word =
          masks[std::size_t{node.rows[s]} * node.words];
      const typename Isa::VBits bits = Isa::d_bits(word);
      const VF64 g = Isa::d_splat(node.g[s]);
      unroll(std::make_integer_sequence<int, 8>{}, [&](auto k) {
        acc[k] = Isa::d_add(acc[k], Isa::d_keep(g, bits, 8 * half + k));
      });
      counter = Isa::b_sub(counter, Isa::b_bits(static_cast<std::uint32_t>(
                                        word >> (32 * half))));
    }
    Isa::b_store(bytes, counter);
    unroll(std::make_integer_sequence<int, 8>{}, [&](auto k) {
      const VF64 counted = Isa::d_from_u8(bytes + 4 * k);
      Isa::d_store(count + 4 * k,
                   begin == 0
                       ? counted
                       : Isa::d_add(Isa::d_load(count + 4 * k), counted));
    });
  }
  // Constant indices only: the accumulators stay in registers.
  unroll(std::make_integer_sequence<int, 8>{},
         [&](auto k) { Isa::d_store(sum + 4 * k, acc[k]); });

  // score(): rg = tot.g - left.g and rh = tot.h - left.h; with unit rows
  // tot.h, tot.w and tot.rows are all the node's row count, and left.h,
  // left.w and left.rows the column's count, so rw is rh.
  const VF64 total_g = Isa::d_splat(node.total_g);
  const VF64 total = Isa::d_splat(static_cast<double>(node.size));
  const VF64 zero = Isa::d_zero();
  const VF64 ones = Isa::d_cmpge(zero, zero);
  const VF64 lambda = Isa::d_splat(node.lambda);
  const VF64 mcw = Isa::d_splat(node.min_child_weight);
  const VF64 msl = Isa::d_splat(node.min_samples_leaf);
  const VF64 parent = Isa::d_splat(node.parent_gain);
  const typename Isa::VBits sampled = Isa::d_bits(want);
  // Lane j of group k scores column first + 4k + j.
  alignas(32) static constexpr double kLane[4] = {0.0, 1.0, 2.0, 3.0};
  const std::size_t first_column = 64 * w + 32 * static_cast<std::size_t>(half);
  const VF64 first = Isa::d_add(
      Isa::d_splat(static_cast<double>(first_column)), Isa::d_load(kLane));
  for (int k = 0; k < 8; ++k) {
    if (((want >> (4 * k)) & 0xFU) == 0) continue;
    const VF64 lh = Isa::d_load(count + 4 * k);
    const VF64 rh = Isa::d_sub(total, lh);
    VF64 legal = Isa::d_and(Isa::d_cmpgt(lh, zero), Isa::d_cmpgt(total, lh));
    legal = Isa::d_and(legal, Isa::d_and(Isa::d_cmpge(lh, mcw),
                                         Isa::d_cmpge(rh, mcw)));
    legal = Isa::d_and(legal, Isa::d_and(Isa::d_cmpge(lh, msl),
                                         Isa::d_cmpge(rh, msl)));
    legal = Isa::d_and(legal, Isa::d_keep(ones, sampled, k));
    if (Isa::d_movemask(legal) == 0) continue;
    const VF64 lg = Isa::d_load(sum + 4 * k);
    const VF64 rg = Isa::d_sub(total_g, lg);
    const VF64 left_gain =
        Isa::d_div(Isa::d_mul(lg, lg), Isa::d_add(lh, lambda));
    const VF64 right_gain =
        Isa::d_div(Isa::d_mul(rg, rg), Isa::d_add(rh, lambda));
    const VF64 gain =
        Isa::d_sub(Isa::d_add(left_gain, right_gain), parent);
    // Strictly greater: a NaN or an equal gain keeps the earlier column.
    const VF64 better = Isa::d_and(legal, Isa::d_cmpgt(gain, best.gain));
    best.gain = Isa::d_select(better, gain, best.gain);
    best.column = Isa::d_select(
        better, Isa::d_add(first, Isa::d_splat(4.0 * k)), best.column);
  }
}

/// The split kernel (see UnitSplitFn): each mask word is two passes over
/// the node's rows, one per 32-column half, and a half with no sampled
/// column is skipped. Words and halves go in ascending column order, so
/// each lane holds the first maximum of its columns; the first maximum of
/// all is the lowest column among the lanes that hold the highest gain.
template <class Isa>
UnitBest unit_split(const UnitNode& node) {
  LaneBest<Isa> lanes{Isa::d_splat(-std::numeric_limits<double>::infinity()),
                      Isa::d_zero()};
  for (std::size_t w = 0; w < node.words; ++w) {
    unit_split_half<Isa>(node, w, 0, lanes);
    unit_split_half<Isa>(node, w, 1, lanes);
  }
  alignas(32) double gain[4];
  alignas(32) double column[4];
  Isa::d_store(gain, lanes.gain);
  Isa::d_store(column, lanes.column);
  UnitBest best;
  for (int j = 0; j < 4; ++j) {
    const auto t = static_cast<std::size_t>(column[j]);
    if (gain[j] > best.gain ||
        (gain[j] == best.gain && best.column != UnitBest::kNoColumn &&
         t < best.column))
      best = {gain[j], t};
  }
  return best;
}

/// Fills `p`'s outputs with Isa's ops applied to its inputs.
template <class Isa>
void probe_isa(IsaProbe& p) {
  const auto a = Isa::d_load(p.a);
  const auto b = Isa::d_load(p.b);
  Isa::d_store(p.zero, Isa::d_zero());
  Isa::d_store(p.splat, Isa::d_splat(p.b[0]));
  Isa::d_store(p.add, Isa::d_add(a, b));
  Isa::d_store(p.sub, Isa::d_sub(a, b));
  Isa::d_store(p.mul, Isa::d_mul(a, b));
  Isa::d_store(p.div, Isa::d_div(a, b));
  Isa::d_store(p.conj, Isa::d_and(a, b));
  Isa::d_store(p.ge, Isa::d_cmpge(a, b));
  Isa::d_store(p.gt, Isa::d_cmpgt(a, b));
  Isa::d_store(p.from_u8, Isa::d_from_u8(p.x));
  Isa::d_store(p.select, Isa::d_select(Isa::d_cmpge(a, b), a, b));
  p.mask_ge = Isa::d_movemask(Isa::d_cmpge(a, b));
  p.sign_a = Isa::d_movemask(a);
  const auto bits = Isa::d_bits(p.word);
  for (int k = 0; k < 16; ++k) Isa::d_store(p.keep[k], Isa::d_keep(a, bits, k));
  Isa::b_store(p.bits_lo, Isa::b_bits(static_cast<std::uint32_t>(p.word)));
  Isa::b_store(p.bits_hi,
               Isa::b_bits(static_cast<std::uint32_t>(p.word >> 32)));
  Isa::b_store(p.bsplat, Isa::b_splat(p.x[0]));
  Isa::b_store(p.bones, Isa::b_ones());
  const auto x = Isa::b_load(p.x);
  const auto y = Isa::b_load(p.y);
  Isa::b_store(p.bsub, Isa::b_sub(x, y));
  Isa::b_store(p.band, Isa::b_and(x, y));
  Isa::b_store(p.bor, Isa::b_or(x, y));
  Isa::b_store(p.blt, Isa::b_cmplt_s8(x, y));
}

}  // namespace kernels
}  // namespace anb::detail
