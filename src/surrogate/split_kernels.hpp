#pragma once

// Internal header (not installed): the count-exact split kernel of the
// exact-greedy tree builder, one template over the Isa's f64 lane count.
// avx2_kernels.cpp (compiled with -mavx2) instantiates it for Avx2Isa and
// avx512_kernels.cpp (compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512dq) for Avx512Isa. TreeBuilder reaches them through
// avx512_unit_split_kernel() under the AVX-512 dispatch target and
// avx2_unit_split_kernel() under AVX2 (and under AVX-512 when the
// toolchain could not build the AVX-512 TU), when every live row of the
// fit is a unit row (h = 1 and w = 1); any other fit, and every fit under
// the scalar target, keeps the builder's sparse per-row scatter, which is
// the oracle both instantiations are tested against.
//
// Exactness contract: the kernel returns the split TreeBuilder's offer()
// would keep from the scatter's candidates of the node's sampled
// two-valued columns, bit for bit.
//  - Counts. With unit rows the h, w and row sums of a column are all the
//    number of its rows below the top run, an integer, exact in any order.
//    The kernel counts them in byte lanes and flushes the bytes every 255
//    rows, before a lane can wrap.
//  - The g sum. The kernel folds every row of the node, in ascending row
//    order, into every column's accumulator with d_add_kept: a column
//    holding the row adds g, and one that does not keeps its accumulator
//    (Avx512Isa, a masked add) or adds +0.0 (Avx2Isa, `acc += g &
//    lanemask`). The two are the same: the accumulators start at +0.0,
//    and a round-to-nearest sum is -0.0 only when both addends are, so an
//    accumulator never holds -0.0, and acc + (+0.0) == acc bit for bit for
//    every other value, ±inf and NaN included. Adding +0.0 or keeping the
//    accumulator is therefore the same as skipping the row, and each
//    column's sum is the scatter's ordered fold of the same rows.
//  - The gain. The candidates are scored one vector of columns at a time
//    (4 or 8) with the operations of TreeBuilder::score in its order, mul
//    and add unfused, and the validity tests are its ordered compares. A
//    group of columns with no sampled column that passes them is skipped
//    before its divisions: score() offers none of its candidates.
//  - The best. The scatter offers its candidates in ascending column
//    order to a node whose best is still empty (gain -inf), and offer()
//    keeps a later one only if its gain is strictly greater: equal gains
//    (+0.0 against -0.0 included) keep the earlier column, and a NaN or
//    -inf gain never wins. Lane j of the kernel's vectors scores the
//    columns t with t % lanes == j (lanes = 4 or 8) in ascending order and
//    keeps a running best from -inf under the same strict `>`, so each
//    lane holds the first maximum of its columns; the kernel returns the
//    lowest column among the lanes that hold the highest gain, which is
//    the first maximum of all.

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

/// The AVX2 and AVX-512 instantiations of the split kernel, or nullptr
/// when the toolchain/architecture cannot build them. Defined in
/// avx2_kernels.cpp and avx512_kernels.cpp.
UnitSplitFn avx2_unit_split_kernel();
UnitSplitFn avx512_unit_split_kernel();

/// Every f64- and count-tier Isa op (and, where the Isa has it, every
/// byte-tier op), applied once to fixed inputs, so that a test can check
/// an ISA against its scalar meaning op by op. An Isa of L f64 lanes
/// writes the first L entries of each f64 output.
struct IsaProbe {
  static constexpr int kMaxLanes = 8;
  // Inputs.
  double a[kMaxLanes] = {}, b[kMaxLanes] = {};
  std::uint64_t word = 0;
  std::uint8_t x[32] = {}, y[32] = {};
  // Outputs, one per op.
  int lanes = 0;
  double zero[kMaxLanes] = {}, splat[kMaxLanes] = {}, add[kMaxLanes] = {},
         sub[kMaxLanes] = {}, mul[kMaxLanes] = {}, div[kMaxLanes] = {},
         from_u8[kMaxLanes] = {}, select[kMaxLanes] = {};
  double add_kept[16][kMaxLanes] = {};
  unsigned ge = 0, gt = 0, conj = 0, lanes_of[16] = {};
  std::uint8_t count[8 * kMaxLanes] = {};
  bool has_bytes = false;
  std::uint8_t bsplat[32] = {}, bones[32] = {}, bits_lo[32] = {},
               bits_hi[32] = {}, bsub[32] = {}, band[32] = {}, bor[32] = {},
               blt[32] = {};
};

using IsaProbeFn = void (*)(IsaProbe& p);

/// The AVX2 and AVX-512 instantiations of kernels::probe_isa, or nullptr
/// like the kernels.
IsaProbeFn avx2_isa_probe();
IsaProbeFn avx512_isa_probe();

namespace kernels {

/// Calls f(std::integral_constant<int, K>) for K = 0..N-1, unrolled at
/// compile time so that arrays of vectors indexed by K stay in registers.
template <int... K, class F>
inline void unroll(std::integer_sequence<int, K...>, F&& f) {
  (f(std::integral_constant<int, K>{}), ...);
}

/// Rows a byte counter lane can take before it must be flushed.
constexpr std::size_t kCountFlush = 255;

/// Per lane j, the best candidate among the columns t % lanes == j scored
/// so far: its gain (-inf while there is none) and its column, as a double.
template <class Isa>
struct LaneBest {
  typename Isa::VF64 gain;
  typename Isa::VF64 column;
};

/// Columns one pass over a node's rows covers: 8 vectors of the Isa's
/// f64 lanes (32 for Avx2Isa, 64 for Avx512Isa).
template <class Isa>
constexpr int kPassColumns = 8 * Isa::kF64Lanes;

/// Bits [Columns * pass, Columns * (pass + 1)) of `word`, shifted down.
template <int Columns>
constexpr std::uint64_t pass_bits(std::uint64_t word, int pass) {
  if constexpr (Columns == 64) {
    return word;
  } else {
    return (word >> (Columns * pass)) & ((std::uint64_t{1} << Columns) - 1);
  }
}

/// One pass over the node's rows for the columns of pass `pass` of mask
/// word `w`: folds the node's g into 8 f64 accumulators of kF64Lanes
/// columns each and counts the rows in one byte counter per column, then
/// scores the pass's sampled groups of columns into `best`.
template <class Isa>
inline void unit_split_pass(const UnitNode& node, std::size_t w, int pass,
                            LaneBest<Isa>& best) {
  using VF64 = typename Isa::VF64;
  using VMask = typename Isa::VMask;
  constexpr int kLanes = Isa::kF64Lanes;
  constexpr int kColumns = kPassColumns<Isa>;
  const std::uint64_t want = pass_bits<kColumns>(node.sampled[w], pass);
  if (want == 0 || node.size == 0) return;  // no candidate to score

  VF64 acc[8];
  for (VF64& v : acc) v = Isa::d_zero();
  alignas(64) double sum[kColumns];
  alignas(64) double count[kColumns];
  alignas(64) std::uint8_t bytes[kColumns];
  const std::uint64_t* const masks = node.masks + w;
  for (std::size_t begin = 0; begin < node.size; begin += kCountFlush) {
    const std::size_t end =
        begin + kCountFlush < node.size ? begin + kCountFlush : node.size;
    typename Isa::VCount counter = Isa::c_zero();
    for (std::size_t s = begin; s < end; ++s) {
      const std::uint64_t part = pass_bits<kColumns>(
          masks[std::size_t{node.rows[s]} * node.words], pass);
      const typename Isa::VBits bits = Isa::d_bits(part);
      const VF64 g = Isa::d_splat(node.g[s]);
      unroll(std::make_integer_sequence<int, 8>{}, [&](auto k) {
        acc[k] = Isa::d_add_kept(acc[k], g, bits, k);
      });
      counter = Isa::c_add_bits(counter, part);
    }
    Isa::c_store(bytes, counter);
    unroll(std::make_integer_sequence<int, 8>{}, [&](auto k) {
      const VF64 counted = Isa::d_from_u8(bytes + kLanes * k);
      Isa::d_store(count + kLanes * k,
                   begin == 0 ? counted
                              : Isa::d_add(Isa::d_load(count + kLanes * k),
                                           counted));
    });
  }
  // Constant indices only: the accumulators stay in registers.
  unroll(std::make_integer_sequence<int, 8>{},
         [&](auto k) { Isa::d_store(sum + kLanes * k, acc[k]); });

  // score(): rg = tot.g - left.g and rh = tot.h - left.h; with unit rows
  // tot.h, tot.w and tot.rows are all the node's row count, and left.h,
  // left.w and left.rows the column's count, so rw is rh.
  const VF64 total_g = Isa::d_splat(node.total_g);
  const VF64 total = Isa::d_splat(static_cast<double>(node.size));
  const VF64 zero = Isa::d_zero();
  const VF64 lambda = Isa::d_splat(node.lambda);
  const VF64 mcw = Isa::d_splat(node.min_child_weight);
  const VF64 msl = Isa::d_splat(node.min_samples_leaf);
  const VF64 parent = Isa::d_splat(node.parent_gain);
  const typename Isa::VBits sampled = Isa::d_bits(want);
  // Lane j of group k scores column first + kLanes * k + j.
  alignas(64) static constexpr double kLane[8] = {0.0, 1.0, 2.0, 3.0,
                                                  4.0, 5.0, 6.0, 7.0};
  const std::size_t first_column =
      64 * w + static_cast<std::size_t>(kColumns * pass);
  const VF64 first = Isa::d_add(
      Isa::d_splat(static_cast<double>(first_column)), Isa::d_load(kLane));
  constexpr std::uint64_t kGroup = (std::uint64_t{1} << kLanes) - 1;
  for (int k = 0; k < 8; ++k) {
    if (((want >> (kLanes * k)) & kGroup) == 0) continue;
    const VF64 lh = Isa::d_load(count + kLanes * k);
    const VF64 rh = Isa::d_sub(total, lh);
    VMask legal =
        Isa::m_and(Isa::d_cmpgt(lh, zero), Isa::d_cmpgt(total, lh));
    legal = Isa::m_and(legal, Isa::m_and(Isa::d_cmpge(lh, mcw),
                                         Isa::d_cmpge(rh, mcw)));
    legal = Isa::m_and(legal, Isa::m_and(Isa::d_cmpge(lh, msl),
                                         Isa::d_cmpge(rh, msl)));
    legal = Isa::m_and(legal, Isa::m_lanes(sampled, k));
    if (Isa::m_bits(legal) == 0) continue;
    const VF64 lg = Isa::d_load(sum + kLanes * k);
    const VF64 rg = Isa::d_sub(total_g, lg);
    const VF64 left_gain =
        Isa::d_div(Isa::d_mul(lg, lg), Isa::d_add(lh, lambda));
    const VF64 right_gain =
        Isa::d_div(Isa::d_mul(rg, rg), Isa::d_add(rh, lambda));
    const VF64 gain =
        Isa::d_sub(Isa::d_add(left_gain, right_gain), parent);
    // Strictly greater: a NaN or an equal gain keeps the earlier column.
    const VMask better = Isa::m_and(legal, Isa::d_cmpgt(gain, best.gain));
    best.gain = Isa::d_select(better, gain, best.gain);
    const VF64 column =
        Isa::d_add(first, Isa::d_splat(static_cast<double>(kLanes * k)));
    best.column = Isa::d_select(better, column, best.column);
  }
}

/// The split kernel (see UnitSplitFn): each mask word is 64 / (8 * lanes)
/// passes over the node's rows (two for Avx2Isa, one for Avx512Isa), and
/// a pass with no sampled column is skipped. Words and passes go in
/// ascending column order, so each lane holds the first maximum of its
/// columns; the first maximum of all is the lowest column among the lanes
/// that hold the highest gain.
template <class Isa>
UnitBest unit_split(const UnitNode& node) {
  constexpr int kLanes = Isa::kF64Lanes;
  LaneBest<Isa> lanes{Isa::d_splat(-std::numeric_limits<double>::infinity()),
                      Isa::d_zero()};
  for (std::size_t w = 0; w < node.words; ++w)
    for (int pass = 0; pass < 64 / kPassColumns<Isa>; ++pass)
      unit_split_pass<Isa>(node, w, pass, lanes);
  alignas(64) double gain[kLanes];
  alignas(64) double column[kLanes];
  Isa::d_store(gain, lanes.gain);
  Isa::d_store(column, lanes.column);
  UnitBest best;
  for (int j = 0; j < kLanes; ++j) {
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
  constexpr int kLanes = Isa::kF64Lanes;
  p.lanes = kLanes;
  const auto a = Isa::d_load(p.a);
  const auto b = Isa::d_load(p.b);
  Isa::d_store(p.zero, Isa::d_zero());
  Isa::d_store(p.splat, Isa::d_splat(p.b[0]));
  Isa::d_store(p.add, Isa::d_add(a, b));
  Isa::d_store(p.sub, Isa::d_sub(a, b));
  Isa::d_store(p.mul, Isa::d_mul(a, b));
  Isa::d_store(p.div, Isa::d_div(a, b));
  Isa::d_store(p.from_u8, Isa::d_from_u8(p.x));
  Isa::d_store(p.select, Isa::d_select(Isa::d_cmpge(a, b), a, b));
  p.ge = Isa::m_bits(Isa::d_cmpge(a, b));
  p.gt = Isa::m_bits(Isa::d_cmpgt(a, b));
  p.conj = Isa::m_bits(Isa::m_and(Isa::d_cmpge(a, b), Isa::d_cmpge(b, a)));
  const auto bits = Isa::d_bits(p.word);
  // An accumulator is a sum from +0.0, so never -0.0 (see d_add_kept).
  const auto acc = Isa::d_add(Isa::d_zero(), b);
  for (int k = 0; k < 64 / kLanes; ++k) {
    Isa::d_store(p.add_kept[k], Isa::d_add_kept(acc, a, bits, k));
    p.lanes_of[k] = Isa::m_bits(Isa::m_lanes(bits, k));
  }
  Isa::c_store(p.count,
               Isa::c_add_bits(Isa::c_add_bits(Isa::c_zero(), p.word),
                               p.word >> 3 | p.word << 61));
  if constexpr (requires { typename Isa::VU8; }) {
    p.has_bytes = true;
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
}

}  // namespace kernels
}  // namespace anb::detail
