#pragma once

// Internal header (not installed): the templated SIMD descent kernels for
// FlatForest, instantiated once per ISA translation unit. flat_forest.cpp
// instantiates ScalarIsa (and NeonIsa on ARM); flat_forest_avx2.cpp —
// the only TU compiled with -mavx2 — instantiates Avx2Isa. The Isa types
// are disjoint across TUs (Avx2Isa is not even defined without -mavx2),
// so no linker merging can ever route baseline callers into AVX2 code.
//
// Exactness contract (same as FlatForest::accumulate): every lane takes
// exactly the scalar `x[feature] < split` decision (the byte compare on
// threshold codes is proved equivalent in flat_forest.cpp), and each
// row's accumulation `out += scale * leaf` happens in tree order with
// mul and add unfused.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "anb/util/simd.hpp"

namespace anb::detail {

/// Masked leaf-set evaluation tables (the QuickScorer scheme of Lucchese
/// et al., SIGIR'15, specialized to <= 8 leaves per tree). Leaves are
/// numbered left to right; each internal node carries an 8-bit mask with
/// zeros exactly at the leaves of its *left* subtree. Evaluating a tree
/// on a row ANDs the masks of every node whose condition `code < qsplit`
/// is false; the lowest set bit of the result is the exit leaf:
///  - the exit leaf survives: a false node with the exit leaf in its left
///    subtree would be a path ancestor whose condition sent the row left;
///  - any leaf left of the exit is killed by the path node where the
///    descent turned right (its left subtree holds that leaf).
/// Nodes are therefore processed in arbitrary order with no per-node
/// dependence — a straight-line AND-reduction over 32-row byte vectors,
/// no gathers and no settle loop, cost proportional to node count rather
/// than depth.
struct MaskedView {
  const std::uint32_t* feature = nullptr;   ///< per internal node
  const std::uint8_t* qsplit_x = nullptr;   ///< threshold code ^ 0x80
  const std::uint8_t* mask = nullptr;       ///< ~(left-subtree leaf bits)
  const std::uint32_t* node_off = nullptr;  ///< per-tree [t, t+1) node range
  const double* leaf = nullptr;             ///< leaf values, trees back to back
  const std::uint32_t* leaf_off = nullptr;  ///< per-tree start into `leaf`
};

using MaskedFn = void (*)(const MaskedView& m, std::size_t num_trees,
                          const std::uint8_t* codes_t, std::size_t stride,
                          double scale, double* out, std::size_t n);

/// The AVX2 instantiation of the masked kernel, or nullptr when the
/// toolchain/architecture cannot build it. Defined in flat_forest_avx2.cpp;
/// FlatForest::accumulate dispatches to it at run time.
MaskedFn avx2_masked_kernel();

namespace kernels {

/// Rows of one masked-engine block: two 32-lane byte vectors.
constexpr std::size_t kMaskedBlock = 64;

/// One block of `nb` rows through every tree: one 32-row vector
/// accumulator, plus a second when kTwo. Lanes past `nb` evaluate padding
/// codes; their leaves are never read.
template <class Isa, bool kTwo>
inline void masked_block(const MaskedView& m, std::size_t num_trees,
                         const std::uint8_t* codes_t, std::size_t stride,
                         double scale, double* out, std::size_t nb) {
  using VU8 = typename Isa::VU8;
  alignas(64) std::uint8_t accb[kMaskedBlock];
  for (std::size_t t = 0; t < num_trees; ++t) {
    VU8 acc0 = Isa::b_ones();
    VU8 acc1 = Isa::b_ones();
    const std::uint32_t k1 = m.node_off[t + 1];
    for (std::uint32_t k = m.node_off[t]; k < k1; ++k) {
      const std::uint8_t* const c =
          codes_t + static_cast<std::size_t>(m.feature[k]) * stride;
      const VU8 split = Isa::b_splat(m.qsplit_x[k]);
      const VU8 msk = Isa::b_splat(m.mask[k]);
      // Condition true (code < qsplit): compare lanes are 0xFF, the OR
      // saturates and the node constrains nothing. Condition false: the
      // node's leaf mask is ANDed in.
      acc0 = Isa::b_and(
          acc0, Isa::b_or(Isa::b_cmplt_s8(Isa::b_load(c), split), msk));
      if constexpr (kTwo)
        acc1 = Isa::b_and(
            acc1, Isa::b_or(Isa::b_cmplt_s8(Isa::b_load(c + 32), split), msk));
    }
    Isa::b_store(accb, acc0);
    if constexpr (kTwo) Isa::b_store(accb + 32, acc1);
    const double* const lv = m.leaf + m.leaf_off[t];
    // Tree t's contribution lands before tree t+1's for every row — the
    // scalar accumulation order, mul and add unfused.
    for (std::size_t i = 0; i < nb; ++i)
      out[i] += scale * lv[std::countr_zero(accb[i])];
  }
}

/// Masked leaf-set evaluation (see MaskedView). `codes_t` is the batch's
/// quantized feature matrix transposed to feature-major with every code
/// XOR 0x80, so one unaligned 32-byte load covers 32 rows of one feature
/// and the signed byte compare reproduces the unsigned `code < qsplit`
/// decision. The row stride is n rounded up to a multiple of 32, so every
/// block — the tail included — runs as one or two whole vectors; the
/// padding lanes hold any initialized bytes and their results are
/// discarded. The exit-leaf lookup `countr_zero` never sees 0: the exit
/// leaf's bit survives every mask by construction.
template <class Isa>
void run_masked(const MaskedView& m, std::size_t num_trees,
                const std::uint8_t* codes_t, std::size_t stride, double scale,
                double* out, std::size_t n) {
  for (std::size_t begin = 0; begin < n; begin += kMaskedBlock) {
    const std::size_t nb = std::min(n - begin, kMaskedBlock);
    if (nb > 32)
      masked_block<Isa, true>(m, num_trees, codes_t + begin, stride,
                              scale, out + begin, nb);
    else
      masked_block<Isa, false>(m, num_trees, codes_t + begin, stride,
                               scale, out + begin, nb);
  }
}

}  // namespace kernels
}  // namespace anb::detail
