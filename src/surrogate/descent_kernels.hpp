#pragma once

// Internal header (not installed): the templated SIMD descent kernels for
// FlatForest, instantiated once per ISA translation unit. flat_forest.cpp
// instantiates ScalarIsa (and NeonIsa on ARM); flat_forest_avx2.cpp —
// the only TU compiled with -mavx2 — instantiates Avx2Isa. The Isa types
// are disjoint across TUs (Avx2Isa is not even defined without -mavx2),
// so no linker merging can ever route baseline callers into AVX2 code.
//
// Kernel shape (mirrors the PR 2 interleaved walk, one tier wider): per
// 64-row block, two consecutive trees descend 16 rows in lockstep — four
// 8-lane chains of mutually independent gathers in flight, which is what
// hides the ~L2-latency serial node-load chain that bounds the scalar
// walk. Self-looping leaves make "no lane moved" the combined leaf test.
//
// Exactness contract (same as FlatForest::accumulate): every lane takes
// exactly the scalar `x[feature] < split` decisions (quantized descent
// proves its byte compare equivalent — see flat_forest.cpp), and each
// row's accumulation `out += scale * leaf` happens in tree order with
// mul and add unfused.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "anb/util/simd.hpp"

namespace anb::detail {

/// Structure-of-arrays view of a FlatForest (64-byte-aligned arrays owned
/// by FlatForest's lazily built SimdTables). `value` holds the split
/// threshold for internal nodes and the leaf value for leaves — the same
/// dual use as FlatNode::split.
struct SoaView {
  const double* value = nullptr;
  const std::int32_t* feature = nullptr;
  const std::int32_t* left = nullptr;
  const std::int32_t* right = nullptr;
  const std::int32_t* roots = nullptr;
  std::size_t num_trees = 0;
};

/// Quantized node array: one packed word per node,
///   bits  0..15  left child   (tree-local offset)
///   bits 16..31  right child  (tree-local offset)
///   bits 32..47  feature index
///   bits 48..63  quantized threshold code (0 for leaves)
/// Children are tree-local so they fit 16 bits; the kernel adds the
/// tree's root back per step. One 8-byte gather fetches a whole node.
struct QuantView {
  const std::uint64_t* qnodes = nullptr;
};

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

using F64Fn = void (*)(const SoaView& f, const double* rows, std::size_t d,
                       double scale, double* out, std::size_t n);
using QuantFn = void (*)(const SoaView& f, const QuantView& q,
                         const std::uint8_t* codes, std::size_t d_codes,
                         double scale, double* out, std::size_t n);
using MaskedFn = void (*)(const MaskedView& m, std::size_t num_trees,
                          const std::uint8_t* codes_t, std::size_t stride,
                          double scale, double* out, std::size_t n);

/// Per-ISA kernel entry points, dispatched at run time by
/// FlatForest::accumulate.
struct DescentKernels {
  F64Fn f64 = nullptr;
  QuantFn quant = nullptr;
  MaskedFn masked = nullptr;
};

/// The AVX2 instantiation, or nullptr when the toolchain/architecture
/// cannot build it. Defined in flat_forest_avx2.cpp.
const DescentKernels* avx2_descent_kernels();

namespace kernels {

/// Stepper for the full-precision path: gathers feature index, compares
/// the gathered feature value against the gathered threshold, selects the
/// gathered child. Children in the SoA arrays are forest-global, so the
/// per-tree base is unused.
template <class Isa>
struct F64Step {
  using Elem = double;
  using V = typename Isa::VI32;

  const SoaView& f;
  const double* rows;

  V step(V at, V /*base*/, V rowoff) const {
    const V feat = Isa::gather_i32(f.feature, at);
    const V m = Isa::cmplt_f64(rows, Isa::add(rowoff, feat), f.value, at);
    return Isa::select(m, Isa::gather_i32(f.left, at),
                       Isa::gather_i32(f.right, at));
  }
  std::int32_t sstep(std::int32_t at, std::int32_t /*base*/,
                     const double* x) const {
    return x[f.feature[at]] < f.value[at] ? f.left[at] : f.right[at];
  }
  void prefetch_tree(std::int32_t root) const {
    simd::prefetch(f.value + root);
    simd::prefetch(f.feature + root);
    simd::prefetch(f.left + root);
    simd::prefetch(f.right + root);
  }
};

/// Stepper for the quantized path: one u64 gather fetches the packed
/// node, one byte gather fetches the row's precomputed threshold code,
/// and the branch is a signed i32 compare of two small unsigned values.
/// Leaves pack feature=0, qsplit=0, left=right=self: `code < 0` is false,
/// so leaves stay fixed points.
template <class Isa>
struct QuantStep {
  using Elem = std::uint8_t;
  using V = typename Isa::VI32;

  const QuantView& q;
  const std::uint8_t* codes;

  V step(V at, V base, V rowoff) const {
    V lo, hi;
    Isa::gather_u64(q.qnodes, at, lo, hi);
    const V feat = Isa::low16(hi);
    const V qsplit = Isa::high16(hi);
    const V code = Isa::gather_u8(codes, Isa::add(rowoff, feat));
    const V m = Isa::cmplt(code, qsplit);
    const V local = Isa::select(m, Isa::low16(lo), Isa::high16(lo));
    return Isa::add(base, local);
  }
  std::int32_t sstep(std::int32_t at, std::int32_t base,
                     const std::uint8_t* crow) const {
    const std::uint64_t w = q.qnodes[at];
    const auto feat = static_cast<std::int32_t>((w >> 32) & 0xFFFF);
    const auto qsplit = static_cast<std::int32_t>(w >> 48);
    const auto local = static_cast<std::int32_t>(
        static_cast<std::int32_t>(crow[feat]) < qsplit ? (w & 0xFFFF)
                                                       : ((w >> 16) & 0xFFFF));
    return base + local;
  }
  void prefetch_tree(std::int32_t root) const {
    simd::prefetch(q.qnodes + root);
  }
};

/// Two trees x 8 rows: two independent gather chains.
template <class Isa, class Step>
inline void descend8_pair(const Step& st, const double* value,
                          const std::int32_t* rowoff, std::int32_t r0,
                          std::int32_t r1, double scale, double* out) {
  using V = typename Isa::VI32;
  const V off = Isa::load(rowoff);
  const V base0 = Isa::splat(r0);
  const V base1 = Isa::splat(r1);
  V a = base0;
  V c = base1;
  while (true) {
    const V b = st.step(a, base0, off);
    const V d = st.step(c, base1, off);
    const V settled = Isa::bit_and(Isa::cmpeq(b, a), Isa::cmpeq(d, c));
    a = b;
    c = d;
    if (Isa::all_true(settled)) break;
  }
  // Tree r0 before tree r1 for every row — scalar accumulation order.
  Isa::axpy_leaf(value, a, scale, out);
  Isa::axpy_leaf(value, c, scale, out);
}

/// Two trees x 16 rows: four independent gather chains — enough
/// outstanding loads to cover the per-step gather latency on wide cores.
template <class Isa, class Step>
inline void descend16_pair(const Step& st, const double* value,
                           const std::int32_t* rowoff, std::int32_t r0,
                           std::int32_t r1, double scale, double* out) {
  using V = typename Isa::VI32;
  const V off0 = Isa::load(rowoff);
  const V off1 = Isa::load(rowoff + 8);
  const V base0 = Isa::splat(r0);
  const V base1 = Isa::splat(r1);
  V a0 = base0;
  V a1 = base0;
  V c0 = base1;
  V c1 = base1;
  while (true) {
    const V b0 = st.step(a0, base0, off0);
    const V b1 = st.step(a1, base0, off1);
    const V d0 = st.step(c0, base1, off0);
    const V d1 = st.step(c1, base1, off1);
    const V settled =
        Isa::bit_and(Isa::bit_and(Isa::cmpeq(b0, a0), Isa::cmpeq(b1, a1)),
                     Isa::bit_and(Isa::cmpeq(d0, c0), Isa::cmpeq(d1, c1)));
    a0 = b0;
    a1 = b1;
    c0 = d0;
    c1 = d1;
    if (Isa::all_true(settled)) break;
  }
  Isa::axpy_leaf(value, a0, scale, out);
  Isa::axpy_leaf(value, c0, scale, out);
  Isa::axpy_leaf(value, a1, scale, out + 8);
  Isa::axpy_leaf(value, c1, scale, out + 8);
}

/// One tree x 8 rows (odd-tree remainder).
template <class Isa, class Step>
inline void descend8_single(const Step& st, const double* value,
                            const std::int32_t* rowoff, std::int32_t r0,
                            double scale, double* out) {
  using V = typename Isa::VI32;
  const V off = Isa::load(rowoff);
  const V base = Isa::splat(r0);
  V a = base;
  while (true) {
    const V b = st.step(a, base, off);
    const V settled = Isa::cmpeq(b, a);
    a = b;
    if (Isa::all_true(settled)) break;
  }
  Isa::axpy_leaf(value, a, scale, out);
}

/// One tree x 16 rows (odd-tree remainder, two chains).
template <class Isa, class Step>
inline void descend16_single(const Step& st, const double* value,
                             const std::int32_t* rowoff, std::int32_t r0,
                             double scale, double* out) {
  using V = typename Isa::VI32;
  const V off0 = Isa::load(rowoff);
  const V off1 = Isa::load(rowoff + 8);
  const V base = Isa::splat(r0);
  V a0 = base;
  V a1 = base;
  while (true) {
    const V b0 = st.step(a0, base, off0);
    const V b1 = st.step(a1, base, off1);
    const V settled = Isa::bit_and(Isa::cmpeq(b0, a0), Isa::cmpeq(b1, a1));
    a0 = b0;
    a1 = b1;
    if (Isa::all_true(settled)) break;
  }
  Isa::axpy_leaf(value, a0, scale, out);
  Isa::axpy_leaf(value, a1, scale, out + 8);
}

/// Driver shared by both steppers: 64-row blocks (same blocking as the
/// interleaved path), tree pairs, 16/8-row SIMD groups, scalar tail rows.
/// `data`/`stride` address the per-row inputs the scalar tail needs
/// (feature doubles for F64Step, code bytes for QuantStep); the caller
/// guarantees n * stride fits int32 (checked in FlatForest::accumulate).
template <class Isa, class Step>
void run_descent(const SoaView& f, const Step& st,
                 const typename Step::Elem* data, std::size_t stride,
                 double scale, double* out, std::size_t n) {
  constexpr std::size_t kRowBlock = 64;
  const std::int32_t* const roots = f.roots;
  const std::size_t num_trees = f.num_trees;
  std::int32_t rowoff[kRowBlock];

  for (std::size_t begin = 0; begin < n; begin += kRowBlock) {
    const std::size_t nb = std::min(n - begin, kRowBlock);
    for (std::size_t i = 0; i < nb; ++i)
      rowoff[i] = static_cast<std::int32_t>((begin + i) * stride);
    std::size_t t = 0;
    for (; t + 2 <= num_trees; t += 2) {
      if (t + 4 <= num_trees) {
        st.prefetch_tree(roots[t + 2]);
        st.prefetch_tree(roots[t + 3]);
      }
      const std::int32_t r0 = roots[t];
      const std::int32_t r1 = roots[t + 1];
      std::size_t i = 0;
      for (; i + 16 <= nb; i += 16)
        descend16_pair<Isa>(st, f.value, rowoff + i, r0, r1, scale,
                            out + begin + i);
      for (; i + 8 <= nb; i += 8)
        descend8_pair<Isa>(st, f.value, rowoff + i, r0, r1, scale,
                           out + begin + i);
      for (; i < nb; ++i) {
        const auto* const x = data + (begin + i) * stride;
        std::int32_t a = r0;
        std::int32_t c = r1;
        while (true) {
          const std::int32_t b = st.sstep(a, r0, x);
          const std::int32_t d = st.sstep(c, r1, x);
          const bool settled = (b == a) & (d == c);
          a = b;
          c = d;
          if (settled) break;
        }
        out[begin + i] += scale * f.value[a];
        out[begin + i] += scale * f.value[c];
      }
    }
    if (t < num_trees) {
      const std::int32_t r0 = roots[t];
      std::size_t i = 0;
      for (; i + 16 <= nb; i += 16)
        descend16_single<Isa>(st, f.value, rowoff + i, r0, scale,
                              out + begin + i);
      for (; i + 8 <= nb; i += 8)
        descend8_single<Isa>(st, f.value, rowoff + i, r0, scale,
                             out + begin + i);
      for (; i < nb; ++i) {
        const auto* const x = data + (begin + i) * stride;
        std::int32_t at = r0;
        for (std::int32_t next = st.sstep(at, r0, x); next != at;
             next = st.sstep(at, r0, x)) {
          at = next;
        }
        out[begin + i] += scale * f.value[at];
      }
    }
  }
}

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

template <class Isa>
void run_f64(const SoaView& f, const double* rows, std::size_t d,
             double scale, double* out, std::size_t n) {
  const F64Step<Isa> st{f, rows};
  run_descent<Isa>(f, st, rows, d, scale, out, n);
}

template <class Isa>
void run_quant(const SoaView& f, const QuantView& q,
               const std::uint8_t* codes, std::size_t d_codes, double scale,
               double* out, std::size_t n) {
  const QuantStep<Isa> st{q, codes};
  run_descent<Isa>(f, st, codes, d_codes, scale, out, n);
}

template <class Isa>
DescentKernels make_kernels() {
  return DescentKernels{&run_f64<Isa>, &run_quant<Isa>, &run_masked<Isa>};
}

}  // namespace kernels
}  // namespace anb::detail
