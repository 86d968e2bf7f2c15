#pragma once

// The repo's single SIMD surface. Every raw intrinsic (AVX2, AVX-512,
// NEON) lives behind the Isa policy structs below; the raw-simd lint pass
// forbids <immintrin.h>/<arm_neon.h>, `_mm*`/`__m*`/AVX-512 mask and NEON
// identifiers anywhere else in src/, so a grep for this header finds
// every data-parallel kernel.
//
// Two layers:
//  - Target / cpu_supports / active_target: *runtime* dispatch. One binary
//    carries a scalar build of every kernel plus (on x86) an AVX2 build
//    compiled in its own -mavx2 translation unit and an AVX-512 build of
//    the split kernel in its own -mavx512* one; the probe picks at run
//    time, so a binary built on an AVX-512 box still runs on an older CPU.
//  - ScalarIsa / Avx2Isa / Avx512Isa / NeonIsa: *compile-time* policy
//    structs, consumed by kernel templates. ScalarIsa, Avx2Isa and NeonIsa
//    share a 32 x u8 byte tier; ScalarIsa and Avx2Isa add a 4 x f64 tier
//    and a 32-counter count tier for the split kernel of the tree builder,
//    and Avx512Isa carries only those two tiers, 8 x f64 and 64 counters
//    wide. The vector ISAs are only defined when the translation unit is
//    compiled with the matching -m flags, which makes it impossible to
//    instantiate a vector kernel in a TU that could leak its instructions
//    into baseline code paths.
//
// Exactness: the byte and count ops and the f64 compare, mask and
// lane-select ops are bitwise or integer operations, so they are
// bit-exact against their scalar meaning. The f64 add/sub/mul/div (and
// d_add_kept's add) are single IEEE-754 round-to-nearest operations per
// lane, so they match the scalar C++ operators bit for bit only when
// neither side fuses a mul and an add: the vector TUs are compiled with
// -mno-fma -ffp-contract=off, and kernels must keep the scalar operation
// order. Kernels built on these ops can then promise bit-identical
// results to a scalar loop.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace anb::simd {

/// Instruction sets the dispatcher understands. kScalar is always
/// available; the others require both a capable CPU (runtime probe) and a
/// toolchain that could build the kernel TU (else dispatch falls back).
/// kAvx512 is AVX2-capable: every site that runs an AVX2 kernel under
/// kAvx2 runs it under kAvx512 too, unless it has an AVX-512 build.
enum class Target : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
  kAvx512 = 3,
};

const char* target_name(Target t);

/// True if the running CPU can execute `t`. kScalar is always true; kAvx2
/// (avx2) and kAvx512 (avx512f, bw, vl and dq) use the compiler's
/// CPU probe on x86 (false elsewhere); kNeon is true exactly when the
/// binary was built for a NEON-mandatory architecture.
bool cpu_supports(Target t);

/// Best target the CPU supports, ignoring overrides and ANB_SIMD.
Target best_cpu_target();

/// True when the environment disables SIMD (`ANB_SIMD` set to `off`, `0`
/// or `scalar`; read once per process).
bool env_disabled();

/// The dispatch decision: a forced target if one is set (test/bench
/// hook), else kScalar when ANB_SIMD disables SIMD, else
/// best_cpu_target().
Target active_target();

/// Process-wide forced target (checked against cpu_supports; throws
/// anb::Error on an impossible force). Tests and benches use the RAII
/// form below; the force wins over ANB_SIMD.
void force_target(Target t);
void clear_forced_target();

/// RAII force/restore of the dispatch target.
class ScopedTarget {
 public:
  explicit ScopedTarget(Target t) { force_target(t); }
  ~ScopedTarget() { clear_forced_target(); }
  ScopedTarget(const ScopedTarget&) = delete;
  ScopedTarget& operator=(const ScopedTarget&) = delete;
};

/// 64-byte-aligned zero-initialized heap array of a trivially copyable T.
template <class T>
class AlignedBuf {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  AlignedBuf() = default;
  explicit AlignedBuf(std::size_t n) : size_(n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes == 0) return;
    ptr_.reset(static_cast<T*>(
        ::operator new(bytes, std::align_val_t{kAlignment})));
    std::memset(ptr_.get(), 0, bytes);
  }

  T* data() { return ptr_.get(); }
  const T* data() const { return ptr_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return ptr_.get()[i]; }
  const T& operator[](std::size_t i) const { return ptr_.get()[i]; }

  static constexpr std::size_t kAlignment = 64;

 private:
  struct Free {
    void operator()(T* p) const {
      ::operator delete(p, std::align_val_t{kAlignment});
    }
  };
  std::unique_ptr<T, Free> ptr_;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Isa policy structs. Shared interface: a 32 x u8 byte tier for the masked
// leaf-set kernel (compare a block of quantized row codes against one node
// threshold and fold the node's leaf mask into per-row accumulators):
//
//   VU8                   vector of 32 x u8
//   b_splat/b_load/b_store broadcast, unaligned load/store (32 bytes)
//   b_ones                all bits set (the leaf-mask identity)
//   b_and/b_or            bitwise combine
//   b_cmplt_s8            signed per-byte a < b -> 0xFF/0x00. Callers
//                         compare unsigned codes by pre-XORing both
//                         sides with 0x80 (order-preserving bias).
//   b_bits                lane i = 0xFF if bit i of a 32-bit word is set,
//                         else 0x00
//   b_sub                 per-byte wrapping a - b (subtracting a b_bits
//                         mask counts the set bits lane by lane)
//
// ScalarIsa, Avx2Isa and Avx512Isa carry an f64 tier and a count tier
// for the tree builder's split kernel (fold gradients into per-column
// sums, count each column's rows, score the candidates). Avx512Isa has
// only these two tiers.
//
//   kF64Lanes             f64 lanes per vector: 4 (ScalarIsa, Avx2Isa) or
//                         8 (Avx512Isa); BasicScalarIsa<8> is the scalar
//                         meaning of the 8-lane ops
//   VF64                  vector of kF64Lanes x f64
//   d_zero/d_splat        +0.0 in every lane, broadcast
//   d_load/d_store        unaligned load/store (kF64Lanes doubles)
//   d_add/d_sub/d_mul/d_div  IEEE-754 lane-wise arithmetic
//   VMask                 one predicate per f64 lane (Avx2Isa: all-ones
//                         or +0.0 lanes; ScalarIsa and Avx512Isa: bits)
//   d_cmpge/d_cmpgt       ordered a >= b / a > b (false for NaN, as the
//                         C++ operators)
//   m_and                 lane-wise AND of two masks
//   m_bits                the mask's lanes as bits 0..kF64Lanes-1
//   d_select(m, a, b)     lane j = m_j ? a_j : b_j
//   VBits/d_bits          a 64-bit word, prepared for the two ops below
//   m_lanes(bits, k)      lane j set iff bit kF64Lanes*k+j of the word is
//                         (k in [0, 64 / kF64Lanes))
//   d_add_kept(acc, x, bits, k)  lane j = acc_j + x_j if bit
//                         kF64Lanes*k+j of the word is set, else acc_j.
//                         Avx2Isa adds +0.0 instead of keeping acc_j,
//                         which is the same for every acc_j but -0.0: the
//                         op is defined for an acc with no -0.0 lane
//                         (a sum from +0.0, as the kernel's accumulators)
//   d_from_u8(p)          lane j = p[j] as a double (kF64Lanes bytes read)
//   VCount                8 * kF64Lanes byte counters
//   c_zero                every counter 0
//   c_add_bits(c, word)   counter i += bit i of the word, wrapping (bits
//                         from 8 * kF64Lanes up are ignored)
//   c_store(p, c)         store the 8 * kF64Lanes counters
// ---------------------------------------------------------------------------

/// Reference implementation: plain loops over structs of lanes. Always
/// compiled, used both as the fallback kernel and as the semantics spec
/// the vector ISAs are tested against; `Lanes` is the f64 tier's width.
template <int Lanes>
struct BasicScalarIsa {
  struct VU8 {
    std::uint8_t v[32];
  };

  static VU8 b_splat(std::uint8_t x) {
    VU8 r;
    for (auto& lane : r.v) lane = x;
    return r;
  }
  static VU8 b_ones() { return b_splat(0xFF); }
  static VU8 b_load(const std::uint8_t* p) {
    VU8 r;
    for (int i = 0; i < 32; ++i) r.v[i] = p[i];
    return r;
  }
  static void b_store(std::uint8_t* p, VU8 x) {
    for (int i = 0; i < 32; ++i) p[i] = x.v[i];
  }
  static VU8 b_and(VU8 a, VU8 b) {
    VU8 r;
    for (int i = 0; i < 32; ++i)
      r.v[i] = static_cast<std::uint8_t>(a.v[i] & b.v[i]);
    return r;
  }
  static VU8 b_or(VU8 a, VU8 b) {
    VU8 r;
    for (int i = 0; i < 32; ++i)
      r.v[i] = static_cast<std::uint8_t>(a.v[i] | b.v[i]);
    return r;
  }
  static VU8 b_cmplt_s8(VU8 a, VU8 b) {
    VU8 r;
    for (int i = 0; i < 32; ++i)
      r.v[i] = static_cast<std::int8_t>(a.v[i]) <
                       static_cast<std::int8_t>(b.v[i])
                   ? 0xFF
                   : 0x00;
    return r;
  }
  static VU8 b_bits(std::uint32_t bits) {
    VU8 r;
    for (int i = 0; i < 32; ++i) r.v[i] = (bits >> i) & 1U ? 0xFF : 0x00;
    return r;
  }
  static VU8 b_sub(VU8 a, VU8 b) {
    VU8 r;
    for (int i = 0; i < 32; ++i)
      r.v[i] = static_cast<std::uint8_t>(a.v[i] - b.v[i]);
    return r;
  }

  static constexpr int kF64Lanes = Lanes;
  struct VF64 {
    double v[Lanes];
  };
  using VMask = unsigned;
  using VBits = std::uint64_t;

  static VF64 d_splat(double x) {
    VF64 r;
    for (double& lane : r.v) lane = x;
    return r;
  }
  static VF64 d_zero() { return d_splat(0.0); }
  static VF64 d_load(const double* p) {
    VF64 r;
    for (int j = 0; j < Lanes; ++j) r.v[j] = p[j];
    return r;
  }
  static void d_store(double* p, VF64 x) {
    for (int j = 0; j < Lanes; ++j) p[j] = x.v[j];
  }
  static VF64 d_add(VF64 a, VF64 b) {
    for (int j = 0; j < Lanes; ++j) a.v[j] += b.v[j];
    return a;
  }
  static VF64 d_sub(VF64 a, VF64 b) {
    for (int j = 0; j < Lanes; ++j) a.v[j] -= b.v[j];
    return a;
  }
  static VF64 d_mul(VF64 a, VF64 b) {
    for (int j = 0; j < Lanes; ++j) a.v[j] *= b.v[j];
    return a;
  }
  static VF64 d_div(VF64 a, VF64 b) {
    for (int j = 0; j < Lanes; ++j) a.v[j] /= b.v[j];
    return a;
  }
  static VMask d_cmpge(VF64 a, VF64 b) {
    VMask m = 0;
    for (int j = 0; j < Lanes; ++j) m |= (a.v[j] >= b.v[j] ? 1U : 0U) << j;
    return m;
  }
  static VMask d_cmpgt(VF64 a, VF64 b) {
    VMask m = 0;
    for (int j = 0; j < Lanes; ++j) m |= (a.v[j] > b.v[j] ? 1U : 0U) << j;
    return m;
  }
  static VMask m_and(VMask a, VMask b) { return a & b; }
  static unsigned m_bits(VMask m) { return m; }
  static VF64 d_select(VMask m, VF64 a, VF64 b) {
    for (int j = 0; j < Lanes; ++j)
      if (((m >> j) & 1U) == 0) a.v[j] = b.v[j];
    return a;
  }
  static VBits d_bits(std::uint64_t word) { return word; }
  static VMask m_lanes(VBits bits, int k) {
    return static_cast<VMask>(bits >> (Lanes * k)) & ((1U << Lanes) - 1);
  }
  static VF64 d_add_kept(VF64 acc, VF64 x, VBits bits, int k) {
    for (int j = 0; j < Lanes; ++j)
      if (((bits >> (Lanes * k + j)) & 1U) != 0) acc.v[j] += x.v[j];
    return acc;
  }
  static VF64 d_from_u8(const std::uint8_t* p) {
    VF64 r;
    for (int j = 0; j < Lanes; ++j) r.v[j] = static_cast<double>(p[j]);
    return r;
  }

  struct VCount {
    std::uint8_t v[8 * Lanes];
  };
  static VCount c_zero() { return {}; }
  static VCount c_add_bits(VCount c, std::uint64_t word) {
    for (int i = 0; i < 8 * Lanes; ++i)
      c.v[i] = static_cast<std::uint8_t>(c.v[i] + ((word >> i) & 1U));
    return c;
  }
  static void c_store(std::uint8_t* p, VCount c) {
    for (int i = 0; i < 8 * Lanes; ++i) p[i] = c.v[i];
  }
};

using ScalarIsa = BasicScalarIsa<4>;

#if defined(__AVX2__)
/// AVX2: only defined in TUs compiled with -mavx2 (the dedicated kernel
/// TUs), so baseline TUs cannot even name it — the type system enforces
/// the "no AVX2 instructions outside the dispatched TU" rule.
struct Avx2Isa {
  using VU8 = __m256i;

  static VU8 b_splat(std::uint8_t x) {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static VU8 b_ones() { return _mm256_set1_epi8(-1); }
  static VU8 b_load(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void b_store(std::uint8_t* p, VU8 x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x);
  }
  static VU8 b_and(VU8 a, VU8 b) { return _mm256_and_si256(a, b); }
  static VU8 b_or(VU8 a, VU8 b) { return _mm256_or_si256(a, b); }
  static VU8 b_cmplt_s8(VU8 a, VU8 b) { return _mm256_cmpgt_epi8(b, a); }
  static VU8 b_bits(std::uint32_t bits) {
    // Byte i takes byte i/8 of the word, then keeps bit i%8 of it.
    const __m256i spread = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(bits)),
        _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2,
                         2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3));
    const __m256i select =
        _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));
    return _mm256_cmpeq_epi8(_mm256_and_si256(spread, select), select);
  }
  static VU8 b_sub(VU8 a, VU8 b) { return _mm256_sub_epi8(a, b); }

  static constexpr int kF64Lanes = 4;
  using VF64 = __m256d;
  using VMask = __m256d;
  using VBits = __m256i;

  static VF64 d_zero() { return _mm256_setzero_pd(); }
  static VF64 d_splat(double x) { return _mm256_set1_pd(x); }
  static VF64 d_load(const double* p) { return _mm256_loadu_pd(p); }
  static void d_store(double* p, VF64 x) { _mm256_storeu_pd(p, x); }
  static VF64 d_add(VF64 a, VF64 b) { return _mm256_add_pd(a, b); }
  static VF64 d_sub(VF64 a, VF64 b) { return _mm256_sub_pd(a, b); }
  static VF64 d_mul(VF64 a, VF64 b) { return _mm256_mul_pd(a, b); }
  static VF64 d_div(VF64 a, VF64 b) { return _mm256_div_pd(a, b); }
  static VMask d_cmpge(VF64 a, VF64 b) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  static VMask d_cmpgt(VF64 a, VF64 b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static VMask m_and(VMask a, VMask b) { return _mm256_and_pd(a, b); }
  static unsigned m_bits(VMask m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static VF64 d_select(VMask m, VF64 a, VF64 b) {
    return _mm256_blendv_pd(b, a, m);
  }
  static VBits d_bits(std::uint64_t word) {
    return _mm256_set1_epi64x(static_cast<long long>(word));
  }
  static VMask m_lanes(VBits bits, int k) {
    return _mm256_castsi256_pd(lanes_on(bits, k));
  }
  static VF64 d_add_kept(VF64 acc, VF64 x, VBits bits, int k) {
    return _mm256_add_pd(acc,
                         _mm256_and_pd(_mm256_castsi256_pd(lanes_on(bits, k)),
                                       x));
  }
  static VF64 d_from_u8(const std::uint8_t* p) {
    std::int32_t four;
    std::memcpy(&four, p, sizeof four);
    return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(four)));
  }

  using VCount = __m256i;
  static VCount c_zero() { return _mm256_setzero_si256(); }
  static VCount c_add_bits(VCount c, std::uint64_t word) {
    return b_sub(c, b_bits(static_cast<std::uint32_t>(word)));
  }
  static void c_store(std::uint8_t* p, VCount c) { b_store(p, c); }

 private:
  /// Lane j all-ones iff bit 4k+j of the broadcast word is set.
  static __m256i lanes_on(VBits bits, int k) {
    const __m256i select = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLaneBits.bit + 4 * k));
    return _mm256_cmpeq_epi64(_mm256_and_si256(bits, select), select);
  }
  /// bit[i] = 1 << i: lane j of group k selects bit 4k+j.
  struct alignas(32) LaneBits {
    std::uint64_t bit[64];
  };
  static constexpr LaneBits kLaneBits = [] {
    LaneBits t{};
    for (int i = 0; i < 64; ++i) t.bit[i] = std::uint64_t{1} << i;
    return t;
  }();
};
#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
/// AVX-512 (F, BW and VL): only defined in TUs compiled with the matching
/// -m flags, like Avx2Isa. It carries the f64 and count tiers only; its
/// masks are k registers, so d_add_kept is one masked add and c_add_bits
/// one masked byte add.
struct Avx512Isa {
  static constexpr int kF64Lanes = 8;
  using VF64 = __m512d;
  using VMask = __mmask8;
  using VBits = std::uint64_t;

  static VF64 d_zero() { return _mm512_setzero_pd(); }
  static VF64 d_splat(double x) { return _mm512_set1_pd(x); }
  static VF64 d_load(const double* p) { return _mm512_loadu_pd(p); }
  static void d_store(double* p, VF64 x) { _mm512_storeu_pd(p, x); }
  static VF64 d_add(VF64 a, VF64 b) { return _mm512_add_pd(a, b); }
  static VF64 d_sub(VF64 a, VF64 b) { return _mm512_sub_pd(a, b); }
  static VF64 d_mul(VF64 a, VF64 b) { return _mm512_mul_pd(a, b); }
  static VF64 d_div(VF64 a, VF64 b) { return _mm512_div_pd(a, b); }
  static VMask d_cmpge(VF64 a, VF64 b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  static VMask d_cmpgt(VF64 a, VF64 b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static VMask m_and(VMask a, VMask b) { return static_cast<VMask>(a & b); }
  static unsigned m_bits(VMask m) { return m; }
  static VF64 d_select(VMask m, VF64 a, VF64 b) {
    return _mm512_mask_blend_pd(m, b, a);
  }
  static VBits d_bits(std::uint64_t word) { return word; }
  static VMask m_lanes(VBits bits, int k) {
    return static_cast<VMask>(bits >> (8 * k));
  }
  static VF64 d_add_kept(VF64 acc, VF64 x, VBits bits, int k) {
    return _mm512_mask_add_pd(acc, m_lanes(bits, k), acc, x);
  }
  static VF64 d_from_u8(const std::uint8_t* p) {
    // The zero-masked form with every lane on: the plain one reads an
    // "undefined" register that GCC 12 warns is uninitialized.
    return _mm512_maskz_cvtepi32_pd(
        0xFF, _mm256_cvtepu8_epi32(
                  _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }

  using VCount = __m512i;
  static VCount c_zero() { return _mm512_setzero_si512(); }
  static VCount c_add_bits(VCount c, std::uint64_t word) {
    return _mm512_mask_add_epi8(c, _cvtu64_mask64(word), c,
                                _mm512_set1_epi8(1));
  }
  static void c_store(std::uint8_t* p, VCount c) {
    _mm512_storeu_si512(p, c);
  }
};
#endif  // __AVX512F__ && __AVX512BW__ && __AVX512VL__

#if defined(__ARM_NEON)
/// NEON: two uint8x16 halves per 32-lane vector.
struct NeonIsa {
  struct VU8 {
    uint8x16_t a;
    uint8x16_t b;
  };

  static VU8 b_splat(std::uint8_t x) {
    return {vdupq_n_u8(x), vdupq_n_u8(x)};
  }
  static VU8 b_ones() { return b_splat(0xFF); }
  static VU8 b_load(const std::uint8_t* p) {
    return {vld1q_u8(p), vld1q_u8(p + 16)};
  }
  static void b_store(std::uint8_t* p, VU8 x) {
    vst1q_u8(p, x.a);
    vst1q_u8(p + 16, x.b);
  }
  static VU8 b_and(VU8 x, VU8 y) {
    return {vandq_u8(x.a, y.a), vandq_u8(x.b, y.b)};
  }
  static VU8 b_or(VU8 x, VU8 y) {
    return {vorrq_u8(x.a, y.a), vorrq_u8(x.b, y.b)};
  }
  static VU8 b_cmplt_s8(VU8 x, VU8 y) {
    return {vcltq_s8(vreinterpretq_s8_u8(x.a), vreinterpretq_s8_u8(y.a)),
            vcltq_s8(vreinterpretq_s8_u8(x.b), vreinterpretq_s8_u8(y.b))};
  }
};
#endif  // __ARM_NEON

}  // namespace anb::simd
