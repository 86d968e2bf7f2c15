#pragma once

// The repo's single SIMD surface. Every raw intrinsic (AVX2, NEON) lives
// behind the Isa policy structs below; the raw-simd lint pass forbids
// <immintrin.h>/<arm_neon.h> and `_mm*`/NEON identifiers anywhere else in
// src/, so a grep for this header finds every data-parallel kernel.
//
// Two layers:
//  - Target / cpu_supports / active_target: *runtime* dispatch. One binary
//    carries a scalar build of every kernel plus (on x86) an AVX2 build
//    compiled in its own -mavx2 translation unit; the probe picks at run
//    time, so a binary built on an AVX2 box still runs on an older CPU.
//  - ScalarIsa / Avx2Isa / NeonIsa: *compile-time* policy structs with an
//    identical static interface (32 x u8 lanes), consumed by kernel
//    templates. ScalarIsa and Avx2Isa add a 4 x f64 tier for the split
//    kernel of the tree builder. The vector ISAs are only defined when the
//    translation unit is compiled with the matching -m flags, which makes
//    it impossible to instantiate an AVX2 kernel in a TU that could leak
//    AVX2 instructions into baseline code paths.
//
// Exactness: the byte ops and the f64 bitwise, compare and lane-select
// ops are bitwise or integer operations, so they are bit-exact against
// their scalar meaning. The f64 add/sub/mul/div are single IEEE-754
// round-to-nearest operations per lane, so they match the scalar C++
// operators bit for bit only when neither side fuses a mul and an add:
// the AVX2 TU is compiled with -mno-fma -ffp-contract=off, and kernels
// must keep the scalar operation order. Kernels built on these ops can
// then promise bit-identical results to a scalar loop.

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
enum class Target : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

const char* target_name(Target t);

/// True if the running CPU can execute `t`. kScalar is always true; kAvx2
/// uses the compiler's CPU probe on x86 (false elsewhere); kNeon is true
/// exactly when the binary was built for a NEON-mandatory architecture.
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
// ScalarIsa and Avx2Isa add a 4 x f64 tier for the tree builder's split
// kernel (fold gradients into per-column sums, score the candidates):
//
//   VF64                  vector of 4 x f64
//   d_zero/d_splat        +0.0 in every lane, broadcast
//   d_load/d_store        unaligned load/store (32 bytes)
//   d_add/d_sub/d_mul/d_div  IEEE-754 lane-wise arithmetic
//   d_and                 bitwise AND
//   d_cmpge/d_cmpgt       ordered a >= b / a > b -> all-ones or +0.0
//                         lanes (false for NaN, as the C++ operators)
//   d_movemask            the lanes' sign bits as bits 0..3
//   VBits/d_bits          a 64-bit word broadcast for d_keep
//   d_keep(x, bits, k)    lane j = x_j if bit 4k+j of the word is set,
//                         else +0.0 (k in [0, 16))
//   d_from_u8(p)          lane j = p[j] as a double (4 bytes read)
//   d_select(m, a, b)     lane j = m_j ? a_j : b_j, for m from a compare
// ---------------------------------------------------------------------------

/// Reference implementation: plain loops over a 32-lane struct. Always
/// compiled, used both as the fallback kernel and as the semantics spec
/// the vector ISAs are tested against.
struct ScalarIsa {
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

  struct VF64 {
    double v[4];
  };
  struct VBits {
    std::uint64_t word;
  };

  static VF64 d_splat(double x) { return {{x, x, x, x}}; }
  static VF64 d_zero() { return d_splat(0.0); }
  static VF64 d_load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static void d_store(double* p, VF64 x) {
    for (int j = 0; j < 4; ++j) p[j] = x.v[j];
  }
  static VF64 d_add(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j) a.v[j] += b.v[j];
    return a;
  }
  static VF64 d_sub(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j) a.v[j] -= b.v[j];
    return a;
  }
  static VF64 d_mul(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j) a.v[j] *= b.v[j];
    return a;
  }
  static VF64 d_div(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j) a.v[j] /= b.v[j];
    return a;
  }
  static VF64 d_and(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j)
      a.v[j] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[j]) &
                                     std::bit_cast<std::uint64_t>(b.v[j]));
    return a;
  }
  static VF64 d_cmpge(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j) a.v[j] = lane_mask(a.v[j] >= b.v[j]);
    return a;
  }
  static VF64 d_cmpgt(VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j) a.v[j] = lane_mask(a.v[j] > b.v[j]);
    return a;
  }
  static unsigned d_movemask(VF64 x) {
    unsigned r = 0;
    for (int j = 0; j < 4; ++j)
      r |= static_cast<unsigned>(std::bit_cast<std::uint64_t>(x.v[j]) >> 63)
           << j;
    return r;
  }
  static VBits d_bits(std::uint64_t word) { return {word}; }
  static VF64 d_keep(VF64 x, VBits bits, int k) {
    for (int j = 0; j < 4; ++j)
      if (((bits.word >> (4 * k + j)) & 1U) == 0) x.v[j] = 0.0;
    return x;
  }
  static VF64 d_select(VF64 m, VF64 a, VF64 b) {
    for (int j = 0; j < 4; ++j)
      if ((std::bit_cast<std::uint64_t>(m.v[j]) >> 63) == 0) a.v[j] = b.v[j];
    return a;
  }
  static VF64 d_from_u8(const std::uint8_t* p) {
    return {{static_cast<double>(p[0]), static_cast<double>(p[1]),
             static_cast<double>(p[2]), static_cast<double>(p[3])}};
  }

 private:
  static double lane_mask(bool on) {
    return std::bit_cast<double>(on ? ~std::uint64_t{0} : std::uint64_t{0});
  }
};

#if defined(__AVX2__)
/// AVX2: only defined in TUs compiled with -mavx2 (the dedicated kernel
/// TU), so baseline TUs cannot even name it — the type system enforces
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

  using VF64 = __m256d;
  using VBits = __m256i;

  static VF64 d_zero() { return _mm256_setzero_pd(); }
  static VF64 d_splat(double x) { return _mm256_set1_pd(x); }
  static VF64 d_load(const double* p) { return _mm256_loadu_pd(p); }
  static void d_store(double* p, VF64 x) { _mm256_storeu_pd(p, x); }
  static VF64 d_add(VF64 a, VF64 b) { return _mm256_add_pd(a, b); }
  static VF64 d_sub(VF64 a, VF64 b) { return _mm256_sub_pd(a, b); }
  static VF64 d_mul(VF64 a, VF64 b) { return _mm256_mul_pd(a, b); }
  static VF64 d_div(VF64 a, VF64 b) { return _mm256_div_pd(a, b); }
  static VF64 d_and(VF64 a, VF64 b) { return _mm256_and_pd(a, b); }
  static VF64 d_cmpge(VF64 a, VF64 b) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  static VF64 d_cmpgt(VF64 a, VF64 b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static unsigned d_movemask(VF64 x) {
    return static_cast<unsigned>(_mm256_movemask_pd(x));
  }
  static VBits d_bits(std::uint64_t word) {
    return _mm256_set1_epi64x(static_cast<long long>(word));
  }
  static VF64 d_keep(VF64 x, VBits bits, int k) {
    const __m256i select = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLaneBits.bit + 4 * k));
    const __m256i on =
        _mm256_cmpeq_epi64(_mm256_and_si256(bits, select), select);
    return _mm256_and_pd(_mm256_castsi256_pd(on), x);
  }
  static VF64 d_select(VF64 m, VF64 a, VF64 b) {
    return _mm256_blendv_pd(b, a, m);
  }
  static VF64 d_from_u8(const std::uint8_t* p) {
    std::int32_t four;
    std::memcpy(&four, p, sizeof four);
    return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(four)));
  }

 private:
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
