// The translation unit compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512dq (plus -mno-fma -ffp-contract=off, last, so no mul+add ever
// fuses — bit-identity depends on it). It instantiates one kernel for
// Avx512Isa and nothing else: the count-exact split kernel of TreeBuilder
// (plus the op probe the ISA tests compare against BasicScalarIsa<8>).
// Avx512Isa is only defined under __AVX512F__, __AVX512BW__ and
// __AVX512VL__, and no other Isa is ever named here, so no AVX-512 code
// can be substituted into the AVX2 or baseline paths. TreeBuilder takes
// the kernel only after the runtime CPU probe (simd::active_target) says
// AVX-512 is safe to execute. FlatForest has no AVX-512 kernel: under the
// AVX-512 target it runs the AVX2 one.
//
// On toolchains that do not take these flags CMake omits them, and this
// TU degrades to nullptr stubs — TreeBuilder then runs the AVX2 split
// kernel under the AVX-512 target.

#include "split_kernels.hpp"

namespace anb::detail {

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

UnitSplitFn avx512_unit_split_kernel() {
  return &kernels::unit_split<simd::Avx512Isa>;
}

IsaProbeFn avx512_isa_probe() {
  return &kernels::probe_isa<simd::Avx512Isa>;
}

#else

UnitSplitFn avx512_unit_split_kernel() { return nullptr; }

IsaProbeFn avx512_isa_probe() { return nullptr; }

#endif

}  // namespace anb::detail
