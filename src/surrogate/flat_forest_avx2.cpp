// The one translation unit compiled with -mavx2 (plus -mno-fma
// -ffp-contract=off so no mul+add ever fuses — bit-identity depends on
// it). It instantiates the masked descent kernel for Avx2Isa and nothing
// else: Avx2Isa is only defined under __AVX2__, and no other Isa is ever
// named here, so the instantiation sets of this TU and flat_forest.cpp are
// disjoint — the linker cannot substitute AVX2 code into baseline paths.
// Callers reach the kernel only through avx2_masked_kernel(), and
// FlatForest::accumulate only takes that pointer after the runtime CPU
// probe (simd::cpu_supports) says AVX2 is safe to execute.
//
// On non-x86 toolchains (or compilers without -mavx2) CMake omits the
// flag, __AVX2__ stays undefined, and this TU degrades to the nullptr
// stub — dispatch then falls back to the scalar kernel.

#include "descent_kernels.hpp"

namespace anb::detail {

#if defined(__AVX2__)

MaskedFn avx2_masked_kernel() { return &kernels::run_masked<simd::Avx2Isa>; }

#else

MaskedFn avx2_masked_kernel() { return nullptr; }

#endif

}  // namespace anb::detail
