// The translation unit compiled with -mavx2 (plus -mno-fma
// -ffp-contract=off so no mul+add ever fuses — bit-identity depends on
// it). It instantiates three kernels for Avx2Isa and nothing else: the
// masked descent kernel and the table engine's AND loop of FlatForest,
// and the count-exact split kernel of TreeBuilder (plus the op probe the
// ISA tests compare against ScalarIsa). avx512_kernels.cpp builds the
// AVX-512 instantiation of the split kernel; every other TU is baseline.
// Avx2Isa is only defined under __AVX2__, and no other Isa is ever named
// here, so the instantiation sets of this TU and the others are disjoint
// — the linker cannot substitute AVX2 code into baseline paths. Callers
// reach the kernels only through the accessors below, and only take a
// pointer after the runtime CPU probe (simd::active_target) says AVX2 is
// safe to execute.
//
// On non-x86 toolchains (or compilers without -mavx2) CMake omits the
// flag, __AVX2__ stays undefined, and this TU degrades to nullptr stubs —
// dispatch then falls back to the scalar paths.

#include "descent_kernels.hpp"
#include "split_kernels.hpp"

namespace anb::detail {

#if defined(__AVX2__)

MaskedFn avx2_masked_kernel() { return &kernels::run_masked<simd::Avx2Isa>; }

TableAndFn avx2_table_kernel() { return &kernels::table_and<simd::Avx2Isa>; }

UnitSplitFn avx2_unit_split_kernel() {
  return &kernels::unit_split<simd::Avx2Isa>;
}

IsaProbeFn avx2_isa_probe() { return &kernels::probe_isa<simd::Avx2Isa>; }

#else

MaskedFn avx2_masked_kernel() { return nullptr; }

TableAndFn avx2_table_kernel() { return nullptr; }

UnitSplitFn avx2_unit_split_kernel() { return nullptr; }

IsaProbeFn avx2_isa_probe() { return nullptr; }

#endif

}  // namespace anb::detail
