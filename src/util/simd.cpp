#include "anb/util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "anb/util/error.hpp"

namespace anb::simd {

namespace {

// Forced dispatch target: -1 = none. Process-wide so tests and benches
// can pin a path through public entry points without threading a
// parameter through every call site.
std::atomic<int> g_forced_target{-1};

bool read_env_disabled() {
  const char* v = std::getenv("ANB_SIMD");
  if (v == nullptr) return false;
  const std::string_view s(v);
  return s == "off" || s == "0" || s == "scalar" || s == "OFF";
}

}  // namespace

const char* target_name(Target t) {
  switch (t) {
    case Target::kScalar:
      return "scalar";
    case Target::kAvx2:
      return "avx2";
    case Target::kNeon:
      return "neon";
    case Target::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool cpu_supports(Target t) {
  switch (t) {
    case Target::kScalar:
      return true;
    case Target::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      // Compiler builtin: no <cpuid.h> include, no raw intrinsics — this
      // keeps simd.cpp itself clean under the raw-simd lint pass.
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Target::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // Every -mavx512* flag of the kernel TU: F, BW (byte counters), VL,
      // and DQ, which lets the compiler use byte-wide mask moves.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
    case Target::kNeon:
#if defined(__ARM_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Target best_cpu_target() {
  if (cpu_supports(Target::kAvx512)) return Target::kAvx512;
  if (cpu_supports(Target::kAvx2)) return Target::kAvx2;
  if (cpu_supports(Target::kNeon)) return Target::kNeon;
  return Target::kScalar;
}

bool env_disabled() {
  // getenv once: the knob is a process-level configuration, and callers
  // sit on the query hot path.
  static const bool disabled = read_env_disabled();
  return disabled;
}

Target active_target() {
  const int forced = g_forced_target.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Target>(forced);
  if (env_disabled()) return Target::kScalar;
  return best_cpu_target();
}

void force_target(Target t) {
  ANB_CHECK(cpu_supports(t), "simd::force_target: CPU does not support the "
                             "requested target");
  g_forced_target.store(static_cast<int>(t), std::memory_order_relaxed);
}

void clear_forced_target() {
  g_forced_target.store(-1, std::memory_order_relaxed);
}

}  // namespace anb::simd
