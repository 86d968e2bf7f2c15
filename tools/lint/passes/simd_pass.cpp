// raw-simd: vector intrinsics live in anb/util/simd.hpp and nowhere else.
//
// The SIMD surface (src/util/include/anb/util/simd.hpp) is the single
// home of raw AVX2/AVX-512/NEON intrinsics: kernels consume the Isa
// policy structs, the Avx2Isa and Avx512Isa types only exist in TUs
// compiled with the matching -m flags, and the runtime dispatcher guards
// every vector entry point behind a CPU probe. A stray intrinsic anywhere
// else in src/ re-opens the failure modes that layering closes — vector
// instructions leaking into baseline code paths (SIGILL on older CPUs),
// or ad-hoc kernels skipping the exactness rules (-mno-fma, ordered
// compares) the wrapper documents — so outside the wrapper they are
// findings. Tests, benches, and tools
// stay out of scope like the other discipline passes.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "anb_lint/passes.hpp"

namespace anb::lint {

namespace {

/// NEON lane-type suffix (s8/u16/f64/p8...): the tail every NEON
/// intrinsic name ends with.
bool is_neon_lane_suffix(std::string_view s) {
  static constexpr std::string_view kSuffixes[] = {
      "s8",  "s16", "s32", "s64", "u8",  "u16", "u32",
      "u64", "f16", "f32", "f64", "p8",  "p16", "p64"};
  for (const std::string_view suf : kSuffixes)
    if (s == suf) return true;
  return false;
}

/// vaddq_s32, vld1q_u8, vreinterpretq_s8_u8, ...: starts with 'v',
/// carries the 128-bit 'q_' marker, and ends in a lane-type suffix.
bool is_neon_intrinsic_name(std::string_view s) {
  if (s.size() < 6 || s[0] != 'v') return false;
  if (s.find("q_") == std::string_view::npos) return false;
  const std::size_t us = s.rfind('_');
  if (us == std::string_view::npos) return false;
  return is_neon_lane_suffix(s.substr(us + 1));
}

/// int32x4_t, uint8x16_t, float64x2_t, ...: a NEON vector type name —
/// ends in "_t" with a <digits>x<digits> lane layout right before it.
bool is_neon_vector_type(std::string_view s) {
  if (s.size() < 7 || s.substr(s.size() - 2) != "_t") return false;
  const std::string_view body = s.substr(0, s.size() - 2);
  const std::size_t x = body.rfind('x');
  if (x == std::string_view::npos || x == 0 || x + 1 >= body.size())
    return false;
  auto all_digits = [](std::string_view d) {
    if (d.empty()) return false;
    for (const char c : d)
      if (c < '0' || c > '9') return false;
    return true;
  };
  // digits before the 'x' (the element width) and after it (the count).
  std::size_t w = x;
  while (w > 0 && body[w - 1] >= '0' && body[w - 1] <= '9') --w;
  return w < x && all_digits(body.substr(x + 1));
}

/// AVX-512 mask-register names: the __mmask8/16/32/64 types and the
/// intrinsics that move, convert or combine k registers without an _mm
/// prefix (_cvtu64_mask64, _cvtmask64_u64, _kshiftri_mask64, _kand_mask8,
/// _kortestz_mask64_u8, _load_mask16, ...): one leading underscore and
/// `mask<width>`, ended by the name or by another `_`.
bool is_x86_mask_name(std::string_view s) {
  if (s.rfind("__mmask", 0) == 0) return true;
  if (s.size() < 2 || s[0] != '_' || s[1] == '_') return false;
  static constexpr std::string_view kWidths[] = {"mask8", "mask16",
                                                 "mask32", "mask64"};
  for (const std::string_view width : kWidths) {
    for (std::size_t at = s.find(width); at != std::string_view::npos;
         at = s.find(width, at + 1)) {
      const std::size_t end = at + width.size();
      if (end == s.size() || s[end] == '_') return true;
    }
  }
  return false;
}

/// _mm_/ _mm256_/ _mm512_ intrinsics, the __m128/__m256i/__m512d
/// register types and the AVX-512 mask names.
bool is_x86_vector_name(std::string_view s) {
  if (s.rfind("_mm", 0) == 0) return true;
  if (s.rfind("__m", 0) == 0 && s.size() > 3 && s[3] >= '0' && s[3] <= '9')
    return true;
  return is_x86_mask_name(s);
}

class RawSimdPass final : public FilePass {
 public:
  std::string_view name() const override { return "raw-simd"; }
  std::string_view summary() const override {
    return "vector intrinsics confined to anb/util/simd.hpp";
  }

 private:
  void check(const SourceFile& f, Diagnostics& diag) const override {
    if (!f.in_src) return;
    if (f.rel_path == "src/util/include/anb/util/simd.hpp") return;

    for (const Include& inc : f.includes) {
      if (inc.target == "arm_neon.h" ||
          inc.target.find("intrin.h") != std::string::npos) {
        diag.report(f, inc.line,
                    "#include <" + inc.target +
                        ">: raw SIMD headers belong in anb/util/simd.hpp "
                        "(use the Isa policy structs)");
      }
    }

    for (const Token& tok : f.tokens) {
      if (tok.kind != TokenKind::kIdentifier) continue;
      if (is_x86_vector_name(tok.text)) {
        diag.report(f, tok.line,
                    tok.text +
                        ": x86 vector intrinsics/types are confined to "
                        "anb/util/simd.hpp");
      } else if (is_neon_intrinsic_name(tok.text) ||
                 is_neon_vector_type(tok.text)) {
        diag.report(f, tok.line,
                    tok.text +
                        ": NEON intrinsics/types are confined to "
                        "anb/util/simd.hpp");
      }
    }
  }
};

}  // namespace

void register_simd_pass(PassList& out) {
  out.push_back(std::make_unique<RawSimdPass>());
}

}  // namespace anb::lint
