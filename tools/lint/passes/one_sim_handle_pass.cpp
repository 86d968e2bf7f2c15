// one-sim-handle: benches and examples get a simulator only through
// make_space_sim and work only on the space-tagged Arch.
//
// A harness that names a concrete simulator (MnasSpaceSim, FbnetSpaceSim)
// or holds the typed FbnetArchitecture view ties itself to one space and
// to machinery make_space_sim already hands out behind SpaceSim. The
// library builds the concrete sims and the tests pin them, so the pass
// looks at bench/ and examples/ only.

#include <algorithm>
#include <array>
#include <string>
#include <string_view>

#include "anb_lint/passes.hpp"

namespace anb::lint {

namespace {

constexpr std::array<std::string_view, 4> kTypedHandles = {
    "MnasSpaceSim", "FbnetSpaceSim", "FbnetArchitecture", "make_simulator"};

class OneSimHandlePass final : public FilePass {
 public:
  std::string_view name() const override { return "one-sim-handle"; }
  std::string_view summary() const override {
    return "benches and examples simulate only through make_space_sim";
  }

 private:
  void check(const SourceFile& f, Diagnostics& diag) const override {
    if (!f.rel_path.starts_with("bench/") &&
        !f.rel_path.starts_with("examples/"))
      return;
    for (const Token& tok : f.tokens) {
      if (tok.kind == TokenKind::kIdentifier &&
          std::ranges::find(kTypedHandles, tok.text) != kTypedHandles.end()) {
        diag.report(f, tok.line,
                    tok.text + ": get the simulator from make_space_sim and "
                               "work on Arch");
      }
    }
  }
};

}  // namespace

void register_one_sim_handle_pass(PassList& out) {
  out.push_back(std::make_unique<OneSimHandlePass>());
}

}  // namespace anb::lint
