// one-sim-handle: benches and examples get a simulator only through
// make_space_sim and work only on the space-tagged Arch.
//
// A harness that builds a typed simulator (TrainingSimulator,
// FbnetTrainingSimulator) or holds the typed FbnetArchitecture view keeps
// a second copy of the machinery the SpaceSim facade already owns, and
// drifts from it. The typed simulators stay in the library, where the
// facade wraps them and the tests pin it against them, so the pass looks
// at bench/ and examples/ only.

#include <algorithm>
#include <array>
#include <string>
#include <string_view>

#include "anb_lint/passes.hpp"

namespace anb::lint {

namespace {

constexpr std::array<std::string_view, 4> kTypedHandles = {
    "TrainingSimulator", "FbnetTrainingSimulator", "FbnetArchitecture",
    "make_simulator"};

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
