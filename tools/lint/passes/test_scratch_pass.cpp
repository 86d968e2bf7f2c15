// test-scratch-name: tests name their scratch files through
// tests/scratch_path.hpp, not ::testing::TempDir().
//
// A fixed file name under the temporary directory is shared by every
// process of one test binary on the host, so two concurrent runs (a
// sanitizer build beside a plain one, two ctest invocations) overwrite
// each other's artifacts between a save and the load that checks it.
// scratch_path() places them in a directory named by process id; a
// TempDir token in any other file under tests/ is a finding. Library
// code, benches and tools never call gtest, so the pass looks at tests/
// only.

#include <string_view>

#include "anb_lint/passes.hpp"

namespace anb::lint {

namespace {

class TestScratchNamePass final : public FilePass {
 public:
  std::string_view name() const override { return "test-scratch-name"; }
  std::string_view summary() const override {
    return "test scratch files named per process through scratch_path()";
  }

 private:
  void check(const SourceFile& f, Diagnostics& diag) const override {
    if (!f.in_tests) return;
    if (f.rel_path == "tests/scratch_path.hpp") return;
    for (const Token& tok : f.tokens) {
      if (tok.kind == TokenKind::kIdentifier && tok.text == "TempDir") {
        diag.report(f, tok.line,
                    "TempDir: name test scratch files with scratch_path() "
                    "(tests/scratch_path.hpp), which keeps them per process");
      }
    }
  }
};

}  // namespace

void register_test_scratch_pass(PassList& out) {
  out.push_back(std::make_unique<TestScratchNamePass>());
}

}  // namespace anb::lint
