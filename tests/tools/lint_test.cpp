// Tests for the anb_lint pass framework: the lexer's literal/comment
// handling, suppressions, and one violating + one clean fixture per
// registered pass. Fixtures are in-memory FileSpecs so the test is
// hermetic — no disk layout to drift out of sync with the assertions.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "anb_lint/pass.hpp"
#include "anb_lint/source.hpp"
#include "anb_lint/tree.hpp"

namespace anb::lint {
namespace {

std::vector<Finding> run_on(std::string_view pass,
                            const std::vector<FileSpec>& specs) {
  return run_pass(Tree::from_specs(specs), pass).findings;
}

bool has_finding(const std::vector<Finding>& findings, std::string_view path,
                 std::size_t line) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.path == path && f.line == line;
                     });
}

// ---------------------------------------------------------------- lexer

TEST(LexerTest, ScrubBlanksCommentsAndStringContents) {
  const auto code = scrub({"int x = 1; // trailing std::rand()",
                           "const char* s = \"std::rand()\";",
                           "/* std::rand() */ int y = 2;"});
  EXPECT_EQ(code[0].find("std::rand"), std::string::npos);
  EXPECT_EQ(code[1].find("std::rand"), std::string::npos);
  EXPECT_EQ(code[2].find("std::rand"), std::string::npos);
  EXPECT_NE(code[0].find("int x"), std::string::npos);
  EXPECT_NE(code[2].find("int y"), std::string::npos);
}

TEST(LexerTest, ScrubHandlesRawStringsAcrossLines) {
  const auto code = scrub({"auto s = R\"delim(first std::rand()",
                           "second line // not a comment",
                           ")delim\"; int after = 1;"});
  EXPECT_EQ(code[0].find("std::rand"), std::string::npos);
  EXPECT_EQ(code[1].find_first_not_of(' '), std::string::npos);
  EXPECT_NE(code[2].find("int after"), std::string::npos);
}

TEST(LexerTest, RawStringPrefixMustBeARealPrefix) {
  // FOOR"(... is an identifier ending in R followed by a plain string,
  // not a raw string; u8R"(...)" is a raw string.
  const auto code = scrub({"auto a = FOOR\"(text)\"; int live = 1;",
                           "auto b = u8R\"(std::rand())\"; int more = 2;"});
  EXPECT_NE(code[0].find("int live"), std::string::npos);
  EXPECT_EQ(code[1].find("std::rand"), std::string::npos);
  EXPECT_NE(code[1].find("int more"), std::string::npos);
}

TEST(LexerTest, LineContinuationExtendsLineComment) {
  const auto code = scrub({"// comment continues \\", "int hidden = 1;",
                           "int visible = 2;"});
  EXPECT_EQ(code[1].find("hidden"), std::string::npos);
  EXPECT_NE(code[2].find("visible"), std::string::npos);
}

TEST(LexerTest, CommentMarkersInsideStringsStayInert) {
  const auto code = scrub({"auto s = \"/* not a comment\"; int a = 1;",
                           "auto t = \"// also not\"; int b = 2;"});
  EXPECT_NE(code[0].find("int a"), std::string::npos);
  EXPECT_NE(code[1].find("int b"), std::string::npos);
}

TEST(LexerTest, DigitSeparatorsDoNotOpenCharLiterals) {
  const auto code = scrub({"int big = 1'000'000; int next = 2;"});
  EXPECT_NE(code[0].find("int next"), std::string::npos);
}

TEST(LexerTest, TokenizerEmitsMultiCharOperators) {
  const auto tokens = tokenize(scrub({"a += b; x << y; s::t;"}));
  std::vector<std::string> puncts;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "+="), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "<<"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
}

TEST(LexerTest, IncludesParsedButCommentedOutIncludesIgnored) {
  const SourceFile f = make_source_file(
      "src/util/x.cpp",
      "#include <vector>\n#include \"anb/util/rng.hpp\"\n"
      "// #include <mutex>\n/* #include <thread> */\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_TRUE(f.includes[0].angled);
  EXPECT_EQ(f.includes[0].target, "vector");
  EXPECT_FALSE(f.includes[1].angled);
  EXPECT_EQ(f.includes[1].target, "anb/util/rng.hpp");
}

TEST(LexerTest, LayerAndKindClassification) {
  const SourceFile f =
      make_source_file("src/surrogate/include/anb/surrogate/tree.hpp", "");
  EXPECT_TRUE(f.is_header);
  EXPECT_TRUE(f.in_src);
  EXPECT_EQ(f.layer, "surrogate");
}

// --------------------------------------------------------- suppressions

TEST(SuppressionTest, LineAndFileAllowsAreHonoredPerPass) {
  const std::string line_allow =
      "void f() { throw std::runtime_error(\"x\"); }  "
      "// ANB_LINT_ALLOW(throw-discipline)\n";
  EXPECT_TRUE(
      run_on("throw-discipline", {{"src/util/a.cpp", line_allow}}).empty());

  const std::string file_allow =
      "// ANB_LINT_ALLOW_FILE(throw-discipline)\n"
      "void f() { throw std::runtime_error(\"x\"); }\n";
  EXPECT_TRUE(
      run_on("throw-discipline", {{"src/util/b.cpp", file_allow}}).empty());

  // An allow for a different pass suppresses nothing.
  const std::string wrong_pass =
      "void f() { throw std::runtime_error(\"x\"); }  "
      "// ANB_LINT_ALLOW(no-endl)\n";
  EXPECT_EQ(
      run_on("throw-discipline", {{"src/util/c.cpp", wrong_pass}}).size(),
      1u);
}

// ---------------------------------------------------------- style group

TEST(PragmaOncePass, FlagsMissingAndAcceptsPresent) {
  EXPECT_EQ(run_on("pragma-once",
                   {{"src/util/include/anb/util/bad.hpp",
                     "// doc comment\nint f();\n"}})
                .size(),
            1u);
  EXPECT_TRUE(run_on("pragma-once",
                     {{"src/util/include/anb/util/good.hpp",
                       "// doc comment\n#pragma once\nint f();\n"}})
                  .empty());
}

TEST(UsingNamespacePass, FlagsHeadersOnly) {
  EXPECT_EQ(run_on("using-namespace-header",
                   {{"src/util/include/anb/util/bad.hpp",
                     "#pragma once\nusing namespace std;\n"}})
                .size(),
            1u);
  EXPECT_TRUE(run_on("using-namespace-header",
                     {{"src/util/fine.cpp", "using namespace std;\n"}})
                  .empty());
}

TEST(NoEndlPass, FlagsLibraryCodeOnly) {
  EXPECT_EQ(
      run_on("no-endl", {{"src/util/bad.cpp", "void f() { o << std::endl; }"}})
          .size(),
      1u);
  EXPECT_TRUE(run_on("no-endl", {{"tests/util/fine.cpp",
                                  "void f() { o << std::endl; }"}})
                  .empty());
}

TEST(IwyuBasicsPass, RequiresDirectIncludeInSrcHeaders) {
  EXPECT_EQ(run_on("iwyu-basics",
                   {{"src/util/include/anb/util/bad.hpp",
                     "#pragma once\nstd::vector<int> f();\n"}})
                .size(),
            1u);
  EXPECT_TRUE(run_on("iwyu-basics",
                     {{"src/util/include/anb/util/good.hpp",
                       "#pragma once\n#include <vector>\n"
                       "std::vector<int> f();\n"}})
                  .empty());
  // Mentions inside comments no longer count as uses.
  EXPECT_TRUE(run_on("iwyu-basics",
                     {{"src/util/include/anb/util/doc.hpp",
                       "#pragma once\n// returns a std::vector copy\n"
                       "int f();\n"}})
                  .empty());
}

// ---------------------------------------------------- determinism group

TEST(ForbiddenRandomnessPass, FlagsCodeNotLiteralsOrComments) {
  EXPECT_EQ(run_on("forbidden-randomness",
                   {{"src/util/bad.cpp",
                     "int f() { return std::rand(); }\n"
                     "std::random_device rd;\n"}})
                .size(),
            2u);
  EXPECT_TRUE(run_on("forbidden-randomness",
                     {{"src/util/fine.cpp",
                       "// std::rand is banned\n"
                       "const char* kMsg = \"std::rand\";\n"}})
                  .empty());
}

TEST(RawTimingPass, ExemptsObsAndBench) {
  const std::string clock_use =
      "void f() { auto t = std::chrono::steady_clock::now(); }\n";
  EXPECT_EQ(run_on("raw-timing", {{"src/util/bad.cpp", clock_use}}).size(),
            1u);
  EXPECT_TRUE(run_on("raw-timing", {{"src/obs/span.cpp", clock_use}}).empty());
  EXPECT_TRUE(
      run_on("raw-timing", {{"bench/harness.cpp", clock_use}}).empty());
}

TEST(RawIoPass, FlagsRawFileIoInSrcOnly) {
  const std::string stream_use =
      "#include <fstream>\n"
      "void f() { std::ifstream in(\"x\"); }\n";
  // Both the include and the stream type are findings in library code.
  EXPECT_EQ(run_on("raw-io", {{"src/anb/bad.cpp", stream_use}}).size(), 2u);
  const std::string cstdio_use =
      "void f() { FILE* fp = fopen(\"x\", \"rb\"); (void)fp; }\n";
  EXPECT_TRUE(has_finding(run_on("raw-io", {{"src/util/bad.cpp", cstdio_use}}),
                          "src/util/bad.cpp", 1));
  const std::string mmap_use =
      "void g() { void* p = mmap(nullptr, 8, 1, 2, -1, 0); (void)p; }\n"
      "int h() { return ::open(\"x\", 0); }\n";
  EXPECT_EQ(run_on("raw-io", {{"src/surrogate/bad.cpp", mmap_use}}).size(),
            2u);
}

TEST(RawIoPass, ExemptsWrapperObsTestsAndBench) {
  const std::string stream_use =
      "#include <fstream>\n"
      "void f() { std::ofstream out(\"x\"); }\n";
  EXPECT_TRUE(run_on("raw-io", {{"src/util/io.cpp", stream_use}}).empty());
  EXPECT_TRUE(run_on("raw-io", {{"src/obs/trace.cpp", stream_use}}).empty());
  EXPECT_TRUE(run_on("raw-io", {{"tests/anb/some_test.cpp", stream_use}})
                  .empty());
  EXPECT_TRUE(run_on("raw-io", {{"bench/harness.cpp", stream_use}}).empty());
  // Member/scoped calls named open are not the libc ::open.
  const std::string member_open =
      "void f() { auto b = anb::AccelNASBench::open(\"x\"); (void)b; }\n";
  EXPECT_TRUE(
      run_on("raw-io", {{"src/anb/fine.cpp", member_open}}).empty());
  // Line suppression works like every other pass.
  const std::string allowed =
      "void g() { fopen(\"x\", \"rb\"); }  // ANB_LINT_ALLOW(raw-io)\n";
  EXPECT_TRUE(run_on("raw-io", {{"src/util/fine.cpp", allowed}}).empty());
}

TEST(RawIoPass, FlagsRawSocketsOutsideNetWrapper) {
  // Socket headers and global-qualified socket syscalls are findings in
  // library code (one per include, one per call here).
  const std::string socket_use =
      "#include <sys/socket.h>\n"
      "#include <sys/un.h>\n"
      "#include <poll.h>\n"
      "int f() { return ::socket(1, 1, 0); }\n"
      "int g(int fd) { return ::listen(fd, 8); }\n";
  EXPECT_EQ(run_on("raw-io", {{"src/serve/bad.cpp", socket_use}}).size(), 5u);

  // src/util/net.cpp is the sanctioned socket TU, exactly like io.cpp
  // for file IO; and net::Socket methods named like the syscalls are
  // not the libc calls.
  EXPECT_TRUE(run_on("raw-io", {{"src/util/net.cpp", socket_use}}).empty());
  const std::string wrapper_use =
      "void f(anb::net::Socket& s, std::span<const char> b) {\n"
      "  s.send_all(b);\n"
      "  s.shutdown_both();\n"
      "}\n"
      "auto g(const std::string& p) { return net::Socket::connect_unix(p); }\n";
  EXPECT_TRUE(run_on("raw-io", {{"src/serve/fine.cpp", wrapper_use}}).empty());
}

TEST(RawSimdPass, FlagsIntrinsicsOutsideWrapper) {
  // Header include and an x86 intrinsic call are two separate findings.
  const std::string avx_use =
      "#include <immintrin.h>\n"
      "__m256i f(__m256i a) { return _mm256_add_epi32(a, a); }\n";
  EXPECT_EQ(run_on("raw-simd", {{"src/anb/bad.cpp", avx_use}}).size(), 4u);
  const std::string neon_use =
      "#include <arm_neon.h>\n"
      "int32x4_t g(int32x4_t a) { return vaddq_s32(a, a); }\n";
  EXPECT_EQ(run_on("raw-simd", {{"src/surrogate/bad.cpp", neon_use}}).size(),
            4u);
  // Lane-reinterpret names (double lane suffix) still match.
  EXPECT_TRUE(has_finding(
      run_on("raw-simd",
             {{"src/util/bad.cpp",
               "auto h(auto v) { return vreinterpretq_s8_u8(v); }\n"}}),
      "src/util/bad.cpp", 1));
}

TEST(RawSimdPass, FlagsAvx512MaskNamesOutsideWrapper) {
  // Mask types and the k-register intrinsics have no _mm prefix; each
  // name is one finding.
  const std::string mask_use =
      "__mmask8 f(unsigned long long w) {\n"
      "  const __mmask64 k = _cvtu64_mask64(w);\n"
      "  return static_cast<__mmask8>(_kshiftri_mask64(k, 8));\n"
      "}\n"
      "unsigned g(__mmask16 a, __mmask16 b) {\n"
      "  return _cvtmask16_u32(_kand_mask16(a, b));\n"
      "}\n";
  const auto findings =
      run_on("raw-simd", {{"src/surrogate/bad.cpp", mask_use}});
  EXPECT_EQ(findings.size(), 9u);
  for (const int line : {1, 2, 3, 5, 6})
    EXPECT_TRUE(has_finding(findings, "src/surrogate/bad.cpp", line)) << line;
  // Names that only resemble them: no leading underscore, a longer word
  // than mask<width>, or a width the mask types do not have.
  const std::string lookalikes =
      "int lane_mask8 = 0;\n"
      "int mask64 = 1;\n"
      "int _masked64(int x) { return x; }\n"
      "int _row_mask12(int x) { return x; }\n"
      "struct __mask64_like { int v; };\n";
  EXPECT_TRUE(
      run_on("raw-simd", {{"src/surrogate/fine.cpp", lookalikes}}).empty());
  // The wrapper may name them.
  EXPECT_TRUE(run_on("raw-simd",
                     {{"src/util/include/anb/util/simd.hpp", mask_use}})
                  .empty());
}

TEST(RawSimdPass, ExemptsWrapperTestsAndBench) {
  const std::string avx_use =
      "#include <immintrin.h>\n"
      "__m256i f(__m256i a) { return _mm256_add_epi32(a, a); }\n";
  // The one sanctioned home for raw intrinsics.
  EXPECT_TRUE(
      run_on("raw-simd",
             {{"src/util/include/anb/util/simd.hpp", avx_use}})
          .empty());
  // Out-of-src trees are out of scope like the other discipline passes.
  EXPECT_TRUE(
      run_on("raw-simd", {{"tests/util/simd_test.cpp", avx_use}}).empty());
  EXPECT_TRUE(run_on("raw-simd", {{"bench/kernels.cpp", avx_use}}).empty());
  // Ordinary identifiers that merely resemble NEON shapes do not match:
  // no q_ marker, non-lane suffix, or no <digits>x<digits> layout.
  const std::string lookalikes =
      "int verify_s32(int a) { return a; }\n"
      "int vq_total(int a) { return a; }\n"
      "struct matrix_t { int m; };\n";
  EXPECT_TRUE(
      run_on("raw-simd", {{"src/anb/fine.cpp", lookalikes}}).empty());
  // Line suppression works like every other pass.
  const std::string allowed =
      "using V = __m256i;  // ANB_LINT_ALLOW(raw-simd)\n";
  EXPECT_TRUE(run_on("raw-simd", {{"src/util/fine.cpp", allowed}}).empty());
}

TEST(TestScratchNamePass, FlagsTempDirOutsideScratchHeader) {
  // A fixed name under TempDir() is shared by concurrent runs of one
  // binary; each TempDir token in a test file is a finding.
  const std::string fixed_name =
      "#include <gtest/gtest.h>\n"
      "std::string p = ::testing::TempDir() + \"a.json\";\n"
      "std::string q = testing::TempDir() + \"b.json\";\n";
  const auto findings =
      run_on("test-scratch-name", {{"tests/anb/some_test.cpp", fixed_name}});
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(has_finding(findings, "tests/anb/some_test.cpp", 2));
  EXPECT_TRUE(has_finding(findings, "tests/anb/some_test.cpp", 3));
}

TEST(TestScratchNamePass, ExemptsScratchHeaderAndNonTestTrees) {
  const std::string temp_dir_use =
      "std::string p = ::testing::TempDir() + \"a.json\";\n";
  // The one sanctioned caller.
  EXPECT_TRUE(run_on("test-scratch-name",
                     {{"tests/scratch_path.hpp", temp_dir_use}})
                  .empty());
  EXPECT_TRUE(
      run_on("test-scratch-name", {{"bench/harness.cpp", temp_dir_use}})
          .empty());
  // scratch_path() itself, and the word in a comment or a string, are clean.
  const std::string clean =
      "#include \"scratch_path.hpp\"\n"
      "// never call TempDir directly\n"
      "std::string p = scratch_path(\"a.json\");\n"
      "const char* kWhy = \"TempDir\";\n";
  EXPECT_TRUE(
      run_on("test-scratch-name", {{"tests/anb/some_test.cpp", clean}})
          .empty());
}

TEST(OneSimHandlePass, FlagsConcreteSimInBench) {
  const std::string typed =
      "#include \"common.hpp\"\n"
      "// a MnasSpaceSim in a comment is fine\n"
      "anb::MnasSpaceSim sim = anb::bench::make_simulator();\n";
  const auto findings =
      run_on("one-sim-handle", {{"bench/some_harness.cpp", typed}});
  EXPECT_EQ(findings.size(), 2u);  // both identifiers on line 3
  EXPECT_TRUE(has_finding(findings, "bench/some_harness.cpp", 3));
  EXPECT_EQ(run_on("one-sim-handle",
                   {{"examples/demo.cpp",
                     "anb::FbnetArchitecture a;\n"
                     "anb::FbnetSpaceSim s(42);\n"}})
                .size(),
            2u);
}

TEST(OneSimHandlePass, LibraryAndTestsMayNameTheConcreteSims) {
  const std::string typed =
      "anb::MnasSpaceSim sim(42);\n"
      "anb::FbnetSpaceSim fb(42);\n"
      "anb::FbnetArchitecture arch;\n";
  EXPECT_TRUE(
      run_on("one-sim-handle", {{"tests/anb/space_sim_test.cpp", typed}})
          .empty());
  EXPECT_TRUE(
      run_on("one-sim-handle", {{"src/anb/space_sim.cpp", typed}}).empty());
  // The make_space_sim handle itself is clean in a bench.
  EXPECT_TRUE(run_on("one-sim-handle",
                     {{"bench/e13.cpp",
                       "auto sim = anb::make_space_sim(anb::SpaceId::kFbnet);\n"}})
                  .empty());
}

TEST(DeterministicIterationPass, FlagsOrderSensitiveSinks) {
  const std::string streaming =
      "#include <unordered_map>\n"
      "void f(const std::unordered_map<int, int>& m, std::ostream& o) {\n"
      "  for (const auto& [k, v] : m) o << k;\n"
      "}\n";
  EXPECT_TRUE(has_finding(
      run_on("deterministic-iteration", {{"src/util/bad.cpp", streaming}}),
      "src/util/bad.cpp", 3));

  const std::string accumulating =
      "std::unordered_set<int> seen;\n"
      "double g() { double s = 0; for (int v : seen) s += v; return s; }\n";
  EXPECT_EQ(run_on("deterministic-iteration",
                   {{"src/util/bad2.cpp", accumulating}})
                .size(),
            1u);
}

TEST(DeterministicIterationPass, CleanCases) {
  // Ordered container: fine regardless of the body.
  const std::string ordered =
      "std::map<int, int> m;\n"
      "void f(std::ostream& o) { for (const auto& [k, v] : m) o << k; }\n";
  EXPECT_TRUE(
      run_on("deterministic-iteration", {{"src/util/a.cpp", ordered}})
          .empty());

  // Collect-then-sort is the sanctioned idiom.
  const std::string collect_sort =
      "std::unordered_map<int, int> m;\n"
      "std::vector<int> keys() {\n"
      "  std::vector<int> out;\n"
      "  for (const auto& [k, v] : m) out.push_back(k);\n"
      "  std::sort(out.begin(), out.end());\n"
      "  return out;\n"
      "}\n";
  EXPECT_TRUE(
      run_on("deterministic-iteration", {{"src/util/b.cpp", collect_sort}})
          .empty());

  // Order-insensitive body (pure lookup / max) has no sink.
  const std::string lookup =
      "std::unordered_set<int> s;\n"
      "bool any_big() { for (int v : s) if (v > 9) return true;\n"
      "  return false; }\n";
  EXPECT_TRUE(run_on("deterministic-iteration", {{"src/util/c.cpp", lookup}})
                  .empty());
}

TEST(FloatReductionPass, FlagsAtomicFloatAndParallelAccumulation) {
  EXPECT_EQ(run_on("float-reduction",
                   {{"src/util/bad.cpp", "std::atomic<double> total{0};\n"}})
                .size(),
            1u);

  const std::string parallel_acc =
      "double total = 0;\n"
      "void f(const std::vector<double>& xs) {\n"
      "  parallel_for(xs.size(), [&](std::size_t i) { total += xs[i]; });\n"
      "}\n";
  EXPECT_TRUE(has_finding(
      run_on("float-reduction", {{"src/util/bad2.cpp", parallel_acc}}),
      "src/util/bad2.cpp", 3));
}

TEST(FloatReductionPass, CleanCases) {
  // Per-item slots merged serially after the parallel region.
  const std::string per_item =
      "double total = 0;\n"
      "void f(const std::vector<double>& xs) {\n"
      "  std::vector<double> slot(xs.size());\n"
      "  parallel_for(xs.size(), [&](std::size_t i) { slot[i] = xs[i]; });\n"
      "  for (double v : slot) total += v;\n"
      "}\n";
  EXPECT_TRUE(
      run_on("float-reduction", {{"src/util/a.cpp", per_item}}).empty());

  // A float declared inside the lambda is a local accumulator: fine.
  const std::string local_acc =
      "void f(const std::vector<std::vector<double>>& xs) {\n"
      "  parallel_for(xs.size(), [&](std::size_t i) {\n"
      "    double row = 0;\n"
      "    for (double v : xs[i]) row += v;\n"
      "    consume(i, row);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(
      run_on("float-reduction", {{"src/util/b.cpp", local_acc}}).empty());

  // Integer atomics are deterministic under addition.
  EXPECT_TRUE(run_on("float-reduction",
                     {{"src/util/c.cpp",
                       "std::atomic<std::size_t> count{0};\n"}})
                  .empty());
}

// ----------------------------------------------------- discipline group

TEST(ThrowDisciplinePass, FlagsStdThrowsInSrcOnly) {
  EXPECT_EQ(run_on("throw-discipline",
                   {{"src/util/bad.cpp",
                     "void f() { throw std::runtime_error(\"x\"); }"}})
                .size(),
            1u);
  EXPECT_TRUE(run_on("throw-discipline",
                     {{"tests/util/fine.cpp",
                       "void f() { throw std::runtime_error(\"x\"); }"}})
                  .empty());
}

TEST(AssertCoveragePass, RequiresChecksInLongTus) {
  std::string long_tu = "void f() {\n";
  for (int i = 0; i < 130; ++i) long_tu += "  g();\n";
  long_tu += "}\n";
  EXPECT_EQ(run_on("assert-coverage", {{"src/util/bad.cpp", long_tu}}).size(),
            1u);

  std::string covered = "void f(int n) {\n  ANB_CHECK(n > 0, \"n\");\n";
  for (int i = 0; i < 130; ++i) covered += "  g();\n";
  covered += "}\n";
  EXPECT_TRUE(
      run_on("assert-coverage", {{"src/util/good.cpp", covered}}).empty());
}

TEST(LockHygienePass, BansStdLockingVocabulary) {
  const auto findings = run_on(
      "lock-hygiene",
      {{"src/util/bad.cpp",
        "#include <mutex>\nstd::mutex mu;\n"
        "void f() { std::lock_guard<std::mutex> lock(mu); }\n"}});
  EXPECT_GE(findings.size(), 3u);  // include + decl + lock_guard
  EXPECT_TRUE(run_on("lock-hygiene",
                     {{"tests/util/fine.cpp",
                       "#include <mutex>\nstd::mutex mu;\n"}})
                  .empty());
}

TEST(LockHygienePass, MutexWithoutGuardedByIsFlagged) {
  const std::string unannotated =
      "#include \"anb/util/mutex.hpp\"\n"
      "struct S {\n  anb::Mutex mu;\n  int value = 0;\n};\n";
  EXPECT_TRUE(has_finding(
      run_on("lock-hygiene", {{"src/util/bad.cpp", unannotated}}),
      "src/util/bad.cpp", 3));

  const std::string annotated =
      "#include \"anb/util/mutex.hpp\"\n"
      "struct S {\n  anb::Mutex mu;\n"
      "  int value ANB_GUARDED_BY(mu) = 0;\n};\n";
  EXPECT_TRUE(
      run_on("lock-hygiene", {{"src/util/good.cpp", annotated}}).empty());
}

// ------------------------------------------------------------- layering

TEST(LayeringPass, FlagsUpwardIncludes) {
  // obs including a non-leaf util header points up the DAG.
  const std::string bad =
      "#include \"anb/util/rng.hpp\"\nvoid f();\n";
  EXPECT_EQ(run_on("layering", {{"src/obs/bad.cpp", bad}}).size(), 1u);

  // The header-only util leaves are includable from anywhere.
  const std::string leaf_ok =
      "#include \"anb/util/error.hpp\"\n"
      "#include \"anb/util/mutex.hpp\"\nvoid f();\n";
  EXPECT_TRUE(run_on("layering", {{"src/obs/fine.cpp", leaf_ok}}).empty());

  // A sanctioned downward include.
  const std::string down_ok =
      "#include \"anb/obs/registry.hpp\"\nvoid f();\n";
  EXPECT_TRUE(run_on("layering", {{"src/util/fine.cpp", down_ok}}).empty());

  // serve sits at the top: it may include anb, but nothing may include
  // it back.
  const std::string serve_down =
      "#include \"anb/anb/benchmark.hpp\"\nvoid f();\n";
  EXPECT_TRUE(run_on("layering", {{"src/serve/fine.cpp", serve_down}}).empty());
  const std::string serve_up =
      "#include \"anb/serve/server.hpp\"\nvoid f();\n";
  EXPECT_EQ(run_on("layering", {{"src/anb/bad.cpp", serve_up}}).size(), 1u);

  // surrogate must not reach into hpo (hpo sits above it).
  const std::string upward =
      "#include \"anb/hpo/smac.hpp\"\nvoid f();\n";
  EXPECT_EQ(run_on("layering", {{"src/surrogate/bad.cpp", upward}}).size(),
            1u);
}

TEST(LayeringPass, DetectsHeaderCycles) {
  const std::vector<FileSpec> cyclic = {
      {"src/util/include/anb/util/a.hpp",
       "#pragma once\n#include \"anb/util/b.hpp\"\n"},
      {"src/util/include/anb/util/b.hpp",
       "#pragma once\n#include \"anb/util/a.hpp\"\n"},
  };
  const auto findings = run_on("layering", cyclic);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);

  const std::vector<FileSpec> acyclic = {
      {"src/util/include/anb/util/a.hpp",
       "#pragma once\n#include \"anb/util/b.hpp\"\n"},
      {"src/util/include/anb/util/b.hpp", "#pragma once\nint f();\n"},
  };
  EXPECT_TRUE(run_on("layering", acyclic).empty());
}

// -------------------------------------------------------------- framework

TEST(FrameworkTest, RunAllAggregatesAndJsonIsWellFormed) {
  const Tree tree = Tree::from_specs(
      {{"src/util/bad.cpp",
        "void f() { throw std::runtime_error(\"quote \\\" here\"); }\n"}});
  const RunResult result = run_all(tree);
  ASSERT_FALSE(result.findings.empty());
  const std::string json = to_json(result.findings);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"pass\": \"throw-discipline\""), std::string::npos);

  EXPECT_THROW(run_pass(tree, "no-such-pass"), std::runtime_error);
}

}  // namespace
}  // namespace anb::lint
