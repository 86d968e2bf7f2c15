#pragma once

// Scratch file paths for tests. Every file a test writes goes through
// scratch_path(), which places it in a directory named after this
// process's id: two runs of one test binary on a host (parallel ctest, a
// sanitizer build beside a plain one) then never overwrite each other's
// files between a save and the load that checks it. The directory and
// whatever the tests left in it are removed when the process exits, so
// per-process names do not pile up in the temporary directory.
// tools/lint's test-scratch-name pass keeps every other test file off
// ::testing::TempDir().

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace anb {

namespace detail {

/// TempDir()/anb_test_<pid>, created on construction and removed with its
/// contents on destruction.
class ScratchDir {
 public:
  ScratchDir()
      : path_(::testing::TempDir() + "anb_test_" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace detail

/// `name` in this process's scratch directory under gtest's TempDir().
inline std::string scratch_path(const std::string& name) {
  static const detail::ScratchDir dir;
  return dir.path() + "/" + name;
}

}  // namespace anb
