// Per-test scratch directories for tests that write to the filesystem.
//
// ctest runs every discovered gtest case as its own process, in parallel
// under `ctest -j`, so a fixed directory name shared by several cases races:
// one case's set-up or cleanup deletes another's checkpoints mid-run.
// scratch_dir() names the directory after the process id and the running
// test, starts it empty, and removes it when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace harmony::tests {

namespace detail {

// Removes every directory handed out, at process exit (after the tests, and
// so after every runtime that wrote there has been destroyed).
struct ScratchDirs {
  std::vector<std::filesystem::path> dirs;
  ~ScratchDirs() {
    for (const auto& dir : dirs) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

inline ScratchDirs& scratch_dirs() {
  static ScratchDirs dirs;
  return dirs;
}

}  // namespace detail

// An empty directory under the system temp dir, unique to this process and
// the current test: harmony-<tag>-<pid>-<Suite>.<Test>.
inline std::filesystem::path scratch_dir(const std::string& tag) {
  std::string name = "harmony-" + tag + "-" + std::to_string(::getpid());
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info())
    name += std::string("-") + info->test_suite_name() + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  detail::scratch_dirs().dirs.push_back(dir);
  return dir;
}

}  // namespace harmony::tests
