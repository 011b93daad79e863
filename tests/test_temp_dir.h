#ifndef RDMAJOIN_TESTS_TEST_TEMP_DIR_H_
#define RDMAJOIN_TESTS_TEST_TEMP_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace rdmajoin {

/// Returns `name` inside a scratch directory private to this test process
/// (testing::TempDir() + "rdmajoin_test_<pid>/"), created on first use and
/// removed at exit. gtest_discover_tests runs each test in its own process
/// and `ctest -j` runs those side by side, so a fixed file name directly
/// under testing::TempDir() would be rewritten by one process while another
/// reads it.
inline std::string TestTempPath(const std::string& name) {
  struct ProcessDir {
    ProcessDir() {
      path = testing::TempDir();
      if (path.empty() || path.back() != '/') path += '/';
      path += "rdmajoin_test_" + std::to_string(getpid()) + "/";
      std::filesystem::create_directories(path);
    }
    ~ProcessDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::string path;
  };
  static const ProcessDir dir;
  return dir.path + name;
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_TESTS_TEST_TEMP_DIR_H_
