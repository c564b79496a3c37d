// A self-cleaning scratch directory for tests, created under the test's
// working directory (the build tree), never /tmp.
#ifndef PEQUOD_TESTS_TEMP_DIR_HH
#define PEQUOD_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pequod {

class TempDir {
  public:
    TempDir() {
        char tmpl[] = "persist_test_XXXXXX";
        char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path_ = made ? made : "persist_test_fallback";
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    const std::string& path() const {
        return path_;
    }
    std::string sub(const char* name) const {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

}  // namespace pequod

#endif
