// A scratch directory that lives exactly as long as its owner: created empty
// under the system temp directory as svt_<tag>_<pid> (so concurrent test
// processes never collide) and removed, with everything in it, on scope exit.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace svt::test {

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("svt_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);  // Left behind by a run that crashed.
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;  // Cleanup must not throw from a destructor.
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(TempDir&& other) noexcept : path_(std::exchange(other.path_, {})) {}
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  TempDir& operator=(TempDir&&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string string() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace svt::test
