#ifndef EMBER_TESTS_GUARDED_PANEL_H_
#define EMBER_TESTS_GUARDED_PANEL_H_

// A copy of a row-major float panel placed so its last row ends exactly
// where a PROT_NONE page begins: a kernel that reads even one float past
// the panel faults instead of silently consuming neighbouring memory.

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.h"
#include "la/matrix.h"

namespace ember::testutil {

class GuardedPanel {
 public:
  explicit GuardedPanel(const la::Matrix& src)
      : rows_(src.rows()), cols_(src.cols()) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = rows_ * cols_ * sizeof(float);
    const size_t data_pages = (bytes + page - 1) / page;
    length_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, length_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EMBER_CHECK(base != MAP_FAILED);
    base_ = static_cast<char*>(base);
    char* guard = base_ + data_pages * page;
    EMBER_CHECK(mprotect(guard, page, PROT_NONE) == 0);
    data_ = reinterpret_cast<float*>(guard) - rows_ * cols_;
    std::memcpy(data_, src.data(), bytes);
  }
  ~GuardedPanel() { munmap(base_, length_); }

  GuardedPanel(const GuardedPanel&) = delete;
  GuardedPanel& operator=(const GuardedPanel&) = delete;

  const float* data() const { return data_; }
  const float* Row(size_t r) const { return data_ + r * cols_; }
  /// A read-only Matrix::View over the guarded copy.
  la::Matrix View() const { return la::Matrix::View(data_, rows_, cols_); }

 private:
  size_t rows_;
  size_t cols_;
  size_t length_ = 0;
  char* base_ = nullptr;
  float* data_ = nullptr;
};

}  // namespace ember::testutil

#endif  // EMBER_TESTS_GUARDED_PANEL_H_
