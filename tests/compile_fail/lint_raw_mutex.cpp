// Lint-negative case (not compiled): raw std primitives outside
// src/support/sync.hpp. rla_lint's locks checker must flag this file (rule
// R1); ctest matches the diagnostics (rla_lint_lint_raw_mutex).
#include <mutex>

namespace bad {

std::mutex raw_mutex;  // BAD: use rla::Mutex

void touch() {
  std::lock_guard<std::mutex> lock(raw_mutex);  // BAD: use rla::MutexLock
}

}  // namespace bad

int main() {
  bad::touch();
  return 0;
}
