// Lint-negative case (not compiled): a notify site without a
// `// publishes:` comment naming the guarded state it makes visible.
// rla_lint's locks checker must flag this file (rule R5); ctest matches the
// diagnostic (rla_lint_lint_missing_publishes).
#include "support/sync.hpp"

namespace bad {

struct Gate {
  rla::Mutex gate_mu;  // lock-level: registry
  rla::CondVar open_cv;
  bool open RLA_GUARDED_BY(gate_mu) = false;

  void unlatch() {
    {
      rla::MutexLock lock(gate_mu);
      open = true;
    }
    open_cv.notify_all();  // BAD: which guarded state did this publish?
  }
};

}  // namespace bad

int main() {
  bad::Gate g;
  g.unlatch();
  return 0;
}
