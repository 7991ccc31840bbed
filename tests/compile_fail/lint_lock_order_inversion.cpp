// Lint-negative case (not compiled): acquiring a higher-ranked lock while
// holding a lower-ranked one inverts the declared hierarchy
// lifecycle -> service -> pool -> arena -> registry.
// rla_lint's locks checker must flag this file (rule R3); ctest matches the
// diagnostic (rla_lint_lint_lock_order_inversion).
#include "support/sync.hpp"

namespace bad {

struct Engine {
  rla::Mutex admit_mutex;  // lock-level: service
  rla::Mutex stats_mutex;  // lock-level: registry
  int admitted RLA_GUARDED_BY(admit_mutex) = 0;
  int counted RLA_GUARDED_BY(stats_mutex) = 0;

  void invert() {
    rla::MutexLock stats(stats_mutex);
    rla::MutexLock admit(admit_mutex);  // BAD: registry -> service climbs up
    ++admitted;
    ++counted;
  }
};

}  // namespace bad

int main() {
  bad::Engine e;
  e.invert();
  return 0;
}
