#include "src/policy/scheme.h"

#include "src/proc/process.h"
#include "src/proc/task.h"

namespace ice {

void LruCfsScheme::Install(const SystemRefs& refs) {
  // The stock kernel: completely fair scheduling, pure-LRU reclaim, no
  // freezing. Nothing to wire.
  (void)refs;
}

void MaxDeprioritizeScheme::Install(const SystemRefs& refs) {
  refs.am->AddStateListener([](App& app, AppState) {
    int nice = app.state() == AppState::kForeground ? -10 : 19;
    for (Process* p : app.processes()) {
      for (Task* t : p->tasks()) {
        t->set_nice(nice);
      }
    }
  });
}

}  // namespace ice
