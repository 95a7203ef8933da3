// ActivityManager: the Android-framework analog owning application
// lifecycles — install, cold/hot launch, foreground switches, cached-app
// management, oom_score_adj maintenance, and LMK victim selection.
//
// Workload models attach background activity to apps through a TaskFactory;
// policies observe lifecycle transitions through state/death listeners (this
// is the channel ICE's daemon uses to maintain its UID→PID mapping table and
// whitelist, and to thaw on launch).
#ifndef SRC_ANDROID_ACTIVITY_MANAGER_H_
#define SRC_ANDROID_ACTIVITY_MANAGER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/mem/memory_manager.h"
#include "src/proc/app.h"
#include "src/proc/behavior.h"
#include "src/proc/freezer.h"
#include "src/proc/process.h"
#include "src/proc/scheduler.h"
#include "src/sim/engine.h"

namespace ice {

class SnapshotArchive;

// Static description of an application (install-time knowledge).
struct AppDescriptor {
  std::string package;
  PageCount java_pages = BytesToPages(80 * kMiB);
  PageCount native_pages = BytesToPages(120 * kMiB);
  PageCount file_pages = BytesToPages(150 * kMiB);
  // Secondary (service) process footprint, all native.
  PageCount service_pages = BytesToPages(8 * kMiB);

  // Launch model: cold start burns CPU and touches a prefix of each region
  // (code + initial heap); hot start re-touches part of the hot working set.
  SimDuration cold_launch_cpu = Ms(1400);
  double cold_touch_fraction = 0.55;
  SimDuration hot_launch_cpu = Ms(120);
  double hot_touch_fraction = 0.10;

  // Music/download/call-style apps: perceptible in background (adj 200,
  // whitelisted from freezing).
  bool perceptible_in_bg = false;
};

struct LaunchRecord {
  Uid uid = kInvalidUid;
  bool cold = false;
  SimTime start = 0;
  SimDuration latency = 0;
  bool completed = false;
};

class ActivityManager {
 public:
  // (app, previous state) — fired after the transition is applied.
  using StateListener = std::function<void(App&, AppState)>;
  using DeathListener = std::function<void(App&)>;
  // Attaches workload-defined background tasks to a freshly started app.
  using TaskFactory = std::function<void(ActivityManager&, App&)>;
  using LaunchCallback = std::function<void(const LaunchRecord&)>;

  ActivityManager(Engine& engine, Scheduler& scheduler, MemoryManager& mm, Freezer& freezer);
  // Releases every live process's memory back to the MemoryManager (which
  // must outlive this object) unless the manager has forgotten the spaces.
  ~ActivityManager();

  ActivityManager(const ActivityManager&) = delete;
  ActivityManager& operator=(const ActivityManager&) = delete;

  // ---- Install / lookup ------------------------------------------------------

  App* Install(const AppDescriptor& descriptor);
  App* FindApp(Uid uid);
  const AppDescriptor& descriptor(Uid uid) const;
  std::vector<App*> apps();

  void set_bg_task_factory(TaskFactory factory) { bg_task_factory_ = std::move(factory); }

  // ---- Lifecycle -------------------------------------------------------------

  // Launches (cold if not running, hot otherwise) and makes the app
  // foreground. `on_interactive` fires when the launch work completes.
  void Launch(Uid uid, LaunchCallback on_interactive = {});

  // Sends the current foreground app (if any) to the cached background.
  void MoveForegroundToBackground();

  void KillApp(App& app);
  // LMK victim selection: kills the stalest cached app. Returns false when
  // no cached app remains.
  bool KillOneCached();

  App* foreground_app() const { return foreground_; }

  // ---- Per-app plumbing --------------------------------------------------------

  // Main (UI) and render thread work queues; null when not running.
  WorkQueueBehavior* main_thread(Uid uid);
  WorkQueueBehavior* render_thread(Uid uid);
  // The app's main process address space; null when not running.
  AddressSpace* main_space(Uid uid);
  AddressSpace* service_space(Uid uid);
  Process* main_process(Uid uid);
  bool interactive(Uid uid) const;

  // Creates an extra task in the app's main process (workload helper).
  Task* CreateAppTask(App& app, const std::string& name, int nice,
                      std::unique_ptr<Behavior> behavior, bool in_service_process = false);

  // ---- Listeners ---------------------------------------------------------------

  void AddStateListener(StateListener listener) {
    state_listeners_.push_back(std::move(listener));
  }
  void AddDeathListener(DeathListener listener) {
    death_listeners_.push_back(std::move(listener));
  }

  const std::vector<LaunchRecord>& launches() const { return launches_; }

  Engine& engine() { return engine_; }
  Scheduler& scheduler() { return scheduler_; }
  MemoryManager& mm() { return mm_; }
  Freezer& freezer() { return freezer_; }

  // ---- Snapshot support -----------------------------------------------------
  // Process/task creation cannot be deserialized directly (tasks own live
  // behaviors, spaces own arenas), so the snapshot stores the *lifecycle log*
  // — the ordered StartProcesses/KillApp history — and restoring replays it
  // against a freshly constructed ActivityManager. Replay re-runs the real
  // code paths, reproducing identical pid/space-id/trace-id allocation, with
  // listeners suppressed (policy state is restored from its own sections).
  // Dynamic per-app state is then overwritten from the stream.
  void Transfer(SnapshotArchive& ar);

  // ---- Recycling support ----------------------------------------------------
  // Two-phase teardown bracketing the scheduler's task destruction:
  // KillAllForRecycle kills every running app with listeners suppressed
  // (releasing their memory and marking their tasks dead); after the
  // scheduler has destroyed those dead tasks, ResetForRecycle drops the
  // process graveyard (safe only once no task references the processes) and
  // rewinds the lifecycle history so Transfer sees a fresh manager.
  // Installed apps and the uid sequence are kept — the catalog is identical
  // across devices of a group.
  void KillAllForRecycle();
  void ResetForRecycle();

 private:
  struct AppEntry {
    std::unique_ptr<App> app;
    AppDescriptor descriptor;
    std::unique_ptr<Process> main_process;
    std::unique_ptr<Process> service_process;
    WorkQueueBehavior* main_thread = nullptr;    // Owned by their tasks.
    WorkQueueBehavior* render_thread = nullptr;
    bool interactive = false;
  };

  AppEntry* EntryOf(Uid uid);
  const AppEntry* EntryOf(Uid uid) const;
  void StartProcesses(AppEntry& entry);
  void SetForeground(AppEntry& entry);
  void DemoteToBackground(AppEntry& entry);
  void RecomputeCachedAdj();
  void NotifyState(App& app, AppState old_state);

  Engine& engine_;
  Scheduler& scheduler_;
  MemoryManager& mm_;
  Freezer& freezer_;

  // deque: AppEntry references stay stable as apps are installed.
  std::deque<AppEntry> entries_;
  // Dead processes are parked here: scheduler graveyard tasks keep Process*
  // backpointers, so processes must outlive the simulation.
  std::vector<std::unique_ptr<Process>> process_graveyard_;

  App* foreground_ = nullptr;
  TaskFactory bg_task_factory_;
  std::vector<StateListener> state_listeners_;
  std::vector<DeathListener> death_listeners_;
  std::vector<LaunchRecord> launches_;

  // Ordered process-creation/kill history for snapshot replay.
  struct LifecycleEvent {
    uint8_t kind;  // 0 = StartProcesses, 1 = KillApp.
    Uid uid;
  };
  std::vector<LifecycleEvent> lifecycle_log_;
  bool replaying_ = false;  // Suppresses listeners during snapshot replay.

  Uid next_uid_ = 10000;  // Android app UIDs start at 10000.
  Pid next_pid_ = 2000;
};

}  // namespace ice

#endif  // SRC_ANDROID_ACTIVITY_MANAGER_H_
