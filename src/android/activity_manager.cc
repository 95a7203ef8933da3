#include "src/android/activity_manager.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/proc/task.h"

namespace ice {

namespace {
// §6.4.2: "it takes only tens of milliseconds to thaw an application".
constexpr SimDuration kThawLatency = Ms(45);

// Keeps the first `pages` pages of `runs` there and returns the rest. A run
// the cut falls inside is split in two; neither side keeps a zero-length run.
std::vector<VpnRun> SplitRunsAt(std::vector<VpnRun>& runs, size_t pages) {
  size_t whole = 0;
  while (whole < runs.size() && pages >= runs[whole].count) {
    pages -= runs[whole].count;
    ++whole;
  }
  std::vector<VpnRun> rest(runs.begin() + static_cast<ptrdiff_t>(whole), runs.end());
  runs.resize(whole);
  if (pages > 0) {
    ICE_CHECK(!rest.empty()) << "split past the end of the runs";
    const uint32_t head = static_cast<uint32_t>(pages);
    runs.push_back({rest.front().begin, head});
    rest.front().begin += head;
    rest.front().count -= head;
  }
  return rest;
}
}  // namespace

ActivityManager::ActivityManager(Engine& engine, Scheduler& scheduler, MemoryManager& mm,
                                 Freezer& freezer)
    : engine_(engine), scheduler_(scheduler), mm_(mm), freezer_(freezer) {}

ActivityManager::~ActivityManager() {
  // The memory manager must not point at the address spaces destroyed with
  // this object. A device that ends has its manager forget them first
  // (MemoryManager::ForgetSpaces), which makes these calls no-ops; one that
  // outlives this object gets its live pages back.
  for (AppEntry& e : entries_) {
    if (e.main_process != nullptr) {
      mm_.Release(e.main_process->space());
    }
    if (e.service_process != nullptr) {
      mm_.Release(e.service_process->space());
    }
  }
}

App* ActivityManager::Install(const AppDescriptor& descriptor) {
  AppEntry entry;
  entry.app = std::make_unique<App>(next_uid_++, descriptor.package);
  entry.descriptor = descriptor;
  entries_.push_back(std::move(entry));
  return entries_.back().app.get();
}

ActivityManager::AppEntry* ActivityManager::EntryOf(Uid uid) {
  for (AppEntry& e : entries_) {
    if (e.app->uid() == uid) {
      return &e;
    }
  }
  return nullptr;
}

const ActivityManager::AppEntry* ActivityManager::EntryOf(Uid uid) const {
  for (const AppEntry& e : entries_) {
    if (e.app->uid() == uid) {
      return &e;
    }
  }
  return nullptr;
}

App* ActivityManager::FindApp(Uid uid) {
  AppEntry* e = EntryOf(uid);
  return e == nullptr ? nullptr : e->app.get();
}

const AppDescriptor& ActivityManager::descriptor(Uid uid) const {
  const AppEntry* e = EntryOf(uid);
  ICE_CHECK(e != nullptr) << "unknown uid " << uid;
  return e->descriptor;
}

std::vector<App*> ActivityManager::apps() {
  std::vector<App*> out;
  out.reserve(entries_.size());
  for (AppEntry& e : entries_) {
    out.push_back(e.app.get());
  }
  return out;
}

WorkQueueBehavior* ActivityManager::main_thread(Uid uid) {
  AppEntry* e = EntryOf(uid);
  return e == nullptr ? nullptr : e->main_thread;
}

WorkQueueBehavior* ActivityManager::render_thread(Uid uid) {
  AppEntry* e = EntryOf(uid);
  return e == nullptr ? nullptr : e->render_thread;
}

AddressSpace* ActivityManager::main_space(Uid uid) {
  AppEntry* e = EntryOf(uid);
  if (e == nullptr || e->main_process == nullptr) {
    return nullptr;
  }
  return &e->main_process->space();
}

AddressSpace* ActivityManager::service_space(Uid uid) {
  AppEntry* e = EntryOf(uid);
  if (e == nullptr || e->service_process == nullptr) {
    return nullptr;
  }
  return &e->service_process->space();
}

Process* ActivityManager::main_process(Uid uid) {
  AppEntry* e = EntryOf(uid);
  return e == nullptr ? nullptr : e->main_process.get();
}

bool ActivityManager::interactive(Uid uid) const {
  const AppEntry* e = EntryOf(uid);
  return e != nullptr && e->interactive;
}

Task* ActivityManager::CreateAppTask(App& app, const std::string& name, int nice,
                                     std::unique_ptr<Behavior> behavior,
                                     bool in_service_process) {
  AppEntry* e = EntryOf(app.uid());
  ICE_CHECK(e != nullptr);
  Process* proc = in_service_process ? e->service_process.get() : e->main_process.get();
  ICE_CHECK(proc != nullptr) << app.package() << " is not running";
  return scheduler_.CreateTask(app.package() + ":" + name, proc, nice, std::move(behavior));
}

void ActivityManager::StartProcesses(AppEntry& entry) {
  const AppDescriptor& d = entry.descriptor;
  App& app = *entry.app;
  lifecycle_log_.push_back({0, app.uid()});

  AddressSpaceLayout main_layout;
  main_layout.java_pages = d.java_pages;
  main_layout.native_pages = d.native_pages;
  main_layout.file_pages = d.file_pages;
  entry.main_process =
      std::make_unique<Process>(next_pid_++, &app, d.package, main_layout);
  app.AddProcess(entry.main_process.get());
  mm_.Register(entry.main_process->space());

  AddressSpaceLayout service_layout;
  service_layout.native_pages = d.service_pages;
  service_layout.file_pages = d.service_pages / 2;
  entry.service_process =
      std::make_unique<Process>(next_pid_++, &app, d.package + ":svc", service_layout);
  app.AddProcess(entry.service_process.get());
  mm_.Register(entry.service_process->space());

  // Android boosts the top-app's UI and render threads (top-app cpuset /
  // elevated share); stock CFS still schedules them fairly against runnable
  // peers, but they are not starved by background bursts. Note this does
  // NOT protect them from non-preemptive direct reclaim or fault blocking —
  // the §2.2.3 priority inversion applies regardless of nice values.
  constexpr int kTopAppNice = -4;
  auto ui = std::make_unique<WorkQueueBehavior>();
  entry.main_thread = ui.get();
  Task* ui_task = scheduler_.CreateTask(d.package + ":ui", entry.main_process.get(),
                                        kTopAppNice, std::move(ui));
  entry.main_thread->BindTask(ui_task);

  auto render = std::make_unique<WorkQueueBehavior>();
  entry.render_thread = render.get();
  Task* render_task = scheduler_.CreateTask(d.package + ":render", entry.main_process.get(),
                                            kTopAppNice, std::move(render));
  entry.render_thread->BindTask(render_task);

  if (bg_task_factory_) {
    bg_task_factory_(*this, app);
  }
}

void ActivityManager::Launch(Uid uid, LaunchCallback on_interactive) {
  AppEntry* e = EntryOf(uid);
  ICE_CHECK(e != nullptr) << "launching uninstalled uid " << uid;
  App& app = *e->app;

  LaunchRecord record;
  record.uid = uid;
  record.start = engine_.now();
  record.cold = !app.running();

  bool was_frozen = false;
  if (record.cold) {
    engine_.stats().Increment(stat::kColdLaunches);
    StartProcesses(*e);
  } else {
    engine_.stats().Increment(stat::kHotLaunches);
    if (app.frozen()) {
      // Thaw-on-launch (§4.4): a frozen app must be thawed before it can
      // respond; the thaw happens before the app is displayed and costs
      // tens of milliseconds (§6.4.2).
      was_frozen = true;
      freezer_.ThawApp(app);
    }
  }
  e->interactive = false;

  SetForeground(*e);

  // Build the launch work item.
  const AppDescriptor& d = e->descriptor;
  AddressSpace& space = e->main_process->space();
  WorkItem item;
  item.space = &space;
  item.write = false;

  // Cold launch reads the code/resource prefix from flash and faults in the
  // initial heap; hot launch re-touches the front of the hot working set, so
  // any of those pages reclaimed while cached refault now. Either way the
  // work touches a contiguous prefix of each region: file, java, native.
  double file_fraction = record.cold ? d.cold_touch_fraction : d.hot_touch_fraction;
  double anon_fraction = record.cold ? d.cold_touch_fraction * 0.8 : d.hot_touch_fraction;
  item.compute_us = record.cold ? d.cold_launch_cpu : d.hot_launch_cpu;
  if (was_frozen) {
    item.compute_us += kThawLatency;
  }
  const uint32_t begins[] = {space.file_begin(), space.java_begin(), space.native_begin()};
  const uint32_t counts[] = {
      static_cast<uint32_t>((space.file_end() - space.file_begin()) * file_fraction),
      static_cast<uint32_t>((space.java_end() - space.java_begin()) * anon_fraction),
      static_cast<uint32_t>((space.native_end() - space.native_begin()) * anon_fraction)};
  size_t total = 0;
  for (int r = 0; r < 3; ++r) {
    if (counts[r] > 0) {
      item.runs.push_back({begins[r], counts[r]});
      total += counts[r];
    }
  }

  // Only the interactive prefix of the working set is populated before the
  // app is usable; the rest streams in afterwards (real launches do not
  // fault the whole footprint before first draw).
  WorkItem tail;
  tail.space = item.space;
  tail.write = false;
  if (record.cold && total > 512) {
    tail.runs = SplitRunsAt(item.runs, total * 2 / 5);
  }

  size_t slot = launches_.size();
  launches_.push_back(record);
  AppEntry* entry_ptr = e;
  item.on_complete = [this, slot, entry_ptr, cb = std::move(on_interactive)]() {
    LaunchRecord& r = launches_[slot];
    r.latency = engine_.now() - r.start;
    r.completed = true;
    entry_ptr->interactive = true;
    if (cb) {
      cb(r);
    }
  };
  e->main_thread->Push(std::move(item));
  if (!tail.runs.empty()) {
    e->main_thread->Push(std::move(tail));
  }
}

void ActivityManager::SetForeground(AppEntry& entry) {
  App& app = *entry.app;
  if (foreground_ == &app) {
    return;
  }
  if (foreground_ != nullptr) {
    AppEntry* old_entry = EntryOf(foreground_->uid());
    ICE_CHECK(old_entry != nullptr);
    DemoteToBackground(*old_entry);
  }
  AppState old_state = app.state();
  foreground_ = &app;
  app.set_state(AppState::kForeground);
  app.set_oom_adj(kAdjForeground);
  app.last_foreground_time = engine_.now();
  mm_.set_foreground_uid(app.uid());
  NotifyState(app, old_state);
}

void ActivityManager::DemoteToBackground(AppEntry& entry) {
  App& app = *entry.app;
  AppState old_state = app.state();
  if (entry.descriptor.perceptible_in_bg) {
    app.set_state(AppState::kPerceptible);
    app.set_oom_adj(kAdjPerceptible);
  } else {
    app.set_state(AppState::kCached);
  }
  if (foreground_ == &app) {
    foreground_ = nullptr;
    mm_.set_foreground_uid(kInvalidUid);
  }
  RecomputeCachedAdj();
  NotifyState(app, old_state);
}

void ActivityManager::MoveForegroundToBackground() {
  if (foreground_ == nullptr) {
    return;
  }
  AppEntry* e = EntryOf(foreground_->uid());
  ICE_CHECK(e != nullptr);
  DemoteToBackground(*e);
}

void ActivityManager::RecomputeCachedAdj() {
  // Staler cached apps get higher adj (die first), mirroring Android's
  // cached-app LRU.
  std::vector<App*> cached;
  for (AppEntry& e : entries_) {
    if (e.app->running() && e.app->state() == AppState::kCached) {
      cached.push_back(e.app.get());
    }
  }
  std::sort(cached.begin(), cached.end(), [](const App* a, const App* b) {
    return a->last_foreground_time > b->last_foreground_time;
  });
  int adj = kAdjCachedBase;
  for (App* app : cached) {
    app->set_oom_adj(adj);
    adj += 10;
  }
}

void ActivityManager::KillApp(App& app) {
  AppEntry* e = EntryOf(app.uid());
  ICE_CHECK(e != nullptr);
  if (!app.running()) {
    return;
  }
  lifecycle_log_.push_back({1, app.uid()});
  AppState old_state = app.state();

  if (e->main_process != nullptr) {
    e->main_process->Kill();
    mm_.Release(e->main_process->space());
    app.RemoveProcess(e->main_process.get());
    process_graveyard_.push_back(std::move(e->main_process));
  }
  if (e->service_process != nullptr) {
    e->service_process->Kill();
    mm_.Release(e->service_process->space());
    app.RemoveProcess(e->service_process.get());
    process_graveyard_.push_back(std::move(e->service_process));
  }
  e->main_thread = nullptr;
  e->render_thread = nullptr;
  e->interactive = false;

  app.set_state(AppState::kNotRunning);
  app.set_frozen(false);
  if (foreground_ == &app) {
    foreground_ = nullptr;
    mm_.set_foreground_uid(kInvalidUid);
  }
  NotifyState(app, old_state);
  if (!replaying_) {
    for (DeathListener& l : death_listeners_) {
      l(app);
    }
  }
}

bool ActivityManager::KillOneCached() {
  App* victim = nullptr;
  for (AppEntry& e : entries_) {
    App* app = e.app.get();
    if (!app->running() || app->state() != AppState::kCached) {
      continue;
    }
    if (victim == nullptr || app->oom_adj() > victim->oom_adj()) {
      victim = app;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  KillApp(*victim);
  return true;
}

void ActivityManager::KillAllForRecycle() {
  replaying_ = true;  // Suppress listeners; policy state is restored later.
  for (AppEntry& e : entries_) {
    if (e.app->running()) {
      KillApp(*e.app);
    }
  }
  replaying_ = false;
  ICE_CHECK(foreground_ == nullptr);
}

void ActivityManager::ResetForRecycle() {
  for (AppEntry& e : entries_) {
    ICE_CHECK(!e.app->running()) << e.app->package() << ": recycle with a running app";
  }
  process_graveyard_.clear();
  lifecycle_log_.clear();
  launches_.clear();
  next_pid_ = 2000;
}

void ActivityManager::NotifyState(App& app, AppState old_state) {
  if (replaying_) {
    return;
  }
  for (StateListener& l : state_listeners_) {
    l(app, old_state);
  }
}

void ActivityManager::Transfer(SnapshotArchive& ar) {
  // Phase 1: structural replay. Restoring re-runs the real
  // StartProcesses/KillApp paths, which reproduces identical pid, space-id
  // and trace-id allocation; the replayed calls append to lifecycle_log_
  // again, so a restored run can itself be snapshotted.
  if (ar.loading()) {
    ICE_CHECK(lifecycle_log_.empty()) << "restore into a used ActivityManager";
  }
  std::vector<LifecycleEvent> replay;
  ar.Sequence(ar.loading() ? replay : lifecycle_log_, 9, [&ar](LifecycleEvent& ev) {
    ar.U8(ev.kind);
    ar.I64(ev.uid);
  });
  if (ar.loading()) {
    replaying_ = true;
    for (const LifecycleEvent& ev : replay) {
      AppEntry* e = EntryOf(ev.uid);
      // A start needs a stopped app and a kill a running one.
      if (e == nullptr || ev.kind > 1 || e->app->running() != (ev.kind == 1)) {
        SnapshotArchive::Fail("lifecycle replay diverged at uid " + std::to_string(ev.uid));
      }
      if (ev.kind == 0) {
        StartProcesses(*e);
      } else {
        KillApp(*e->app);
      }
    }
    replaying_ = false;
  }

  // Phase 2: dynamic state.
  Uid fg = foreground_ != nullptr ? foreground_->uid() : kInvalidUid;
  ar.I64(fg);
  if (ar.loading()) {
    foreground_ = fg == kInvalidUid ? nullptr : FindApp(fg);
    if (fg != kInvalidUid && foreground_ == nullptr) {
      SnapshotArchive::Fail("unknown foreground uid " + std::to_string(fg));
    }
  }
  ar.Sequence(launches_, 26, [&ar](LaunchRecord& rec) {
    ar.I64(rec.uid);
    ar.Bool(rec.cold);
    ar.U64(rec.start);
    ar.U64(rec.latency);
    ar.Bool(rec.completed);
    if (ar.loading() && !rec.completed) {
      SnapshotArchive::Fail("snapshot with an in-flight launch");
    }
  });
  ar.Expect<int64_t>(next_uid_, "uid allocation");
  ar.Expect<int64_t>(next_pid_, "pid allocation");
  ar.Expect<uint64_t>(entries_.size(), "installed app count");
  for (AppEntry& e : entries_) {
    App& app = *e.app;
    AppState state = app.state();
    int oom_adj = app.oom_adj();
    bool frozen = app.frozen();
    ar.Bool(e.interactive);
    ar.U8(state);
    if (state > AppState::kCached) {
      SnapshotArchive::Fail("app " + std::to_string(app.uid()) + " has state byte " +
                            std::to_string(static_cast<int>(state)));
    }
    ar.I64(oom_adj);
    ar.Bool(frozen);
    ar.U64(app.cpu_time_us);
    ar.U64(app.last_foreground_time);
    if (ar.loading()) {
      app.set_state(state);
      app.set_oom_adj(oom_adj);
      app.set_frozen(frozen);
    }
  }
}

}  // namespace ice
