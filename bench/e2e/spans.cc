#include "bench/e2e/spans.h"

#include <cstdio>
#include <sstream>

#include "src/base/log.h"

namespace e2e {

void SimDelta::Add(const SimDelta& other) {
  sim_us += other.sim_us;
  ticks += other.ticks;
  ticks_skipped += other.ticks_skipped;
  busy_us += other.busy_us;
  capacity_us += other.capacity_us;
  for (const auto& [name, value] : other.stats) {
    stats[name] += value;
  }
}

uint64_t SimDelta::stat(const char* name) const {
  auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second;
}

SimMark SimMark::Of(ice::Experiment& exp) {
  SimMark m;
  m.now = exp.engine().now();
  m.ticks = exp.engine().ticks_elapsed();
  m.ticks_skipped = exp.engine().ticks_skipped();
  m.busy_us = exp.scheduler().busy_us();
  m.capacity_us = exp.scheduler().capacity_us();
  m.stats = exp.engine().stats().Snapshot();
  return m;
}

SimDelta SimMark::To(const SimMark& later) const {
  SimDelta d;
  d.sim_us = later.now - now;
  d.ticks = later.ticks - ticks;
  d.ticks_skipped = later.ticks_skipped - ticks_skipped;
  d.busy_us = later.busy_us - busy_us;
  d.capacity_us = later.capacity_us - capacity_us;
  d.stats = ice::StatsRegistry::Diff(stats, later.stats);
  return d;
}

int Recorder::Open(const char* name, int64_t unit) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit;
  span.start_ns = NsBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Recorder::Close(int id) {
  ICE_CHECK(!open_.empty() && open_.back() == id) << "spans must close innermost first";
  at(id).end_ns = NsBetween(origin_, Clock::now());
  open_.pop_back();
}

void Recorder::AddTickTime(TickerSlot slot, int64_t ns) {
  if (!open_.empty()) {
    at(open_.back()).tick_ns[slot] += ns;
  }
}

std::map<std::string, int64_t> Recorder::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.duration_ns();
    }
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t ticks = s.tick_ns[kTickScheduler] + s.tick_ns[kTickLmk];
    self[s.name] += s.duration_ns() - child_ns[i] - ticks;
    self["tick_scheduler"] += s.tick_ns[kTickScheduler];
    self["tick_lmk"] += s.tick_ns[kTickLmk];
  }
  return self;
}

std::string Recorder::ChromeTraceJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"unit\": %lld, \"tick_scheduler_us\": %.3f, "
                  "\"tick_lmk_us\": %.3f, \"sim_s\": %.6f, \"bytes\": %llu}}",
                  s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                  static_cast<long long>(s.unit),
                  static_cast<double>(s.tick_ns[kTickScheduler]) / 1e3,
                  static_cast<double>(s.tick_ns[kTickLmk]) / 1e3,
                  static_cast<double>(s.sim.sim_us) / 1e6,
                  static_cast<unsigned long long>(s.bytes));
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

Scope::Scope(Recorder* rec, const char* name, int64_t unit, ice::Experiment* exp)
    : rec_(rec) {
  if (rec_ == nullptr) {
    return;
  }
  id_ = rec_->Open(name, unit);
  if (exp != nullptr) {
    exp_ = exp;
    mark_ = SimMark::Of(*exp);
  }
}

Scope::~Scope() {
  if (rec_ == nullptr) {
    return;
  }
  // Read the counters before closing so the snapshot copy is not charged
  // to the parent span.
  if (exp_ != nullptr) {
    Span& span = rec_->at(id_);
    span.has_sim = true;
    span.sim = (mark_ ? *mark_ : SimMark{}).To(SimMark::Of(*exp_));
  }
  rec_->Close(id_);
}

void Scope::CountFromZero(ice::Experiment& exp) {
  if (rec_ != nullptr) {
    exp_ = &exp;
    mark_.reset();
  }
}

void Scope::set_bytes(uint64_t bytes) {
  if (rec_ != nullptr) {
    rec_->at(id_).bytes = bytes;
  }
}

TickerTap::TickerTap(Recorder& rec, ice::Experiment& exp)
    : scheduler_(rec, exp.scheduler(), kTickScheduler), lmk_(rec, exp.lmk(), kTickLmk) {
  ice::Engine& engine = exp.engine();
  engine.RemoveTicker(&exp.scheduler());
  engine.RemoveTicker(&exp.lmk());
  engine.AddTicker(&scheduler_);
  engine.AddTicker(&lmk_);
}

void TickerTap::Forward::Tick(ice::SimTime now) {
  const Clock::time_point t0 = Clock::now();
  inner_.Tick(now);
  rec_.AddTickTime(slot_, NsBetween(t0, Clock::now()));
}

}  // namespace e2e
