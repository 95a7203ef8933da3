#include "src/storage/block_device.h"

#include <string>
#include <utility>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/trace/trace.h"

namespace ice {

namespace {
int BioFlags(const Bio& bio) {
  return (bio.foreground ? kTraceFlagForeground : 0) |
         (bio.dir == IoDir::kWrite ? kTraceFlagWrite : 0);
}
}  // namespace

BlockDevice::BlockDevice(Engine& engine, FlashProfile profile)
    : engine_(engine),
      profile_(std::move(profile)),
      // Service-time jitter is environment noise, not workload: forking from
      // the noise stream keeps experiment construction off the seeded stream
      // (the warm-boot template contract; see Engine::noise_rng).
      rng_(engine.noise_rng().Fork()) {}

void BlockDevice::Submit(Bio bio) {
  engine_.stats().Increment(bio.dir == IoDir::kRead ? stat::kIoReads : stat::kIoWrites);
  engine_.stats().Add(bio.dir == IoDir::kRead ? stat::kIoReadBytes : stat::kIoWriteBytes,
                      PagesToBytes(bio.pages));
  uint64_t id = ++bio_seq_;
  ICE_TRACE(engine_, TraceEventType::kBioSubmit,
            {.pid = bio.pid, .flags = BioFlags(bio), .arg0 = bio.pages, .arg1 = id});
  queue_.push_back(Pending{std::move(bio), engine_.now(), id});
  MaybeStart();
}

void BlockDevice::MaybeStart() {
  while (inflight_ < profile_.queue_depth && !queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++inflight_;

    SimDuration per_page =
        p.bio.dir == IoDir::kRead ? profile_.read_per_page : profile_.write_per_page;
    double nominal =
        static_cast<double>(profile_.command_overhead) + static_cast<double>(per_page * p.bio.pages);
    SimDuration service =
        static_cast<SimDuration>(rng_.LogNormal(nominal, profile_.jitter_sigma));
    if (service < 1) {
      service = 1;
    }

    Bio bio = std::move(p.bio);
    SimTime submitted = p.submitted;
    uint64_t id = p.id;
    engine_.ScheduleAfter(service, [this, bio = std::move(bio), submitted, id]() mutable {
      Complete(std::move(bio), submitted, id);
    });
  }
}

void BlockDevice::Complete(Bio bio, SimTime submitted, uint64_t id) {
  --inflight_;
  ICE_CHECK_GE(inflight_, 0);
  SimDuration latency = engine_.now() - submitted;
  ICE_TRACE(engine_, TraceEventType::kBioComplete,
            {.pid = bio.pid, .flags = BioFlags(bio), .arg0 = latency, .arg1 = id});
  if (bio.foreground) {
    ++fg_requests_;
    fg_latency_us_ += latency;
  } else {
    ++bg_requests_;
    bg_latency_us_ += latency;
  }
  if (bio.on_complete) {
    bio.on_complete();
  }
  MaybeStart();
}

void BlockDevice::Transfer(SnapshotArchive& ar) {
  ICE_CHECK(queue_.empty()) << "snapshot with queued I/O";
  ICE_CHECK_EQ(inflight_, 0) << "snapshot with in-flight I/O";
  rng_.Transfer(ar);
  ar.U64(bio_seq_);
  // Format v2 keeps the byte of the retired foreground-priority dispatch flag.
  ar.Expect<uint8_t>(0, "FG-priority dispatch flag");
  // An idle device has completed every request submitted to it.
  const StatsRegistry& stats = engine_.stats();
  const uint64_t requests = stats.Get(stat::kIoReads) + stats.Get(stat::kIoWrites);
  ar.Expect<uint64_t>(BytesToPages(stats.Get(stat::kIoReadBytes)), "pages read");
  ar.Expect<uint64_t>(BytesToPages(stats.Get(stat::kIoWriteBytes)), "pages written");
  ar.Expect<uint64_t>(requests, "requests completed");
  uint64_t total_latency_us = fg_latency_us_ + bg_latency_us_;
  ar.U64(total_latency_us);
  ar.U64(fg_requests_);
  ar.U64(bg_requests_);
  ar.U64(fg_latency_us_);
  ar.U64(bg_latency_us_);
  if (!ar.loading()) {
    return;
  }
  if (fg_requests_ + bg_requests_ != requests) {
    SnapshotArchive::Fail("FG and BG requests do not sum to the " + std::to_string(requests) +
                          " completed");
  }
  if (total_latency_us != fg_latency_us_ + bg_latency_us_) {
    SnapshotArchive::Fail("total latency " + std::to_string(total_latency_us) +
                          " is not the sum of the FG and BG latencies");
  }
}

double BlockDevice::mean_latency_us() const {
  uint64_t requests = fg_requests_ + bg_requests_;
  if (requests == 0) {
    return 0.0;
  }
  return static_cast<double>(fg_latency_us_ + bg_latency_us_) / static_cast<double>(requests);
}

}  // namespace ice
