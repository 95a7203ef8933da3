#include "src/trace/chrome_export.h"

#include <map>
#include <sstream>
#include <vector>

#include "src/base/json.h"

namespace ice {

namespace {

// Synthetic process ids, one per subsystem (see header).
constexpr int kPidCpu = 1;
constexpr int kPidMem = 2;
constexpr int kPidIo = 3;
constexpr int kPidFrames = 4;
constexpr int kPidIce = 5;

// mem-process tracks.
constexpr int kTidKswapd = 1;
constexpr int kTidDirect = 2;
constexpr int kTidMemEvents = 3;

class JsonEvents {
 public:
  std::ostringstream& Next() {
    if (!first_) {
      out_ << ",\n";
    }
    first_ = false;
    return out_;
  }

  void Meta(int pid, int tid, const char* key, const std::string& name) {
    Next() << "  {\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"name\": \"" << key << "\", \"args\": {\"name\": \"" << JsonEscape(name)
           << "\"}}";
  }

  void Complete(int pid, int tid, SimTime ts, SimDuration dur, const std::string& name,
                const std::string& args) {
    Next() << "  {\"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"ts\": " << ts << ", \"dur\": " << dur << ", \"name\": \""
           << JsonEscape(name) << "\"" << (args.empty() ? "" : ", \"args\": {" + args + "}")
           << "}";
  }

  void Instant(int pid, int tid, SimTime ts, const std::string& name,
               const std::string& args) {
    Next() << "  {\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"ts\": " << ts << ", \"name\": \"" << JsonEscape(name) << "\""
           << (args.empty() ? "" : ", \"args\": {" + args + "}") << "}";
  }

  void Async(char phase, int pid, int tid, SimTime ts, const char* cat,
             uint64_t id, const std::string& name, const std::string& args) {
    Next() << "  {\"ph\": \"" << phase << "\", \"pid\": " << pid << ", \"tid\": " << tid
           << ", \"ts\": " << ts << ", \"cat\": \"" << cat << "\", \"id\": " << id
           << ", \"name\": \"" << JsonEscape(name) << "\""
           << (args.empty() ? "" : ", \"args\": {" + args + "}") << "}";
  }

  void Counter(int pid, SimTime ts, const char* name, const std::string& args) {
    Next() << "  {\"ph\": \"C\", \"pid\": " << pid << ", \"tid\": 0, \"ts\": " << ts
           << ", \"name\": \"" << name << "\", \"args\": {" << args << "}}";
  }

  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string I(const char* key, uint64_t v) {
  return std::string("\"") + key + "\": " + std::to_string(v);
}
std::string I(const char* key, int64_t v) {
  return std::string("\"") + key + "\": " + std::to_string(v);
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer) {
  std::vector<TraceEvent> events = tracer.Events();
  SimTime last_ts = events.empty() ? 0 : events.back().ts;

  JsonEvents out;
  out.Meta(kPidCpu, 0, "process_name", "cpu");
  out.Meta(kPidMem, 0, "process_name", "mem");
  out.Meta(kPidIo, 0, "process_name", "io");
  out.Meta(kPidFrames, 0, "process_name", "frames");
  out.Meta(kPidIce, 0, "process_name", "ice");
  out.Meta(kPidMem, kTidKswapd, "thread_name", "kswapd reclaim");
  out.Meta(kPidMem, kTidDirect, "thread_name", "direct reclaim");
  out.Meta(kPidMem, kTidMemEvents, "thread_name", "vm events");

  // Open sched slice per core: (start ts, task trace id).
  std::map<uint16_t, std::pair<SimTime, uint64_t>> sched_open;
  // Open reclaim span per mem track: (start ts, target).
  std::map<int, std::pair<SimTime, uint64_t>> reclaim_open;

  for (const TraceEvent& e : events) {
    bool fg = (e.flags & kTraceFlagForeground) != 0;
    bool direct = (e.flags & kTraceFlagDirect) != 0;
    bool anon = (e.flags & kTraceFlagAnon) != 0;
    bool write = (e.flags & kTraceFlagWrite) != 0;
    switch (e.type) {
      case TraceEventType::kReclaimBegin: {
        // Drop-oldest may orphan a begin; the newer begin wins.
        reclaim_open[direct ? kTidDirect : kTidKswapd] = {e.ts, e.arg0};
        break;
      }
      case TraceEventType::kReclaimEnd: {
        int tid = direct ? kTidDirect : kTidKswapd;
        auto it = reclaim_open.find(tid);
        if (it != reclaim_open.end()) {
          out.Complete(kPidMem, tid, it->second.first, e.ts - it->second.first,
                       direct ? "direct_reclaim" : "kswapd_reclaim",
                       I("target", it->second.second) + ", " + I("reclaimed", e.arg0) +
                           ", " + I("scanned", e.arg1));
          reclaim_open.erase(it);
        }
        break;
      }
      case TraceEventType::kPageEvict:
        out.Instant(kPidMem, kTidMemEvents, e.ts, anon ? "evict_anon" : "evict_file",
                    I("uid", int64_t{e.uid}) + ", " + I("vpn", e.arg0) + ", " +
                        I("direct", uint64_t{direct ? 1u : 0u}));
        break;
      case TraceEventType::kRefault:
        out.Instant(kPidMem, kTidMemEvents, e.ts, fg ? "refault_fg" : "refault_bg",
                    I("pid", int64_t{e.pid}) + ", " + I("uid", int64_t{e.uid}) + ", " +
                        I("vpn", e.arg0) + ", " + I("anon", uint64_t{anon ? 1u : 0u}));
        break;
      case TraceEventType::kZramCompress:
        out.Instant(kPidMem, kTidMemEvents, e.ts, "zram_compress",
                    I("uid", int64_t{e.uid}) + ", " + I("bytes", e.arg0));
        break;
      case TraceEventType::kZramDecompress:
        out.Instant(kPidMem, kTidMemEvents, e.ts, "zram_decompress",
                    I("uid", int64_t{e.uid}) + ", " + I("bytes", e.arg0));
        break;
      case TraceEventType::kBioSubmit:
        out.Async('b', kPidIo, 1, e.ts, "bio", e.arg1,
                  std::string(write ? "bio_write" : "bio_read") + (fg ? "_fg" : "_bg"),
                  I("pages", e.arg0) + ", " + I("pid", int64_t{e.pid}));
        break;
      case TraceEventType::kBioComplete:
        out.Async('e', kPidIo, 1, e.ts, "bio", e.arg1,
                  std::string(write ? "bio_write" : "bio_read") + (fg ? "_fg" : "_bg"),
                  I("latency_us", e.arg0));
        break;
      case TraceEventType::kSchedSwitch: {
        auto it = sched_open.find(e.core);
        if (it != sched_open.end()) {
          out.Complete(kPidCpu, e.core + 1, it->second.first, e.ts - it->second.first,
                       tracer.TaskName(it->second.second), "");
          sched_open.erase(it);
        }
        if (e.arg0 != 0) {
          sched_open[e.core] = {e.ts, e.arg0};
        }
        break;
      }
      case TraceEventType::kFreeze:
        out.Async('b', kPidIce, 1, e.ts, "freezer",
                  static_cast<uint64_t>(e.uid), "frozen", I("uid", int64_t{e.uid}));
        break;
      case TraceEventType::kThaw:
        out.Async('e', kPidIce, 1, e.ts, "freezer",
                  static_cast<uint64_t>(e.uid), "frozen", "");
        break;
      case TraceEventType::kRpfTrigger:
        out.Instant(kPidIce, 1, e.ts, "rpf_trigger",
                    I("pid", int64_t{e.pid}) + ", " + I("uid", int64_t{e.uid}));
        break;
      case TraceEventType::kMdtEpoch:
        out.Instant(kPidIce, 1, e.ts, "mdt_epoch",
                    I("ef_us", e.arg0) + ", " + I("epoch", e.arg1));
        out.Counter(kPidIce, e.ts, "mdt_ef_ms", I("ef_ms", e.arg0 / 1000));
        break;
      case TraceEventType::kFrameBegin:
        out.Async('b', kPidFrames, 1, e.ts, "frame", e.arg0, "frame",
                  I("uid", int64_t{e.uid}));
        break;
      case TraceEventType::kFrameEnd:
        out.Async('e', kPidFrames, 1, e.ts, "frame", e.arg0, "frame",
                  I("latency_us", e.arg1));
        break;
      case TraceEventType::kFrameDeadlineMiss:
        out.Instant(kPidFrames, 1, e.ts,
                    (e.flags & kTraceFlagDropped) != 0 ? "vsync_dropped"
                                                       : "frame_deadline_miss",
                    I("frame", e.arg0) + ", " + I("latency_us", e.arg1));
        break;
      case TraceEventType::kZramReject:
        out.Instant(kPidMem, kTidMemEvents, e.ts,
                    (e.flags & kTraceFlagHot) != 0 ? "zram_reject_hot"
                                                   : "zram_reject_full",
                    I("uid", int64_t{e.uid}) + ", " + I("vpn", e.arg0));
        break;
      case TraceEventType::kZramWriteback:
        out.Instant(kPidMem, kTidMemEvents, e.ts, "zram_writeback",
                    I("pages", e.arg0));
        break;
    }
  }
  // Close slices still open at trace end so they render.
  for (const auto& [core, open] : sched_open) {
    out.Complete(kPidCpu, core + 1, open.first, last_ts - open.first,
                 tracer.TaskName(open.second), "");
  }
  for (const auto& [tid, open] : reclaim_open) {
    out.Complete(kPidMem, tid, open.first, last_ts - open.first,
                 tid == kTidDirect ? "direct_reclaim" : "kswapd_reclaim",
                 I("target", open.second));
  }

  std::ostringstream json;
  json << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n"
       << out.str() << "\n]}\n";
  return json.str();
}

std::string WriteChromeTrace(const std::string& path, const Tracer& tracer) {
  return WriteJsonFile(path, ChromeTraceJson(tracer));
}

}  // namespace ice
