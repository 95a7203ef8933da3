#include "src/ice/mapping_table.h"

#include <utility>

#include "src/base/binary_stream.h"

namespace ice {

void MappingTable::Transfer(SnapshotArchive& ar) {
  ar.Sequence(entries_, 17, [&ar](AppEntry& e) {
    ar.I64(e.uid);
    ar.Bool(e.frozen);
    ar.Sequence(e.processes, 16, [&ar](ProcessEntry& p) {
      ar.I64(p.pid);
      ar.I64(p.score);
    });
  });
}

MappingTable::AppEntry* MappingTable::FindMutable(Uid uid) {
  for (AppEntry& e : entries_) {
    if (e.uid == uid) {
      return &e;
    }
  }
  return nullptr;
}

const MappingTable::AppEntry* MappingTable::Find(Uid uid) const {
  for (const AppEntry& e : entries_) {
    if (e.uid == uid) {
      return &e;
    }
  }
  return nullptr;
}

bool MappingTable::AddApp(Uid uid) {
  if (FindMutable(uid) != nullptr) {
    return true;  // Idempotent.
  }
  if (MemoryFootprintBytes() + kUidEntryBytes > kUpperBoundBytes) {
    return false;
  }
  AppEntry e;
  e.uid = uid;
  entries_.push_back(std::move(e));
  return true;
}

bool MappingTable::RemoveApp(Uid uid) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].uid == uid) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

bool MappingTable::AddProcess(Uid uid, Pid pid, int score) {
  AppEntry* e = FindMutable(uid);
  if (e == nullptr) {
    return false;
  }
  for (ProcessEntry& p : e->processes) {
    if (p.pid == pid) {
      p.score = score;
      return true;
    }
  }
  if (MemoryFootprintBytes() + kPidEntryBytes > kUpperBoundBytes) {
    return false;
  }
  e->processes.push_back(ProcessEntry{pid, score});
  return true;
}

bool MappingTable::SetScore(Uid uid, int score) {
  AppEntry* e = FindMutable(uid);
  if (e == nullptr) {
    return false;
  }
  for (ProcessEntry& p : e->processes) {
    p.score = score;
  }
  return true;
}

bool MappingTable::SetFrozen(Uid uid, bool frozen) {
  AppEntry* e = FindMutable(uid);
  if (e == nullptr) {
    return false;
  }
  e->frozen = frozen;
  return true;
}

Uid MappingTable::UidOfPid(Pid pid) const {
  for (const AppEntry& e : entries_) {
    for (const ProcessEntry& p : e.processes) {
      if (p.pid == pid) {
        return e.uid;
      }
    }
  }
  return kInvalidUid;
}

size_t MappingTable::MemoryFootprintBytes() const {
  size_t bytes = 0;
  for (const AppEntry& e : entries_) {
    bytes += kUidEntryBytes + e.processes.size() * kPidEntryBytes;
  }
  return bytes;
}

}  // namespace ice
