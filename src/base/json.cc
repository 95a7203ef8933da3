#include "src/base/json.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/base/log.h"

namespace ice {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendJsonHistogram(std::ostream& out, const char* key, const MergeHistogram& h) {
  out << "\"" << key << "\": {\"count\": " << h.count();
  if (h.count() > 0) {
    out << ", \"sum\": " << JsonNum(h.Sum()) << ", \"min\": " << JsonNum(h.Min())
        << ", \"max\": " << JsonNum(h.Max())
        << ", \"p50\": " << JsonNum(h.Percentile(0.5))
        << ", \"p90\": " << JsonNum(h.Percentile(0.9))
        << ", \"p99\": " << JsonNum(h.Percentile(0.99)) << ", \"buckets\": [";
    bool first = true;
    for (size_t i = 0; i < h.num_buckets(); ++i) {
      if (h.bucket_count(i) == 0) {
        continue;
      }
      if (!first) {
        out << ", ";
      }
      first = false;
      out << "[" << i << ", " << h.bucket_count(i) << "]";
    }
    out << "]";
  }
  out << "}";
}

std::string WriteJsonFile(const std::string& path, const std::string& text) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      ICE_LOG(kError) << "cannot create " << parent.string() << ": " << ec.message();
      return "";
    }
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    ICE_LOG(kError) << "cannot open " << path;
    return "";
  }
  file << text;
  return path;
}

}  // namespace ice
