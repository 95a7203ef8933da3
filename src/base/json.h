// The JSON pieces every report writer shares: string escaping, exact number
// formatting, the MergeHistogram serialization, and the step that puts a
// finished document on disk. Sweep and fleet reports (src/harness) and Chrome
// traces (src/trace) all write through here, so an escaping or formatting
// rule changes in one place and every artifact follows it.
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <ostream>
#include <string>

#include "src/base/merge_histogram.h"

namespace ice {

// Escapes `s` for use inside a JSON string literal: `"` and `\` get a
// backslash, newline and tab their short escapes, every other control byte
// a \u00XX escape. Bytes >= 0x80 pass through, so UTF-8 stays UTF-8.
std::string JsonEscape(const std::string& s);

// %.17g: round-trips an IEEE double exactly, so reports are byte-identical
// across runs whenever the values are.
std::string JsonNum(double v);

// Writes `"key": {...}` for a histogram: its count and, when non-empty, sum,
// min, max, p50/p90/p99 and the sparse [bucket_index, count] list of
// non-empty buckets — enough to re-plot the distribution without samples.
void AppendJsonHistogram(std::ostream& out, const char* key, const MergeHistogram& h);

// Writes `text` to `path`, creating its parent directories first. Returns
// `path`, or "" after logging the error when a directory or the file cannot
// be created.
std::string WriteJsonFile(const std::string& path, const std::string& text);

}  // namespace ice

#endif  // SRC_BASE_JSON_H_
