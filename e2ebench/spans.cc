#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <map>

#include "obs/clock.h"

namespace i3 {
namespace e2e {

uint32_t SpanLog::Begin(const char* name, uint32_t parent, uint64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kNoParent;
  }
  const uint64_t now = obs::NowNanos();
  spans_.push_back({name, parent, request, now, now});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::End(uint32_t id) {
  if (id != kNoParent) spans_[id].end_ns = obs::NowNanos();
}

Status WriteTraceJson(const std::string& path, const std::string& workload,
                      const std::vector<const SpanLog*>& logs,
                      uint64_t origin_ns, const std::string& extra_fields) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  uint64_t dropped = 0;
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload.c_str());
  bool first = true;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    dropped += log->dropped();
    // Children close before their parent (RAII nesting on one thread), so
    // their durations sum without overlap.
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      const uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
      Totals& t = by_name[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += self;
      std::fprintf(f,
                   "%s\n{\"id\": \"%s.%zu\", \"name\": \"%s\", "
                   "\"parent\": ",
                   first ? "" : ",", log->thread().c_str(), i, s.name);
      if (s.parent == kNoParent) {
        std::fprintf(f, "null");
      } else {
        std::fprintf(f, "\"%s.%u\"", log->thread().c_str(), s.parent);
      }
      std::fprintf(f,
                   ", \"request\": %" PRIu64 ", \"start_ns\": %" PRIu64
                   ", \"end_ns\": %" PRIu64 ", \"self_ns\": %" PRIu64 "}",
                   s.request, s.start_ns - origin_ns, s.end_ns - origin_ns,
                   self);
      first = false;
    }
  }
  std::fprintf(f, "\n], \"dropped\": %" PRIu64 ", \"by_name\": {", dropped);
  first = true;
  for (const auto& [name, t] : by_name) {
    std::fprintf(f,
                 "%s\n\"%s\": {\"count\": %" PRIu64 ", \"total_ns\": %" PRIu64
                 ", \"self_ns\": %" PRIu64 "}",
                 first ? "" : ",", name.c_str(), t.count, t.total_ns,
                 t.self_ns);
    first = false;
  }
  std::fprintf(f, "\n}%s%s}\n", extra_fields.empty() ? "" : ",\n",
               extra_fields.c_str());
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace e2e
}  // namespace i3
