// Benchmark-side spans for the traced run: one SpanLog per thread records
// a span around every public call the benchmark makes (name, start, end,
// parent, request id), kept in memory and written out as JSON with each
// span's self time when the run ends. Spans live in the benchmark, not in
// the program: the untraced run passes null logs and pays one branch.

#ifndef I3_E2EBENCH_SPANS_H_
#define I3_E2EBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace i3 {
namespace e2e {

/// Parent index of a root span.
constexpr uint32_t kNoParent = UINT32_MAX;

/// \brief The spans of one thread. Not thread-safe: each thread owns one.
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< string literal
    uint32_t parent;   ///< index in the same log, or kNoParent
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}

  /// Opens a span; the returned index closes it and parents its children.
  /// Spans past the cap are counted as dropped (returns kNoParent).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  static constexpr size_t kMaxSpans = 1u << 20;

  std::string thread_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// \brief RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent = kNoParent,
             uint64_t request = 0)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, parent, request) : kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

/// \brief Writes every span of `logs` to `path` with its self time (its
/// duration minus its children's), plus per-name totals. Times are
/// relative to `origin_ns`. `extra_fields` (JSON members, may be empty)
/// is appended to the top-level object.
Status WriteTraceJson(const std::string& path, const std::string& workload,
                      const std::vector<const SpanLog*>& logs,
                      uint64_t origin_ns, const std::string& extra_fields);

}  // namespace e2e
}  // namespace i3

#endif  // I3_E2EBENCH_SPANS_H_
