// The layer ledger of the traced run: replays a workload's first requests
// on a single thread through the serving stack, adding one layer at a time
// through public options and wrappers, and times each row as the minimum
// of interleaved passes. Alongside it, deterministic work counts of the
// i3, storage and net layers and micro-timings of CRC, page verify and
// group decode. Row definitions are in README.md.

#ifndef I3_E2EBENCH_LEDGER_H_
#define I3_E2EBENCH_LEDGER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "spans.h"
#include "workload.h"

namespace i3 {
namespace e2e {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Current value of the process-wide counter `name` (0 if unregistered).
uint64_t CounterValue(const char* name);

/// \brief Runs the ledger over `requests` against fresh loads of the index
/// saved at `index_path`, then (for a writing workload) replays the
/// writer's first pairs on a quiet index. Appends the per-layer metrics to
/// `out` and the ledger rows, as JSON members, to `*rows_json`.
Status RunLedger(const WorkloadSpec& spec, const std::string& index_path,
                 const std::vector<net::Request>& requests,
                 const Corpus& corpus, SpanLog* log,
                 std::vector<Metric>* out, std::string* rows_json);

}  // namespace e2e
}  // namespace i3

#endif  // I3_E2EBENCH_LEDGER_H_
