#include "model/query.h"

#include "obs/trace.h"

namespace i3 {

void QueryStats::AnnotateTrace(obs::QueryTrace* trace) const {
  for (size_t i = 0; i < work.count; ++i) {
    trace->Annotate(work.names[i], work.values[i]);
  }
  if (fanout.shards == 0) return;
  trace->Annotate("shards", fanout.shards);
  trace->Annotate("failed_shards", fanout.failed_shards);
  if (fanout.failed_shards > 0) {
    trace->Annotate("failed_shard_mask", fanout.failed_shard_mask);
  }
  if (fanout.failovers > 0) trace->Annotate("failovers", fanout.failovers);
  if (fanout.degraded) trace->Annotate("degraded", 1);
}

}  // namespace i3
