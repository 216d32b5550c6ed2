#include "model/query.h"

#include "obs/trace.h"

namespace i3 {

void QueryStats::AnnotateTrace(obs::QueryTrace* trace) const {
  for (size_t i = 0; i < work.count; ++i) {
    trace->Annotate(work.names[i], work.values[i]);
  }
  if (failed_over) trace->Annotate("failovers", 1);
}

}  // namespace i3
