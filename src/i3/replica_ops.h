// I3 wiring for model/replica_set.h.
//
// ReplicaSet is index-agnostic: recovery and scrubbing go through the
// ReplicaOps hook struct. This header builds those hooks for I3Index --
// snapshots via SaveTo/LoadFrom (re-homed onto the target replica's own
// storage stack, so each replica keeps its page-file factory, checksum
// layer, and buffer pool), and page-level verify/read/write against the
// data file for the scrubber. It lives in i3_core, not i3_model, because
// the dependency points that way: the model library defines the hook
// types, the index library fills them in.

#ifndef I3_I3_REPLICA_OPS_H_
#define I3_I3_REPLICA_OPS_H_

#include <cstdint>
#include <functional>

#include "i3/options.h"
#include "model/replica_set.h"

namespace i3 {

/// \brief ReplicaOps backed by I3Index. `options_for_replica(r)` must
/// return the same I3Options replica `r` was constructed with (page-file
/// factory included): LoadFrom re-homes a snapshot onto that storage
/// stack, so a recovered replica lands back behind its own backing (e.g.
/// the fault injector the chaos rigs planted under it). Every hook
/// expects the index to actually be an I3Index and fails with Internal
/// otherwise -- whoever builds the set's replicas establishes that
/// contract.
ReplicaOps MakeI3ReplicaOps(
    std::function<I3Options(uint32_t replica)> options_for_replica);

}  // namespace i3

#endif  // I3_I3_REPLICA_OPS_H_
