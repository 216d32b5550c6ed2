// The former name of the serving index, kept only because the end-to-end
// benchmark (e2ebench/) still builds it from a one-element vector. Every
// other caller names ReplicaSet (model/replica_set.h), which serves any
// index at every replica count.

#ifndef I3_MODEL_SHARDED_INDEX_H_
#define I3_MODEL_SHARDED_INDEX_H_

#include "model/replica_set.h"

namespace i3 {

using ShardedIndex = ReplicaSet;

}  // namespace i3

#endif  // I3_MODEL_SHARDED_INDEX_H_
