#include "i3/replica_ops.h"

#include <memory>
#include <utility>
#include <vector>

#include "i3/i3_index.h"

namespace i3 {

namespace {

/// Every hook receives one of the set's replicas, which the
/// MakeI3ReplicaOps contract pins to I3Index; the cast is checked anyway
/// so a mis-wired set fails loudly instead of corrupting memory.
I3Index* AsI3(SpatialKeywordIndex& index) {
  return dynamic_cast<I3Index*>(&index);
}

}  // namespace

ReplicaOps MakeI3ReplicaOps(
    std::function<I3Options(uint32_t replica)> options_for_replica) {
  ReplicaOps ops;
  ops.save = [](SpatialKeywordIndex& index, const std::string& path) {
    I3Index* i3 = AsI3(index);
    if (i3 == nullptr) return Status::Internal("replica is not an I3Index");
    return i3->SaveTo(path);
  };
  ops.load = [options_for_replica](const std::string& path, uint32_t replica)
      -> Result<std::unique_ptr<SpatialKeywordIndex>> {
    auto loaded = I3Index::LoadFrom(path, options_for_replica(replica));
    if (!loaded.ok()) return loaded.status();
    return std::unique_ptr<SpatialKeywordIndex>(loaded.MoveValue().release());
  };
  ops.page_count = [](SpatialKeywordIndex& index) -> uint64_t {
    I3Index* i3 = AsI3(index);
    return i3 == nullptr ? 0 : i3->DataPageCount();
  };
  ops.verify_page = [](SpatialKeywordIndex& index, uint64_t page) {
    I3Index* i3 = AsI3(index);
    if (i3 == nullptr) return Status::Internal("replica is not an I3Index");
    return i3->VerifyDataPage(static_cast<PageId>(page));
  };
  ops.read_page = [](SpatialKeywordIndex& index,
                     uint64_t page) -> Result<std::vector<uint8_t>> {
    I3Index* i3 = AsI3(index);
    if (i3 == nullptr) return Status::Internal("replica is not an I3Index");
    return i3->ReadDataPageBytes(static_cast<PageId>(page));
  };
  ops.write_page = [](SpatialKeywordIndex& index, uint64_t page,
                      const std::vector<uint8_t>& bytes) {
    I3Index* i3 = AsI3(index);
    if (i3 == nullptr) return Status::Internal("replica is not an I3Index");
    return i3->WriteDataPageBytes(static_cast<PageId>(page), bytes);
  };
  ops.quarantined_pages = [](const SpatialKeywordIndex& index) -> uint64_t {
    const I3Index* i3 = dynamic_cast<const I3Index*>(&index);
    return i3 == nullptr ? 0 : i3->QuarantinedDataPages();
  };
  return ops;
}

}  // namespace i3
