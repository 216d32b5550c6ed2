// A bump allocator for per-query scratch memory.
//
// The I3 query hot path (i3_search.cc) builds thousands of short-lived
// candidate cells and doc columns per query. Giving
// each query a bump arena turns all of that into pointer arithmetic:
// Allocate() is a few instructions, Reset() rewinds to empty while
// *retaining* every block, so a long-lived arena (e.g. one per search
// thread) stops touching the global allocator once it reaches its
// high-water mark.
//
// Contracts:
//   - Objects placed in the arena are never destroyed individually and the
//     arena runs no destructors: only trivially destructible types belong
//     here (New/AllocateArray enforce this).
//   - Not thread-safe. Share nothing: one arena per thread or per query.
//   - Reset() invalidates every pointer previously handed out.

#ifndef I3_COMMON_ARENA_H_
#define I3_COMMON_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace i3 {

class Arena {
 public:
  static constexpr size_t kDefaultMinBlockBytes = 16 * 1024;

  explicit Arena(size_t min_block_bytes = kDefaultMinBlockBytes)
      : min_block_bytes_(min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// \brief `n` bytes aligned to `align` (power of two, at most the
  /// alignment operator new guarantees -- 16 on the platforms we target).
  void* Allocate(size_t n, size_t align = alignof(std::max_align_t)) {
    assert(align > 0 && (align & (align - 1)) == 0 &&
           align <= alignof(std::max_align_t));
    while (true) {
      if (block_ < blocks_.size()) {
        Block& b = blocks_[block_];
        const size_t aligned = (offset_ + align - 1) & ~(align - 1);
        if (aligned + n <= b.size) {
          offset_ = aligned + n;
          bytes_used_ += n;
          return b.data.get() + aligned;
        }
        // Advance into the next retained block (or mint one below). The
        // tail of the current block is wasted until the next Reset -- the
        // usual bump-allocator trade.
        ++block_;
        offset_ = 0;
        continue;
      }
      NewBlock(n + align);
    }
  }

  /// \brief Uninitialized storage for `count` objects of T.
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// \brief Constructs a T in the arena.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    return new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// \brief Rewinds to empty, retaining every block for reuse. O(1); no
  /// memory is returned to the global allocator.
  void Reset() {
    block_ = 0;
    offset_ = 0;
    bytes_used_ = 0;
  }

  /// Bytes handed out since the last Reset (excluding alignment padding).
  size_t BytesUsed() const { return bytes_used_; }

  /// Total bytes held in blocks (the steady-state footprint).
  size_t BytesReserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> data;
    size_t size;
  };

  void NewBlock(size_t at_least) {
    size_t size = blocks_.empty() ? min_block_bytes_ : blocks_.back().size * 2;
    if (size < at_least) size = at_least;
    blocks_.push_back({std::make_unique<uint8_t[]>(size), size});
    block_ = blocks_.size() - 1;
    offset_ = 0;
  }

  const size_t min_block_bytes_;
  std::vector<Block> blocks_;
  size_t block_ = 0;   // active block index (== blocks_.size() when empty)
  size_t offset_ = 0;  // bump position within the active block
  size_t bytes_used_ = 0;
};

}  // namespace i3

#endif  // I3_COMMON_ARENA_H_
