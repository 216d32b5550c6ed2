// A small vector with inline storage and arena spill.
//
// Built for the I3 query hot path: a candidate cell carries a handful of
// dense keywords, deferred fetches, and doc columns.
// Inline capacity N absorbs the common case with zero allocator traffic;
// overflow spills into a caller-supplied Arena, so growth never touches the
// global allocator either.
//
// Relocation safety: the active storage is *computed* (`cap_ == N` means
// inline), never a self-pointer, so a SmallVec may be moved around with the
// enclosing object's bytes.
//
// Copying: the copy constructor is implicitly available so enclosing types
// stay trivially copyable -- but a plain copy of a *spilled* SmallVec
// aliases the spill array.

#ifndef I3_COMMON_SMALL_VEC_H_
#define I3_COMMON_SMALL_VEC_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/arena.h"

namespace i3 {

template <typename T, uint32_t N>
class SmallVec {
  static_assert(N >= 1, "inline capacity must be at least 1");
  static_assert(std::is_trivially_copyable_v<T>,
                "elements are relocated with memcpy");

 public:
  SmallVec() = default;

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t capacity() const { return cap_; }

  T* data() {
    return cap_ == N ? reinterpret_cast<T*>(inline_) : spill_;
  }
  const T* data() const {
    return cap_ == N ? reinterpret_cast<const T*>(inline_) : spill_;
  }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](uint32_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](uint32_t i) const {
    assert(i < size_);
    return data()[i];
  }
  T& back() { return data()[size_ - 1]; }

  /// Drops the elements; keeps inline/spill capacity for reuse.
  void Clear() { size_ = 0; }

  void PopBack() {
    assert(size_ > 0);
    --size_;
  }

  /// Shrinks to the first `n` elements (n <= size).
  void Truncate(uint32_t n) {
    assert(n <= size_);
    size_ = n;
  }

  void PushBack(Arena* arena, const T& v) {
    if (size_ == cap_) Grow(arena, cap_ * 2);
    data()[size_++] = v;
  }

 private:
  void Grow(Arena* arena, uint32_t new_cap) {
    T* ns = arena->AllocateArray<T>(new_cap);
    std::memcpy(ns, data(), size_ * sizeof(T));
    spill_ = ns;
    cap_ = new_cap;
  }

  alignas(T) uint8_t inline_[N * sizeof(T)];
  T* spill_ = nullptr;
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

}  // namespace i3

#endif  // I3_COMMON_SMALL_VEC_H_
