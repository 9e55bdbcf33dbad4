// sim::Body: the type-erased payload of a sim::Message.
//
// Holds one value of any copyable type in a slot from the thread's
// FramePool. Moving steals the slot, copying clones the value (fault
// injection duplicates messages), and get_if<T>() returns nullptr unless
// the held value is exactly a T. Type identity is the address of a
// per-type operations table, so a lookup is one pointer compare.
#pragma once

#include <new>
#include <type_traits>
#include <utility>

#include "common/frame_pool.h"

namespace dtio::sim {

class Body {
 public:
  Body() noexcept = default;

  template <typename T, typename V = std::decay_t<T>>
    requires(!std::is_same_v<V, Body>)
  Body(T&& value)  // implicit, as std::any's is
      : ptr_(::new (FramePool::local().allocate(sizeof(V)))
                 V(std::forward<T>(value))),
        ops_(&kOps<V>) {
    static_assert(alignof(V) <= FramePool::kGranule);
  }

  Body(Body&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)),
        ops_(std::exchange(other.ops_, nullptr)) {}
  Body(const Body& other)
      : ptr_(other.ptr_ ? other.ops_->clone(other.ptr_) : nullptr),
        ops_(other.ops_) {}
  Body& operator=(Body&& other) noexcept {
    if (this != &other) {
      reset();
      ptr_ = std::exchange(other.ptr_, nullptr);
      ops_ = std::exchange(other.ops_, nullptr);
    }
    return *this;
  }
  Body& operator=(const Body& other) {
    if (this != &other) *this = Body(other);
    return *this;
  }
  ~Body() { reset(); }

  [[nodiscard]] bool has_value() const noexcept { return ptr_ != nullptr; }

  template <typename T>
  [[nodiscard]] T* get_if() noexcept {
    return ops_ == &kOps<T> ? static_cast<T*>(ptr_) : nullptr;
  }
  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return ops_ == &kOps<T> ? static_cast<const T*>(ptr_) : nullptr;
  }

  void reset() noexcept {
    if (ptr_ != nullptr) {
      ops_->destroy(ptr_);
      ptr_ = nullptr;
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void* (*clone)(const void*);
    void (*destroy)(void*) noexcept;
  };

  template <typename V>
  static constexpr Ops kOps{
      [](const void* p) -> void* {
        return ::new (FramePool::local().allocate(sizeof(V)))
            V(*static_cast<const V*>(p));
      },
      [](void* p) noexcept {
        static_cast<V*>(p)->~V();
        FramePool::local().deallocate(p, sizeof(V));
      }};

  void* ptr_ = nullptr;
  const Ops* ops_ = nullptr;
};

}  // namespace dtio::sim
