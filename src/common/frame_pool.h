// A size-classed free-list allocator for the simulator's short-lived,
// fixed-size heap objects: coroutine frames (Task, Fire), Box<T> slots and
// sim::Body message payloads.
//
// A run creates and destroys millions of these in a handful of sizes. A
// freed block goes onto the free list of its 16-byte size class and the
// next request of that class pops it, so once a run has warmed up its
// event loop makes no allocator calls. Requests above 2 KiB go straight to
// ::operator new.
//
// Invariants:
//   * One pool per thread, with no locking: a Scheduler and everything it
//     runs live on one thread. A block freed on another thread is not
//     lost; it joins that thread's pool.
//   * deallocate() is passed the size that allocate() was given (sized
//     operator delete of the coroutine promise, sizeof(T) for Box/Body).
//   * Blocks are never returned to the system: each class keeps its
//     high-water mark. The pool is constinit and trivially destructible,
//     so it costs no TLS guard on access and runs no code at thread exit.
//   * Under AddressSanitizer the pool compiles down to plain ::operator
//     new/delete, so a use after free of a recycled frame, Box or Body
//     still trips ASan.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

namespace dtio {

namespace detail {
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kAsan = true;
#else
inline constexpr bool kAsan = false;
#endif
#else
inline constexpr bool kAsan = false;
#endif
}  // namespace detail

class FramePool {
 public:
  /// False under AddressSanitizer, where every call reaches the system
  /// allocator.
  static constexpr bool kPooled = !detail::kAsan;
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxPooledBytes = 2048;

  /// The calling thread's pool.
  static FramePool& local() noexcept;

  [[nodiscard]] void* allocate(std::size_t n) {
    if (kPooled && n <= kMaxPooledBytes) {
      Node*& head = free_[class_of(n)];
      if (head != nullptr) {
        Node* node = head;
        head = node->next;
        return node;
      }
      return ::operator new((class_of(n) + 1) * kGranule);
    }
    return ::operator new(n);
  }

  void deallocate(void* p, std::size_t n) noexcept {
    if (kPooled && n <= kMaxPooledBytes) {
      Node*& head = free_[class_of(n)];
      head = ::new (p) Node{head};
      return;
    }
    ::operator delete(p);
  }

  /// Blocks parked on the free list that serves `n`-byte requests.
  [[nodiscard]] std::size_t free_blocks(std::size_t n) const noexcept {
    if (!kPooled || n > kMaxPooledBytes) return 0;
    std::size_t count = 0;
    for (const Node* node = free_[class_of(n)]; node; node = node->next) {
      ++count;
    }
    return count;
  }

 private:
  struct Node {
    Node* next;
  };

  static constexpr std::size_t class_of(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / kGranule;
  }

  Node* free_[kMaxPooledBytes / kGranule] = {};
};

static_assert(std::is_trivially_destructible_v<FramePool>);

namespace detail {
inline constinit thread_local FramePool t_frame_pool;
}  // namespace detail

inline FramePool& FramePool::local() noexcept { return detail::t_frame_pool; }

/// Base of the coroutine promise types: their frames come from the
/// thread's FramePool, and the sized delete hands back the frame's size.
struct PooledFrame {
  static void* operator new(std::size_t n) {
    return FramePool::local().allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::local().deallocate(p, n);
  }
};

}  // namespace dtio
