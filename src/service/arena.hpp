#pragma once

// Byte-budgeted buffer arena: the PR-1 allocation ladder promoted to
// service-level admission control.
//
// A single gemm call degrades when *its own* allocation fails; a service
// running many concurrent calls must not get that far — by the time malloc
// fails, every in-flight request is at risk. The arena moves the decision up
// front: each admitted request RESERVES its footprint (rla::footprint_bytes:
// conversion buffers, copies and recursion temporaries) against a fixed
// budget, and a request that does not fit takes the driver's ladder rungs
// (rla::kLadder) or is rejected before it allocates anything. Within the budget, the arena also
// RECYCLES aligned buffers across requests (size-class free lists), so a
// steady stream of same-shaped problems stops hammering the system
// allocator — the pooling Huang et al.'s BLIS-Strassen work argues shared
// packing/temp buffers need.
//
// Thread-safe; every method may be called from any executor thread.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "support/sync.hpp"
#include "util/aligned_buffer.hpp"

namespace rla::service {

class BufferArena {
 public:
  /// `budget_bytes` caps reserved + cached bytes. 0 = unlimited (reservations
  /// always succeed; recycling still works, nothing is ever dropped).
  explicit BufferArena(std::size_t budget_bytes);

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  /// RAII byte reservation. Empty (operator bool == false) when the arena
  /// could not admit the bytes; destruction releases automatically.
  class Reservation {
   public:
    Reservation() = default;
    Reservation(Reservation&& other) noexcept { swap(other); }
    Reservation& operator=(Reservation&& other) noexcept {
      if (this != &other) {
        release();
        swap(other);
      }
      return *this;
    }
    ~Reservation() { release(); }

    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;

    explicit operator bool() const noexcept { return arena_ != nullptr; }
    std::size_t bytes() const noexcept { return bytes_; }

    /// Release early (idempotent).
    void release() noexcept;

   private:
    friend class BufferArena;
    Reservation(BufferArena* arena, std::size_t bytes)
        : arena_(arena), bytes_(bytes) {}
    void swap(Reservation& other) noexcept {
      std::swap(arena_, other.arena_);
      std::swap(bytes_, other.bytes_);
    }

    BufferArena* arena_ = nullptr;
    std::size_t bytes_ = 0;
  };

  /// Reserve `bytes` against the budget, or return an empty Reservation when
  /// the remaining budget is insufficient (the caller then degrades or
  /// rejects). Zero-byte reservations always succeed.
  Reservation try_reserve(std::size_t bytes) RLA_EXCLUDES(arena_mutex_);

  /// A recycled (or fresh) buffer of at least `count` doubles. The returned
  /// buffer's size is the size-class rounding of `count` (next power of two),
  /// which is what makes cross-request reuse hit. Does NOT count against the
  /// budget by itself — callers hold a Reservation covering their footprint.
  AlignedBuffer<double> acquire(std::size_t count) RLA_EXCLUDES(arena_mutex_);

  /// Return a buffer to the free list for reuse. Dropped (freed) when
  /// caching it would exceed the budget's cache share.
  void release(AlignedBuffer<double> buf) RLA_EXCLUDES(arena_mutex_);

  /// Drop every cached buffer (memory-pressure valve; also used by tests).
  void trim() noexcept RLA_EXCLUDES(arena_mutex_);

  std::size_t budget() const noexcept { return budget_; }
  std::size_t reserved_bytes() const noexcept RLA_EXCLUDES(arena_mutex_);
  std::size_t cached_bytes() const noexcept RLA_EXCLUDES(arena_mutex_);
  std::size_t reserved_high_water() const noexcept RLA_EXCLUDES(arena_mutex_);
  /// acquires served from cache
  std::uint64_t recycled() const noexcept RLA_EXCLUDES(arena_mutex_);
  /// acquires that hit malloc
  std::uint64_t allocations() const noexcept RLA_EXCLUDES(arena_mutex_);
  /// failed try_reserve calls
  std::uint64_t rejections() const noexcept RLA_EXCLUDES(arena_mutex_);

 private:
  void release_reservation(std::size_t bytes) noexcept
      RLA_EXCLUDES(arena_mutex_);

  const std::size_t budget_;
  mutable Mutex arena_mutex_;  // lock-level: arena
  std::size_t reserved_ RLA_GUARDED_BY(arena_mutex_) = 0;
  std::size_t cached_ RLA_GUARDED_BY(arena_mutex_) = 0;
  std::size_t reserved_high_water_ RLA_GUARDED_BY(arena_mutex_) = 0;
  std::uint64_t recycled_ RLA_GUARDED_BY(arena_mutex_) = 0;
  std::uint64_t allocations_ RLA_GUARDED_BY(arena_mutex_) = 0;
  std::uint64_t rejections_ RLA_GUARDED_BY(arena_mutex_) = 0;
  /// Size-class free lists keyed by element count (power-of-two classes).
  std::map<std::size_t, std::vector<AlignedBuffer<double>>> free_lists_
      RLA_GUARDED_BY(arena_mutex_);
};

}  // namespace rla::service
