#pragma once

// The process-global slot one armed instrument session lives in: the trace
// Collector, the perf Session and the treeprof Session each own one.
//
// Hooks pin() the armed object for the duration of one operation and
// unpin() it after. disarm() clears the slot, then waits until no pin is
// held, so the object can be destroyed once disarm() returns. pin() reads
// the slot *before* it publishes interest: once the slot is clear no new
// hook pins, and the wait is bounded by the hooks already in flight however
// often hooks keep arriving. (Re-arming the slot while an earlier disarm()
// is still draining would let the new session's pins extend that wait.)

#include <atomic>
#include <cstdint>
#include <thread>

namespace rla::obs {

template <typename T>
class ArmedSlot {
 public:
  /// The armed object or null. A relaxed probe for "is anything armed";
  /// dereference only through pin().
  T* peek() const noexcept { return slot_.load(std::memory_order_relaxed); }

  /// Arm `owner`; false if the slot is taken.
  bool try_arm(T* owner) noexcept {
    T* expected = nullptr;
    return slot_.compare_exchange_strong(expected, owner, std::memory_order_seq_cst);
  }

  /// Clear the slot if `owner` holds it, then wait out in-flight pins.
  void disarm(T* owner) noexcept {
    T* expected = owner;
    slot_.compare_exchange_strong(expected, nullptr, std::memory_order_seq_cst);
    while (pins_.load(std::memory_order_seq_cst) != 0) std::this_thread::yield();
  }

  /// The armed object, held until unpin(); null (nothing to unpin) when
  /// disarmed.
  T* pin() noexcept {
    if (slot_.load(std::memory_order_seq_cst) == nullptr) return nullptr;
    pins_.fetch_add(1, std::memory_order_seq_cst);
    T* armed = slot_.load(std::memory_order_seq_cst);
    if (armed == nullptr) pins_.fetch_sub(1, std::memory_order_seq_cst);
    return armed;
  }

  void unpin() noexcept { pins_.fetch_sub(1, std::memory_order_seq_cst); }

 private:
  std::atomic<T*> slot_{nullptr};
  std::atomic<std::uint64_t> pins_{0};  ///< global, so it outlives any owner
};

}  // namespace rla::obs
