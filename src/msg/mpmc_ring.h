#ifndef ECLDB_MSG_MPMC_RING_H_
#define ECLDB_MSG_MPMC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ecldb::msg {

/// Bounded lock-free multi-producer/multi-consumer ring buffer
/// (Vyukov-style sequence-number design).
///
/// Partition queues and the inter-socket outboxes are built on this: any
/// worker of a socket may enqueue messages for any partition, and
/// whichever worker owns the partition at the moment drains it.
///
/// The cell array is allocated by the first `TryPush`, not by the
/// constructor, so a ring that never receives a message costs no more than
/// the object itself. Racing first pushes each build an array and install
/// it with one CAS; the losers free theirs. Capacity is fixed at
/// construction either way.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
  }

  ~MpmcRing() { delete[] cells_.load(std::memory_order_acquire); }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  bool TryPush(const T& value) {
    Cell* cells = cells_.load(std::memory_order_acquire);
    if (cells == nullptr) [[unlikely]] cells = Allocate();
    Cell* cell;
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells[pos & mask_];
      const size_t seq = cell->sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(T* out) {
    Cell* const cells = cells_.load(std::memory_order_acquire);
    if (cells == nullptr) return false;  // never pushed to
    Cell* cell;
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells[pos & mask_];
      const size_t seq = cell->sequence.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    *out = cell->value;
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  size_t SizeApprox() const {
    const size_t e = enqueue_pos_.load(std::memory_order_acquire);
    const size_t d = dequeue_pos_.load(std::memory_order_acquire);
    return e >= d ? e - d : 0;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

  /// Bytes of cell storage: 0 until the first push, then the whole array.
  size_t MemoryBytes() const {
    return cells_.load(std::memory_order_acquire) == nullptr
               ? 0
               : capacity() * sizeof(Cell);
  }

 private:
  struct Cell {
    std::atomic<size_t> sequence{0};
    T value{};
  };

  /// Builds the cell array and installs it unless another first push got
  /// there first; returns the installed array either way. Kept out of line
  /// so the inlined push path stays as small as it was with eager cells.
  [[gnu::noinline]] Cell* Allocate() {
    const size_t cap = capacity();
    Cell* fresh = new Cell[cap];
    for (size_t i = 0; i < cap; ++i) {
      fresh[i].sequence.store(i, std::memory_order_relaxed);
    }
    Cell* installed = nullptr;
    if (cells_.compare_exchange_strong(installed, fresh,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;
    return installed;
  }

  std::atomic<Cell*> cells_{nullptr};
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_MPMC_RING_H_
