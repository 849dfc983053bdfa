#ifndef ECLDB_MSG_SEGMENTED_FIFO_H_
#define ECLDB_MSG_SEGMENTED_FIFO_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <thread>
#include <type_traits>

#include "common/check.h"

namespace ecldb::msg {

/// Bounded single-threaded FIFO queue on a chain of fixed segments.
///
/// Partition queues and the inter-socket outboxes are built on this. Every
/// worker and communication thread is an actor on one deterministic
/// simulator, so a queue is only ever touched by one OS thread and needs
/// no synchronisation. Debug builds check that: the first thread to push
/// or pop owns the queue, and any other thread that does later aborts.
///
/// Values live in a singly linked chain of segments of at most
/// `kSegmentBytes` (fewer cells for a queue of smaller capacity), so
/// memory follows the number of queued values rather than the capacity: a
/// queue that was never pushed to holds no segment, the pop that empties a
/// segment frees it, and a drained queue keeps the one segment it fills
/// next.
///
/// The capacity is an exact bound: `TryPush` fails once `capacity()`
/// values are queued.
template <typename T>
class SegmentedFifo {
  static_assert(std::is_trivially_copyable_v<T>,
                "values are copied in and out of raw segment bytes");

 public:
  /// Upper bound on one segment: its link plus its cells.
  static constexpr size_t kSegmentBytes = 4096;

  explicit SegmentedFifo(size_t min_capacity) {
    while (capacity_ < min_capacity) capacity_ <<= 1;
    cells_ = std::min(capacity_, (kSegmentBytes - sizeof(Segment)) / sizeof(T));
  }

  ~SegmentedFifo() {
    while (head_ != nullptr) {
      Segment* next = head_->next;
      ::operator delete(head_);
      head_ = next;
    }
  }

  SegmentedFifo(const SegmentedFifo&) = delete;
  SegmentedFifo& operator=(const SegmentedFifo&) = delete;

  size_t capacity() const { return capacity_; }
  /// Cells per segment.
  size_t segment_capacity() const { return cells_; }
  /// Bytes of one segment, as counted by `MemoryBytes()`.
  size_t segment_bytes() const { return sizeof(Segment) + cells_ * sizeof(T); }

  bool TryPush(const T& value) {
    CheckThread();
    if (size_ == capacity_) return false;
    if (tail_ == nullptr) {
      head_ = tail_ = NewSegment();
    } else if (tail_pos_ == cells_) {
      tail_ = tail_->next = NewSegment();
      tail_pos_ = 0;
    }
    std::memcpy(CellsOf(tail_) + tail_pos_ * sizeof(T), &value, sizeof(T));
    ++tail_pos_;
    ++size_;
    return true;
  }

  bool TryPop(T* out) {
    CheckThread();
    if (size_ == 0) return false;
    std::memcpy(out, CellsOf(head_) + head_pos_ * sizeof(T), sizeof(T));
    ++head_pos_;
    if (--size_ == 0) {
      // Drained: head and tail share the segment; fill it again from the
      // start.
      head_pos_ = tail_pos_ = 0;
    } else if (head_pos_ == cells_) {
      Segment* done = head_;
      head_ = head_->next;
      head_pos_ = 0;
      ::operator delete(done);
      --segments_;
    }
    return true;
  }

  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// Bytes of the segments held now.
  size_t MemoryBytes() const { return segments_ * segment_bytes(); }

 private:
  /// Header of a segment; `cells_` values follow it in the same allocation.
  struct Segment {
    Segment* next = nullptr;
  };
  static_assert(alignof(T) <= alignof(Segment),
                "cells start right after the segment header");
  static_assert(sizeof(Segment) + sizeof(T) <= kSegmentBytes,
                "a segment holds at least one cell");

  static std::byte* CellsOf(Segment* seg) {
    return reinterpret_cast<std::byte*>(seg) + sizeof(Segment);
  }

  Segment* NewSegment() {
    ++segments_;
    return new (::operator new(segment_bytes())) Segment;
  }

  void CheckThread() {
#ifndef NDEBUG
    if (thread_ == std::thread::id()) thread_ = std::this_thread::get_id();
#endif
    ECLDB_DCHECK(thread_ == std::this_thread::get_id());
  }

  Segment* head_ = nullptr;
  Segment* tail_ = nullptr;
  size_t head_pos_ = 0;  // next cell to pop in head_
  size_t tail_pos_ = 0;  // next cell to push in tail_
  size_t size_ = 0;
  size_t segments_ = 0;
  size_t capacity_ = 2;
  size_t cells_ = 1;
#ifndef NDEBUG
  std::thread::id thread_;  // first thread to push or pop
#endif
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_SEGMENTED_FIFO_H_
