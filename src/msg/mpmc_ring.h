#ifndef ECLDB_MSG_MPMC_RING_H_
#define ECLDB_MSG_MPMC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>

namespace ecldb::msg {

/// Bounded lock-free multi-producer/multi-consumer FIFO queue, a segmented
/// design after crossbeam's `SegQueue`.
///
/// Partition queues and the inter-socket outboxes are built on this: any
/// worker of a socket may enqueue messages for any partition, and
/// whichever worker owns the partition at the moment drains it.
///
/// Values live in a linked chain of segments of about one page
/// (`kSegmentBytes`, fewer cells for tiny rings), so memory follows the
/// number of queued values rather than the capacity: a ring that was never
/// pushed to holds no segment, and a drained ring holds at most the one it
/// fills next. The push that takes a segment's last cell links in the next
/// segment (allocated before that push claims its cell); the pop that
/// leaves a segment frees it once every reader of it is done (see
/// `Destroy`). Segments are never reused, so there is no ABA.
///
/// The capacity is still an exact bound: `TryPush` fails once the queued
/// count, derived from the head and tail indices, reaches `capacity()`.
template <typename T>
class MpmcRing {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "segments are freed without running element destructors");

 public:
  /// Upper bound on one segment: its link plus its cells.
  static constexpr size_t kSegmentBytes = 4096;

  explicit MpmcRing(size_t min_capacity) {
    while (capacity_ < min_capacity) capacity_ <<= 1;
    // One lap of positions is a segment's cells plus one position that is
    // never a cell (the index rests there while the next segment is being
    // linked). A power-of-two lap keeps offsets a mask. A tiny ring gets
    // the smallest lap whose segment holds its whole capacity.
    while ((size_t{1} << lap_shift_) <= capacity_ &&
           BytesFor((size_t{2} << lap_shift_) - 1) <= kSegmentBytes) {
      ++lap_shift_;
    }
    cells_ = (size_t{1} << lap_shift_) - 1;
  }

  ~MpmcRing() {
    Segment* seg = head_.segment.load(std::memory_order_acquire);
    while (seg != nullptr) {
      Segment* next = seg->next.load(std::memory_order_acquire);
      ::operator delete(seg);
      seg = next;
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  size_t capacity() const { return capacity_; }
  /// Cells per segment.
  size_t segment_capacity() const { return cells_; }
  /// Bytes of one segment, as counted by `MemoryBytes()`.
  size_t segment_bytes() const { return BytesFor(cells_); }

  bool TryPush(const T& value) {
    size_t tail = tail_.index.load(std::memory_order_acquire);
    Segment* seg = tail_.segment.load(std::memory_order_acquire);
    SegmentPtr next;
    for (;;) {
      const size_t offset = Position(tail) & cells_;
      if (offset == cells_) {  // another push is linking the next segment
        std::this_thread::yield();
        tail = tail_.index.load(std::memory_order_acquire);
        seg = tail_.segment.load(std::memory_order_acquire);
        continue;
      }
      const size_t head = head_.index.load(std::memory_order_acquire);
      if (Length(tail, head) >= capacity_) return false;  // full
      if (offset + 1 == cells_ && next == nullptr) next = NewSegment();
      if (seg == nullptr) [[unlikely]] {
        // Keep the index read before the null segment. If any push got in
        // since, the CAS below fails and reloads the segment after the
        // newer index; reading the index again here could pair a later
        // lap with the first segment, which may be freed by then.
        seg = InstallFirstSegment();
        continue;
      }
      const size_t new_tail = tail + kOne;
      if (tail_.index.compare_exchange_weak(tail, new_tail,
                                            std::memory_order_seq_cst,
                                            std::memory_order_acquire)) {
        if (offset + 1 == cells_) {
          // This push took the last cell: link the next segment and move
          // the tail past the lap's spare position onto it.
          Segment* linked = next.release();
          tail_.segments.fetch_add(1, std::memory_order_relaxed);
          tail_.segment.store(linked, std::memory_order_release);
          tail_.index.store(new_tail + kOne, std::memory_order_release);
          seg->next.store(linked, std::memory_order_release);
        }
        Slot& slot = SlotsOf(seg)[offset];
        std::memcpy(slot.value, &value, sizeof(T));
        slot.written.store(1, std::memory_order_release);
        return true;
      }
      seg = tail_.segment.load(std::memory_order_acquire);
    }
  }

  bool TryPop(T* out) {
    size_t head = head_.index.load(std::memory_order_acquire);
    Segment* seg = head_.segment.load(std::memory_order_acquire);
    for (;;) {
      const size_t offset = Position(head) & cells_;
      if (offset == cells_) {  // another pop is moving to the next segment
        std::this_thread::yield();
        head = head_.index.load(std::memory_order_acquire);
        seg = head_.segment.load(std::memory_order_acquire);
        continue;
      }
      size_t new_head = head + kOne;
      if ((new_head & kHasNext) == 0) {
        const size_t tail = tail_.index.load(std::memory_order_seq_cst);
        if (Position(head) == Position(tail)) return false;  // empty
        // A tail in a later lap means the next segment is linked: later
        // pops in this segment need not read the tail again.
        if (Lap(head) != Lap(tail)) new_head |= kHasNext;
      }
      if (seg == nullptr) {  // the first push is installing the segment
        std::this_thread::yield();
        head = head_.index.load(std::memory_order_acquire);
        seg = head_.segment.load(std::memory_order_acquire);
        continue;
      }
      if (head_.index.compare_exchange_weak(head, new_head,
                                            std::memory_order_seq_cst,
                                            std::memory_order_acquire)) {
        if (offset + 1 == cells_) {
          Segment* next = WaitNext(seg);
          size_t next_index = (new_head & ~kHasNext) + kOne;
          if (next->next.load(std::memory_order_relaxed) != nullptr) {
            next_index |= kHasNext;
          }
          head_.segment.store(next, std::memory_order_release);
          head_.index.store(next_index, std::memory_order_release);
        }
        Slot& slot = SlotsOf(seg)[offset];
        while (slot.written.load(std::memory_order_acquire) == 0) {
          std::this_thread::yield();
        }
        std::memcpy(out, slot.value, sizeof(T));
        if (offset + 1 == cells_) {
          Destroy(seg, 0);
        } else if ((slot.state.fetch_or(kRead, std::memory_order_acq_rel) &
                    kDestroy) != 0) {
          Destroy(seg, offset + 1);
        }
        return true;
      }
      seg = head_.segment.load(std::memory_order_acquire);
    }
  }

  size_t SizeApprox() const {
    const size_t tail = tail_.index.load(std::memory_order_acquire);
    const size_t head = head_.index.load(std::memory_order_acquire);
    // The scheduler sizes every queue of a socket on each scan for work,
    // and most are empty: answer that case without the lap arithmetic.
    if (Position(tail) == Position(head)) return 0;
    return Length(tail, head);
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

  /// Bytes of the segments held now (exact while no push or pop runs).
  size_t MemoryBytes() const {
    const size_t freed = head_.segments.load(std::memory_order_acquire);
    const size_t linked = tail_.segments.load(std::memory_order_acquire);
    return linked > freed ? (linked - freed) * segment_bytes() : 0;
  }

 private:
  /// Crossbeam's per-cell state bits. WRITE has a byte of its own, so the
  /// producer publishes with a plain store; READ and DESTROY share one, so
  /// a reader and the segment's destroyer cannot miss each other.
  static constexpr uint8_t kRead = 1;
  static constexpr uint8_t kDestroy = 2;

  struct Slot {
    /// Raw bytes, so that building a segment writes only the state bytes.
    alignas(T) std::byte value[sizeof(T)];
    std::atomic<uint8_t> written{0};
    std::atomic<uint8_t> state{0};
  };

  /// Header of a segment; `cells_` slots follow it in the same allocation.
  struct Segment {
    std::atomic<Segment*> next{nullptr};
  };
  struct SegmentFree {
    void operator()(Segment* seg) const { ::operator delete(seg); }
  };
  using SegmentPtr = std::unique_ptr<Segment, SegmentFree>;

  static constexpr size_t kSlotsOffset =
      (sizeof(Segment) + alignof(Slot) - 1) / alignof(Slot) * alignof(Slot);
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  /// Head and tail indices count positions (cells plus one spare per lap)
  /// shifted left by one; bit 0 of the head index says the head segment's
  /// successor is already linked.
  static constexpr size_t kShift = 1;
  static constexpr size_t kOne = size_t{1} << kShift;
  static constexpr size_t kHasNext = 1;

  /// One end of the queue. `segments` counts the segments the tail linked
  /// in and the head freed.
  struct End {
    std::atomic<size_t> index{0};
    std::atomic<Segment*> segment{nullptr};
    std::atomic<size_t> segments{0};
  };

  static size_t BytesFor(size_t cells) {
    return kSlotsOffset + cells * sizeof(Slot);
  }
  static size_t Position(size_t index) { return index >> kShift; }
  size_t Lap(size_t index) const { return Position(index) >> lap_shift_; }
  /// Cells before an index: its position less one spare per full lap.
  size_t Cells(size_t index) const { return Position(index) - Lap(index); }
  size_t Length(size_t tail, size_t head) const {
    const size_t t = Cells(tail);
    const size_t h = Cells(head);
    return t > h ? t - h : 0;
  }

  static Slot* SlotsOf(Segment* seg) {
    return std::launder(reinterpret_cast<Slot*>(
        reinterpret_cast<std::byte*>(seg) + kSlotsOffset));
  }

  SegmentPtr NewSegment() const {
    void* mem = ::operator new(segment_bytes());
    SegmentPtr seg(new (mem) Segment);
    std::uninitialized_default_construct_n(
        reinterpret_cast<Slot*>(static_cast<std::byte*>(mem) + kSlotsOffset),
        cells_);
    return seg;
  }

  /// Installs the first segment unless a racing first push got there
  /// first; returns the installed segment either way. Out of line so the
  /// inlined push path stays small.
  [[gnu::noinline]] Segment* InstallFirstSegment() {
    SegmentPtr fresh = NewSegment();
    Segment* installed = nullptr;
    if (tail_.segment.compare_exchange_strong(installed, fresh.get(),
                                              std::memory_order_release,
                                              std::memory_order_acquire)) {
      tail_.segments.fetch_add(1, std::memory_order_relaxed);
      head_.segment.store(fresh.get(), std::memory_order_release);
      return fresh.release();
    }
    return installed;
  }

  static Segment* WaitNext(Segment* seg) {
    for (;;) {
      Segment* next = seg->next.load(std::memory_order_acquire);
      if (next != nullptr) return next;
      std::this_thread::yield();
    }
  }

  /// Frees `seg` once no reader can touch it. Called by the reader of the
  /// last cell (start 0) or by a reader that found DESTROY on its cell
  /// (start after that cell): a cell whose reader is still busy gets
  /// DESTROY and that reader carries the job on.
  void Destroy(Segment* seg, size_t start) {
    Slot* slots = SlotsOf(seg);
    for (size_t i = start; i + 1 < cells_; ++i) {
      Slot& slot = slots[i];
      if ((slot.state.load(std::memory_order_acquire) & kRead) == 0 &&
          (slot.state.fetch_or(kDestroy, std::memory_order_acq_rel) &
           kRead) == 0) {
        return;
      }
    }
    head_.segments.fetch_add(1, std::memory_order_relaxed);
    ::operator delete(seg);
  }

  // Head and tail sit on separate cache lines. The fixed geometry shares
  // the head's line: every push (for the bound), pop and size query reads
  // that line anyway, so a scheduler scanning a socket's queues for work
  // touches two lines per queue, not three.
  alignas(64) End head_;
  size_t capacity_ = 2;
  size_t lap_shift_ = 1;
  size_t cells_ = 1;
  alignas(64) End tail_;
};

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_MPMC_RING_H_
