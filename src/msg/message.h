#ifndef ECLDB_MSG_MESSAGE_H_
#define ECLDB_MSG_MESSAGE_H_

#include <bit>
#include <cstdint>

#include "common/types.h"

namespace ecldb::msg {

/// Operation codes understood by the engine's partition executors.
enum class MessageType : int32_t {
  kInvalid = 0,
  /// Execute `payload[0]` operations of the query's work profile against
  /// the target partition (fluid work accounting).
  kWorkUnits = 1,
  /// Point read of key `payload[0]` (functional mode).
  kGet = 2,
  /// Point write of key `payload[0]` to value `payload[1]` (functional).
  kPut = 3,
  /// Scan with predicate `payload[0]` (functional mode).
  kScan = 4,
  /// Reply carrying a result in `payload` (functional mode).
  kResult = 5,
};

/// Fixed-size message exchanged between worker threads. Plain data so that
/// queue segments hold messages as raw bytes, without per-message
/// allocation.
struct Message {
  QueryId query_id = 0;
  PartitionId partition = -1;
  MessageType type = MessageType::kInvalid;
  int32_t origin_socket = -1;
  /// Placement epoch at send time (stamped by MessageLayer::Send). A
  /// message routed under an older placement may arrive at a socket that
  /// no longer homes its partition; the message layer forwards it to the
  /// current home.
  int32_t epoch = 0;
  int64_t payload[4] = {0, 0, 0, 0};
};

static_assert(sizeof(Message) == 56, "keep messages compact and fixed-size");

/// Fluid operation count carried by a message: by engine convention,
/// `payload[0]` holds the remaining operations as a bit-cast double (the
/// scheduler writes it on submit and on mid-batch requeue). Raw messages
/// with a zero payload decode to 0.0.
inline double MessageOps(const Message& m) {
  return std::bit_cast<double>(m.payload[0]);
}
inline int64_t EncodeMessageOps(double ops) {
  return std::bit_cast<int64_t>(ops);
}

/// Morsel coordinates carried in `payload[3]` by morselized kScan /
/// kWorkUnits messages: when a partition task is split for intra-query
/// parallelism, each sub-message carries its morsel index and the total
/// morsel count so the functional executor can scan just its row range.
/// Only those two types use this encoding — kGet/kPut/kResult keep
/// payload[3] for their own arguments — and an unsplit task leaves
/// payload[3] untouched (count 0 decodes as "whole partition").
inline int64_t EncodeMorsel(int32_t index, int32_t count) {
  return (static_cast<int64_t>(count) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(index));
}
inline int32_t MorselIndex(int64_t arg1) {
  return static_cast<int32_t>(arg1 & 0xffffffff);
}
inline int32_t MorselCount(int64_t arg1) {
  return static_cast<int32_t>(arg1 >> 32);
}

/// Human-readable name of a message type (diagnostics).
const char* MessageTypeName(MessageType type);

}  // namespace ecldb::msg

#endif  // ECLDB_MSG_MESSAGE_H_
