#include "engine/simd.h"

namespace ecldb::engine::simd {

#if defined(ECLDB_SIMD_AVX2)
// Defined in kernels_avx2.cc (compiled with -mavx2).
const KernelTable& Avx2Kernels();
#endif

namespace detail {
DispatchCounters& Counters() {
  static DispatchCounters counters;
  return counters;
}
}  // namespace detail

namespace {

std::atomic<int> g_override{-1};  // -1: detect; else a Level value

Level DetectLevel() {
#if defined(ECLDB_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

}  // namespace

Level CompiledLevel() {
#if defined(ECLDB_SIMD_AVX2)
  return Level::kAvx2;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level detected = DetectLevel();
  return detected;
}

void SetLevelOverride(std::optional<Level> level) {
  if (!level.has_value()) {
    g_override.store(-1, std::memory_order_relaxed);
    return;
  }
  Level l = *level;
  if (l > CompiledLevel()) l = CompiledLevel();
  g_override.store(static_cast<int>(l), std::memory_order_relaxed);
}

const char* KernelName(KernelId id) {
  switch (id) {
    case KernelId::kFilterIntRange:
      return "filter_int_range";
    case KernelId::kFilterCodeMatch:
      return "filter_code_match";
    case KernelId::kGatherFk:
      return "gather_fk";
    case KernelId::kPackKey:
      return "pack_key";
    case KernelId::kHashKeys:
      return "hash_keys";
    case KernelId::kAggProbe:
      return "agg_probe";
    case KernelId::kEvalValue:
      return "eval_value";
  }
  return "unknown";
}

int64_t SimdDispatches(KernelId id) {
  return detail::Counters()
      .simd[static_cast<int>(id)]
      .load(std::memory_order_relaxed);
}

int64_t ScalarDispatches(KernelId id) {
  return detail::Counters()
      .scalar[static_cast<int>(id)]
      .load(std::memory_order_relaxed);
}

const KernelTable& ActiveKernels() {
#if defined(ECLDB_SIMD_AVX2)
  if (ActiveLevel() == Level::kAvx2) return Avx2Kernels();
#endif
  return ScalarKernels();
}

}  // namespace ecldb::engine::simd
