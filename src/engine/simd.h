#ifndef ECLDB_ENGINE_SIMD_H_
#define ECLDB_ENGINE_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace ecldb::engine::simd {

/// Instruction-set level of the engine's typed kernels. The build compiles
/// the scalar kernels unconditionally; the AVX2 kernels are compiled into
/// their own translation unit (with -mavx2) when the `ECLDB_SIMD` CMake
/// option is on and the target is x86-64. Which level actually runs is
/// decided once at startup from CPU detection (`__builtin_cpu_supports`),
/// overridable per test via SetLevelOverride; a build without the AVX2
/// kernels (`-DECLDB_SIMD=OFF`) always runs the scalar fallback.
enum class Level { kScalar = 0, kAvx2 = 1 };

/// Highest level compiled into this binary.
Level CompiledLevel();

/// Level the kernel dispatch currently resolves to.
Level ActiveLevel();

/// Forces the dispatch level (tests compare SIMD and scalar kernels within
/// one binary); nullopt restores detection. Levels above CompiledLevel()
/// are clamped. Not thread-safe against concurrently running kernels —
/// call between pipelines only.
void SetLevelOverride(std::optional<Level> level);

/// The dispatched kernel families, for per-kernel dispatch accounting.
enum class KernelId : int {
  kFilterIntRange = 0,   // selection compaction by int64 range
  kFilterCodeMatch = 1,  // selection compaction by dictionary-code verdict
  kGatherFk = 2,         // foreign-key row gather (fact row -> dim row)
  kPackKey = 3,          // packed group-key append (codes or offset ints)
  kHashKeys = 4,         // murmur3 finalizer over a key batch
  kAggProbe = 5,         // batched aggregate-table find-or-insert
  kEvalValue = 6,        // batched value-expression evaluation
};
inline constexpr int kNumKernels = 7;

const char* KernelName(KernelId id);

/// Per-kernel dispatch counters: how many batch calls resolved to the SIMD
/// implementation vs the scalar fallback. Process-global and atomic (morsel
/// workers bump them concurrently); totals are deterministic for a fixed
/// workload regardless of worker count. Telemetry exports deltas.
int64_t SimdDispatches(KernelId id);
int64_t ScalarDispatches(KernelId id);

namespace detail {
struct DispatchCounters {
  std::atomic<int64_t> simd[kNumKernels] = {};
  std::atomic<int64_t> scalar[kNumKernels] = {};
};
DispatchCounters& Counters();
}  // namespace detail

/// Records one batch-level kernel dispatch (relaxed atomic add).
inline void CountDispatch(KernelId id, bool used_simd) {
  auto& c = detail::Counters();
  const int i = static_cast<int>(id);
  if (used_simd) {
    c.simd[i].fetch_add(1, std::memory_order_relaxed);
  } else {
    c.scalar[i].fetch_add(1, std::memory_order_relaxed);
  }
}

/// String-predicate fallback for dictionary codes appended after the match
/// table was built (dictionary growth): returns the verdict for `code`.
using UnknownCodeFn = bool (*)(const void* ctx, int32_t code);

/// The kernel function table. All kernels are pure functions over raw
/// column arrays; `rows` is a selection vector of row ids. Compaction
/// kernels write the surviving rows to `out` (which may alias `rows`:
/// writes never overtake reads) and return the kept count.
struct KernelTable {
  /// Keeps rows with lo <= v[row] <= hi.
  size_t (*filter_int_range)(const int64_t* v, const uint32_t* rows, size_t n,
                             int64_t lo, int64_t hi, uint32_t* out);
  /// Keeps rows with lo <= v[fk[row] - 1] <= hi (direct-addressed dim).
  size_t (*filter_int_range_fk)(const int64_t* v, const int64_t* fk,
                                const uint32_t* rows, size_t n, int64_t lo,
                                int64_t hi, uint32_t* out);
  /// Keeps rows whose dictionary code passes the verdict table. `match`
  /// must be padded with >= 4 readable bytes past `known` (gather slack).
  size_t (*filter_code_match)(const int32_t* codes, const uint32_t* rows,
                              size_t n, const uint8_t* match, size_t known,
                              UnknownCodeFn unknown, const void* ctx,
                              uint32_t* out);
  size_t (*filter_code_match_fk)(const int32_t* codes, const int64_t* fk,
                                 const uint32_t* rows, size_t n,
                                 const uint8_t* match, size_t known,
                                 UnknownCodeFn unknown, const void* ctx,
                                 uint32_t* out);
  /// out[i] = uint32(fk[rows[i]] - 1).
  void (*gather_fk)(const int64_t* fk, const uint32_t* rows, size_t n,
                    uint32_t* out);
  /// keys[i] = keys[i] << bits | codes[rows[i]]; false if any code exceeds
  /// `limit` (stale packed layout; partially-written keys are discarded).
  bool (*pack_codes)(uint64_t* keys, const int32_t* codes,
                     const uint32_t* rows, size_t n, uint32_t bits,
                     uint64_t limit);
  /// keys[i] = keys[i] << bits | (vals[rows[i]] - base), unsigned;
  /// false if any offset exceeds `limit`.
  bool (*pack_ints)(uint64_t* keys, const int64_t* vals, const uint32_t* rows,
                    size_t n, uint32_t bits, uint64_t base, uint64_t limit);
  /// hashes[i] = Mix64(keys[i]).
  void (*hash_keys)(const uint64_t* keys, size_t n, uint64_t* hashes);
  /// out[i] = scale * double(a[ra[i]]). Exact only while every input is in
  /// [-2^51, 2^51]; the caller guards with the column's tracked bounds.
  void (*eval_column)(const int64_t* a, const uint32_t* ra, size_t n,
                      double scale, double* out);
  /// out[i] = scale * double(a[ra[i]]) * double(b[rb[i]]).
  void (*eval_product)(const int64_t* a, const uint32_t* ra, const int64_t* b,
                       const uint32_t* rb, size_t n, double scale, double* out);
  /// out[i] = scale * (double(a[ra[i]]) - double(b[rb[i]])).
  void (*eval_difference)(const int64_t* a, const uint32_t* ra,
                          const int64_t* b, const uint32_t* rb, size_t n,
                          double scale, double* out);
};

/// The scalar reference kernels (always available).
const KernelTable& ScalarKernels();

/// The kernels of the active level. Stable for the process lifetime unless
/// SetLevelOverride intervenes.
const KernelTable& ActiveKernels();

}  // namespace ecldb::engine::simd

#endif  // ECLDB_ENGINE_SIMD_H_
