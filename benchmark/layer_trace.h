#ifndef ECLDB_BENCHMARK_LAYER_TRACE_H_
#define ECLDB_BENCHMARK_LAYER_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace ecldb::bench {

/// Wall-clock self time per simulator layer, measured from outside the
/// program.
///
/// Three no-op probe advancers are registered through the public
/// Simulator::RegisterAdvancer(Advancer): probe 0 before the machine(s),
/// probe 1 between the machines and the schedulers, probe 2 after the
/// schedulers. The simulator calls every advancer's hook in registration
/// order, so the time from one probe to the next is the self time of the
/// advancers registered between them:
///
///   probe0.stationary_until .. probe0.advance   sim.horizon (the scan)
///   probe0.advance .. probe1.advance            hwsim advance
///   probe1.advance .. probe2.advance            engine advance
///   probe2.advance .. next probe0 hook          sim.dispatch (events)
///
/// (and the same with fast_forward in place of advance). Each probe
/// reports kSimTimeNever as its stationarity horizon and does nothing in
/// its advance/fast_forward hooks, so neither the horizon nor the slice
/// grid changes: a traced run is bit-identical to an untraced one.
///
/// Calls the benchmark itself makes into the program (MakeQuery, Submit,
/// the completion callbacks, the sampler) are timed directly as seams and
/// subtracted from the phase they interrupt.
class LayerTrace {
 public:
  enum Phase { kDispatch, kHorizon, kHwsimAdvance, kHwsimFf, kEngineAdvance,
               kEngineFf, kNumPhases };
  enum Seam { kMakeQuery, kSubmit, kOnComplete, kSampler, kNumSeams };
  /// Which check ended a horizon scan: a machine reported no stationarity,
  /// a scheduler did, or every component reported a horizon past now (the
  /// step's length was then set by the next event or the run end).
  enum Blocker { kBlockedHwsim, kBlockedEngine, kBlockedEvent, kNumBlockers };

  /// Spans are kept for one step in every `span_every` (by step index, so
  /// the sample is deterministic).
  explicit LayerTrace(int64_t span_every);

  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// The probe advancer for position `index` (0, 1 or 2, see above).
  sim::Advancer Probe(int index);

  /// Attribution runs between Begin (driver start) and End (trace end);
  /// probes and seams outside that window cost a branch and record
  /// nothing.
  void Begin();
  void End();

  /// Times one benchmark-owned call into the program. Nested seams are
  /// folded into the outermost one.
  class SeamTimer {
   public:
    SeamTimer(LayerTrace* trace, Seam seam);
    ~SeamTimer();
    SeamTimer(const SeamTimer&) = delete;
    SeamTimer& operator=(const SeamTimer&) = delete;

   private:
    LayerTrace* trace_;
    Seam seam_;
    bool outer_ = false;
    int64_t start_ns_ = 0;
  };

  double phase_s(Phase p) const { return 1e-9 * static_cast<double>(phase_ns_[p]); }
  double seam_s(Seam s) const { return 1e-9 * static_cast<double>(seam_ns_[s]); }
  /// Sum of every phase and seam: the wall time attributed to a layer.
  double attributed_s() const;

  int64_t slices() const { return slices_; }
  int64_t ff_calls() const { return ff_calls_; }
  /// Simulated time covered by fast-forward calls.
  SimDuration ff_sim() const { return ff_sim_; }
  int64_t blocked(Blocker b) const { return blocked_[b]; }

  /// Writes the sampled spans as a Chrome trace (wall-clock microseconds
  /// since Begin). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, const std::string& label) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t id;
    int64_t parent;  // 0 = root
  };

  static int64_t NowNs();
  void OnStationaryQuery(int index);
  void OnStep(int index, bool fast_forward, SimTime from, SimTime to);
  /// Books the running phase up to `now`; Start begins the next one.
  void Close(int64_t now);
  void Start(Phase next, int64_t now);
  void OpenStepSpan(int64_t now);
  void CloseStepSpan(int64_t now);

  int64_t span_every_;
  bool active_ = false;
  int64_t begin_ns_ = 0;

  Phase phase_ = kDispatch;
  int64_t phase_start_ns_ = 0;
  /// Seam time spent inside the running phase (subtracted when it closes).
  int64_t seam_in_phase_ns_ = 0;
  int seam_depth_ = 0;
  /// Highest probe whose stationarity hook the running scan reached.
  int scan_reached_ = 0;

  std::array<int64_t, kNumPhases> phase_ns_{};
  std::array<int64_t, kNumSeams> seam_ns_{};
  std::array<int64_t, kNumBlockers> blocked_{};
  int64_t slices_ = 0;
  int64_t ff_calls_ = 0;
  SimDuration ff_sim_ = 0;

  int64_t step_index_ = 0;
  bool step_sampled_ = false;
  int64_t step_span_id_ = 0;
  int64_t phase_span_id_ = 0;
  int64_t step_start_ns_ = 0;
  int64_t next_span_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace ecldb::bench

#endif  // ECLDB_BENCHMARK_LAYER_TRACE_H_
