#ifndef ECLDB_SIM_SIMULATOR_H_
#define ECLDB_SIM_SIMULATOR_H_

#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace ecldb::sim {

/// A continuously-advanced simulation component.
///
/// `advance` is mandatory and integrates one elapsed interval (from, to].
/// The other two hooks opt the component into steady-state fast-forward:
/// while every registered advancer reports a stationarity horizon beyond
/// the next slice boundary, the simulator hands whole multi-slice gaps to
/// `fast_forward` instead of stepping `max_slice` intervals one by one.
///
/// Contract: `fast_forward(t0, t1, slice)` must leave the component in a
/// state bit-identical to calling `advance` over consecutive `slice`-bounded
/// sub-intervals of (t0, t1], and `stationary_until(now)` must return a time
/// no later than the first instant at which the component's per-slice
/// behaviour could change on its own (return `now` when not stationary;
/// kSimTimeNever when nothing time-dependent is pending).
struct Advancer {
  std::function<void(SimTime, SimTime)> advance;
  std::function<SimTime(SimTime)> stationary_until;
  std::function<void(SimTime, SimTime, SimDuration)> fast_forward;
};

/// Discrete-time simulator.
///
/// The simulator combines an event queue (for control actions such as ECL
/// ticks, query arrivals, and RTI switches) with continuous "advancers" that
/// integrate state over the time between events — the hardware machine
/// integrates energy, the DBMS scheduler integrates fluid work progress.
///
/// Advancers are additionally bounded by `max_slice` so that models whose
/// rates change as work drains (e.g., a worker running out of queued
/// messages) stay accurate. Advancers that implement the fast-forward
/// contract let long stationary stretches be integrated in one call per
/// advancer while preserving the exact per-slice arithmetic (see
/// docs/architecture.md).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  EventId Schedule(SimTime t, std::function<void()> fn);
  EventId ScheduleAfter(SimDuration d, std::function<void()> fn) {
    return Schedule(now_ + d, std::move(fn));
  }
  bool Cancel(EventId id) { return events_.Cancel(id); }

  /// Registers a component advanced over every elapsed interval, in
  /// registration order; `advance` receives (from, to], to > from. An
  /// advancer without both fast-forward hooks cannot report stationarity,
  /// so registering one disables fast-forward for the whole simulation
  /// (conservative).
  void RegisterAdvancer(Advancer advancer);

  /// Upper bound on a single advance interval. Default 1 ms.
  void set_max_slice(SimDuration slice) { max_slice_ = slice; }
  SimDuration max_slice() const { return max_slice_; }

  /// Enables/disables steady-state fast-forward (default on). Has no effect
  /// unless every registered advancer is fast-forward capable.
  void set_fast_forward(bool on) { fast_forward_ = on; }
  bool fast_forward_enabled() const { return fast_forward_ && all_ff_capable_; }

  /// Runs until virtual time `t` (inclusive of events at `t`).
  void RunUntil(SimTime t);
  void RunFor(SimDuration d) { RunUntil(now_ + d); }

 private:
  void AdvanceTo(SimTime t);

  SimTime now_ = 0;
  SimDuration max_slice_ = Millis(1);
  bool fast_forward_ = true;
  bool all_ff_capable_ = true;
  EventQueue events_;
  std::vector<Advancer> advancers_;
};

}  // namespace ecldb::sim

#endif  // ECLDB_SIM_SIMULATOR_H_
