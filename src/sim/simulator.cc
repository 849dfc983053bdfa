#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ecldb::sim {

EventId Simulator::Schedule(SimTime t, std::function<void()> fn) {
  ECLDB_CHECK_MSG(t >= now_, "cannot schedule events in the past");
  return events_.Schedule(t, std::move(fn));
}

void Simulator::RegisterAdvancer(Advancer advancer) {
  ECLDB_CHECK(advancer.advance != nullptr);
  if (advancer.stationary_until == nullptr || advancer.fast_forward == nullptr) {
    all_ff_capable_ = false;
  }
  advancers_.push_back(std::move(advancer));
}

void Simulator::AdvanceTo(SimTime t) {
  while (now_ < t) {
    const SimTime step_end = std::min(t, now_ + max_slice_);
    if (fast_forward_ && all_ff_capable_) {
      // Stationarity horizon across all advancers: no component's per-slice
      // behaviour may change on its own before `horizon`.
      SimTime horizon = t;
      for (const auto& a : advancers_) {
        horizon = std::min(horizon, a.stationary_until(now_));
        if (horizon <= now_) break;
      }
      // Fast-forward must end on the same slice grid the slice-stepped path
      // would visit (anchored at this AdvanceTo entry via `now_`), so that
      // any remaining interval is cut into bit-identical slices.
      const SimTime fast_end =
          (horizon >= t) ? t
                         : now_ + ((horizon - now_) / max_slice_) * max_slice_;
      if (fast_end > now_) {
        for (auto& a : advancers_) a.fast_forward(now_, fast_end, max_slice_);
        now_ = fast_end;
        continue;
      }
    }
    for (auto& a : advancers_) a.advance(now_, step_end);
    now_ = step_end;
  }
}

void Simulator::RunUntil(SimTime t) {
  ECLDB_CHECK(t >= now_);
  while (true) {
    const SimTime next_event = events_.NextTime();
    if (next_event > t) break;
    AdvanceTo(next_event);
    // Run every event scheduled for this timestamp before advancing again.
    while (events_.NextTime() == now_) events_.PopAndRun();
  }
  AdvanceTo(t);
}

}  // namespace ecldb::sim
