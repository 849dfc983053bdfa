#include "engine/txn_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ecldb::engine {

TxnScheduler::TxnScheduler(sim::Simulator* simulator, hwsim::Machine* machine,
                           Database* db, const TxnSchedulerParams& params)
    : simulator_(simulator),
      machine_(machine),
      db_(db),
      params_(params),
      workers_(static_cast<size_t>(machine->topology().total_threads())),
      latency_(kLatencyWindow) {
  ECLDB_CHECK(simulator != nullptr && machine != nullptr && db != nullptr);
  // Advance-only: the scheduler reports no stationarity horizon and has no
  // fast-forward hook, so registering it disables fast-forward for the
  // whole simulation (every run that builds one is slice-stepped).
  sim::Advancer advancer;
  advancer.advance = [this](SimTime t0, SimTime t1) { Advance(t0, t1); };
  simulator_->RegisterAdvancer(std::move(advancer));
}

QueryId TxnScheduler::Submit(const QuerySpec& spec) {
  ECLDB_CHECK(spec.profile != nullptr);
  ECLDB_CHECK(!spec.work.empty());
  Txn txn;
  txn.id = next_id_++;
  txn.arrival = simulator_->now();
  txn.profile = spec.profile;
  // No partition parallelism: the whole transaction runs on one worker.
  for (const PartitionWork& w : spec.work) txn.remaining_ops += w.ops;
  queue_.push_back(txn);
  ++submitted_;
  return txn.id;
}

const hwsim::WorkProfile* TxnScheduler::AdjustedProfile(
    const hwsim::WorkProfile* base, double spin) {
  hwsim::WorkProfile& adj = adjusted_[base];
  adj = *base;
  adj.name = base->name + "+locks";
  const double inflate = 1.0 / std::max(1.0 - params_.max_spin, 1.0 - spin);
  // Spinning retires instructions without completing operations: both the
  // instruction count and the core time per completed operation inflate.
  adj.instr_per_op = base->instr_per_op * inflate;
  adj.cpi = base->cpi;  // spin loops retire ~1 instruction per cycle
  // Lost locality: remote accesses raise the latency-bound component.
  adj.mem_accesses_per_op =
      base->mem_accesses_per_op * params_.remote_access_factor;
  return &adj;
}

double TxnScheduler::TakeUtilization(SocketId socket) {
  const hwsim::Topology& topo = machine_->topology();
  double busy = 0.0, active = 0.0;
  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    if (topo.SocketOfThread(t) != socket) continue;
    WorkerState& w = workers_[static_cast<size_t>(t)];
    busy += w.busy_seconds;
    active += w.active_seconds;
    w.busy_seconds = 0.0;
    w.active_seconds = 0.0;
  }
  return active > 0.0 ? std::min(1.0, busy / active) : 0.0;
}

void TxnScheduler::Advance(SimTime t0, SimTime t1) {
  const SimTime now = t1;
  const double dt_s = ToSeconds(t1 - t0);
  const hwsim::Topology& topo = machine_->topology();

  // Count busy workers to derive this slice's lock contention.
  int busy_workers = 0;
  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    const hwsim::SocketConfig& cfg =
        machine_->requested_config(topo.SocketOfThread(t));
    const bool active = cfg.ThreadActive(topo.LocalThreadOfThread(t));
    WorkerState& w = workers_[static_cast<size_t>(t)];
    if (!active) {
      // Preempted mid-transaction: the transaction waits (locks held by a
      // sleeping thread would be a correctness hazard in a real system;
      // the model simply stalls it).
      machine_->SetThreadLoad(t, nullptr, 0.0);
      (void)machine_->TakeCompletedOps(t);
      continue;
    }
    if (w.busy || !queue_.empty()) ++busy_workers;
  }
  const double x = std::max(0, busy_workers - 1);
  const double spin = std::min(
      params_.max_spin,
      1.0 - 1.0 / (1.0 + params_.spin_linear * x + params_.spin_quad * x * x));
  last_spin_ = spin;

  for (HwThreadId t = 0; t < topo.total_threads(); ++t) {
    const hwsim::SocketConfig& cfg =
        machine_->requested_config(topo.SocketOfThread(t));
    if (!cfg.ThreadActive(topo.LocalThreadOfThread(t))) continue;
    WorkerState& w = workers_[static_cast<size_t>(t)];
    w.active_seconds += dt_s;

    double credit = machine_->TakeCompletedOps(t);
    const double rate = machine_->CurrentRate(t);
    const double full_credit = credit;
    while (credit > 1e-9) {
      if (!w.busy) {
        if (queue_.empty()) break;
        w.current = queue_.front();
        queue_.pop_front();
        w.busy = true;
      }
      const double spend = std::min(credit, w.current.remaining_ops);
      w.current.remaining_ops -= spend;
      credit -= spend;
      if (w.current.remaining_ops <= 1e-9) {
        latency_.RecordCompletion(w.current.arrival, now);
        w.busy = false;
      }
    }
    if (rate > 0.0 && full_credit > 0.0) {
      w.busy_seconds += std::min(dt_s, (full_credit - credit) / rate);
    }

    // Offer next-slice work with the contention-adjusted profile.
    const hwsim::WorkProfile* base =
        w.busy ? w.current.profile
               : (queue_.empty() ? nullptr : queue_.front().profile);
    if (base != nullptr) {
      machine_->SetThreadLoad(t, AdjustedProfile(base, spin), 1.0);
    } else {
      machine_->SetThreadLoad(t, nullptr, 0.0);
    }
  }
}

}  // namespace ecldb::engine
