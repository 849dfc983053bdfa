#ifndef ECLDB_TELEMETRY_TELEMETRY_H_
#define ECLDB_TELEMETRY_TELEMETRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

namespace ecldb::telemetry {

struct TelemetryParams {
  /// Master switch for the *active* parts: the periodic gauge sampler and
  /// trace recording. Counters and histograms always count (they replace
  /// component-private counters and cost one add per event); with
  /// `enabled == false` no events are scheduled and every trace call is
  /// an inlined flag test, so a disabled run is byte-identical to an
  /// un-instrumented one and within noise of its wall-clock (pinned by
  /// bench/telemetry_overhead).
  bool enabled = false;
  /// Spacing of the gauge time series (and of the Chrome counter tracks).
  SimDuration sample_period = Millis(500);
  /// Also record each gauge sample as a Chrome counter-track event.
  bool trace_gauges = true;
  /// Trace ring capacity (events); oldest events are dropped when full.
  size_t trace_capacity = 1 << 16;
};

/// A sampled gauge time series: column names ("t_s", then the gauge names
/// frozen at StartSampler in registration order) and one row per sample
/// instant, row[0] being t_s relative to the sampler origin. A plain value
/// type: safe to copy out of a run and read after its objects are gone.
struct Series {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  /// Index of the column named `name`, or -1 when absent.
  int Find(const std::string& name) const;
  /// Value of column `name` in row `row`; aborts on an unknown column.
  double At(size_t row, const std::string& name) const;
  /// Every row's value of column `name`; aborts on an unknown column.
  std::vector<double> Column(const std::string& name) const;

  bool operator==(const Series&) const = default;
};

/// The shared telemetry context of one simulation: a metric registry, a
/// trace recorder, and a sim-time gauge sampler. One instance is shared
/// by all layers (hwsim, msg, engine, ecl) of one run; components receive
/// it via their params structs (nullptr = not instrumented).
///
/// Everything is derived from virtual time and simulation state — no wall
/// clock enters any exported artifact — so dumps, series, and traces are
/// deterministic: byte-identical across repeated runs and across
/// `RunMatrix --jobs` values.
class Telemetry {
 public:
  explicit Telemetry(const TelemetryParams& params);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Binds the simulator whose virtual clock stamps all events. Must be
  /// called before StartSampler/now(); components read timestamps through
  /// their own simulator pointers, so binding late is fine for them.
  void Bind(sim::Simulator* simulator) { simulator_ = simulator; }
  sim::Simulator* simulator() const { return simulator_; }

  bool enabled() const { return params_.enabled; }
  const TelemetryParams& params() const { return params_; }

  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// Scopes subsequent metric and trace-lane registrations under a path
  /// prefix ("node0/..."). Cluster runs bracket each node's component
  /// construction with this; the default empty prefix leaves every legacy
  /// single-node name untouched.
  void SetPathPrefix(const std::string& prefix) {
    registry_.SetPathPrefix(prefix);
    trace_.SetPathPrefix(prefix);
  }

  SimTime now() const { return simulator_ != nullptr ? simulator_->now() : 0; }

  /// Starts periodic sampling of every registered gauge, with the first
  /// sample one period after `origin` and `t_s = ToSeconds(ts - origin)`
  /// in the series. No-op when disabled. Gauges registered after the
  /// start are not part of the series (fixed column set).
  void StartSampler(SimTime origin);
  void StopSampler() { sampling_ = false; }

  /// Takes one sample row immediately (also used by the periodic events).
  void SampleNow();

  /// The sampled series (empty header until StartSampler).
  const Series& series() const { return series_; }

 private:
  void ScheduleNext();

  TelemetryParams params_;
  sim::Simulator* simulator_ = nullptr;
  MetricRegistry registry_;
  TraceRecorder trace_;
  bool sampling_ = false;
  SimTime origin_ = 0;
  SimTime next_sample_ = 0;
  Series series_;
};

/// Returns a registry-backed counter when `t` is non-null, otherwise a
/// locally-backed handle (component works unchanged without telemetry).
Counter MakeCounter(Telemetry* t, const std::string& name);

/// Returns a registry-backed histogram handle, or an unbound no-op handle.
HistogramHandle MakeHistogram(Telemetry* t, const std::string& name,
                              const HistogramSpec& spec);

}  // namespace ecldb::telemetry

#endif  // ECLDB_TELEMETRY_TELEMETRY_H_
