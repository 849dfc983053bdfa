#include "telemetry/telemetry.h"

#include "common/check.h"

namespace ecldb::telemetry {

int Series::Find(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

double Series::At(size_t row, const std::string& name) const {
  const int c = Find(name);
  ECLDB_CHECK_MSG(c >= 0, ("unknown series column " + name).c_str());
  return rows[row][static_cast<size_t>(c)];
}

std::vector<double> Series::Column(const std::string& name) const {
  const int c = Find(name);
  ECLDB_CHECK_MSG(c >= 0, ("unknown series column " + name).c_str());
  std::vector<double> values;
  values.reserve(rows.size());
  for (const std::vector<double>& row : rows) {
    values.push_back(row[static_cast<size_t>(c)]);
  }
  return values;
}

Telemetry::Telemetry(const TelemetryParams& params)
    : params_(params), trace_(params.trace_capacity) {
  trace_.set_enabled(params_.enabled);
}

void Telemetry::StartSampler(SimTime origin) {
  if (!params_.enabled) return;
  ECLDB_CHECK(simulator_ != nullptr);
  sampling_ = true;
  origin_ = origin;
  series_.header = {"t_s"};
  for (int i = 0; i < registry_.num_gauges(); ++i) {
    series_.header.push_back(registry_.gauge_name(i));
  }
  next_sample_ = origin + params_.sample_period;
  ScheduleNext();
}

void Telemetry::ScheduleNext() {
  simulator_->Schedule(next_sample_, [this] {
    if (!sampling_) return;
    SampleNow();
    next_sample_ += params_.sample_period;
    ScheduleNext();
  });
}

void Telemetry::SampleNow() {
  const SimTime ts = now();
  const int gauges = static_cast<int>(series_.header.size()) - 1;
  std::vector<double> row;
  row.reserve(series_.header.size());
  row.push_back(ToSeconds(ts - origin_));
  for (int i = 0; i < gauges; ++i) {
    const double v = registry_.GaugeValue(i);
    row.push_back(v);
    if (params_.trace_gauges) {
      trace_.CounterSample(registry_.gauge_name(i), ts, v);
    }
  }
  series_.rows.push_back(std::move(row));
}

Counter MakeCounter(Telemetry* t, const std::string& name) {
  return t != nullptr ? t->registry().AddCounter(name) : Counter();
}

HistogramHandle MakeHistogram(Telemetry* t, const std::string& name,
                              const HistogramSpec& spec) {
  return t != nullptr ? HistogramHandle(t->registry().AddHistogram(name, spec))
                      : HistogramHandle();
}

}  // namespace ecldb::telemetry
