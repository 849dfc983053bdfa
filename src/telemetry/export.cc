#include "telemetry/export.h"

#include <cstdio>

#include "common/csv_writer.h"

namespace ecldb::telemetry {

namespace {

// Microsecond timestamp with nanosecond fraction, rendered from the
// integer nanosecond stamp (no floating point → exact and deterministic).
std::string MicrosFromNanos(int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

const char* PhaseCode(TraceEvent::Phase p) {
  switch (p) {
    case TraceEvent::Phase::kComplete:
      return "X";
    case TraceEvent::Phase::kInstant:
      return "i";
    case TraceEvent::Phase::kCounter:
      return "C";
  }
  return "i";
}

}  // namespace

std::string ChromeTraceJson(const Telemetry& telemetry) {
  const TraceRecorder& trace = telemetry.trace();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&out, &first](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += event;
  };
  // Lane names as thread-name metadata so Perfetto shows labeled tracks.
  const std::vector<std::string>& lanes = trace.lanes();
  for (size_t i = 0; i < lanes.size(); ++i) {
    append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(i) + ",\"args\":{\"name\":\"" +
           JsonEscape(lanes[i]) + "\"}}");
  }
  for (const TraceEvent* e : trace.InOrder()) {
    std::string ev = "{\"name\":\"" + JsonEscape(e->name) + "\",\"cat\":\"" +
                     JsonEscape(e->cat) + "\",\"ph\":\"";
    ev += PhaseCode(e->phase);
    ev += "\",\"ts\":" + MicrosFromNanos(e->ts);
    if (e->phase == TraceEvent::Phase::kComplete) {
      ev += ",\"dur\":" + MicrosFromNanos(e->dur);
    }
    ev += ",\"pid\":1,\"tid\":" + std::to_string(e->lane);
    if (e->phase == TraceEvent::Phase::kInstant) ev += ",\"s\":\"t\"";
    if (!e->args.empty()) ev += ",\"args\":{" + e->args + "}";
    ev += '}';
    append(ev);
  }
  out += "\n]}\n";
  return out;
}

bool WriteChromeTrace(const Telemetry& telemetry, const std::string& path) {
  const std::string json = ChromeTraceJson(telemetry);
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && !EnsureDirectory(path.substr(0, slash))) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

bool WriteSeriesCsv(const Series& series, const std::string& path,
                    const std::vector<std::string>& columns,
                    const std::vector<std::string>& rename) {
  if (!rename.empty() && rename.size() != columns.size()) return false;
  std::vector<size_t> select;
  std::vector<std::string> out_header;
  if (columns.empty()) {
    for (size_t i = 0; i < series.header.size(); ++i) select.push_back(i);
    out_header = series.header;
  } else {
    for (const std::string& want : columns) {
      const int idx = series.Find(want);
      if (idx < 0) return false;
      select.push_back(static_cast<size_t>(idx));
      out_header.push_back(rename.empty() ? want
                                          : rename[select.size() - 1]);
    }
  }
  CsvWriter csv(path, out_header);
  if (!csv.ok()) return false;
  std::vector<double> row(select.size());
  for (const std::vector<double>& sample : series.rows) {
    for (size_t i = 0; i < select.size(); ++i) row[i] = sample[select[i]];
    csv.AddNumericRow(row);
  }
  return true;
}

}  // namespace ecldb::telemetry
