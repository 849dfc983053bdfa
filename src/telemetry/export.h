#ifndef ECLDB_TELEMETRY_EXPORT_H_
#define ECLDB_TELEMETRY_EXPORT_H_

#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace ecldb::telemetry {

/// Renders the recorded trace as Chrome trace-event JSON (the format
/// chrome://tracing and ui.perfetto.dev load). Spans render as complete
/// ("X") events, instants as "i", gauge samples as counter tracks ("C");
/// lanes become named thread tracks via "M" metadata records. Timestamps
/// are virtual-time microseconds with nanosecond fraction — formatted
/// from the integer nanosecond stamps, so output is deterministic.
std::string ChromeTraceJson(const Telemetry& telemetry);

/// Writes ChromeTraceJson to `path` (parent directories are created).
/// Returns false if the file could not be written.
bool WriteChromeTrace(const Telemetry& telemetry, const std::string& path);

/// Writes a sampled gauge series as CSV. `columns` selects and orders
/// the columns by series-header name ("t_s" and gauge names); an empty
/// list exports every column in sampling order. Numeric formatting is
/// CsvWriter::AddNumericRow (%.10g). `rename`, when non-empty, gives the
/// output header names (parallel to `columns`) so a generic gauge like
/// "exp/offered_qps" can export under the plot-script name
/// "offered_qps". Returns false on unknown column names, a rename-size
/// mismatch, or file errors.
bool WriteSeriesCsv(const Series& series, const std::string& path,
                    const std::vector<std::string>& columns = {},
                    const std::vector<std::string>& rename = {});

}  // namespace ecldb::telemetry

#endif  // ECLDB_TELEMETRY_EXPORT_H_
