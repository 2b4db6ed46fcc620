// Prometheus text exposition (format version 0.0.4) for MetricsSnapshot.
//
// Mapping: every metric name is sanitized into the Prometheus grammar and
// prefixed "eof_" ("span.exec_continue_us" -> "eof_span_exec_continue_us");
// counters gain the "_total" suffix; gauges render as-is; histograms render the
// canonical cumulative "_bucket{le=...}" series — the snapshot's overflow
// bucket becomes le="+Inf" — plus "_sum" and "_count". Base labels (campaign,
// worker) are appended to every sample, escaped per the exposition rules.

#ifndef SRC_TELEMETRY_PROMETHEUS_H_
#define SRC_TELEMETRY_PROMETHEUS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/metrics.h"

namespace eof {
namespace telemetry {

// Label set applied to every rendered sample, in the given order.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

// One snapshot and the labels its samples carry (campaign=, worker=, ...).
struct LabelledSnapshot {
  PrometheusLabels labels;
  MetricsSnapshot snapshot;
};

// The HTTP Content-Type for this exposition format.
inline constexpr char kPrometheusContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

// Sanitizes a registry metric name into a Prometheus metric name: every
// character outside [a-zA-Z0-9_:] becomes '_', and the result is prefixed
// "eof_" (unless the name already starts with it).
std::string PrometheusName(const std::string& name);

// Escapes a label value (backslash, double quote, newline).
std::string PrometheusEscape(const std::string& value);

// Renders "{k1=\"v1\",k2=\"v2\"}" — empty labels render as "".
std::string PrometheusLabelSet(const PrometheusLabels& labels);

// Appends one "# TYPE" header line; emit once per metric family.
void AppendPrometheusType(std::string* out, const std::string& name,
                          const char* type);

// Appends one sample line: name{labels} value.
void AppendPrometheusSample(std::string* out, const std::string& name,
                            const PrometheusLabels& labels, uint64_t value);

// Renders labelled snapshots as one exposition: each family gets one "# TYPE"
// line followed by one sample per snapshot that holds it, in the given order.
// Counters sort before gauges before histograms; within each kind families
// sort by name, which keeps the output stable for golden tests.
std::string RenderPrometheus(const std::vector<LabelledSnapshot>& series);

// One snapshot with `base_labels` on every sample.
std::string RenderPrometheus(const MetricsSnapshot& snapshot,
                             const PrometheusLabels& base_labels = {});

}  // namespace telemetry
}  // namespace eof

#endif  // SRC_TELEMETRY_PROMETHEUS_H_
