#include "src/telemetry/prometheus.h"

#include <map>

#include "src/common/strings.h"

namespace eof {
namespace telemetry {

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 4);
  if (name.compare(0, 4, "eof_") != 0) {
    out = "eof_";
  }
  for (char c : name) {
    bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string PrometheusEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PrometheusLabelSet(const PrometheusLabels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += StrFormat("%s=\"%s\"", labels[i].first.c_str(),
                     PrometheusEscape(labels[i].second).c_str());
  }
  out += '}';
  return out;
}

void AppendPrometheusType(std::string* out, const std::string& name,
                          const char* type) {
  *out += StrFormat("# TYPE %s %s\n", name.c_str(), type);
}

void AppendPrometheusSample(std::string* out, const std::string& name,
                            const PrometheusLabels& labels, uint64_t value) {
  *out += StrFormat("%s%s %llu\n", name.c_str(),
                    PrometheusLabelSet(labels).c_str(),
                    static_cast<unsigned long long>(value));
}

namespace {

void AppendHistogram(std::string* out, const std::string& metric,
                     const PrometheusLabels& base_labels,
                     const HistogramSnapshot& histogram) {
  // Cumulative buckets: the snapshot keeps per-bucket counts with a final
  // overflow bucket, the exposition wants running totals ending at +Inf.
  uint64_t cumulative = 0;
  for (size_t i = 0; i < histogram.bounds.size(); ++i) {
    cumulative += i < histogram.buckets.size() ? histogram.buckets[i] : 0;
    PrometheusLabels labels = base_labels;
    labels.emplace_back("le", StrFormat("%llu", static_cast<unsigned long long>(
                                                    histogram.bounds[i])));
    AppendPrometheusSample(out, metric + "_bucket", labels, cumulative);
  }
  PrometheusLabels inf_labels = base_labels;
  inf_labels.emplace_back("le", "+Inf");
  AppendPrometheusSample(out, metric + "_bucket", inf_labels, histogram.count);
  AppendPrometheusSample(out, metric + "_sum", base_labels, histogram.sum);
  AppendPrometheusSample(out, metric + "_count", base_labels, histogram.count);
}

}  // namespace

std::string RenderPrometheus(const std::vector<LabelledSnapshot>& series) {
  // (kind, registry name) -> the family's metric name and its samples so far.
  enum Kind { kCounter, kGauge, kHistogram };
  std::map<std::pair<Kind, std::string>, std::pair<std::string, std::string>> families;
  auto family = [&](Kind kind, const std::string& name, const char* suffix) {
    auto& entry = families[{kind, name}];
    entry.first = PrometheusName(name) + suffix;
    return &entry;
  };
  for (const LabelledSnapshot& labelled : series) {
    for (const auto& [name, value] : labelled.snapshot.counters) {
      auto* entry = family(kCounter, name, "_total");
      AppendPrometheusSample(&entry->second, entry->first, labelled.labels, value);
    }
    for (const auto& [name, value] : labelled.snapshot.gauges) {
      auto* entry = family(kGauge, name, "");
      AppendPrometheusSample(&entry->second, entry->first, labelled.labels, value);
    }
    for (const auto& [name, histogram] : labelled.snapshot.histograms) {
      auto* entry = family(kHistogram, name, "");
      AppendHistogram(&entry->second, entry->first, labelled.labels, histogram);
    }
  }
  static const char* const kTypes[] = {"counter", "gauge", "histogram"};
  std::string out;
  for (const auto& [key, entry] : families) {
    AppendPrometheusType(&out, entry.first, kTypes[key.first]);
    out += entry.second;
  }
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot,
                             const PrometheusLabels& base_labels) {
  return RenderPrometheus({LabelledSnapshot{base_labels, snapshot}});
}

}  // namespace telemetry
}  // namespace eof
