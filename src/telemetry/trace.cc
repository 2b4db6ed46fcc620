#include "src/telemetry/trace.h"

#include "src/common/hash.h"
#include "src/telemetry/rows.h"

namespace eof {
namespace telemetry {

Tracer::Tracer(MetricsRegistry* registry, uint64_t session_seed, int worker,
               EventSink* sink)
    : registry_(registry), sink_(sink), seed_(session_seed), worker_(worker) {}

Tracer::Span Tracer::Begin(const char* name, VirtualTime now) {
  Span span;
  span.id = DeriveSeedStream(seed_, ++sequence_);
  span.name = name;
  span.begin = now;
  return span;
}

void Tracer::End(const Span& span, VirtualTime now, bool journal) {
  VirtualDuration duration = now >= span.begin ? now - span.begin : 0;
  HistogramFor(span.name)->Observe(duration);
  if (journal) {
    Journal(sink_, now, worker_,
            [&] { return SpanRow{span.name, span.id, span.begin, duration}; });
  }
}

Histogram* Tracer::HistogramFor(const char* name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return it->second;
  }
  Histogram* histogram = registry_->RegisterHistogram(
      std::string("span.") + name + "_us", DefaultLatencyBoundsUs());
  histograms_.emplace(name, histogram);
  return histogram;
}

}  // namespace telemetry
}  // namespace eof
