#include "serve/batcher.h"

namespace ember::serve {

obs::Sample& SampleWriter::Add(std::string name, const char* help,
                               obs::MetricKind kind) {
  obs::Sample& sample = out_->emplace_back();
  sample.name = std::move(name);
  sample.help = help;
  sample.kind = kind;
  sample.labels = labels_;
  return sample;
}

void SampleWriter::Counter(std::string name, const char* help,
                           uint64_t value) {
  Add(std::move(name), help, obs::MetricKind::kCounter).value =
      static_cast<double>(value);
}

void SampleWriter::Gauge(std::string name, const char* help, double value) {
  Add(std::move(name), help, obs::MetricKind::kGauge).value = value;
}

void SampleWriter::Histogram(std::string name, const char* help,
                             const HistogramSnapshot& histogram,
                             const obs::Labels& extra) {
  obs::Sample& sample =
      Add(std::move(name), help, obs::MetricKind::kHistogram);
  sample.labels.insert(extra.begin(), extra.end());
  sample.histogram = histogram;
}

void AppendFrontEndSamples(const FrontEndNames& names,
                           const obs::Labels& labels,
                           const BatcherMetrics& metrics,
                           std::vector<obs::Sample>* out) {
  const std::string prefix = names.metric_prefix;
  SampleWriter writer(out, labels);
  writer.Counter(prefix + "submitted_total",
                 "Requests accepted into the queue", metrics.submitted);
  writer.Counter(prefix + "completed_total",
                 "Requests answered with neighbors", metrics.completed);
  writer.Counter(prefix + "rejected_total", "Requests refused at Submit",
                 metrics.rejected);
  writer.Counter(prefix + "throttled_total",
                 "Requests refused by the per-tenant token bucket",
                 metrics.throttled);
  writer.Counter(prefix + "expired_total", "Requests shed before embedding",
                 metrics.expired);
  writer.Counter(prefix + "failed_total", "Requests failed with an error",
                 metrics.failed);
  writer.Counter(prefix + "deadline_misses_total",
                 "Requests completed after their deadline",
                 metrics.deadline_misses);
  writer.Counter(prefix + "batches_total", "Micro-batches processed",
                 metrics.batches);
  writer.Histogram(prefix + "queue_micros",
                   "Submit to dequeue wait per request", metrics.queue_micros);
  writer.Histogram(prefix + "total_micros", "Submit to completion per request",
                   metrics.total_micros);
  writer.Histogram(prefix + "batch_size", "Live requests per processed batch",
                   metrics.batch_size);
  // Per-tenant breakdown (DESIGN.md §16). Distinct metric families (the
  // tenant_ prefix) keep the series above label-stable; tenant rows only
  // exist for tenant-aware traffic, so untenanted front ends export no
  // tenant families at all.
  for (const TenantCounters& tenant : metrics.tenants) {
    obs::Labels tenant_labels = labels;
    tenant_labels["tenant"] = tenant.tenant;
    SampleWriter row(out, std::move(tenant_labels));
    row.Counter(prefix + "tenant_submitted_total",
                "Per-tenant requests accepted into the queue",
                tenant.submitted);
    row.Counter(prefix + "tenant_completed_total",
                "Per-tenant requests completed", tenant.completed);
    row.Counter(prefix + "tenant_throttled_total",
                "Per-tenant requests refused by the token bucket",
                tenant.throttled);
    row.Counter(prefix + "tenant_rejected_total",
                "Per-tenant requests refused by backpressure",
                tenant.rejected);
    row.Counter(prefix + "tenant_expired_total",
                "Per-tenant requests shed past their deadline",
                tenant.expired);
    row.Counter(prefix + "tenant_failed_total",
                "Per-tenant requests failed with an error", tenant.failed);
    row.Counter(prefix + "tenant_deadline_misses_total",
                "Per-tenant requests completed after their deadline",
                tenant.deadline_misses);
    row.Histogram(prefix + "tenant_total_micros",
                  "Per-tenant submit to completion latency",
                  tenant.total_micros);
  }
}

}  // namespace ember::serve
