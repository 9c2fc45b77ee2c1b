#include "serve/admission.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace ember::serve {

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec < 0 ? 0 : rate_per_sec),
      burst_(burst < 1 ? 1 : burst),
      tokens_(burst_) {}

bool TokenBucket::TryAcquire(SteadyTime now) {
  if (!primed_) {
    // First observation establishes the refill epoch; the bucket starts
    // full, so a tenant's initial burst up to `burst_` is always admitted.
    primed_ = true;
    last_ = now;
  } else if (now > last_) {
    double elapsed_sec =
        static_cast<double>(MicrosBetween(last_, now)) / 1'000'000.0;
    tokens_ = std::min(burst_, tokens_ + elapsed_sec * rate_per_sec_);
    last_ = now;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

AdmissionController::AdmissionController(
    const std::vector<TenantQuota>& quotas) {
  for (const auto& quota : quotas) {
    buckets_.emplace(quota.tenant,
                     TokenBucket(quota.rate_per_sec, quota.burst));
  }
}

Status AdmissionController::Admit(const std::string& tenant, SteadyTime now) {
  // Fail closed: if the admission decision itself faults, refuse the
  // submission rather than letting an unmetered request through.
  EMBER_FAILPOINT("admit/bucket");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) return Status::Ok();
  if (!it->second.TryAcquire(now)) {
    return Status::Unavailable("tenant '" + (tenant.empty() ? "default"
                                                            : tenant) +
                               "' over quota");
  }
  return Status::Ok();
}

namespace {

const std::string& LedgerKey(const std::string& tenant) {
  static const std::string kDefault = "default";
  return tenant.empty() ? kDefault : tenant;
}

}  // namespace

void TenantLedger::Record(const std::string& tenant, Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[LedgerKey(tenant)].counts[static_cast<uint32_t>(event)]++;
}

void TenantLedger::RecordLatency(const std::string& tenant, double micros) {
  LatencyHistogram* histogram = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    histogram = slots_[LedgerKey(tenant)].total_micros.get();
  }
  // LatencyHistogram is internally lock-free; record outside the map lock.
  histogram->Record(micros);
}

std::vector<TenantCounters> TenantLedger::Snapshot() const {
  std::vector<TenantCounters> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(slots_.size());
  for (const auto& [tenant, slot] : slots_) {
    TenantCounters counters;
    counters.tenant = tenant;
    counters.submitted = slot.counts[0];
    counters.completed = slot.counts[1];
    counters.expired = slot.counts[2];
    counters.failed = slot.counts[3];
    counters.throttled = slot.counts[4];
    counters.rejected = slot.counts[5];
    counters.deadline_misses = slot.counts[6];
    counters.total_micros = slot.total_micros->Snapshot();
    out.push_back(std::move(counters));
  }
  return out;  // std::map iterates sorted by tenant name
}

}  // namespace ember::serve
