#ifndef EMBER_SERVE_BATCHER_H_
#define EMBER_SERVE_BATCHER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/timer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/admission.h"

/// The serving front end shared by Engine and Router (DESIGN.md §9,
/// "Serving front end").
namespace ember::serve {

/// Front-end options, shared by EngineOptions and RouterOptions.
struct BatcherOptions {
  /// Bounded queue capacity. A full queue REJECTS new submissions
  /// immediately (backpressure) — Submit never blocks the caller.
  size_t max_queue = 1024;
  /// Batching policy: a worker drains as soon as `max_batch` requests are
  /// queued, or when the most urgent queued request has waited
  /// `max_wait_micros`, whichever comes first. Larger windows amortize the
  /// per-batch cost; smaller windows cut tail latency at low load.
  size_t max_batch = 32;
  int64_t max_wait_micros = 2000;
  /// Worker threads. Each processes whole batches, so >1 mainly helps when
  /// batch stages can overlap on spare cores.
  size_t workers = 1;
  /// Queue drain order (DESIGN.md §16). kEdf drains the most urgent queued
  /// request first; deadline-free and equal-deadline requests keep arrival
  /// order, so a workload without deadlines behaves exactly like kFifo.
  QueuePolicy queue_policy = QueuePolicy::kEdf;
  /// Per-tenant admission quotas. Empty (the default) disables the token
  /// bucket gate entirely; tenants without a listed quota are never
  /// throttled.
  std::vector<TenantQuota> quotas;
};

/// Front-end counters and histograms, readable at any time. EngineMetrics
/// and RouterMetrics extend this struct. Counter identity: submitted ==
/// completed + expired + failed + still-in-flight (rejected and throttled
/// submissions never enter the queue and are counted separately).
struct BatcherMetrics {
  uint64_t submitted = 0;  // accepted into the queue
  uint64_t completed = 0;  // answered successfully
  uint64_t rejected = 0;   // refused at Submit (queue full / stopped)
  uint64_t throttled = 0;  // refused at Submit by the token bucket
  uint64_t expired = 0;    // shed before embedding (deadline passed)
  uint64_t failed = 0;     // answered with a non-deadline error
  uint64_t deadline_misses = 0;  // completed, but after their deadline
  uint64_t batches = 0;

  HistogramSnapshot queue_micros;  // submit -> drained from the queue
  HistogramSnapshot total_micros;  // submit -> reply
  HistogramSnapshot batch_size;    // live requests per processed batch

  /// Per-tenant breakdown, sorted by tenant name; untenanted traffic
  /// appears as tenant "default". Each tenant satisfies the counter
  /// identity above.
  std::vector<TenantCounters> tenants;
};

/// The static names one front end traces and exports under. Span names
/// must have static lifetime: obs::Span stores the pointer.
struct FrontEndNames {
  const char* metric_prefix;  // prepended to every shared metric family
  const char* admit_span;     // token-bucket admission
  const char* batch_span;     // per-batch trace root
  const char* shed_span;      // deadline shedding at drain time
  const char* request_span;   // one request, enqueue to reply
  const char* stopped;        // Push refusal text once stopped
};

inline constexpr FrontEndNames kEngineFrontEnd = {
    "ember_serve_",       "serve/admit",   "serve/batch",
    "serve/dequeue_shed", "serve/request", "engine is stopped"};
inline constexpr FrontEndNames kRouterFrontEnd = {
    "ember_router_",       "router/admit",   "router/batch",
    "router/dequeue_shed", "router/request", "router is stopped"};

/// Appends samples that share one label set; the exporters' helper.
class SampleWriter {
 public:
  SampleWriter(std::vector<obs::Sample>* out, obs::Labels labels)
      : out_(out), labels_(std::move(labels)) {}

  void Counter(std::string name, const char* help, uint64_t value);
  void Gauge(std::string name, const char* help, double value);
  /// `extra` labels are added to the writer's own.
  void Histogram(std::string name, const char* help,
                 const HistogramSnapshot& histogram,
                 const obs::Labels& extra = {});

 private:
  obs::Sample& Add(std::string name, const char* help, obs::MetricKind kind);

  std::vector<obs::Sample>* out_;
  obs::Labels labels_;
};

/// Exports the front-end families of `metrics` under `names.metric_prefix`:
/// the shared counters and histograms with `labels`, and one
/// `<prefix>tenant_*` row set per tenant with `labels` plus `tenant=`.
void AppendFrontEndSamples(const FrontEndNames& names,
                           const obs::Labels& labels,
                           const BatcherMetrics& metrics,
                           std::vector<obs::Sample>* out);

/// Bounded, urgency-ordered micro-batcher. `Request` must provide
///   SteadyTime deadline, enqueued;  std::string tenant;  uint64_t seq;
///   void Fail(const Status&);   // settles the request with an error
/// The Batcher sets `enqueued` and `seq`; the owner fills the rest.
///
/// Admission is split in two so the Engine's circuit breaker can sit
/// between the steps: Admit() runs the token bucket, Push() the stopped
/// and queue-bound checks. Worker threads drain batches of at most
/// max_batch requests, as soon as that many are queued or once the most
/// urgent one has waited max_wait_micros, shed the expired ones, and hand
/// the rest to the owner's per-batch callback in urgency order. The
/// callback settles every request it receives and reports each outcome
/// through Finish/Complete/Fail, which keeps the counter identity.
template <typename Request>
class Batcher {
 public:
  /// Called once per drained batch that has live requests, on a worker
  /// thread, inside the batch's root span. `batch_no` is the batch's
  /// ordinal (the root span's id key and the retry-jitter seed).
  using ProcessFn = std::function<void(std::vector<Request>& live,
                                       uint64_t batch_no,
                                       const obs::SpanContext& batch_span)>;

  Batcher(const FrontEndNames& names, const BatcherOptions& options,
          ProcessFn process)
      : names_(names),
        max_queue_(std::max<size_t>(1, options.max_queue)),
        max_batch_(std::max<size_t>(1, options.max_batch)),
        max_wait_micros_(std::max<int64_t>(0, options.max_wait_micros)),
        workers_count_(std::max<size_t>(1, options.workers)),
        urgency_{options.queue_policy},
        admission_(options.quotas),
        process_(std::move(process)) {
    // One counter per Request type, so engines and routers each number
    // their instances "0", "1", ... per process.
    static std::atomic<uint64_t> next_instance{0};
    instance_ = std::to_string(next_instance.fetch_add(1));
  }

  ~Batcher() { Stop(); }

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// The owner's registry label value ("0", "1", ... per process).
  const std::string& instance() const { return instance_; }

  /// Registers the owner's metrics collector with the global obs::Registry
  /// and starts the workers; the owner calls it once fully constructed.
  void Start(obs::Registry::Collector collect) {
    collector_id_ = obs::Registry::Global().AddCollector(std::move(collect));
    collector_registered_.store(true, std::memory_order_release);
    for (size_t w = 0; w < workers_count_; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Token-bucket admission (DESIGN.md §16), charged at `admit_time`
  /// (kAdmitNow = the real clock). It runs before any health or queue
  /// check, so a throttle verdict depends only on the quota and the admit
  /// timestamps and a replayed trace reproduces it exactly.
  Status Admit(const std::string& tenant, SteadyTime admit_time) {
    if (!admission_.enabled()) return Status::Ok();
    obs::Span admit_span(names_.admit_span);
    Status admitted = admission_.Admit(
        tenant, admit_time == kAdmitNow ? SteadyNow() : admit_time);
    if (!admitted.ok()) {
      Count(throttled_, tenant, TenantLedger::Event::kThrottled);
    }
    return admitted;
  }

  /// Enqueues an admitted request and wakes a worker; Unavailable (counted
  /// as rejected, nothing enqueued) once stopped or when the queue is full.
  Status Push(Request request) {
    request.enqueued = SteadyNow();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || queue_.size() >= max_queue_) {
        Count(rejected_, request.tenant, TenantLedger::Event::kRejected);
        return Status::Unavailable(
            stopping_ ? std::string(names_.stopped)
                      : "queue full (" + std::to_string(max_queue_) + ")");
      }
      request.seq = queue_seq_++;
      Count(submitted_, request.tenant, TenantLedger::Event::kSubmitted);
      queue_.push_back(std::move(request));
      std::push_heap(queue_.begin(), queue_.end(), urgency_);
    }
    queue_cv_.notify_one();
    return Status::Ok();
  }

  /// Unregisters the collector, refuses new work, drains every queued
  /// request (expired ones are shed, the rest processed) and joins the
  /// workers. Idempotent.
  void Stop() {
    // RemoveCollector is a barrier (the registry holds its mutex through
    // every collection), so after it returns no scrape can touch a dying
    // owner.
    if (collector_registered_.exchange(false, std::memory_order_acq_rel)) {
      obs::Registry::Global().RemoveCollector(collector_id_);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  /// Reply-time accounting of a request answered at `done`: deadline miss,
  /// submit-to-reply latency (overall and per tenant) and the request span,
  /// parented under the batch and keyed by its in-batch `slot`. Follow
  /// with Complete or Fail.
  void Finish(const Request& request, size_t slot, SteadyTime done,
              const obs::SpanContext& batch_span) {
    if (request.deadline < done) {
      Count(deadline_misses_, request.tenant,
            TenantLedger::Event::kDeadlineMiss);
    }
    const int64_t latency = MicrosBetween(request.enqueued, done);
    total_micros_.Record(latency);
    if (Tracked(request.tenant)) {
      ledger_.RecordLatency(request.tenant, static_cast<double>(latency));
    }
    obs::EmitSpan(names_.request_span, batch_span, slot, request.enqueued,
                  done);
  }

  /// Counts a success; the caller then settles the request.
  void Complete(const Request& request) {
    Count(completed_, request.tenant, TenantLedger::Event::kCompleted);
  }

  /// Counts a failure, then settles the request with `status`.
  void Fail(Request& request, const Status& status) {
    Count(failed_, request.tenant, TenantLedger::Event::kFailed);
    request.Fail(status);
  }

  BatcherMetrics Metrics() const {
    BatcherMetrics metrics;
    metrics.submitted = submitted_.load(std::memory_order_relaxed);
    metrics.completed = completed_.load(std::memory_order_relaxed);
    metrics.rejected = rejected_.load(std::memory_order_relaxed);
    metrics.throttled = throttled_.load(std::memory_order_relaxed);
    metrics.expired = expired_.load(std::memory_order_relaxed);
    metrics.failed = failed_.load(std::memory_order_relaxed);
    metrics.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
    metrics.batches = batches_.load(std::memory_order_relaxed);
    metrics.queue_micros = queue_micros_.Snapshot();
    metrics.total_micros = total_micros_.Snapshot();
    metrics.batch_size = batch_size_.Snapshot();
    metrics.tenants = ledger_.Snapshot();
    return metrics;
  }

 private:
  /// Min-heap "greater" comparator: under kEdf the earliest deadline drains
  /// first, with arrival order (seq) breaking ties, so deadline-free
  /// traffic (every deadline == kNoDeadline) degenerates to arrival order;
  /// under kFifo only seq matters.
  struct RequestUrgency {
    QueuePolicy policy;
    bool operator()(const Request& a, const Request& b) const {
      if (policy == QueuePolicy::kEdf && a.deadline != b.deadline) {
        return a.deadline > b.deadline;
      }
      return a.seq > b.seq;
    }
  };

  /// Per-tenant accounting runs for tenant-aware traffic only: untenanted
  /// front ends (no quotas, no tenant names) skip the ledger entirely.
  bool Tracked(const std::string& tenant) const {
    return admission_.enabled() || !tenant.empty();
  }

  /// Bumps a front-end counter and the tenant's matching ledger row.
  void Count(std::atomic<uint64_t>& counter, const std::string& tenant,
             TenantLedger::Event event) {
    counter.fetch_add(1, std::memory_order_relaxed);
    if (Tracked(tenant)) ledger_.Record(tenant, event);
  }

  void WorkerLoop() {
    for (;;) {
      std::vector<Request> batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (stopping_) return;  // drained: stop only once the queue is empty
          continue;
        }
        // Micro-batch window: drain as soon as max_batch requests are
        // ready, or once the MOST URGENT queued request (heap front) has
        // waited out max_wait_micros. wait_until releases the lock, so
        // another worker may drain the queue meanwhile — hence the re-check.
        const SteadyTime window_end =
            AfterMicros(queue_.front().enqueued, max_wait_micros_);
        queue_cv_.wait_until(lock, window_end, [this] {
          return stopping_ || queue_.size() >= max_batch_;
        });
        if (queue_.empty()) {
          if (stopping_) return;
          continue;
        }
        // Heap pops drain in urgency order, so the batch is ordered
        // most-urgent-first (arrival order when deadlines are absent or
        // equal, so mutations apply in submission order).
        const size_t take = std::min(queue_.size(), max_batch_);
        batch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          std::pop_heap(queue_.begin(), queue_.end(), urgency_);
          batch.push_back(std::move(queue_.back()));
          queue_.pop_back();
        }
      }
      Drain(std::move(batch));
    }
  }

  void Drain(std::vector<Request> batch) {
    const SteadyTime drained = SteadyNow();
    const uint64_t batch_no = batches_.fetch_add(1, std::memory_order_relaxed);
    // Trace root per batch, keyed by the batch number: span ids depend on
    // (batch_no, stage name, stage order) only, so a fixed-seed run yields
    // the same span tree at any worker/thread count.
    obs::Span batch_span(names_.batch_span, obs::Span::RootTag{}, batch_no);
    batch_span.AddCount("requests", batch.size());

    // Deadline shedding BEFORE the owner's expensive stages: a request that
    // already missed its deadline is settled at once and costs no compute.
    std::vector<Request> live;
    live.reserve(batch.size());
    {
      obs::Span shed_span(names_.shed_span);
      for (Request& request : batch) {
        queue_micros_.Record(MicrosBetween(request.enqueued, drained));
        if (request.deadline < drained) {
          Count(expired_, request.tenant, TenantLedger::Event::kExpired);
          request.Fail(Status::DeadlineExceeded("shed before embedding"));
        } else {
          live.push_back(std::move(request));
        }
      }
    }
    if (live.empty()) return;
    batch_span.AddCount("live", live.size());
    batch_size_.Record(static_cast<double>(live.size()));
    process_(live, batch_no, batch_span.context());
  }

  const FrontEndNames names_;
  const size_t max_queue_;
  const size_t max_batch_;
  const int64_t max_wait_micros_;
  const size_t workers_count_;
  const RequestUrgency urgency_;
  AdmissionController admission_;
  TenantLedger ledger_;
  const ProcessFn process_;
  std::string instance_;
  uint64_t collector_id_ = 0;
  std::atomic<bool> collector_registered_{false};

  std::mutex mu_;
  std::condition_variable queue_cv_;
  /// Binary heap ordered by urgency_: front() is the next request to drain.
  std::vector<Request> queue_;
  uint64_t queue_seq_ = 0;  // next arrival sequence number, under mu_
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  // Atomics, not guarded by mu_: Metrics() must stay cheap enough to call
  // from a live load generator.
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> throttled_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> batches_{0};
  LatencyHistogram queue_micros_;
  LatencyHistogram total_micros_;
  LatencyHistogram batch_size_;
};

}  // namespace ember::serve

#endif  // EMBER_SERVE_BATCHER_H_
