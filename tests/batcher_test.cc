#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

/// Contract tests of the shared serving front end (DESIGN.md §9, "Serving
/// front end"), driven directly with a recording callback and no model.
/// Ordering is controlled by holding the single worker inside a blocking
/// first batch, never by sleeps.
namespace ember::serve {
namespace {

/// Records every request's final status, keyed by request id.
class Outcomes {
 public:
  void Settle(int id, const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    settled_[id] = status;
    cv_.notify_all();
  }
  /// Blocks until `count` requests have settled (or ten seconds passed).
  bool WaitFor(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return settled_.size() >= count; });
  }
  std::map<int, Status> Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return settled_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, Status> settled_;
};

struct TestRequest {
  int id = 0;
  bool fail = false;  // the callback fails instead of completing it
  SteadyTime deadline = kNoDeadline;
  SteadyTime enqueued;
  std::string tenant;
  uint64_t seq = 0;
  Outcomes* outcomes = nullptr;

  void Fail(const Status& status) { outcomes->Settle(id, status); }
};

/// One Batcher with a recording per-batch callback. When `hold_first` is
/// set, the first batch blocks inside the callback until Release(), which
/// pins the single worker so a test can stage the queue behind it.
class Harness {
 public:
  explicit Harness(const BatcherOptions& options, bool hold_first = false)
      : hold_(hold_first),
        batcher_(kEngineFrontEnd, options,
                 [this](std::vector<TestRequest>& live, uint64_t batch_no,
                        const obs::SpanContext& span) {
                   OnBatch(live, batch_no, span);
                 }) {
    batcher_.Start([] { return std::vector<obs::Sample>{}; });
  }

  ~Harness() {
    Release();
    batcher_.Stop();
  }

  Status Submit(int id, SteadyTime deadline = kNoDeadline,
                const std::string& tenant = "", bool fail = false) {
    Status admitted = batcher_.Admit(tenant, kAdmitNow);
    if (!admitted.ok()) return admitted;
    TestRequest request;
    request.id = id;
    request.fail = fail;
    request.deadline = deadline;
    request.tenant = tenant;
    request.outcomes = &outcomes_;
    return batcher_.Push(std::move(request));
  }

  /// Waits until the held first batch is inside the callback.
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return held_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = false;
    cv_.notify_all();
  }

  std::vector<std::vector<int>> Batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

  SteadyTime first_batch_at() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_batch_at_;
  }

  Batcher<TestRequest>& batcher() { return batcher_; }
  Outcomes& outcomes() { return outcomes_; }

 private:
  void OnBatch(std::vector<TestRequest>& live, uint64_t batch_no,
               const obs::SpanContext& span) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (batches_.empty()) first_batch_at_ = SteadyNow();
      std::vector<int> ids;
      for (const TestRequest& request : live) ids.push_back(request.id);
      batches_.push_back(std::move(ids));
      if (hold_) {
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !hold_; });
      }
    }
    const SteadyTime done = SteadyNow();
    for (size_t i = 0; i < live.size(); ++i) {
      batcher_.Finish(live[i], i, done, span);
      if (live[i].fail) {
        batcher_.Fail(live[i], Status::Internal("injected"));
      } else {
        batcher_.Complete(live[i]);
        outcomes_.Settle(live[i].id, Status::Ok());
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_;
  bool held_ = false;
  std::vector<std::vector<int>> batches_;
  SteadyTime first_batch_at_;
  Outcomes outcomes_;
  Batcher<TestRequest> batcher_;  // last: stopped before the rest goes
};

BatcherOptions OneAtATime() {
  BatcherOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.max_wait_micros = 0;
  return options;
}

SteadyTime In(int seconds) {
  return AfterMicros(SteadyNow(), seconds * 1'000'000LL);
}

/// Drains a blocker, then three requests submitted latest-deadline-first
/// plus two deadline-free ones; returns the order the callback saw them.
std::vector<std::vector<int>> DrainOrder(QueuePolicy policy) {
  BatcherOptions options = OneAtATime();
  options.queue_policy = policy;
  Harness harness(options, /*hold_first=*/true);
  EXPECT_TRUE(harness.Submit(0).ok());
  harness.WaitHeld();
  EXPECT_TRUE(harness.Submit(1, In(30)).ok());
  EXPECT_TRUE(harness.Submit(2).ok());
  EXPECT_TRUE(harness.Submit(3, In(20)).ok());
  EXPECT_TRUE(harness.Submit(4, In(10)).ok());
  EXPECT_TRUE(harness.Submit(5).ok());
  harness.Release();
  harness.batcher().Stop();
  return harness.Batches();
}

TEST(Batcher, EdfDrainsEarliestDeadlineFirstAndTiesInArrivalOrder) {
  const std::vector<std::vector<int>> expected = {{0}, {4}, {3}, {1}, {2},
                                                  {5}};
  EXPECT_EQ(DrainOrder(QueuePolicy::kEdf), expected);
}

TEST(Batcher, FifoDrainsInArrivalOrderDespiteDeadlines) {
  const std::vector<std::vector<int>> expected = {{0}, {1}, {2}, {3}, {4},
                                                  {5}};
  EXPECT_EQ(DrainOrder(QueuePolicy::kFifo), expected);
}

TEST(Batcher, BatchesNeverExceedMaxBatch) {
  BatcherOptions options = OneAtATime();
  options.max_batch = 3;
  Harness harness(options, /*hold_first=*/true);
  ASSERT_TRUE(harness.Submit(0).ok());
  harness.WaitHeld();
  for (int id = 1; id <= 7; ++id) ASSERT_TRUE(harness.Submit(id).ok());
  harness.Release();
  harness.batcher().Stop();
  const std::vector<std::vector<int>> expected = {
      {0}, {1, 2, 3}, {4, 5, 6}, {7}};
  EXPECT_EQ(harness.Batches(), expected);
  EXPECT_EQ(harness.batcher().Metrics().batches, 4u);
}

TEST(Batcher, MaxWaitFlushesAnUnderfullBatch) {
  BatcherOptions options;
  options.max_batch = 100;
  options.max_wait_micros = 300'000;
  Harness harness(options);
  const SteadyTime before = SteadyNow();
  ASSERT_TRUE(harness.Submit(1).ok());
  ASSERT_TRUE(harness.Submit(2).ok());
  // Nothing forces a drain but the window: the two requests must go out
  // together once the oldest has waited max_wait, not before.
  ASSERT_TRUE(harness.outcomes().WaitFor(2));
  const std::vector<std::vector<int>> expected = {{1, 2}};
  EXPECT_EQ(harness.Batches(), expected);
  EXPECT_GE(MicrosBetween(before, harness.first_batch_at()), 300'000.0);
}

TEST(Batcher, FullQueueRefusesWithoutEnqueueing) {
  BatcherOptions options = OneAtATime();
  options.max_queue = 2;
  Harness harness(options, /*hold_first=*/true);
  ASSERT_TRUE(harness.Submit(0).ok());
  harness.WaitHeld();
  ASSERT_TRUE(harness.Submit(1).ok());
  ASSERT_TRUE(harness.Submit(2).ok());
  const Status refused = harness.Submit(3, kNoDeadline, "t");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), Status::Code::kUnavailable);
  EXPECT_NE(refused.ToString().find("queue full (2)"), std::string::npos);
  harness.Release();
  harness.batcher().Stop();

  const std::vector<std::vector<int>> expected = {{0}, {1}, {2}};
  EXPECT_EQ(harness.Batches(), expected);
  EXPECT_EQ(harness.outcomes().Snapshot().count(3), 0u);
  const BatcherMetrics metrics = harness.batcher().Metrics();
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.completed, 3u);
  ASSERT_EQ(metrics.tenants.size(), 1u);
  EXPECT_EQ(metrics.tenants[0].tenant, "t");
  EXPECT_EQ(metrics.tenants[0].rejected, 1u);
  EXPECT_EQ(metrics.tenants[0].submitted, 0u);
}

TEST(Batcher, TokenBucketRefusalIsThrottledAndNeverEnqueued) {
  BatcherOptions options = OneAtATime();
  options.quotas = {{"t", 0.0, 1.0}};  // one token, never refilled
  Harness harness(options);
  ASSERT_TRUE(harness.Submit(1, kNoDeadline, "t").ok());
  const Status throttled = harness.Submit(2, kNoDeadline, "t");
  ASSERT_FALSE(throttled.ok());
  EXPECT_EQ(throttled.code(), Status::Code::kUnavailable);
  ASSERT_TRUE(harness.Submit(3, kNoDeadline, "free").ok());  // no quota
  harness.batcher().Stop();

  EXPECT_EQ(harness.outcomes().Snapshot().count(2), 0u);
  const BatcherMetrics metrics = harness.batcher().Metrics();
  EXPECT_EQ(metrics.throttled, 1u);
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_EQ(metrics.submitted, 2u);
  EXPECT_EQ(metrics.completed, 2u);
  ASSERT_EQ(metrics.tenants.size(), 2u);
  EXPECT_EQ(metrics.tenants[1].tenant, "t");
  EXPECT_EQ(metrics.tenants[1].throttled, 1u);
  EXPECT_EQ(metrics.tenants[1].submitted, 1u);
}

TEST(Batcher, StopDrainsTheQueueThenRefusesNewWork) {
  Harness harness(OneAtATime(), /*hold_first=*/true);
  ASSERT_TRUE(harness.Submit(0).ok());
  harness.WaitHeld();
  for (int id = 1; id <= 3; ++id) ASSERT_TRUE(harness.Submit(id).ok());

  // Stop joins the (held) worker, so run it aside and probe until it has
  // closed the queue; probes accepted before that are drained like the rest.
  std::thread stopper([&] { harness.batcher().Stop(); });
  int accepted_probes = 0;
  Status probe = Status::Ok();
  for (int id = 100; probe.ok(); ++id) {
    probe = harness.Submit(id);
    if (probe.ok()) ++accepted_probes;
    // Only paces the polling; no ordering depends on it.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(probe.code(), Status::Code::kUnavailable);
  EXPECT_NE(probe.ToString().find("engine is stopped"), std::string::npos);
  harness.Release();
  stopper.join();

  const std::map<int, Status> settled = harness.outcomes().Snapshot();
  EXPECT_EQ(settled.size(), 4u + accepted_probes);
  for (const auto& [id, status] : settled) EXPECT_TRUE(status.ok()) << id;
  EXPECT_FALSE(harness.Submit(999).ok());
  const BatcherMetrics metrics = harness.batcher().Metrics();
  EXPECT_EQ(metrics.rejected, 2u);
  EXPECT_EQ(metrics.completed, metrics.submitted);
}

TEST(Batcher, ExpiredRequestsAreShedBeforeTheCallback) {
  Harness harness(OneAtATime(), /*hold_first=*/true);
  ASSERT_TRUE(harness.Submit(0).ok());
  harness.WaitHeld();
  const SteadyTime past = SteadyNow() - std::chrono::milliseconds(1);
  ASSERT_TRUE(harness.Submit(1, past).ok());
  ASSERT_TRUE(harness.Submit(2).ok());
  ASSERT_TRUE(harness.Submit(3, past, "t").ok());
  harness.Release();
  harness.batcher().Stop();

  const std::vector<std::vector<int>> expected = {{0}, {2}};
  EXPECT_EQ(harness.Batches(), expected);
  const std::map<int, Status> settled = harness.outcomes().Snapshot();
  EXPECT_EQ(settled.at(1).code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(settled.at(3).code(), Status::Code::kDeadlineExceeded);
  const BatcherMetrics metrics = harness.batcher().Metrics();
  EXPECT_EQ(metrics.expired, 2u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.batches, 4u);  // every drain counts, even all-expired
  ASSERT_EQ(metrics.tenants.size(), 1u);
  EXPECT_EQ(metrics.tenants[0].expired, 1u);
}

TEST(Batcher, CounterIdentityHoldsOverallAndPerTenantAtQuiescence) {
  BatcherOptions options = OneAtATime();
  options.max_batch = 4;
  options.max_queue = 6;
  options.quotas = {{"b", 0.0, 3.0}};
  Harness harness(options, /*hold_first=*/true);
  ASSERT_TRUE(harness.Submit(0, kNoDeadline, "a").ok());
  harness.WaitHeld();
  const SteadyTime past = SteadyNow() - std::chrono::milliseconds(1);
  const std::vector<std::string> tenants = {"a", "b", ""};
  for (int id = 1; id <= 12; ++id) {
    const SteadyTime deadline = id % 4 == 0 ? past : kNoDeadline;
    (void)harness.Submit(id, deadline, tenants[id % 3], /*fail=*/id % 5 == 0);
  }
  harness.Release();
  harness.batcher().Stop();

  const BatcherMetrics metrics = harness.batcher().Metrics();
  EXPECT_GT(metrics.expired, 0u);
  EXPECT_GT(metrics.failed, 0u);
  EXPECT_GT(metrics.rejected, 0u);
  EXPECT_GT(metrics.throttled, 0u);
  EXPECT_EQ(metrics.submitted,
            metrics.completed + metrics.expired + metrics.failed);
  uint64_t submitted = 0, rejected = 0, throttled = 0;
  for (const TenantCounters& tenant : metrics.tenants) {
    EXPECT_EQ(tenant.submitted,
              tenant.completed + tenant.expired + tenant.failed)
        << tenant.tenant;
    submitted += tenant.submitted;
    rejected += tenant.rejected;
    throttled += tenant.throttled;
  }
  EXPECT_EQ(submitted, metrics.submitted);
  EXPECT_EQ(rejected, metrics.rejected);
  EXPECT_EQ(throttled, metrics.throttled);
}

TEST(Batcher, UntenantedAndDefaultTenantShareOneRow) {
  BatcherOptions options;
  options.quotas = {{"quota'd", 1000.0, 10.0}};  // turns the ledger on
  Harness harness(options);
  ASSERT_TRUE(harness.Submit(1, kNoDeadline, "").ok());
  ASSERT_TRUE(harness.Submit(2, kNoDeadline, "default").ok());
  harness.batcher().Stop();

  const BatcherMetrics metrics = harness.batcher().Metrics();
  ASSERT_EQ(metrics.tenants.size(), 1u);
  EXPECT_EQ(metrics.tenants[0].tenant, "default");
  EXPECT_EQ(metrics.tenants[0].submitted, 2u);
  EXPECT_EQ(metrics.tenants[0].completed, 2u);
  EXPECT_EQ(metrics.tenants[0].total_micros.count, 2u);

  // The export therefore holds one series per (family, labels).
  std::vector<obs::Sample> samples;
  AppendFrontEndSamples(kRouterFrontEnd, {{"router", "R"}}, metrics,
                        &samples);
  std::map<std::pair<std::string, obs::Labels>, int> series;
  for (const obs::Sample& sample : samples) {
    EXPECT_EQ(sample.name.rfind("ember_router_", 0), 0u) << sample.name;
    const int seen = ++series[std::make_pair(sample.name, sample.labels)];
    EXPECT_EQ(seen, 1) << sample.name;
  }
  const obs::Labels tenant_labels = {{"router", "R"}, {"tenant", "default"}};
  EXPECT_EQ(series.count(std::make_pair(
                std::string("ember_router_tenant_submitted_total"),
                tenant_labels)),
            1u);
}

TEST(Batcher, SpanIdsFollowBatchNumberAndInBatchSlot) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    BatcherOptions options = OneAtATime();
    options.max_batch = 2;
    Harness harness(options, /*hold_first=*/true);
    ASSERT_TRUE(harness.Submit(0).ok());
    harness.WaitHeld();
    for (int id = 1; id <= 3; ++id) ASSERT_TRUE(harness.Submit(id).ok());
    harness.Release();
    harness.batcher().Stop();
  }
  tracer.SetEnabled(false);
  // Batches {0}, {1, 2}, {3}: root ordinal = batch number, request
  // ordinal = in-batch slot.
  std::set<uint64_t> roots, expected_roots, requests, expected_requests;
  const size_t sizes[] = {1, 2, 1};
  for (uint64_t batch_no = 0; batch_no < 3; ++batch_no) {
    const uint64_t root = obs::DeriveSpanId(0, "serve/batch", batch_no);
    expected_roots.insert(root);
    for (uint64_t slot = 0; slot < sizes[batch_no]; ++slot) {
      expected_requests.insert(obs::DeriveSpanId(root, "serve/request", slot));
    }
  }
  for (const obs::SpanRecord& span : tracer.Drain()) {
    const std::string name = span.name;
    if (name == "serve/batch") roots.insert(span.span_id);
    if (name == "serve/request") requests.insert(span.span_id);
  }
  tracer.Clear();
  EXPECT_EQ(roots, expected_roots);
  EXPECT_EQ(requests, expected_requests);
}

}  // namespace
}  // namespace ember::serve
