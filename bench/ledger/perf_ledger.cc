// perf_ledger: runs one workload of the fixed-seed perf ledger and prints its
// metrics (see README.md next to this file). run.py builds this binary, runs
// each workload in its own process, and compares result files.
//
//   perf_ledger --workload er_batch|serve_embed|serve_scan|router_live
//               [--seed n] [--seconds s] [--trace 0|1] [--smoke]
//               [--out-dir dir]
//   perf_ledger --env
//
// Every metric is printed as "workload metric value unit". The last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The system is driven only through its public API.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "datagen/benchmark_datasets.h"
#include "embed/embedding_model.h"
#include "embed/model_registry.h"
#include "embed/transformer_model.h"
#include "eval/metrics.h"
#include "la/matrix.h"
#include "la/vector_ops.h"
#include "load/generator.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"

using namespace ember;

namespace {

constexpr size_t kK = 10;
/// A reply passes when every distance is within this of the oracle's.
constexpr float kTolerance = 1e-5f;
/// Deadline and latency limit of every serving request, from its due time.
constexpr int64_t kSloMicros = 100'000;
/// Queries kept in flight by the saturation phase: four full batches.
constexpr size_t kSaturationWindow = 128;
/// Stretches a measured phase is split into; its latency quantiles and
/// throughput are the median over the stretches.
constexpr size_t kWindows = 6;
/// Left rows whose top-k er_batch re-derives with la::Dot, and the queries
/// router_live probes against the final live rows.
constexpr size_t kProbes = 64;

// ---------------------------------------------------------------------------
// Workloads and metric names
// ---------------------------------------------------------------------------

/// Fixed shape of one workload; only the seed varies between runs.
struct Workload {
  const char* name;
  const char* dataset;
  double scale;
  double smoke_scale;
  /// Serving workloads: nominal open-loop arrival rate and key skew
  /// (0 = uniform keys), plus the share of upserts/deletes in the trace.
  double rate = 0;
  double zipf_s = 0;
  double upserts = 0;
  double deletes = 0;
};

constexpr Workload kWorkloads[] = {
    {"er_batch", "D5", 1.0, 0.1},
    {"serve_embed", "D2", 1.0, 0.1, 800, 1.0},
    {"serve_scan", "D5", 1.0, 0.05, 800, 0.0},
    {"router_live", "D5", 1.0, 0.05, 400, 1.0, 0.05, 0.02},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"rss_mb", "MB"},
};

// Every workload prints every per-layer metric; a layer the workload does
// not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"embed.batch_ms.p50", "ms"},
    {"embed.batch_ms.p99", "ms"},
    {"embed.ms_per_record.b1", "ms"},
    {"embed.ms_per_record.b8", "ms"},
    {"embed.ms_per_record.b32", "ms"},
    {"embed.sentences_per_s", "1/s"},
    {"embed.tokens_per_s", "1/s"},
    {"embed.share", "ratio"},
    {"la.gemm_gflops.proj", "GFLOP/s"},
    {"la.gemm_gflops.tile", "GFLOP/s"},
    {"la.gemm_mflop.proj", "MFLOP"},
    {"la.gemm_mflop.tile", "MFLOP"},
    {"la.gemm_mbytes.proj", "MB"},
    {"la.gemm_mbytes.tile", "MB"},
    {"index.batch_ms.p50", "ms"},
    {"index.batch_ms.p99", "ms"},
    {"index.query_s", "s"},
    {"index.scan_gflops", "GFLOP/s"},
    {"index.queries_per_s", "1/s"},
    {"index.blocking_recall", "ratio"},
    {"index.candidate_precision", "ratio"},
    {"index.share", "ratio"},
    {"match.s", "s"},
    {"match.pairs", "count"},
    {"match.pair_f1", "ratio"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.batch_size.mean", "count"},
    {"serve.batches", "count"},
    {"serve.reply_ms.p50", "ms"},
    {"serve.expired", "count"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"serve.retries", "count"},
    {"serve.fallbacks", "count"},
    {"router.queue_wait_ms.p99", "ms"},
    {"router.embed_ms.p50", "ms"},
    {"router.fanout_ms.p50", "ms"},
    {"router.gather_ms.p50", "ms"},
    {"router.gather_ms.p99", "ms"},
    {"router.merge_ms.p50", "ms"},
    {"router.shard_ms.p99.max", "ms"},
    {"router.shard_ms.p99.min", "ms"},
    {"router.sibling_retries", "count"},
    {"router.partial", "count"},
    {"stream.upserts", "count"},
    {"stream.deletes", "count"},
    {"stream.delta_rows", "count"},
    {"stream.tombstones", "count"},
    {"stream.mutation_ms.p50", "ms"},
    {"stream.mutation_ms.p95", "ms"},
    {"recover.quarantines", "count"},
    {"recover.catchups", "count"},
    {"recover.digest_mismatches", "count"},
    {"recover.mutation_divergence", "count"},
    {"load.lateness_ms.p99", "ms"},
    {"load.sent", "count"},
    {"load.refused", "count"},
    {"load.slo_attainment", "ratio"},
    {"load.p50_ms", "ms"},
    {"check.bitwise_match_rate", "ratio"},
    {"check.mismatches", "count"},
    {"mem.peak_rss_mb", "MB"},
};

struct Args {
  std::string workload;
  uint64_t seed = 41;
  double seconds = 12;
  bool trace = false;
  bool smoke = false;
  bool env = false;
  std::string out_dir = ".bench_build/ledger_out";
};

/// Collects one run's metrics and verdict, and prints them.
class Ledger {
 public:
  Ledger(std::string workload, bool traced)
      : workload_(std::move(workload)), traced_(traced) {}

  void Set(const std::string& name, double value) {
    if (Find(kEndToEnd, name) == nullptr && Find(kPerLayer, name) == nullptr) {
      std::fprintf(stderr, "perf_ledger: unknown metric %s\n", name.c_str());
      std::abort();
    }
    values_[name] = value;
  }

  void Attempt(uint64_t n) { attempted_ += n; }
  void Fail(uint64_t n) { failed_ += n; }

  /// A check did not pass: the run reports correct=false.
  void Problem(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "perf_ledger: %s: CHECK FAILED: %s\n",
                 workload_.c_str(), what.c_str());
  }

  bool traced() const { return traced_; }

  void Print() const {
    for (const MetricSpec& spec : kEndToEnd) PrintLine(spec);
    if (traced_) {
      for (const MetricSpec& spec : kPerLayer) PrintLine(spec);
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted_));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    auto add = [&](const MetricSpec& spec) {
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", Value(spec.name));
      json += first ? "" : ", ";
      json += "\"" + std::string(spec.name) + "\": {\"value\": " + number +
              ", \"unit\": \"" + spec.unit + "\"}";
      first = false;
    };
    if (traced_) {
      for (const MetricSpec& spec : kPerLayer) add(spec);
    } else {
      for (const MetricSpec& spec : kEndToEnd) add(spec);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  template <size_t N>
  static const MetricSpec* Find(const MetricSpec (&specs)[N],
                                const std::string& name) {
    for (const MetricSpec& spec : specs) {
      if (name == spec.name) return &spec;
    }
    return nullptr;
  }

  double Value(const char* name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  void PrintLine(const MetricSpec& spec) const {
    std::printf("%s %s %.6g %s\n", workload_.c_str(), spec.name,
                Value(spec.name), spec.unit);
  }

  std::string workload_;
  bool traced_;
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Small statistics and timing helpers
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of the samples (p in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Sum(const std::vector<double>& samples) {
  double total = 0;
  for (const double s : samples) total += s;
  return total;
}

/// Resident-set high-water mark of this process so far.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Median seconds of `fn` over repetitions lasting at least `budget_s` in
/// total (and at least `min_reps`). `untimed` runs before each repetition
/// outside the timing.
double MedianSeconds(double budget_s, const std::function<void()>& fn,
                     size_t min_reps = 3,
                     const std::function<void()>& untimed = [] {}) {
  std::vector<double> reps;
  WallTimer total;
  while (reps.size() < min_reps || total.Seconds() < budget_s) {
    untimed();
    WallTimer timer;
    fn();
    reps.push_back(timer.Seconds());
  }
  return Median(reps);
}

/// Median over `windows` consecutive equal slices of `samples` of each
/// slice's p-quantile. A slow stretch of the run (the host's other tenants)
/// moves it less than it moves the pooled quantile. Slices are kept to at
/// least 10 / (1 - p) samples, so each has ten samples beyond its quantile.
double WindowedQuantile(const std::vector<double>& samples, size_t windows,
                        double p) {
  const auto min_size = static_cast<size_t>(std::ceil(10.0 / (1.0 - p)));
  windows = std::max<size_t>(1, std::min(windows, samples.size() / min_size));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + samples.size() * w / windows,
                            samples.begin() + samples.size() * (w + 1) / windows),
        p));
  }
  return Median(per_window);
}

HistogramSnapshot Delta(const HistogramSnapshot& end,
                        const HistogramSnapshot& start) {
  HistogramSnapshot delta = end;  // max stays the end max: an upper bound
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    delta.counts[i] -= start.counts[i];
  }
  delta.count -= start.count;
  delta.sum -= start.sum;
  return delta;
}

double Ms(const HistogramSnapshot& micros, double p) {
  return micros.Percentile(p) / 1e3;
}

// ---------------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------------

enum class Verdict { kBitwise, kWithinTolerance, kWrong };

using VectorOf = std::function<const float*(uint32_t id)>;

/// A reply passes when it holds k distinct ids in CloserThan order, each
/// reported distance equals 1 - Dot(query, row) within kTolerance, and (when
/// an oracle list is given) its distance at every rank is within kTolerance
/// of the oracle's. Ids may differ from the oracle's only where distances tie
/// within the tolerance. Bitwise = identical ids and distances.
Verdict CheckReply(const std::vector<index::Neighbor>& got,
                   const std::vector<index::Neighbor>* expect,
                   const float* query, size_t dim, const VectorOf& vector_of) {
  if (got.size() != kK || (expect != nullptr && expect->size() != kK)) {
    return Verdict::kWrong;
  }
  bool bitwise = expect != nullptr;
  std::set<uint32_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    const index::Neighbor& n = got[i];
    if (!ids.insert(n.id).second) return Verdict::kWrong;
    if (i > 0 && index::CloserThan(n, got[i - 1])) return Verdict::kWrong;
    const float* row = vector_of(n.id);
    if (row == nullptr) return Verdict::kWrong;
    if (std::fabs(1.f - la::Dot(query, row, dim) - n.distance) > kTolerance) {
      return Verdict::kWrong;
    }
    if (expect != nullptr) {
      const index::Neighbor& e = (*expect)[i];
      if (std::fabs(e.distance - n.distance) > kTolerance) {
        return Verdict::kWrong;
      }
      bitwise = bitwise && e.id == n.id && e.distance == n.distance;
    }
  }
  return bitwise ? Verdict::kBitwise : Verdict::kWithinTolerance;
}

/// Exact top-k of every query row against every corpus row, each score one
/// la::Dot call. It shares no code with the index's GEMM tiles, so bitwise
/// agreement with it is the GEMM == Dot contract (and it cannot hit the
/// GemmBtStrided over-read, README.md).
std::vector<std::vector<index::Neighbor>> DotTopK(const la::Matrix& corpus,
                                                  const la::Matrix& queries) {
  std::vector<std::vector<index::Neighbor>> topk(queries.rows());
  const size_t k = std::min(kK, corpus.rows());
  ParallelFor(0, queries.rows(), 0, [&](size_t lo, size_t hi) {
    std::vector<index::Neighbor> all(corpus.rows());
    for (size_t q = lo; q < hi; ++q) {
      for (uint32_t r = 0; r < corpus.rows(); ++r) {
        all[r] = {r, 1.f - la::Dot(queries.Row(q), corpus.Row(r), corpus.cols())};
      }
      std::partial_sort(all.begin(), all.begin() + k, all.end(),
                        index::CloserThan);
      topk[q].assign(all.begin(), all.begin() + k);
    }
  });
  return topk;
}

/// Expected answers for every query record a workload can send.
struct Oracle {
  la::Matrix queries;  // row q = embedding of query record q
  std::vector<std::vector<index::Neighbor>> topk;
};

/// Embeds every query record and scans the corpus — the expected top-k,
/// computed outside set-up timing.
Oracle BuildOracle(embed::EmbeddingModel& model,
                   const std::vector<std::string>& records,
                   const la::Matrix& corpus) {
  obs::Span span("ledger/oracle");
  Oracle oracle;
  oracle.queries = model.VectorizeAll(records);
  oracle.topk = DotTopK(corpus, oracle.queries);
  return oracle;
}

/// Blocking recall / candidate precision of the exact top-k of the query
/// records, against the dataset's ground truth.
eval::PrfMetrics BlockingQuality(const Oracle& oracle,
                                 const datagen::CleanCleanDataset& data) {
  eval::GroundTruth truth;
  for (const auto& [l, r] : data.matches) truth.AddCleanCleanPair(l, r);
  std::vector<std::pair<uint32_t, uint32_t>> candidates;
  for (uint32_t q = 0; q < oracle.topk.size(); ++q) {
    for (const index::Neighbor& n : oracle.topk[q]) candidates.push_back({q, n.id});
  }
  return eval::EvaluateCleanCleanCandidates(candidates, truth);
}

void AddBlockingQuality(const Oracle& oracle,
                        const datagen::CleanCleanDataset& data,
                        Ledger& ledger) {
  const eval::PrfMetrics prf = BlockingQuality(oracle, data);
  ledger.Set("index.blocking_recall", prf.recall);
  ledger.Set("index.candidate_precision", prf.precision);
}

// ---------------------------------------------------------------------------
// Tracing and micro-measurements (traced runs only)
// ---------------------------------------------------------------------------

void StartTracing() {
  obs::Tracer::Global().SetRingCapacity(1 << 16);
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
}

/// Writes the Chrome trace and the per-stage self times of a traced run.
void FinishTracing(const Args& args) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(false);
  const std::vector<obs::SpanRecord> records = tracer.Drain();
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const Status written = obs::WriteChromeTrace(records, stem + ".trace.json");
  if (!written.ok()) {
    std::fprintf(stderr, "perf_ledger: %s\n", written.ToString().c_str());
  }
  std::FILE* out = std::fopen((stem + ".stages.tsv").c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "stage\tspans\ttotal_ms\tself_ms\n");
    for (const obs::StageBreakdownRow& row : obs::StageBreakdown(records)) {
      std::fprintf(out, "%s\t%llu\t%.3f\t%.3f\n", row.name,
                   static_cast<unsigned long long>(row.spans),
                   row.total_micros / 1e3, row.self_micros / 1e3);
    }
    std::fclose(out);
  }
  std::fprintf(stderr, "perf_ledger: %zu spans (%llu dropped) -> %s.*\n",
               records.size(),
               static_cast<unsigned long long>(tracer.DroppedCount()),
               stem.c_str());
}

/// Embedding cost per record at batch 1/8/32, and throughput on a large
/// batch, over the workload's own records.
void AddEmbedMicro(embed::EmbeddingModel& model,
                   const std::vector<std::string>& records, Ledger& ledger) {
  obs::Span span("ledger/micro_embed");
  const auto batch_of = [&](size_t n) {
    std::vector<std::string> batch;
    for (size_t i = 0; i < n; ++i) batch.push_back(records[i % records.size()]);
    return batch;
  };
  for (const size_t b : {1, 8, 32}) {
    const std::vector<std::string> batch = batch_of(b);
    const double s = MedianSeconds(0.15, [&] { model.VectorizeAll(batch); });
    ledger.Set("embed.ms_per_record.b" + std::to_string(b), s * 1e3 / b);
  }
  const std::vector<std::string> batch = batch_of(256);
  const size_t max_tokens =
      embed::TransformerConfigFor(model.info().id).max_tokens;
  double tokens = 0;
  for (const std::string& record : batch) {
    tokens += std::min(text::Tokenize(record).size(), max_tokens);
  }
  const double s = MedianSeconds(0.4, [&] { model.VectorizeAll(batch); });
  ledger.Set("embed.sentences_per_s", batch.size() / s);
  ledger.Set("embed.tokens_per_s", tokens / s);
}

/// GFLOP/s of one GemmBtStrided call shape, and the work and bytes one call
/// moves by count. A gets one spare row: GemmBtStrided reads past the last
/// row of A when m % 8 == 0 (README.md, known defects).
void AddGemm(const std::string& shape, size_t m, size_t n, size_t k,
             size_t calls, Ledger& ledger) {
  Rng rng(7);
  la::Matrix a(m + 1, k), b(n, k), c(m, n);
  a.FillGaussian(rng, 1.f);
  b.FillGaussian(rng, 1.f);
  const double s = MedianSeconds(0.1, [&] {
    for (size_t i = 0; i < calls; ++i) {
      la::GemmBtStrided(a.data(), m, k, b.data(), n, k, k, c.data(), n);
    }
  });
  const double flop = 2.0 * m * n * k;
  ledger.Set("la.gemm_gflops." + shape, flop * calls / s / 1e9);
  ledger.Set("la.gemm_mflop." + shape, flop / 1e6);
  ledger.Set("la.gemm_mbytes." + shape,
             4.0 * static_cast<double>(m * k + n * k + m * n) / 1e6);
}

/// The two GEMM shapes the workloads spend their time in: a transformer
/// projection at the records' median token count, and the exact index's
/// 16-query x 256-row scoring tile.
void AddGemmMicro(const embed::EmbeddingModel& model,
                  const std::vector<std::string>& records, Ledger& ledger) {
  obs::Span span("ledger/micro_gemm");
  const embed::TransformerEmbeddingModel::Config config =
      embed::TransformerConfigFor(model.info().id);
  std::vector<double> tokens;
  for (size_t i = 0; i < std::min<size_t>(records.size(), 512); ++i) {
    tokens.push_back(static_cast<double>(
        std::min(text::Tokenize(records[i]).size(), config.max_tokens)));
  }
  const auto m = static_cast<size_t>(Median(tokens)) + 1;  // + CLS row
  const size_t dim = config.encoder.dim;
  AddGemm("proj", m, dim, dim, 200, ledger);
  AddGemm("tile", 16, 256, model.info().dim, 20, ledger);
}

// ---------------------------------------------------------------------------
// Open-loop and closed-loop load generation
// ---------------------------------------------------------------------------

/// Unbounded FIFO handing in-flight requests from submitter to harvester.
template <typename T>
class Channel {
 public:
  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

enum class Outcome { kPending, kAnswered, kRefused, kExpired, kFailed };

/// One query the load generator sent and what came back.
struct Sent {
  uint32_t query = 0;    // query record index
  bool nominal = false;  // recorded phase (not warmup, not saturation)
  SteadyTime due{};
  double late_ms = 0;     // submitter lateness behind `due`
  double latency_ms = 0;  // due -> reply
  Outcome outcome = Outcome::kPending;
  bool partial = false;
  std::vector<index::Neighbor> neighbors;
};

template <typename Reply>
using Submit = std::function<Result<std::future<Result<Reply>>>(
    uint32_t query, SteadyTime deadline)>;

bool Partial(const serve::QueryReply&) { return false; }
bool Partial(const serve::RouterReply& reply) { return reply.partial; }

template <typename Reply>
void Settle(Sent& sent, std::future<Result<Reply>>& future) {
  Result<Reply> reply = future.get();
  sent.latency_ms = MicrosBetween(sent.due, SteadyNow()) / 1e3;
  if (reply.ok()) {
    sent.outcome = Outcome::kAnswered;
    sent.partial = Partial(reply.value());
    sent.neighbors = std::move(reply.value().neighbors);
  } else if (reply.status().code() == Status::Code::kDeadlineExceeded) {
    sent.outcome = Outcome::kExpired;
  } else {
    sent.outcome = Outcome::kFailed;
  }
}

/// Sends the query events open loop: the calling thread submits each at its
/// scheduled instant t0 + arrival with deadline due + SLO, and one harvester
/// thread waits for the replies in send order. Latency runs from the
/// scheduled instant, so a stalled submitter shows up as latency.
/// `on_nominal` runs once, just before the first recorded event is due.
template <typename Reply>
std::vector<Sent> OpenLoop(const std::vector<load::TraceEvent>& events,
                           SteadyTime t0, int64_t warm_micros,
                           const std::function<uint32_t(uint64_t)>& query_of,
                           const Submit<Reply>& submit,
                           const std::function<void()>& on_nominal) {
  std::vector<const load::TraceEvent*> queries;
  for (const load::TraceEvent& e : events) {
    if (e.op == load::TraceEvent::Op::kQuery) queries.push_back(&e);
  }
  std::vector<Sent> sent(queries.size());
  Channel<std::pair<size_t, std::future<Result<Reply>>>> inflight;
  std::thread harvester([&] {
    std::pair<size_t, std::future<Result<Reply>>> item;
    while (inflight.Pop(&item)) Settle(sent[item.first], item.second);
  });
  bool nominal = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    Sent& s = sent[i];
    s.query = query_of(queries[i]->key);
    s.nominal = queries[i]->arrival_micros >= warm_micros;
    if (s.nominal && !nominal) {
      std::this_thread::sleep_until(AfterMicros(t0, warm_micros));
      on_nominal();
      nominal = true;
    }
    s.due = AfterMicros(t0, queries[i]->arrival_micros);
    std::this_thread::sleep_until(s.due);
    s.late_ms = MicrosBetween(s.due, SteadyNow()) / 1e3;
    obs::Span span("ledger/submit");
    auto submitted = submit(s.query, AfterMicros(s.due, kSloMicros));
    if (!submitted.ok()) {
      s.outcome = Outcome::kRefused;
      continue;
    }
    inflight.Push({i, std::move(submitted).value()});
  }
  inflight.Close();
  harvester.join();
  return sent;
}

/// Keeps kSaturationWindow queries in flight for `seconds` (no deadline) and
/// returns the replies completed per second: the throughput the front end
/// sustains when it is never idle. The rate is the median over kWindows runs
/// of equally many consecutive replies.
template <typename Reply>
double ClosedLoop(double seconds, const std::function<uint32_t()>& next_query,
                  const Submit<Reply>& submit, std::vector<Sent>* sent) {
  std::deque<std::pair<size_t, std::future<Result<Reply>>>> inflight;
  const SteadyTime start = SteadyNow();
  const SteadyTime end = AfterMicros(start, static_cast<int64_t>(seconds * 1e6));
  std::vector<SteadyTime> done{start};
  SteadyTime now = start;
  while ((now = SteadyNow()) < end) {
    if (inflight.size() < kSaturationWindow) {
      Sent s;
      s.query = next_query();
      s.due = now;
      auto submitted = submit(s.query, kNoDeadline);
      sent->push_back(std::move(s));
      if (!submitted.ok()) {
        sent->back().outcome = Outcome::kRefused;
        continue;
      }
      inflight.emplace_back(sent->size() - 1, std::move(submitted).value());
      continue;
    }
    Settle((*sent)[inflight.front().first], inflight.front().second);
    inflight.pop_front();
    done.push_back(SteadyNow());
  }
  for (auto& [slot, future] : inflight) Settle((*sent)[slot], future);
  const size_t per_window = std::max<size_t>(1, (done.size() - 1) / kWindows);
  std::vector<double> rates;
  for (size_t i = 0; i + per_window < done.size(); i += per_window) {
    rates.push_back(per_window * 1e6 / MicrosBetween(done[i], done[i + per_window]));
  }
  return Median(rates);
}

load::Trace MakeTrace(const Args& args, const Workload& w, uint64_t key_space,
                      double warm_s, double nominal_s) {
  load::GeneratorOptions options;
  options.seed = args.seed;
  load::TenantSpec tenant;
  tenant.name = "ledger";
  tenant.corpus_rows = key_space;
  tenant.zipf_s = w.zipf_s;
  tenant.upsert_fraction = w.upserts;
  tenant.delete_fraction = w.deletes;
  tenant.deadline_micros = kSloMicros;
  options.tenants = {tenant};
  load::PhaseSpec phase;
  phase.rate_per_sec = w.rate;
  phase.duration_micros = static_cast<int64_t>(warm_s * 1e6);
  options.phases.push_back(phase);
  phase.duration_micros = static_cast<int64_t>(nominal_s * 1e6);
  options.phases.push_back(phase);
  return load::GenerateTrace(options);
}

/// Phase lengths of a serving run that measures for `seconds`: warmup (not
/// recorded), the nominal open-loop phase, then the saturation phase.
struct Phases {
  double warm_s, nominal_s, saturation_s;
  explicit Phases(double seconds)
      : warm_s(seconds * 0.1),
        nominal_s(seconds * 0.6),
        saturation_s(seconds * 0.3) {}
};

/// Checks every answered query, counts outcomes, and sets the load-side
/// metrics. `expect(q)` is the static oracle list of query q, or null where
/// the corpus changed during the run. Returns the number of wrong replies.
uint64_t SummarizeLoad(
    const std::vector<Sent>& open, const std::vector<Sent>& saturation,
    double throughput, const Oracle& oracle, const VectorOf& vector_of,
    const std::function<const std::vector<index::Neighbor>*(uint32_t)>& expect,
    Ledger& ledger) {
  uint64_t attempted = 0, failed = 0, wrong = 0, bitwise = 0, compared = 0;
  uint64_t nominal_sent = 0, nominal_refused = 0, within_slo = 0;
  std::vector<double> latency, lateness;
  const auto settle = [&](const Sent& s) {
    ++attempted;
    bool ok = s.outcome == Outcome::kAnswered && !s.partial;
    if (ok) {
      const std::vector<index::Neighbor>* e = expect(s.query);
      const Verdict v = CheckReply(s.neighbors, e, oracle.queries.Row(s.query),
                                   oracle.queries.cols(), vector_of);
      compared += e != nullptr ? 1 : 0;
      bitwise += v == Verdict::kBitwise ? 1 : 0;
      if (v == Verdict::kWrong) {
        ++wrong;
        ok = false;
      }
    }
    failed += ok ? 0 : 1;
    if (!s.nominal) return;
    ++nominal_sent;
    nominal_refused += s.outcome == Outcome::kRefused ? 1 : 0;
    lateness.push_back(s.late_ms);
    if (ok) {
      latency.push_back(s.latency_ms);
      within_slo += s.latency_ms <= kSloMicros / 1e3 ? 1 : 0;
    }
  };
  for (const Sent& s : open) settle(s);
  for (const Sent& s : saturation) settle(s);
  ledger.Attempt(attempted);
  ledger.Fail(failed);
  if (wrong > 0) ledger.Problem(std::to_string(wrong) + " wrong replies");
  if (latency.empty()) ledger.Problem("no query answered in the nominal phase");

  const double p50 = WindowedQuantile(latency, kWindows, 0.5);
  ledger.Set("p50_ms", p50);
  ledger.Set("p99_ms", WindowedQuantile(latency, kWindows, 0.99));
  ledger.Set("throughput_per_s", throughput);
  ledger.Set("load.p50_ms", p50);
  ledger.Set("load.lateness_ms.p99", Quantile(lateness, 0.99));
  ledger.Set("load.sent", static_cast<double>(nominal_sent));
  ledger.Set("load.refused", static_cast<double>(nominal_refused));
  ledger.Set("load.slo_attainment",
             nominal_sent == 0 ? 0.0
                               : static_cast<double>(within_slo) / nominal_sent);
  ledger.Set("check.mismatches", static_cast<double>(wrong));
  if (compared > 0) {
    ledger.Set("check.bitwise_match_rate",
               static_cast<double>(bitwise) / compared);
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Serving-layer metrics from public EngineMetrics / RouterMetrics snapshots
// ---------------------------------------------------------------------------

/// Sum of per-engine metric deltas over one phase.
struct EngineDelta {
  uint64_t batches = 0, expired = 0, rejected = 0, failed = 0, retries = 0,
           fallbacks = 0;
  HistogramSnapshot queue, embed, query, mutate, postprocess, batch_size;
  double scan_flops = 0;  // 2 * requests * rows * dim over the engines

  /// `rows` x `dim` is the corpus the engine scans for each request.
  void Add(const serve::EngineMetrics& start, const serve::EngineMetrics& end,
           size_t rows, size_t dim) {
    scan_flops += 2.0 * (end.batch_size.sum - start.batch_size.sum) *
                  static_cast<double>(rows * dim);
    batches += end.batches - start.batches;
    expired += end.expired - start.expired;
    rejected += end.rejected - start.rejected;
    failed += end.failed - start.failed;
    retries += end.retries - start.retries;
    fallbacks += end.fallbacks - start.fallbacks;
    queue.Add(Delta(end.queue_micros, start.queue_micros));
    embed.Add(Delta(end.embed_micros, start.embed_micros));
    query.Add(Delta(end.query_micros, start.query_micros));
    mutate.Add(Delta(end.mutate_micros, start.mutate_micros));
    postprocess.Add(Delta(end.postprocess_micros, start.postprocess_micros));
    batch_size.Add(Delta(end.batch_size, start.batch_size));
  }

  void Report(Ledger& ledger) const {
    ledger.Set("serve.queue_wait_ms.p50", Ms(queue, 0.5));
    ledger.Set("serve.queue_wait_ms.p99", Ms(queue, 0.99));
    ledger.Set("serve.batch_size.mean", batch_size.Mean());
    ledger.Set("serve.batches", static_cast<double>(batches));
    ledger.Set("serve.reply_ms.p50", Ms(postprocess, 0.5));
    ledger.Set("serve.expired", static_cast<double>(expired));
    ledger.Set("serve.rejected", static_cast<double>(rejected));
    ledger.Set("serve.failed", static_cast<double>(failed));
    ledger.Set("serve.retries", static_cast<double>(retries));
    ledger.Set("serve.fallbacks", static_cast<double>(fallbacks));
    ledger.Set("index.batch_ms.p50", Ms(query, 0.5));
    ledger.Set("index.batch_ms.p99", Ms(query, 0.99));
    const double query_s = query.sum / 1e6;
    ledger.Set("index.query_s", query_s);
    if (query_s > 0) {
      ledger.Set("index.scan_gflops", scan_flops / query_s / 1e9);
      ledger.Set("index.queries_per_s", batch_size.sum / query_s);
    }
  }
};

std::vector<serve::EngineMetrics> ReplicaMetrics(const serve::Router& router) {
  std::vector<serve::EngineMetrics> out;
  for (uint32_t s = 0; s < router.shard_count(); ++s) {
    for (const auto& engine : router.replicas(s)) out.push_back(engine->Metrics());
  }
  return out;
}

std::shared_ptr<embed::EmbeddingModel> NewModel() {
  std::shared_ptr<embed::EmbeddingModel> model =
      embed::CreateModel(embed::ModelId::kSGtrT5);
  model->Initialize();
  return model;
}

/// Sets setup_s to the median time of `build` over at least three
/// repetitions and one second (one repetition under --smoke); `reset` frees
/// the previous build untimed. Sets rss_mb to the peak memory after the first
/// build, before the oracle and the load generator add the benchmark's own:
/// later builds add only what the allocator kept from earlier ones, which
/// varies from run to run.
void MeasureSetup(const Args& args, const std::function<void()>& build,
                  const std::function<void()>& reset, Ledger& ledger) {
  bool first = true;
  const auto timed = [&] {
    build();
    if (first) ledger.Set("rss_mb", PeakRssMb());
    first = false;
  };
  ledger.Set("setup_s", MedianSeconds(args.smoke ? 0.0 : 1.0, timed,
                                      args.smoke ? 1 : 3, reset));
}

// ---------------------------------------------------------------------------
// er_batch: the paper's offline pipeline, repeated for the run's duration
// ---------------------------------------------------------------------------

bool RunErBatch(const Args& args, const datagen::CleanCleanDataset& data,
                Ledger& ledger) {
  const std::vector<std::string> left = data.left.AllSentences();
  const std::vector<std::string> right = data.right.AllSentences();
  eval::GroundTruth truth;
  for (const auto& [l, r] : data.matches) truth.AddCleanCleanPair(l, r);

  std::shared_ptr<embed::EmbeddingModel> model;
  MeasureSetup(
      args, [&] { model = NewModel(); }, [&] { model.reset(); }, ledger);

  if (ledger.traced()) StartTracing();
  const core::PipelineOptions options;  // exact top-10 blocking, UMC at 0.5
  const core::ErPipeline pipeline(options);
  std::vector<double> job_s, vectorize_ms, vectorize_s, block_s, match_s;
  std::vector<core::PipelineMatch> first;
  la::Matrix lv, rv;
  uint64_t diverged = 0, bitwise = 0;
  WallTimer run;
  while (job_s.size() < 3 || run.Seconds() + job_s.back() <= args.seconds) {
    obs::Span job_span("ledger/er_job");
    WallTimer job;
    for (auto [side, matrix] : {std::pair{&left, &lv}, std::pair{&right, &rv}}) {
      WallTimer call;
      *matrix = model->VectorizeAll(*side);
      vectorize_ms.push_back(call.Seconds() * 1e3);
    }
    vectorize_s.push_back(job.Seconds());
    core::PipelineResult result = pipeline.RunOnVectors(lv, rv);
    job_s.push_back(job.Seconds());
    block_s.push_back(result.blocking_seconds);
    match_s.push_back(result.matching_seconds);
    if (first.empty()) first = result.matches;
    // Set-up is the model alone; the pipeline's memory is the first job's.
    if (job_s.size() == 1) ledger.Set("rss_mb", PeakRssMb());
    const auto same_pair = [](const core::PipelineMatch& a,
                              const core::PipelineMatch& b) {
      return a.left == b.left && a.right == b.right;
    };
    const auto same_bits = [&](const core::PipelineMatch& a,
                               const core::PipelineMatch& b) {
      return same_pair(a, b) && a.sim == b.sim;
    };
    if (!std::equal(first.begin(), first.end(), result.matches.begin(),
                    result.matches.end(), same_pair)) {
      ++diverged;
    } else if (std::equal(first.begin(), first.end(), result.matches.begin(),
                          result.matches.end(), same_bits)) {
      ++bitwise;
    }
  }
  if (ledger.traced()) {
    AddEmbedMicro(*model, left, ledger);
    AddGemmMicro(*model, left, ledger);
    FinishTracing(args);
  }

  // Checks, outside the timed jobs: every job matched the same pairs, and
  // each match is one-to-one, reports sim = (1 + cos) / 2 >= delta, and its
  // right entity is in the left entity's exact top-k (la::Dot oracle).
  const Oracle oracle{lv, DotTopK(rv, lv)};
  const size_t dim = lv.cols();
  uint64_t wrong = 0;
  std::set<uint32_t> lefts, rights;
  for (const core::PipelineMatch& m : first) {
    const float cos = la::Dot(lv.Row(m.left), rv.Row(m.right), dim);
    const bool ok = lefts.insert(m.left).second &&
                    rights.insert(m.right).second &&
                    std::fabs(0.5f * (1.f + cos) - m.sim) <= kTolerance &&
                    m.sim >= options.delta - kTolerance &&
                    1.f - cos <= oracle.topk[m.left].back().distance + kTolerance;
    wrong += ok ? 0 : 1;
  }
  ledger.Attempt(job_s.size());
  ledger.Fail(wrong > 0 ? job_s.size() : diverged);
  if (diverged > 0) ledger.Problem(std::to_string(diverged) + " jobs diverged");
  if (wrong > 0) ledger.Problem(std::to_string(wrong) + " matches wrong");
  std::vector<std::pair<uint32_t, uint32_t>> predicted;
  for (const core::PipelineMatch& m : first) predicted.push_back({m.left, m.right});
  const double f1 = eval::EvaluateCleanCleanMatches(predicted, truth).f1;
  const eval::PrfMetrics blocking = BlockingQuality(oracle, data);
  // Floors well below the values every seed gives (README.md).
  if (f1 < 0.5) ledger.Problem("pair F1 " + std::to_string(f1) + " < 0.5");
  if (blocking.recall < 0.95) {
    ledger.Problem("blocking recall " + std::to_string(blocking.recall));
  }

  const double entities = static_cast<double>(left.size() + right.size());
  const double block = Median(block_s);
  ledger.Set("p50_ms", Median(job_s) * 1e3);
  ledger.Set("p99_ms", Quantile(job_s, 0.99) * 1e3);
  ledger.Set("throughput_per_s", entities / Median(job_s));
  ledger.Set("load.p50_ms", Median(job_s) * 1e3);
  ledger.Set("embed.batch_ms.p50", Median(vectorize_ms));
  ledger.Set("embed.batch_ms.p99", Quantile(vectorize_ms, 0.99));
  ledger.Set("embed.share", Sum(vectorize_s) / Sum(job_s));
  ledger.Set("index.batch_ms.p50", block * 1e3);
  ledger.Set("index.batch_ms.p99", Quantile(block_s, 0.99) * 1e3);
  ledger.Set("index.share", Sum(block_s) / Sum(job_s));
  ledger.Set("index.query_s", block);
  ledger.Set("index.scan_gflops", 2.0 * lv.rows() * rv.rows() * dim / block / 1e9);
  ledger.Set("index.queries_per_s", lv.rows() / block);
  ledger.Set("index.blocking_recall", blocking.recall);
  ledger.Set("index.candidate_precision", blocking.precision);
  ledger.Set("match.s", Median(match_s));
  ledger.Set("match.pairs", static_cast<double>(first.size()));
  ledger.Set("match.pair_f1", f1);
  ledger.Set("check.mismatches", static_cast<double>(wrong + diverged));
  ledger.Set("check.bitwise_match_rate",
             static_cast<double>(bitwise) / job_s.size());
  return true;
}

// ---------------------------------------------------------------------------
// serve_embed / serve_scan: one frozen Engine
// ---------------------------------------------------------------------------

bool RunEngine(const Args& args, const Workload& w,
               const datagen::CleanCleanDataset& data, Ledger& ledger) {
  const std::vector<std::string> queries = data.left.AllSentences();
  const std::vector<std::string> corpus = data.right.AllSentences();

  std::shared_ptr<embed::EmbeddingModel> model;
  std::unique_ptr<serve::Engine> engine;
  Status status;
  const auto build = [&] {
    model = NewModel();
    serve::SnapshotManifest manifest;
    manifest.model_code = model->info().code;
    manifest.default_k = kK;
    manifest.dataset = w.dataset;
    serve::Snapshot snapshot =
        serve::Snapshot::Build(manifest, model->VectorizeAll(corpus));
    serve::EngineOptions options;
    options.k = kK;
    auto created = serve::Engine::Create(std::move(snapshot), model, options);
    if (!created.ok()) {
      status = created.status();
      return;
    }
    engine = std::move(created).value();
  };
  MeasureSetup(
      args, build,
      [&] {
        engine.reset();
        model.reset();
      },
      ledger);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }

  const std::shared_ptr<const serve::Snapshot> snapshot = engine->snapshot();
  const la::Matrix& rows = snapshot->data();
  const Oracle oracle = BuildOracle(*model, queries, rows);
  const Phases phases(args.seconds);
  const load::Trace trace =
      MakeTrace(args, w, queries.size(), phases.warm_s, phases.nominal_s);

  if (ledger.traced()) StartTracing();
  const Submit<serve::QueryReply> submit = [&](uint32_t q, SteadyTime deadline) {
    return engine->Submit(queries[q], deadline);
  };
  serve::EngineMetrics start, end;
  const SteadyTime t0 = AfterMicros(SteadyNow(), 20'000);
  const std::vector<Sent> open = OpenLoop<serve::QueryReply>(
      trace.events, t0, static_cast<int64_t>(phases.warm_s * 1e6),
      [](uint64_t key) { return static_cast<uint32_t>(key); }, submit,
      [&] { start = engine->Metrics(); });
  end = engine->Metrics();

  std::vector<Sent> saturation;
  size_t next = 0;
  const double throughput = ClosedLoop<serve::QueryReply>(
      phases.saturation_s,
      [&] { return open[next++ % open.size()].query; }, submit, &saturation);
  if (ledger.traced()) {
    AddEmbedMicro(*model, queries, ledger);
    AddGemmMicro(*model, queries, ledger);
    FinishTracing(args);
  }

  const VectorOf corpus_row = [&](uint32_t id) -> const float* {
    return id < rows.rows() ? rows.Row(id) : nullptr;
  };
  SummarizeLoad(open, saturation, throughput, oracle, corpus_row,
                [&](uint32_t q) { return &oracle.topk[q]; }, ledger);
  EngineDelta delta;
  delta.Add(start, end, rows.rows(), rows.cols());
  delta.Report(ledger);
  const double busy = delta.embed.sum + delta.query.sum + delta.mutate.sum +
                      delta.postprocess.sum;
  ledger.Set("embed.batch_ms.p50", Ms(delta.embed, 0.5));
  ledger.Set("embed.batch_ms.p99", Ms(delta.embed, 0.99));
  ledger.Set("embed.share", busy > 0 ? delta.embed.sum / busy : 0.0);
  ledger.Set("index.share", busy > 0 ? delta.query.sum / busy : 0.0);
  AddBlockingQuality(oracle, data, ledger);
  engine->Stop();
  return true;
}

// ---------------------------------------------------------------------------
// router_live: 2 shards x 2 live replicas behind a Router, reads + writes
// ---------------------------------------------------------------------------

constexpr uint32_t kShards = 2;
constexpr size_t kReplicas = 2;

bool RunRouterLive(const Args& args, const Workload& w,
                   const datagen::CleanCleanDataset& data, Ledger& ledger) {
  const std::vector<std::string> queries = data.left.AllSentences();
  const std::vector<std::string> corpus_records = data.right.AllSentences();

  std::shared_ptr<embed::EmbeddingModel> model;
  std::unique_ptr<serve::Router> router;
  la::Matrix corpus;
  Status status;
  const auto build = [&] {
    model = NewModel();
    corpus = model->VectorizeAll(corpus_records);
    serve::SnapshotManifest manifest;
    manifest.model_code = model->info().code;
    manifest.default_k = kK;
    manifest.dataset = w.dataset;
    auto shards = serve::BuildShardSnapshots(manifest, corpus, kShards);
    if (!shards.ok()) {
      status = shards.status();
      return;
    }
    serve::EngineOptions engine_options;
    engine_options.k = kK;
    engine_options.live = true;
    std::vector<std::unique_ptr<serve::Engine>> engines;
    for (size_t r = 0; r < kReplicas; ++r) {
      for (const serve::Snapshot& shard : shards.value()) {
        auto engine = serve::Engine::Create(shard, model, engine_options);
        if (!engine.ok()) {
          status = engine.status();
          return;
        }
        engines.push_back(std::move(engine).value());
      }
    }
    serve::RouterOptions router_options;
    router_options.k = kK;
    router_options.recovery_dir = args.out_dir;
    auto created =
        serve::Router::Create(std::move(engines), model, router_options);
    if (!created.ok()) {
      status = created.status();
      return;
    }
    router = std::move(created).value();
  };
  MeasureSetup(
      args, build,
      [&] {
        router.reset();
        model.reset();
      },
      ledger);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }

  // Upserts insert query records (trace key -> record key % |queries|), so
  // the oracle's query vectors double as the upserted rows' vectors.
  const Oracle oracle = BuildOracle(*model, queries, corpus);
  const Phases phases(args.seconds);
  const load::Trace trace =
      MakeTrace(args, w, corpus.rows(), phases.warm_s, phases.nominal_s);
  const auto query_of = [&](uint64_t key) {
    return static_cast<uint32_t>(key % queries.size());
  };

  // Mutations are synchronous calls, so one mutator thread sends them in a
  // closed loop at their scheduled times beside the open-loop queries.
  struct Mutation {
    const load::TraceEvent* event;
    double ms = 0;
    bool ok = false;
    uint64_t id = 0;  // the upserted or deleted global id
  };
  std::vector<Mutation> mutations;
  for (const load::TraceEvent& e : trace.events) {
    if (e.op == load::TraceEvent::Op::kUpsert ||
        e.op == load::TraceEvent::Op::kDelete) {
      mutations.push_back({&e});
    }
  }
  if (ledger.traced()) StartTracing();
  const SteadyTime t0 = AfterMicros(SteadyNow(), 20'000);
  std::thread mutator([&] {
    std::unordered_map<uint64_t, uint64_t> upserted;  // trace key -> id
    for (Mutation& m : mutations) {
      std::this_thread::sleep_until(AfterMicros(t0, m.event->arrival_micros));
      WallTimer timer;
      if (m.event->op == load::TraceEvent::Op::kUpsert) {
        obs::Span span("ledger/upsert");
        const Result<uint64_t> id = router->Upsert(queries[query_of(m.event->key)]);
        m.ok = id.ok();
        if (m.ok) upserted[m.event->key] = m.id = id.value();
      } else {
        const uint64_t key = m.event->key;
        const auto it = upserted.find(key);
        if (key < corpus.rows() || it != upserted.end()) {
          m.id = key < corpus.rows() ? key : it->second;
          obs::Span span("ledger/delete");
          m.ok = router->Delete(m.id).ok();
        }
      }
      m.ms = timer.Seconds() * 1e3;
    }
  });
  const Submit<serve::RouterReply> submit = [&](uint32_t q, SteadyTime deadline) {
    return router->Submit(queries[q], deadline);
  };
  serve::RouterMetrics start, end;
  std::vector<serve::EngineMetrics> replica_start, replica_end;
  const std::vector<Sent> open = OpenLoop<serve::RouterReply>(
      trace.events, t0, static_cast<int64_t>(phases.warm_s * 1e6), query_of,
      submit, [&] {
        start = router->Metrics();
        replica_start = ReplicaMetrics(*router);
      });
  mutator.join();
  end = router->Metrics();
  replica_end = ReplicaMetrics(*router);

  std::vector<Sent> saturation;
  size_t next = 0;
  const double throughput = ClosedLoop<serve::RouterReply>(
      phases.saturation_s,
      [&] { return open[next++ % open.size()].query; }, submit, &saturation);
  if (ledger.traced()) {
    AddEmbedMicro(*model, queries, ledger);
    AddGemmMicro(*model, queries, ledger);
    FinishTracing(args);
  }

  // Rows by global id: base rows keep their corpus index; upserted rows map
  // to the query record they copied.
  std::unordered_map<uint64_t, uint32_t> upsert_query;
  std::set<uint64_t> deleted;
  std::vector<double> mutation_ms;
  uint64_t mutation_failures = 0;
  for (const Mutation& m : mutations) {
    mutation_ms.push_back(m.ms);
    mutation_failures += m.ok ? 0 : 1;
    if (!m.ok) continue;
    if (m.event->op == load::TraceEvent::Op::kUpsert) {
      upsert_query[m.id] = query_of(m.event->key);
    } else {
      deleted.insert(m.id);
    }
  }
  const VectorOf row_of = [&](uint32_t id) -> const float* {
    if (id < corpus.rows()) return corpus.Row(id);
    const auto it = upsert_query.find(id);
    return it == upsert_query.end() ? nullptr : oracle.queries.Row(it->second);
  };
  // The corpus changed under the open-loop queries, so their replies are
  // checked for self-consistency only; the probes below are exact.
  const uint64_t load_wrong =
      SummarizeLoad(open, saturation, throughput, oracle, row_of,
                    [](uint32_t) { return nullptr; }, ledger);
  ledger.Attempt(mutations.size());
  ledger.Fail(mutation_failures);

  // After the drain: the fleet converges, no replica diverged, and probe
  // queries match an exact scan of the final live rows.
  const SteadyTime give_up = AfterMicros(SteadyNow(), 10'000'000);
  while (!router->Converged() && SteadyNow() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!router->Converged()) ledger.Problem("fleet did not converge");
  const serve::RouterMetrics final_metrics = router->Metrics();
  if (final_metrics.mutation_divergence != 0) {
    ledger.Problem("mutation_divergence = " +
                   std::to_string(final_metrics.mutation_divergence));
  }
  std::vector<uint64_t> live_ids;
  for (uint64_t id = 0; id < corpus.rows(); ++id) {
    if (deleted.count(id) == 0) live_ids.push_back(id);
  }
  for (const auto& [id, q] : upsert_query) {
    if (deleted.count(id) == 0) live_ids.push_back(id);
  }
  std::sort(live_ids.begin(), live_ids.end());
  la::Matrix live(live_ids.size(), corpus.cols());
  for (size_t i = 0; i < live_ids.size(); ++i) {
    const float* src = row_of(static_cast<uint32_t>(live_ids[i]));
    std::copy(src, src + corpus.cols(), live.Row(i));
  }
  const size_t probes = std::min<size_t>(kProbes, queries.size());
  la::Matrix probe_vectors(probes, corpus.cols());
  for (size_t q = 0; q < probes; ++q) {
    std::copy(oracle.queries.Row(q), oracle.queries.Row(q) + corpus.cols(),
              probe_vectors.Row(q));
  }
  // Ascending live ids keep the oracle's id tie-break in global-id order.
  std::vector<std::vector<index::Neighbor>> expect = DotTopK(live, probe_vectors);
  uint64_t wrong = 0, bitwise = 0;
  for (size_t q = 0; q < probes; ++q) {
    for (index::Neighbor& n : expect[q]) n.id = static_cast<uint32_t>(live_ids[n.id]);
    auto reply = router->Submit(queries[q]);
    Verdict v = Verdict::kWrong;
    if (reply.ok()) {
      Result<serve::RouterReply> got = std::move(reply).value().get();
      if (got.ok() && !got.value().partial) {
        v = CheckReply(got.value().neighbors, &expect[q],
                       oracle.queries.Row(q), corpus.cols(), row_of);
      }
    }
    wrong += v == Verdict::kWrong ? 1 : 0;
    bitwise += v == Verdict::kBitwise ? 1 : 0;
  }
  ledger.Attempt(probes);
  ledger.Fail(wrong);
  if (wrong > 0) ledger.Problem(std::to_string(wrong) + " live probes wrong");
  ledger.Set("check.bitwise_match_rate", static_cast<double>(bitwise) / probes);
  ledger.Set("check.mismatches", static_cast<double>(load_wrong + wrong));

  // Per-layer numbers of the nominal phase.
  EngineDelta engines;
  size_t replica = 0;  // ReplicaMetrics order: shard-major
  for (uint32_t s = 0; s < router->shard_count(); ++s) {
    for (const auto& engine : router->replicas(s)) {
      engines.Add(replica_start[replica], replica_end[replica],
                  engine->snapshot()->size(), corpus.cols());
      ++replica;
    }
  }
  engines.Report(ledger);
  const HistogramSnapshot router_embed = Delta(end.embed_micros, start.embed_micros);
  const HistogramSnapshot fanout = Delta(end.fanout_micros, start.fanout_micros);
  const HistogramSnapshot gather = Delta(end.gather_micros, start.gather_micros);
  const HistogramSnapshot merge = Delta(end.merge_micros, start.merge_micros);
  const double busy = router_embed.sum + fanout.sum + merge.sum +
                      engines.query.sum + engines.mutate.sum +
                      engines.postprocess.sum;
  ledger.Set("embed.batch_ms.p50", Ms(router_embed, 0.5));
  ledger.Set("embed.batch_ms.p99", Ms(router_embed, 0.99));
  ledger.Set("embed.share", busy > 0 ? router_embed.sum / busy : 0.0);
  ledger.Set("index.share", busy > 0 ? engines.query.sum / busy : 0.0);
  ledger.Set("router.queue_wait_ms.p99",
             Ms(Delta(end.queue_micros, start.queue_micros), 0.99));
  ledger.Set("router.embed_ms.p50", Ms(router_embed, 0.5));
  ledger.Set("router.fanout_ms.p50", Ms(fanout, 0.5));
  ledger.Set("router.gather_ms.p50", Ms(gather, 0.5));
  ledger.Set("router.gather_ms.p99", Ms(gather, 0.99));
  ledger.Set("router.merge_ms.p50", Ms(merge, 0.5));
  std::vector<double> shard_p99;
  for (size_t s = 0; s < end.shard_micros.size(); ++s) {
    for (size_t r = 0; r < end.shard_micros[s].size(); ++r) {
      shard_p99.push_back(
          Ms(Delta(end.shard_micros[s][r], start.shard_micros[s][r]), 0.99));
    }
  }
  ledger.Set("router.shard_ms.p99.max",
             *std::max_element(shard_p99.begin(), shard_p99.end()));
  ledger.Set("router.shard_ms.p99.min",
             *std::min_element(shard_p99.begin(), shard_p99.end()));
  ledger.Set("router.sibling_retries",
             static_cast<double>(end.sibling_retries - start.sibling_retries));
  ledger.Set("router.partial", static_cast<double>(end.partial - start.partial));
  ledger.Set("stream.upserts", static_cast<double>(end.upserts - start.upserts));
  ledger.Set("stream.deletes", static_cast<double>(end.deletes - start.deletes));
  double delta_rows = 0, tombstones = 0;
  for (uint32_t s = 0; s < router->shard_count(); ++s) {
    const stream::LiveStats stats = router->replicas(s).front()->LiveStats();
    delta_rows += static_cast<double>(stats.delta_rows);
    tombstones += static_cast<double>(stats.tombstones);
  }
  ledger.Set("stream.delta_rows", delta_rows);
  ledger.Set("stream.tombstones", tombstones);
  ledger.Set("stream.mutation_ms.p50", Quantile(mutation_ms, 0.5));
  ledger.Set("stream.mutation_ms.p95", Quantile(mutation_ms, 0.95));
  ledger.Set("recover.quarantines",
             static_cast<double>(final_metrics.quarantines));
  ledger.Set("recover.catchups", static_cast<double>(final_metrics.catchups));
  ledger.Set("recover.digest_mismatches",
             static_cast<double>(final_metrics.digest_mismatches));
  ledger.Set("recover.mutation_divergence",
             static_cast<double>(final_metrics.mutation_divergence));
  AddBlockingQuality(oracle, data, ledger);
  router->Stop();
  return true;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--env") {
      args->env = true;
    } else if (i + 1 < argc) {
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::strtoull(value.c_str(), nullptr, 10);
      } else if (flag == "--seconds") {
        args->seconds = std::atof(value.c_str());
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        args->trace = value == "1";
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return args->env || (!args->workload.empty() && args->seconds > 0);
}

void PrintEnv() {
  std::printf(
      "{\"compiler\": \"g++ %s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
      "\"ember_simd\": \"%s\", \"pool_threads\": %d, \"nproc\": %u}\n",
      __VERSION__, PERF_LEDGER_BUILD_TYPE, PERF_LEDGER_FLAGS, PERF_LEDGER_SIMD,
      ConfiguredThreads(), std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload er_batch|serve_embed|serve_scan|"
                 "router_live [--seed n] [--seconds s] [--trace 0|1] "
                 "[--smoke] [--out-dir dir]\n       %s --env\n",
                 argv[0], argv[0]);
    return 2;
  }
  // Pool threads = every core, whatever EMBER_THREADS says.
  SetThreads(static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  if (args.env) {
    PrintEnv();
    return 0;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  const auto spec = datagen::CleanCleanSpecById(workload->dataset);
  if (!spec.ok()) return 1;
  const datagen::CleanCleanDataset data = datagen::GenerateCleanClean(
      spec.value(), args.smoke ? workload->smoke_scale : workload->scale,
      args.seed);
  Ledger ledger(workload->name, args.trace);
  bool ran = false;
  if (args.workload == "er_batch") {
    ran = RunErBatch(args, data, ledger);
  } else if (args.workload == "router_live") {
    ran = RunRouterLive(args, *workload, data, ledger);
  } else {
    ran = RunEngine(args, *workload, data, ledger);
  }
  if (!ran) return 1;
  ledger.Set("mem.peak_rss_mb", PeakRssMb());
  ledger.Print();
  return 0;
}
