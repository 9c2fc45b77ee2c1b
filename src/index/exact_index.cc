#include "index/exact_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "la/matrix_io.h"
#include "la/vector_ops.h"
#include "obs/trace.h"

namespace ember::index {

namespace {

/// Data rows per scoring block: the (query tile x block) score pane is
/// 16 KB and stays L1-resident while the top-k heaps consume it.
constexpr size_t kDataBlock = 256;
/// Queries per grid cell (the GEMM's `a` panel).
constexpr size_t kQueryBlock = 16;
/// Corpus rows per grid cell. Four blocks: a 6k-row corpus splits into six
/// slabs, so even a one-tile serving batch spreads over every core, while
/// each cell still amortizes its pool dispatch over ~25 MFLOP at 768 dims.
constexpr size_t kSlabRows = 4 * kDataBlock;
/// Queries per chunk of the parallel per-query merge (and rescore).
constexpr size_t kMergeBlock = 256;

/// Bounded top-k tracker over caller-owned storage: a max-heap on the
/// CloserThan order, so slots[0] is the current worst kept neighbor.
class TopK {
 public:
  TopK() = default;
  TopK(Neighbor* slots, size_t k) : slots_(slots), k_(k) {}

  void Offer(uint32_t id, float distance) {
    const Neighbor candidate{id, distance};
    if (size_ < k_) {
      slots_[size_++] = candidate;
      std::push_heap(slots_, slots_ + size_, CloserThan);
    } else if (CloserThan(candidate, slots_[0])) {
      std::pop_heap(slots_, slots_ + size_, CloserThan);
      slots_[size_ - 1] = candidate;
      std::push_heap(slots_, slots_ + size_, CloserThan);
    }
  }

  /// Sorts the kept neighbors ascending in place; returns how many.
  size_t Sort() {
    std::sort_heap(slots_, slots_ + size_, CloserThan);
    return size_;
  }

 private:
  Neighbor* slots_ = nullptr;
  size_t k_ = 0;
  size_t size_ = 0;
};

/// Offers rows [r0, r1) of one grid cell to the cell's per-query heaps
/// (tops[q - q0] for query q in [q0, q1)).
using CellScorer =
    std::function<void(size_t q0, size_t q1, size_t r0, size_t r1, TopK* tops)>;

/// The one exact-scan driver. Splits (queries x corpus rows) into a fixed
/// grid of kQueryBlock x kSlabRows cells — a pure function of
/// (num_queries, rows), never of the thread count — and scores every cell
/// in parallel. Each cell sorts its per-query top-min(width, slab rows)
/// into its own slots of a flat [slab][query][width] buffer; a per-query
/// merge over the slabs then keeps the best `width`. CloserThan is a strict
/// total order on (distance, id) and ids are unique, so the merge returns
/// exactly the single-pass top-`width`, bit for bit. `finish(q, merged)`
/// turns a query's merged list into its answer.
std::vector<std::vector<Neighbor>> ScanGrid(
    size_t num_queries, size_t rows, size_t width, const char* cell_span,
    const obs::SpanContext& parent, const CellScorer& score,
    const std::function<std::vector<Neighbor>(size_t, std::vector<Neighbor>)>&
        finish) {
  std::vector<std::vector<Neighbor>> results(num_queries);
  if (rows == 0 || width == 0) return results;
  const size_t tiles = (num_queries + kQueryBlock - 1) / kQueryBlock;
  const size_t slabs = (rows + kSlabRows - 1) / kSlabRows;
  const auto slab_end = [&](size_t s) {
    return std::min(rows, (s + 1) * kSlabRows);
  };
  const auto slots = [&](size_t s, size_t q) {
    return (s * num_queries + q) * width;
  };
  std::vector<Neighbor> partial(slabs * num_queries * width);

  // Slab-major cell order: cells claimed together share a corpus slab.
  ParallelFor(0, tiles * slabs, 1, [&](size_t cell, size_t) {
    const size_t s = cell / tiles;
    const size_t q0 = (cell % tiles) * kQueryBlock;
    const size_t q1 = std::min(q0 + kQueryBlock, num_queries);
    obs::Span span(cell_span, parent, cell);
    span.AddCount("queries", q1 - q0);
    TopK tops[kQueryBlock];
    for (size_t q = q0; q < q1; ++q) {
      tops[q - q0] = TopK(&partial[slots(s, q)], width);
    }
    score(q0, q1, s * kSlabRows, slab_end(s), tops);
    for (size_t q = q0; q < q1; ++q) tops[q - q0].Sort();
  });

  ParallelFor(0, num_queries, kMergeBlock, [&](size_t qb, size_t qe) {
    for (size_t q = qb; q < qe; ++q) {
      std::vector<Neighbor> merged;
      merged.reserve(slabs * width);
      for (size_t s = 0; s < slabs; ++s) {
        const Neighbor* run = &partial[slots(s, q)];
        merged.insert(merged.end(), run,
                      run + std::min(width, slab_end(s) - s * kSlabRows));
      }
      const size_t keep = std::min(width, merged.size());
      std::partial_sort(merged.begin(), merged.begin() + keep, merged.end(),
                        CloserThan);
      merged.resize(keep);
      results[q] = finish(q, std::move(merged));
    }
  });
  return results;
}

/// Candidates kept from the int8 scan before float rescoring. Wide enough
/// that a code-level tie or sub-scale score swap cannot push a true top-k
/// member out of the rescore set in practice (recall@10 >= 0.99 is enforced
/// by test and experiment).
size_t RescoreWidth(size_t k, size_t rows) {
  return std::min(rows, std::max(4 * k, static_cast<size_t>(32)));
}

/// Re-scores `approx` candidates with exact float dots and keeps the best
/// k. The final order is the usual total (distance, id) order, so the
/// result is independent of the candidate order coming in.
std::vector<Neighbor> RescoreWithFloat(const la::Matrix& data,
                                       const float* query,
                                       std::vector<Neighbor> approx,
                                       size_t k) {
  for (Neighbor& n : approx) {
    n.distance = 1.f - la::Dot(query, data.Row(n.id), data.cols());
  }
  std::sort(approx.begin(), approx.end(), CloserThan);
  if (approx.size() > k) approx.resize(k);
  return approx;
}

}  // namespace

void ExactIndex::Build(la::Matrix data) {
  obs::Span span("index/exact_build");
  span.AddCount("rows", data.rows());
  data_ = std::move(data);
  quantized_ = la::QuantizedMatrix();
}

void ExactIndex::Quantize() {
  obs::Span span("index/exact_quantize");
  span.AddCount("rows", data_.rows());
  quantized_ = la::QuantizedMatrix::Quantize(data_);
}

void ExactIndex::AttachQuantized(la::QuantizedMatrix quantized) {
  EMBER_CHECK(quantized.rows() == data_.rows() &&
              quantized.cols() == data_.cols());
  quantized_ = std::move(quantized);
}

std::vector<Neighbor> ExactIndex::Query(const float* query, size_t k) const {
  // A plain one-pass scan with scalar kernels: the reference the grid
  // driver's batched answers are tested against, bit for bit.
  const size_t kept = std::min(k, data_.rows());
  if (kept == 0) return {};
  if (quantized()) {
    // Int8 scan tier: quantize the query once, keep a wide top-W by
    // approximate distance, then rescore the W candidates with float dots.
    std::vector<int8_t> codes(data_.cols());
    la::QuantParams qp;
    la::QuantizeRow(query, data_.cols(), codes.data(), &qp);
    std::vector<Neighbor> approx(RescoreWidth(kept, data_.rows()));
    TopK top(approx.data(), approx.size());
    for (size_t r = 0; r < data_.rows(); ++r) {
      const int32_t d =
          la::DotI8(codes.data(), quantized_.Row(r), data_.cols());
      top.Offer(static_cast<uint32_t>(r),
                1.f - la::ApproxDot(qp, quantized_.Params(r), d, data_.cols()));
    }
    approx.resize(top.Sort());
    return RescoreWithFloat(data_, query, std::move(approx), kept);
  }
  std::vector<Neighbor> neighbors(kept);
  TopK top(neighbors.data(), kept);
  for (size_t r = 0; r < data_.rows(); ++r) {
    top.Offer(static_cast<uint32_t>(r),
              1.f - la::Dot(query, data_.Row(r), data_.cols()));
  }
  neighbors.resize(top.Sort());
  return neighbors;
}

std::vector<std::vector<Neighbor>> ExactIndex::QueryBatch(
    const la::Matrix& queries, size_t k) const {
  if (quantized()) return QueryBatchQuantized(queries, k);
  return BruteForceTopK(data_, queries, k);
}

std::vector<std::vector<Neighbor>> ExactIndex::QueryBatchQuantized(
    const la::Matrix& queries, size_t k) const {
  EMBER_CHECK(queries.cols() == data_.cols() || data_.rows() == 0);
  obs::Span span("index/exact_query_batch_i8");
  span.AddCount("queries", queries.rows());
  span.AddCount("corpus_rows", data_.rows());
  const size_t kept = std::min(k, data_.rows());
  const size_t cols = data_.cols();

  // Quantize every query once; cells in different slabs share the codes.
  std::vector<int8_t> codes(queries.rows() * cols);
  std::vector<la::QuantParams> params(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    la::QuantizeRow(queries.Row(q), cols, codes.data() + q * cols, &params[q]);
  }
  // Cells run GemmBtI8Strided straight over the (possibly mmap'ed) code
  // rows — a quarter of the float scan's memory traffic — and expand the
  // integer scores to approximate float dots via the per-row QuantParams.
  // The merged top-`width` per query is then rescored against float rows.
  const auto score = [&](size_t q0, size_t q1, size_t r0, size_t r1,
                         TopK* tops) {
    int32_t scores[kQueryBlock * kDataBlock] = {};
    for (size_t start = r0; start < r1; start += kDataBlock) {
      const size_t n = std::min(start + kDataBlock, r1) - start;
      la::GemmBtI8Strided(codes.data() + q0 * cols, q1 - q0, cols,
                          quantized_.codes() + start * cols, n, cols, cols,
                          scores, n);
      for (size_t q = q0; q < q1; ++q) {
        const int32_t* row = scores + (q - q0) * n;
        for (size_t r = start; r < start + n; ++r) {
          tops[q - q0].Offer(
              static_cast<uint32_t>(r),
              1.f - la::ApproxDot(params[q], quantized_.Params(r),
                                  row[r - start], cols));
        }
      }
    }
  };
  return ScanGrid(queries.rows(), data_.rows(),
                  RescoreWidth(kept, data_.rows()),
                  "index/exact_score_chunk_i8", span.context(), score,
                  [&](size_t q, std::vector<Neighbor> approx) {
                    return RescoreWithFloat(data_, queries.Row(q),
                                            std::move(approx), kept);
                  });
}

std::vector<std::vector<Neighbor>> BruteForceTopK(const la::Matrix& data,
                                                  const la::Matrix& queries,
                                                  size_t k) {
  EMBER_CHECK(queries.cols() == data.cols() || data.rows() == 0);
  obs::Span span("index/exact_query_batch");
  span.AddCount("queries", queries.rows());
  span.AddCount("corpus_rows", data.rows());
  const size_t cols = data.cols();

  // Each cell scores in place: GemmBt reads the caller's query rows and
  // the corpus rows (heap or mmap'ed view) directly, one L1-sized pane per
  // data block, bit-identical to Dot() per pair.
  const auto score = [&](size_t q0, size_t q1, size_t r0, size_t r1,
                         TopK* tops) {
    float scores[kQueryBlock * kDataBlock] = {};
    for (size_t start = r0; start < r1; start += kDataBlock) {
      const size_t n = std::min(start + kDataBlock, r1) - start;
      la::GemmBtStrided(queries.Row(q0), q1 - q0, cols, data.Row(start), n,
                        cols, cols, scores, n);
      for (size_t q = q0; q < q1; ++q) {
        const float* row = scores + (q - q0) * n;
        for (size_t r = start; r < start + n; ++r) {
          tops[q - q0].Offer(static_cast<uint32_t>(r), 1.f - row[r - start]);
        }
      }
    }
  };
  return ScanGrid(queries.rows(), data.rows(), std::min(k, data.rows()),
                  "index/exact_score_chunk", span.context(), score,
                  [](size_t, std::vector<Neighbor> top) { return top; });
}

namespace {
constexpr uint32_t kExactFormatVersion = 1;
}  // namespace

void ExactIndex::Save(BinaryWriter& writer) const {
  writer.WriteU32(kExactFormatVersion);
  la::WriteMatrix(writer, data_);
}

bool ExactIndex::Load(BinaryReader& reader) {
  *this = ExactIndex();
  if (!fail::Check("index/load").ok()) {
    reader.Fail();
    return false;
  }
  if (reader.ReadU32() != kExactFormatVersion) {
    reader.Fail();
    return false;
  }
  la::Matrix data;
  if (!la::ReadMatrix(reader, data)) return false;
  data_ = std::move(data);
  return true;
}

}  // namespace ember::index
