#ifndef EMBER_INDEX_EXACT_INDEX_H_
#define EMBER_INDEX_EXACT_INDEX_H_

#include <vector>

#include "index/neighbor.h"
#include "la/matrix.h"
#include "la/quantize.h"

namespace ember {
class BinaryReader;
class BinaryWriter;
}  // namespace ember

namespace ember::index {

/// Brute-force top-k of every `queries` row against the rows of `data`
/// (ascending cosine distance, ties by ascending id), parallelized over a
/// fixed grid of 16-query tiles x 1024-row corpus slabs whose per-slab
/// top-k lists are merged per query (DESIGN.md §8). Reads both matrices in
/// place, so either may be a Matrix::View. This is ExactIndex::QueryBatch
/// without the ownership — the serving layer's degraded mode, the sharded
/// merge and the live delta scan all call it, bit-identically to a real
/// ExactIndex over the same data.
std::vector<std::vector<Neighbor>> BruteForceTopK(const la::Matrix& data,
                                                  const la::Matrix& queries,
                                                  size_t k);

/// Brute-force cosine index. Batched scoring runs the grid of
/// BruteForceTopK through the GemmBt micro-kernel, which accumulates every
/// score in exactly the scalar Dot() order, and the slab merge keeps the
/// total (distance, id) order — so QueryBatch returns bit-identical results
/// to the naive per-pair scan (Query) at every thread count.
class ExactIndex {
 public:
  /// Takes the data by value: pass an lvalue to copy, or std::move the
  /// matrix in to avoid doubling peak memory.
  void Build(la::Matrix data);

  size_t size() const { return data_.rows(); }
  size_t dim() const { return data_.cols(); }

  /// The indexed vectors (e.g. for self-join querying after a move-in
  /// Build).
  const la::Matrix& data() const { return data_; }

  /// Builds the int8 scan tier from the indexed float vectors. Queries then
  /// run the scan over 4x-smaller codes and rescore the top candidates with
  /// the float rows, keeping recall@k effectively lossless (see DESIGN.md
  /// §12 for the error model).
  void Quantize();

  /// Attaches a prebuilt quantized scan tier (the mmap'ed EMBS0002 path).
  /// Shape must match the indexed data; the caller keeps view storage alive.
  void AttachQuantized(la::QuantizedMatrix quantized);

  bool quantized() const { return !quantized_.empty(); }
  const la::QuantizedMatrix& quantized_matrix() const { return quantized_; }

  /// Top-k by ascending cosine distance, ties by ascending id. Returns
  /// min(k, size()) neighbors. A one-pass scalar scan (Dot / DotI8 per
  /// row), bit-identical to QueryBatch.
  std::vector<Neighbor> Query(const float* query, size_t k) const;

  /// Batched queries over the BruteForceTopK grid (query tiles x corpus
  /// slabs on the global thread pool). The int8 tier shares the grid with
  /// an integer cell scorer and rescores each merged candidate list.
  std::vector<std::vector<Neighbor>> QueryBatch(const la::Matrix& queries,
                                                size_t k) const;

  /// Appends a versioned binary image of the index (vectors included);
  /// a Load() of those bytes answers queries bit-identically.
  void Save(BinaryWriter& writer) const;

  /// Restores an index saved by Save(). Fail-closed: on truncated or
  /// corrupt input returns false, fails the reader, and leaves the index
  /// empty — it never throws or reads out of bounds.
  bool Load(BinaryReader& reader);

 private:
  std::vector<std::vector<Neighbor>> QueryBatchQuantized(
      const la::Matrix& queries, size_t k) const;

  la::Matrix data_;
  la::QuantizedMatrix quantized_;
};

}  // namespace ember::index

#endif  // EMBER_INDEX_EXACT_INDEX_H_
