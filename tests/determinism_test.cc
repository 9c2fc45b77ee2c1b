// The tentpole guarantee of the threading layer: every parallelized batch
// API returns bit-identical output at any thread count, and the blocked
// brute-force scorer matches a naive scalar reference exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.h"
#include "common/rng.h"
#include "embed/embedding_model.h"
#include "embed/model_registry.h"
#include "index/exact_index.h"
#include "index/hnsw_index.h"
#include "la/vector_ops.h"
#include "match/unsupervised.h"

namespace ember {
namespace {

class ThreadSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreads(0); }
};

std::vector<std::string> TestSentences(size_t n) {
  Rng rng(0x5edULL);
  const char* words[] = {"acme",    "deluxe",  "wireless", "headset",
                         "premium", "noise",   "battery",  "comfort",
                         "stereo",  "adapter", "charger",  "cable"};
  std::vector<std::string> sentences(n);
  for (std::string& sentence : sentences) {
    const size_t len = 4 + rng.Below(8);
    for (size_t w = 0; w < len; ++w) {
      if (w) sentence += ' ';
      sentence += words[rng.Below(12)];
    }
  }
  return sentences;
}

la::Matrix RandomUnitRows(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  m.FillGaussian(rng, 1.f);
  for (size_t r = 0; r < rows; ++r) la::NormalizeInPlace(m.Row(r), cols);
  return m;
}

TEST_F(ThreadSweepTest, BatchTransformBitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> sentences = TestSentences(64);
  // A static model plus both transformer pooling regimes (kSMiniLm mean,
  // kBert CLS) cover every EncodeInto path, including the per-worker
  // thread-local encoder workspaces.
  for (const embed::ModelId id :
       {embed::ModelId::kFastText, embed::ModelId::kSMiniLm,
        embed::ModelId::kBert}) {
    auto model = embed::CreateModel(id);
    model->Initialize();
    SetThreads(1);
    const la::Matrix reference = model->VectorizeAll(sentences);
    for (const int threads : {2, 4, 8}) {
      SetThreads(threads);
      EXPECT_EQ(model->VectorizeAll(sentences), reference)
          << model->info().code << " at " << threads << " threads";
    }
  }
}

TEST_F(ThreadSweepTest, ExactQueryBatchBitIdenticalAcrossThreadCounts) {
  // 2600 rows = three corpus slabs (the last one partial), 97 queries =
  // seven query tiles: 21 grid cells, claimed in a different order at
  // every thread count.
  const la::Matrix data = RandomUnitRows(2600, 48, 1);
  const la::Matrix queries = RandomUnitRows(97, 48, 2);
  index::ExactIndex idx;
  idx.Build(data);

  SetThreads(1);
  const auto reference = idx.QueryBatch(queries, 10);
  for (const int threads : {2, 4, 8}) {
    SetThreads(threads);
    const auto batch = idx.QueryBatch(queries, 10);
    ASSERT_EQ(batch.size(), reference.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      ASSERT_EQ(batch[q].size(), reference[q].size()) << "query " << q;
      for (size_t i = 0; i < reference[q].size(); ++i) {
        EXPECT_EQ(batch[q][i].id, reference[q][i].id);
        EXPECT_EQ(batch[q][i].distance, reference[q][i].distance);
      }
    }
  }
}

TEST_F(ThreadSweepTest, HnswQueryBatchBitIdenticalAcrossThreadCounts) {
  const la::Matrix data = RandomUnitRows(400, 32, 3);
  const la::Matrix queries = RandomUnitRows(50, 32, 4);
  index::HnswIndex idx;
  idx.Build(data);

  SetThreads(1);
  const auto reference = idx.QueryBatch(queries, 10);
  for (const int threads : {2, 4}) {
    SetThreads(threads);
    const auto batch = idx.QueryBatch(queries, 10);
    ASSERT_EQ(batch.size(), reference.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      ASSERT_EQ(batch[q].size(), reference[q].size());
      for (size_t i = 0; i < reference[q].size(); ++i) {
        EXPECT_EQ(batch[q][i].id, reference[q][i].id);
        EXPECT_EQ(batch[q][i].distance, reference[q][i].distance);
      }
    }
  }
}

// Naive scalar reference: score every data row with la::Dot in row order,
// full sort, truncate. The blocked GemmBt path must match it bit for bit.
std::vector<index::Neighbor> NaiveTopK(const la::Matrix& data,
                                       const float* query, size_t k) {
  std::vector<index::Neighbor> all(data.rows());
  for (size_t r = 0; r < data.rows(); ++r) {
    all[r] = {static_cast<uint32_t>(r),
              1.f - la::Dot(query, data.Row(r), data.cols())};
  }
  std::sort(all.begin(), all.end(), index::CloserThan);
  all.resize(std::min(k, all.size()));
  return all;
}

TEST_F(ThreadSweepTest, BlockedTopKMatchesNaiveScalarTopK) {
  // Sizes straddle the data-block (256), slab (1024) and query-tile (16)
  // boundaries, so single- and multi-slab merges and partial tiles all run.
  for (const size_t n : {100ul, 256ul, 300ul, 1023ul, 1024ul, 1025ul, 2600ul}) {
    const la::Matrix data = RandomUnitRows(n, 33, 5 + n);
    index::ExactIndex idx;
    idx.Build(data);
    for (const size_t nq : {1ul, 16ul, 17ul, 19ul, 40ul}) {
      const la::Matrix queries = RandomUnitRows(nq, 33, 6 + n + nq);
      const auto batch = idx.QueryBatch(queries, 10);
      ASSERT_EQ(batch.size(), nq);
      for (size_t q = 0; q < nq; ++q) {
        const auto naive = NaiveTopK(data, queries.Row(q), 10);
        ASSERT_EQ(batch[q].size(), naive.size());
        for (size_t i = 0; i < naive.size(); ++i) {
          EXPECT_EQ(batch[q][i].id, naive[i].id)
              << "n=" << n << " nq=" << nq << " q=" << q;
          EXPECT_EQ(batch[q][i].distance, naive[i].distance);
        }
      }
    }
  }
}

TEST_F(ThreadSweepTest, AllPairSimilaritiesBitIdenticalAcrossThreadCounts) {
  const la::Matrix left = RandomUnitRows(150, 32, 7);
  const la::Matrix right = RandomUnitRows(90, 32, 8);
  SetThreads(1);
  const auto reference =
      match::UnsupervisedMatcher::AllPairSimilarities(left, right);
  for (const int threads : {2, 4}) {
    SetThreads(threads);
    const auto pairs =
        match::UnsupervisedMatcher::AllPairSimilarities(left, right);
    ASSERT_EQ(pairs.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(pairs[i].left, reference[i].left);
      EXPECT_EQ(pairs[i].right, reference[i].right);
      EXPECT_EQ(pairs[i].sim, reference[i].sim);
    }
  }
}

}  // namespace
}  // namespace ember
