// Workload definitions and generated inputs.
//
// Every input is a pure function of the seed: vectors come from
// micronn::GenerateDataset (a Gaussian mixture), tags from
// micronn::TagGenerator (Zipf over a fixed vocabulary), and the write
// stream and query mix from the benchmark's own seeded generator. The
// program sees only these generated rows, attributes and queries.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Shared by every workload.
inline constexpr uint32_t kDim = 128;
inline constexpr uint32_t kTopK = 100;
/// Frozen probe count. With the mixture below it puts recall@100 near 0.9
/// on disk_ann, so recall is not saturated and a change that trades recall
/// for speed shows.
inline constexpr uint32_t kNprobe = 8;
/// One mixture component per this many built rows (64 on disk_ann), so
/// every workload has about ten 100-row partitions per component and the
/// frozen nprobe sits at the same point of the recall curve.
inline constexpr size_t kRowsPerComponent = 1000;
inline constexpr float kClusterStd = 0.6f;
/// Distinct query vectors; the timed loop cycles through them.
inline constexpr size_t kQueries = 200;
inline constexpr size_t kTagVocab = 2000;
inline constexpr double kTagZipf = 1.1;
inline constexpr size_t kTagsPerRow = 4;
inline constexpr size_t kUpsertBatch = 64;
/// Share of each upsert batch that replaces an existing id (percent).
inline constexpr int kReplacePercent = 20;
/// Every kDeleteEvery-th batch is followed by a Delete of kDeleteCount live
/// ids: 13 per 4 x 64 upserted rows, about 5%.
inline constexpr size_t kDeleteEvery = 4;
inline constexpr size_t kDeleteCount = 13;
/// The cold and filtered segments run in rounds, so that each segment's
/// samples spread over the whole phase instead of one stretch of a few
/// seconds. A round runs kColdPerRound queries with DB::DropCaches before
/// each (Fig. 4 cold start), then kHybridPerRound MATCH queries where the
/// timed loop has none, then, on disk_ann, the unfiltered loop for the rest
/// of its kRoundSeconds.
inline constexpr double kRoundSeconds = 1.0;
inline constexpr size_t kColdPerRound = 20;
inline constexpr size_t kHybridPerRound = 20;
/// Rounds run after the timed phase, on workloads whose timed phase has
/// no rounds of its own, once its deadline has passed.
inline constexpr size_t kMinRounds = 40;
/// Unfiltered queries replayed layer by layer in the traced run.
inline constexpr size_t kReplayQueries = 40;

struct WorkloadConfig {
  std::string name;
  /// Rows loaded before BuildIndex (the set-up).
  size_t rows_built = 0;
  /// New rows the writer streams after the build.
  size_t rows_streamed = 0;
  /// Rows upserted between Maintain calls.
  size_t maintain_every = 0;
  size_t cache_bytes = 0;
  /// Closed-loop query clients in the timed phase.
  int clients = 1;
  /// Half the timed-phase queries are MATCH(tags, t) (hybrid_warm).
  bool filtered_in_loop = false;
  /// The writer streams beside the clients during the timed phase
  /// (update_mix); otherwise it streams after the timed phase, alone.
  bool stream_in_loop = false;

  /// The timed phase is made of rounds when it has neither MATCH queries
  /// nor the writer (disk_ann); otherwise the rounds run after it.
  bool rounds_in_loop() const { return !filtered_in_loop && !stream_in_loop; }
};

/// The named workload, or false when `name` is unknown.
bool FindWorkload(const std::string& name, WorkloadConfig* out);

/// Generated inputs. Asset "r<id>" starts with vector row `id`; rows past
/// rows_built + rows_streamed are the replacement pool that re-upserts of
/// existing ids draw from.
struct WorkloadData {
  std::vector<float> rows;                 // n x kDim
  std::vector<std::vector<uint16_t>> tags;  // per row, sorted tag ranks
  std::vector<std::string> tag_text;       // per row, space-separated
  std::vector<int64_t> year;               // per row
  std::vector<float> queries;              // kQueries x kDim
  std::vector<uint16_t> query_tag;         // per query, MATCH tag rank

  size_t size() const { return tag_text.size(); }
  const float* row(size_t i) const { return rows.data() + i * kDim; }
  const float* query(size_t i) const { return queries.data() + i * kDim; }
  bool HasTag(size_t row, uint16_t tag) const;
};

WorkloadData GenerateWorkloadData(const WorkloadConfig& config, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
