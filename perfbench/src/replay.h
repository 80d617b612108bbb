// Replay of one unfiltered ANN query through the lower layers' public
// functions, in the executor's pipeline order, so each stage gets its own
// span: centroid probe (CentroidSet::FindNearestPartitions), quantized
// partition scan (ScanPartitionSq8IntoHeaps), full-precision rerank
// (SearchByVids), and result resolution (BTree point reads). The distance
// kernels (Sq8DistanceOneToMany / DistanceOneToMany) are timed separately
// on the probed partitions' own rows, and the FTS lookup on a query tag.
//
// The replay must do the same work DB::Search did: every replayed query is
// checked against the DB::Search response of the same query (probe-set
// size, rows scanned, quantized partitions, rerank candidates and rows,
// and the final ids in order). A mismatch is reported as a parity failure.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "trace.h"

namespace perfbench {

/// Stage timings of one replayed query, microseconds.
struct ReplayStages {
  double probe_us = 0;
  double scan_us = 0;
  double rerank_us = 0;
  double resolve_us = 0;
  uint64_t point_reads = 0;
  /// Kernel cost on the rows this query scanned (not part of the stage sum:
  /// the scan stage already contains it).
  double sq8_ns = 0;
  uint64_t sq8_rows = 0;
  double l2_ns = 0;
  uint64_t l2_rows = 0;
  /// Empty when the replay matched DB::Search; otherwise what differed.
  std::string parity_error;

  double StageSumUs() const {
    return probe_us + scan_us + rerank_us + resolve_us;
  }
};

class Replayer {
 public:
  /// Pins one read snapshot of `db` and loads its centroid table. No
  /// writes may run while the replayer is alive (parity assumes the
  /// replay and the DB::Search it is checked against see the same data).
  static micronn::Result<std::unique_ptr<Replayer>> Open(micronn::DB* db);

  /// Replays `query` (unfiltered, top-k at `nprobe`) and checks it against
  /// `actual`, the DB::Search response for the same request. Stage spans
  /// are appended to `spans` as children of `parent`.
  micronn::Status Run(const std::vector<float>& query, uint32_t k,
                      uint32_t nprobe, const micronn::SearchResponse& actual,
                      Tracer* tracer, uint64_t parent, uint64_t request,
                      std::vector<Span>* spans, ReplayStages* out);

  /// Times the FTS postings lookup of MATCH(`column`, `token`) and returns
  /// the matching document count through `docs`.
  micronn::Status TimeMatch(const std::string& column,
                            const std::string& token, double* us,
                            uint64_t* docs);

 private:
  Replayer(micronn::DB* db, std::unique_ptr<micronn::ReadTransaction> txn)
      : db_(db), txn_(std::move(txn)) {}

  micronn::DB* db_;
  std::unique_ptr<micronn::ReadTransaction> txn_;
  micronn::CentroidSet centroids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
