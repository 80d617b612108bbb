#include "replay.h"

#include <algorithm>

#include "common/status.h"
#include "ivf/centroid_index.h"
#include "ivf/scan.h"
#include "ivf/schema.h"
#include "ivf/search.h"
#include "numerics/distance.h"
#include "numerics/sq8.h"
#include "query/batch.h"
#include "storage/key_encoding.h"
#include "text/fts_index.h"

namespace perfbench {

using namespace micronn;

namespace {

// Kernel repetitions per partition: one pass over ~100 rows is a few
// microseconds, so a few passes keep the clock's granularity out of the
// ns/row figure.
constexpr int kKernelReps = 4;

std::string Mismatch(const char* what, uint64_t replay, uint64_t search) {
  return std::string(what) + ": replay " + std::to_string(replay) +
         " vs search " + std::to_string(search);
}

}  // namespace

Result<std::unique_ptr<Replayer>> Replayer::Open(DB* db) {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<ReadTransaction> txn,
                           db->engine()->BeginRead());
  std::unique_ptr<Replayer> r(new Replayer(db, std::move(txn)));
  MICRONN_ASSIGN_OR_RETURN(BTree centroids,
                           r->txn_->OpenTable(kCentroidsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree meta, r->txn_->OpenTable(kMetaTable));
  const DbOptions& o = db->options();
  MICRONN_ASSIGN_OR_RETURN(
      r->centroids_,
      LoadCentroidSet(r->txn_->view(), centroids, meta, o.dim, o.metric));
  // Same two-level lookup the DB attaches to its centroid cache.
  if (o.centroid_index_threshold > 0 &&
      r->centroids_.size() >= o.centroid_index_threshold) {
    MICRONN_ASSIGN_OR_RETURN(
        CentroidIndex accel,
        CentroidIndex::Build(r->centroids_.centroids, 0, o.seed));
    r->centroids_.accel = std::make_shared<CentroidIndex>(std::move(accel));
    r->centroids_.accel_super_probe = o.centroid_super_probe;
  }
  return r;
}

Status Replayer::Run(const std::vector<float>& query, uint32_t k,
                     uint32_t nprobe, const SearchResponse& actual,
                     Tracer* tracer, uint64_t parent, uint64_t request,
                     std::vector<Span>* spans, ReplayStages* out) {
  const DbOptions& o = db_->options();
  const uint32_t dim = o.dim;
  const QueryExplain& ex = actual.explain;
  MICRONN_ASSIGN_OR_RETURN(BTree vectors, txn_->OpenTable(kVectorsTable));
  MICRONN_ASSIGN_OR_RETURN(BTree vidmap, txn_->OpenTable(kVidMapTable));
  MICRONN_ASSIGN_OR_RETURN(BTree sq8, txn_->OpenTable(kSq8Table));
  MICRONN_ASSIGN_OR_RETURN(BTree sq8params, txn_->OpenTable(kSq8ParamsTable));
  auto stage = [&](const char* name) {
    return tracer->Begin(name, parent, request);
  };
  auto close = [&](Span* s) {
    tracer->End(s);
    spans->push_back(*s);
    return s->dur_us();
  };

  // Stage 1: centroid probe.
  Span probe_span = stage("replay.probe");
  const std::vector<uint32_t> probe =
      centroids_.FindNearestPartitions(query.data(), nprobe);
  out->probe_us = close(&probe_span);
  const std::vector<std::vector<uint32_t>> batch_probe =
      ComputeProbeSets(centroids_, dim, {ProbeRequest{query.data(), nprobe}});
  if (probe != batch_probe[0]) {
    out->parity_error = "probe set differs from ComputeProbeSets";
  } else if (probe.size() != ex.probe_pairs) {
    out->parity_error = Mismatch("probe_pairs", probe.size(), ex.probe_pairs);
  }

  // Stage 2: partition scans (probe set plus the delta store), quantized
  // where the partition has SQ8 parameters — the executor's choice.
  std::vector<uint32_t> partitions = probe;
  partitions.push_back(kDeltaPartition);
  std::vector<std::optional<Sq8PartitionParams>> params(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    MICRONN_ASSIGN_OR_RETURN(params[i],
                             GetSq8Params(&sq8params, partitions[i], dim));
  }
  const uint32_t heap_k = ex.rerank_budget > 0 ? ex.rerank_budget : k;
  TopKHeap heap(heap_k);
  ScanCounters counters;
  HeapScanTarget target;
  target.query = query.data();
  target.heap = &heap;
  target.counters = &counters;
  uint64_t partitions_quantized = 0;
  Span scan_span = stage("replay.scan");
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (ex.rerank_budget > 0 && params[i].has_value()) {
      MICRONN_RETURN_IF_ERROR(ScanPartitionSq8IntoHeaps(
          sq8, partitions[i], o.metric, dim, params[i]->min.data(),
          params[i]->scale.data(), &target, 1));
      ++partitions_quantized;
    } else {
      MICRONN_RETURN_IF_ERROR(ScanPartitionIntoHeaps(
          vectors, partitions[i], o.metric, dim, &target, 1));
    }
  }
  out->scan_us = close(&scan_span);
  std::vector<Neighbor> candidates = heap.TakeSorted();
  if (out->parity_error.empty()) {
    if (counters.rows_scanned != ex.rows_scanned) {
      out->parity_error =
          Mismatch("rows_scanned", counters.rows_scanned, ex.rows_scanned);
    } else if (partitions_quantized != ex.partitions_quantized) {
      out->parity_error = Mismatch("partitions_quantized",
                                   partitions_quantized,
                                   ex.partitions_quantized);
    }
  }

  // Stage 3: full-precision rerank of the quantized candidate pool (a plan
  // with no quantized partition keeps its exact distances and truncates).
  std::vector<Neighbor> result;
  Span rerank_span = stage("replay.rerank");
  uint64_t rows_reranked = 0;
  if (partitions_quantized > 0) {
    std::vector<uint64_t> vids;
    vids.reserve(candidates.size());
    for (const Neighbor& n : candidates) vids.push_back(n.id);
    std::sort(vids.begin(), vids.end());
    vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
    SearchCounters rc;
    MICRONN_ASSIGN_OR_RETURN(
        result, SearchByVids(vectors, vidmap, o.metric, dim, query.data(), k,
                             vids, nullptr, &rc));
    rows_reranked = rc.rows_scanned;
  } else {
    result = candidates;
    if (result.size() > k) result.resize(k);
  }
  out->rerank_us = close(&rerank_span);
  if (out->parity_error.empty() && partitions_quantized > 0) {
    if (candidates.size() != ex.rerank_candidates) {
      out->parity_error = Mismatch("rerank_candidates", candidates.size(),
                                   ex.rerank_candidates);
    } else if (rows_reranked != ex.rows_reranked) {
      out->parity_error =
          Mismatch("rows_reranked", rows_reranked, ex.rows_reranked);
    }
  }

  // Stage 4: resolve each hit to its asset id (vidmap, then vectors row).
  std::vector<std::string> asset_ids;
  asset_ids.reserve(result.size());
  Span resolve_span = stage("replay.resolve");
  for (const Neighbor& n : result) {
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> loc,
                             vidmap.Get(key::U64(n.id)));
    ++out->point_reads;
    if (!loc.has_value()) continue;
    uint32_t partition = 0;
    MICRONN_RETURN_IF_ERROR(DecodeVidMapValue(*loc, &partition));
    MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> row,
                             vectors.Get(VectorKey(partition, n.id)));
    ++out->point_reads;
    if (!row.has_value()) continue;
    VectorRow vr;
    MICRONN_RETURN_IF_ERROR(DecodeVectorRow(*row, dim, &vr));
    asset_ids.push_back(std::move(vr.asset_id));
  }
  out->resolve_us = close(&resolve_span);
  if (out->parity_error.empty()) {
    if (asset_ids.size() != actual.items.size()) {
      out->parity_error =
          Mismatch("result size", asset_ids.size(), actual.items.size());
    } else {
      for (size_t i = 0; i < asset_ids.size(); ++i) {
        if (asset_ids[i] != actual.items[i].asset_id ||
            result[i].id != actual.items[i].vid) {
          out->parity_error = "result " + std::to_string(i) + ": replay " +
                              asset_ids[i] + " vs search " +
                              actual.items[i].asset_id;
          break;
        }
      }
    }
  }

  // Kernels, on the rows of the partitions this query scanned. Rows are
  // copied out first so only the kernel is on the clock.
  Span kernel_span = stage("replay.kernels");
  std::vector<float> dist;
  for (size_t i = 0; i < partitions.size(); ++i) {
    std::vector<uint8_t> codes;
    std::vector<float> rows;
    MICRONN_RETURN_IF_ERROR(ScanPartition(
        vectors, partitions[i], dim, RowFilter(),
        [&](const ScanBlock& b) {
          rows.insert(rows.end(), b.data, b.data + b.count * dim);
          return Status::OK();
        },
        nullptr));
    const size_t n_rows = rows.size() / dim;
    if (n_rows == 0) continue;
    dist.resize(n_rows);
    Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) {
      DistanceOneToMany(o.metric, query.data(), rows.data(), n_rows, dim,
                        dist.data());
    }
    out->l2_ns += SecondsBetween(t0, Clock::now()) * 1e9;
    out->l2_rows += n_rows * kKernelReps;
    if (!params[i].has_value()) continue;
    MICRONN_RETURN_IF_ERROR(ScanPartitionSq8(
        sq8, partitions[i], dim, RowFilter(),
        [&](const Sq8ScanBlock& b) {
          codes.insert(codes.end(), b.codes, b.codes + b.count * dim);
          return Status::OK();
        },
        nullptr));
    const size_t n_codes = codes.size() / dim;
    if (n_codes == 0) continue;
    Sq8QueryContext ctx;
    ctx.Prepare(o.metric, query.data(), params[i]->min.data(),
                params[i]->scale.data(), dim);
    dist.resize(n_codes);
    t0 = Clock::now();
    for (int rep = 0; rep < kKernelReps; ++rep) {
      Sq8DistanceOneToMany(ctx, codes.data(), n_codes, dist.data());
    }
    out->sq8_ns += SecondsBetween(t0, Clock::now()) * 1e9;
    out->sq8_rows += n_codes * kKernelReps;
  }
  kernel_span.Set("sq8_rows", static_cast<double>(out->sq8_rows));
  kernel_span.Set("l2_rows", static_cast<double>(out->l2_rows));
  close(&kernel_span);
  return Status::OK();
}

Status Replayer::TimeMatch(const std::string& column, const std::string& token,
                           double* us, uint64_t* docs) {
  MICRONN_ASSIGN_OR_RETURN(BTree postings,
                           txn_->OpenTable(FtsPostingsTableName(column)));
  MICRONN_ASSIGN_OR_RETURN(BTree freqs,
                           txn_->OpenTable(FtsFreqsTableName(column)));
  FtsIndex fts(postings, freqs);
  const Clock::time_point t0 = Clock::now();
  MICRONN_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                           fts.MatchConjunction({token}));
  *us = SecondsBetween(t0, Clock::now()) * 1e6;
  *docs = ids.size();
  return Status::OK();
}

}  // namespace perfbench
