#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "datagen/workload.h"

namespace perfbench {

namespace {

constexpr size_t kMiB = size_t{1} << 20;

// Why each workload exists (BENCHMARK.json gives the same reasons):
//   disk_ann    — storage read path: the files are ~6x the 8 MiB page
//                 cache, one client, so the scheduler stays on its fast path.
//   hybrid_warm — CPU-bound query work: everything fits the 256 MiB cache;
//                 two clients give the scheduler groups to coalesce, and
//                 Zipf MATCH tags make the optimizer pick both plans.
//   update_mix  — write path beside reads: WAL appends with fsync on every
//                 commit, checkpoints, delta flushes and one full rebuild.
// Each workload also runs the operations its timed loop leaves out (a
// short write stream, a filtered segment, a cold segment), so every
// end-to-end metric has a measured value on every workload.
const WorkloadConfig kWorkloads[] = {
    {.name = "disk_ann",
     .rows_built = 24000,
     .rows_streamed = 9600,
     .maintain_every = 1200,
     .cache_bytes = 8 * kMiB,
     .clients = 1},
    {.name = "hybrid_warm",
     .rows_built = 20000,
     .rows_streamed = 9600,
     .maintain_every = 1200,
     .cache_bytes = 256 * kMiB,
     .clients = 2,
     .filtered_in_loop = true},
    {.name = "update_mix",
     .rows_built = 10000,
     .rows_streamed = 10000,
     // 3% of the final 20k collection.
     .maintain_every = 600,
     .cache_bytes = 8 * kMiB,
     .clients = 1,
     .stream_in_loop = true},
};

}  // namespace

bool FindWorkload(const std::string& name, WorkloadConfig* out) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

bool WorkloadData::HasTag(size_t row, uint16_t tag) const {
  return std::binary_search(tags[row].begin(), tags[row].end(), tag);
}

WorkloadData GenerateWorkloadData(const WorkloadConfig& config,
                                  uint64_t seed) {
  // Replacement pool: about a quarter of the streamed rows re-upsert an
  // existing id, and each needs a fresh vector.
  const size_t pool = config.rows_streamed / 3 + kUpsertBatch;
  const size_t n = config.rows_built + config.rows_streamed + pool;
  micronn::DatasetSpec spec;
  spec.name = config.name;
  spec.dim = kDim;
  spec.metric = micronn::Metric::kL2;
  spec.n = n;
  spec.n_queries = kQueries;
  spec.natural_clusters = config.rows_built / kRowsPerComponent;
  spec.cluster_std = kClusterStd;
  spec.seed = seed;
  micronn::Dataset ds = micronn::GenerateDataset(spec);

  WorkloadData d;
  d.rows = std::move(ds.data);
  d.queries = std::move(ds.queries);
  micronn::TagGenerator tags(kTagVocab, kTagZipf, seed * 7919 + 1);
  micronn::Rng rng(seed * 104729 + 3);
  d.tags.resize(n);
  d.tag_text.resize(n);
  d.year.resize(n);
  for (size_t i = 0; i < n; ++i) {
    d.tag_text[i] = tags.NextDocumentTags(kTagsPerRow);
    const std::string& text = d.tag_text[i];
    for (size_t pos = 0; pos < text.size();) {
      size_t end = text.find(' ', pos);
      if (end == std::string::npos) end = text.size();
      // Tag names are "tag<rank>".
      d.tags[i].push_back(static_cast<uint16_t>(
          std::stoul(text.substr(pos + 3, end - pos - 3))));
      pos = end + 1;
    }
    std::sort(d.tags[i].begin(), d.tags[i].end());
    d.year[i] = 1990 + static_cast<int64_t>(rng.Uniform(35));
  }
  // Query tags: the rows' Zipf law sampled at evenly spaced quantiles, so
  // every seed gets the same spread of selectivities (and so the same mix
  // of pre- and post-filter plans); the seed decides which query vector
  // carries which tag.
  std::vector<double> cdf(kTagVocab);
  double total = 0;
  for (size_t r = 0; r < kTagVocab; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kTagZipf);
    cdf[r] = total;
  }
  d.query_tag.resize(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    const double u = (static_cast<double>(q) + 0.5) / kQueries * total;
    d.query_tag[q] = static_cast<uint16_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  for (size_t q = kQueries - 1; q > 0; --q) {
    std::swap(d.query_tag[q], d.query_tag[rng.Uniform(q + 1)]);
  }
  return d;
}

}  // namespace perfbench
