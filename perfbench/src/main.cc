// MicroNN benchmark driver.
//
//   perfbench_driver --workload <disk_ann|hybrid_warm|update_mix> --seed <n>
//                    --seconds <s> --trace <0|1> --workdir <dir>
//
// Runs one workload through the public DB API in this process and prints,
// as the last line of stdout, one JSON object with the keys `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it is
// the host/run fingerprint. perfbench/NOTES.md defines every metric.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "core/db.h"
#include "datagen/workload.h"
#include "numerics/distance.h"
#include "replay.h"
#include "storage/io_backend.h"
#include "storage/page.h"
#include "trace.h"
#include "util.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace micronn;
namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr size_t kLoadBatch = 2000;
/// Exact-mode spot queries checked id-for-id against brute force.
constexpr size_t kExactSpotQueries = 3;
constexpr size_t kExactSpotFiltered = 2;
/// Live / deleted ids probed at the end of the write stream.
constexpr size_t kLiveProbes = 8;
constexpr size_t kDeletedProbes = 4;
/// search_p90_ms is the median of the p90s of the timed phase's windows
/// of kRoundSeconds that hold at least this many untraced unfiltered
/// queries (ten beyond the p90).
constexpr size_t kMinWindowSamples = 100;
/// The traced run samples index stats once per this many traced queries.
constexpr size_t kIndexStatsEvery = 16;
constexpr double kMiBf = 1024.0 * 1024.0;

// Reported metrics, in output order, with their units (BENCHMARK.json lists
// the same names; perfbench/NOTES.md defines each).
const std::vector<std::pair<const char*, const char*>> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"search_p50_ms", "ms"},
    {"search_p90_ms", "ms"},
    {"cold_search_p50_ms", "ms"},
    {"hybrid_p50_ms", "ms"},
    {"search_qps", "1/s"},
    {"recall_at_100", "ratio"},
    {"query_mem_mib", "MiB"},
    {"upsert_rows_per_s", "1/s"},
    {"upsert_p50_ms", "ms"},
    {"write_amp", "ratio"},
    {"space_amp", "ratio"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayerMetrics = {
    {"core.load_s", "s"},
    {"core.build_index_s", "s"},
    {"storage.pages_touched_per_query", "count"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.main_reads_per_query", "count"},
    {"storage.read_syscalls_per_query", "count"},
    {"storage.prefetch_useful", "ratio"},
    {"storage.evictions_per_query", "count"},
    {"storage.wal_reads_per_query", "count"},
    {"storage.frames_per_commit", "count"},
    {"storage.wal_writes_per_commit", "count"},
    {"storage.wal_syncs_per_commit", "count"},
    {"storage.checkpoint_pages", "count"},
    {"storage.write_syscalls", "count"},
    {"storage.wal_bytes_peak", "MiB"},
    {"storage.backpressure_stalls", "count"},
    {"storage.io_retries", "count"},
    {"storage.corruptions_detected", "count"},
    {"storage.point_read_us", "us"},
    {"ivf.partitions_scanned_per_query", "count"},
    {"ivf.rows_scanned_per_query", "count"},
    {"ivf.quantized_frac", "ratio"},
    {"ivf.rows_reranked_per_query", "count"},
    {"ivf.probe_us", "us"},
    {"ivf.scan_us", "us"},
    {"ivf.rerank_us", "us"},
    {"ivf.delta_rows", "count"},
    {"ivf.maint_flush_s", "s"},
    {"ivf.maint_rebuild_s", "s"},
    {"ivf.maint_row_changes", "count"},
    {"numerics.sq8_ns_per_row", "ns"},
    {"numerics.l2_ns_per_row", "ns"},
    {"query.sched_wait_us", "us"},
    {"query.group_size", "count"},
    {"query.scan_share", "ratio"},
    {"query.prefilter_frac", "ratio"},
    {"query.candidates_per_prefilter", "count"},
    {"query.rows_filtered_per_query", "count"},
    {"query.residual_us", "us"},
    {"text.match_us", "us"},
    {"common.mem_page_cache_mib", "MiB"},
    {"common.mem_query_exec_mib", "MiB"},
    {"common.cpu_ms_per_query", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_us", "us"},
    {"trace.replayed_queries", "count"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  bool have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--workdir") {
      a->workdir = value;
      have_workdir = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_workdir;
}

// Asset ids are "r<id>". Anything else maps to an id no row has, so a
// malformed result fails the checks instead of throwing on a client thread.
uint32_t IdOf(const std::string& asset_id) {
  constexpr uint32_t kNoRow = UINT32_MAX;
  if (asset_id.size() < 2 || asset_id[0] != 'r') return kNoRow;
  char* end = nullptr;
  const unsigned long v = std::strtoul(asset_id.c_str() + 1, &end, 10);
  return *end == '\0' && v < kNoRow ? static_cast<uint32_t>(v) : kNoRow;
}

std::string AssetOf(uint32_t id) {
  std::string s = "r";
  s += std::to_string(id);
  return s;
}

// Reference model of acknowledged writes: which vector row each asset id
// holds now, and the set of live ids (O(1) sampling and removal).
class Model {
 public:
  explicit Model(size_t ids) : row_(ids, -1), pos_(ids, -1) {}

  void Put(uint32_t id, size_t row) {
    if (row_[id] < 0) {
      pos_[id] = static_cast<int64_t>(live_.size());
      live_.push_back(id);
    }
    row_[id] = static_cast<int64_t>(row);
  }
  void Remove(uint32_t id) {
    if (row_[id] < 0) return;
    const int64_t p = pos_[id];
    live_[p] = live_.back();
    pos_[live_[p]] = p;
    live_.pop_back();
    row_[id] = -1;
    pos_[id] = -1;
  }
  bool Live(uint32_t id) const { return id < row_.size() && row_[id] >= 0; }
  size_t Row(uint32_t id) const { return static_cast<size_t>(row_[id]); }
  const std::vector<uint32_t>& live() const { return live_; }

 private:
  std::vector<int64_t> row_;
  std::vector<int64_t> pos_;
  std::vector<uint32_t> live_;
};

void AttachIo(Span* s, const IoStats::View& d) {
  s->Set("pages_cache_hit", static_cast<double>(d.pages_cache_hit));
  s->Set("cache_misses", static_cast<double>(d.CacheMisses()));
  s->Set("pages_read_main", static_cast<double>(d.pages_read_main));
  s->Set("pages_read_wal", static_cast<double>(d.pages_read_wal));
  s->Set("read_syscalls", static_cast<double>(d.read_syscalls));
  s->Set("write_syscalls", static_cast<double>(d.write_syscalls));
  s->Set("pages_prefetched", static_cast<double>(d.pages_prefetched));
  s->Set("prefetch_hits", static_cast<double>(d.prefetch_hits));
  s->Set("cache_evictions", static_cast<double>(d.cache_evictions));
  s->Set("frames_written", static_cast<double>(d.frames_written));
  s->Set("wal_writes", static_cast<double>(d.wal_writes));
  s->Set("wal_syncs", static_cast<double>(d.wal_syncs));
  s->Set("checkpoint_pages", static_cast<double>(d.checkpoint_pages));
  s->Set("commits", static_cast<double>(d.commits));
  s->Set("io_retries", static_cast<double>(d.io_retries));
  s->Set("corruptions_detected", static_cast<double>(d.corruptions_detected));
}

void AttachExplain(Span* s, const QueryExplain& ex) {
  s->Set("plan", static_cast<double>(ex.plan));
  s->Set("probe_pairs", static_cast<double>(ex.probe_pairs));
  s->Set("candidates", static_cast<double>(ex.candidates));
  s->Set("partitions_scanned", static_cast<double>(ex.partitions_scanned));
  s->Set("partitions_quantized", static_cast<double>(ex.partitions_quantized));
  s->Set("rows_scanned", static_cast<double>(ex.rows_scanned));
  s->Set("rows_filtered", static_cast<double>(ex.rows_filtered));
  s->Set("rows_reranked", static_cast<double>(ex.rows_reranked));
  s->Set("group_size", static_cast<double>(ex.group_size));
  s->Set("coalesced_group_size",
         static_cast<double>(ex.coalesced_group_size));
  s->Set("coalesce_wait_us", static_cast<double>(ex.coalesce_wait_us));
  s->Set("group_probe_pairs", static_cast<double>(ex.group_probe_pairs));
  s->Set("group_partitions_scanned",
         static_cast<double>(ex.group_partitions_scanned));
}

void AttachMemory(Span* s) {
  const MemoryTracker& m = MemoryTracker::Global();
  s->Set("mem_page_cache",
         static_cast<double>(m.Current(MemoryCategory::kPageCache)));
  s->Set("mem_total", static_cast<double>(m.CurrentTotal()));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Writes back the work directory's dirty pages (untimed). Set-up and the
// write stream leave hundreds of MiB dirty in the OS page cache; without
// this, the kernel's delayed writeback lands inside whichever phase
// happens to run 30 s later and its cost moves from run to run.
void FlushFileSystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// Counts the library's WAL-backpressure stalls while forwarding every log
// line to stderr as the default sink would.
std::atomic<uint64_t> g_backpressure_stalls{0};

void InstallLogSink() {
  Logger::SetSink([](LogLevel, const std::string& msg) {
    if (msg.find("WAL backpressure") != std::string::npos) {
      g_backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
    }
    std::fprintf(stderr, "[micronn] %s\n", msg.c_str());
  });
}

struct LoopStats {
  std::vector<double> search_ms;    // unfiltered, untraced
  std::vector<double> search_end_s;  // each one's end, s into the phase
  std::vector<double> search_traced_ms;
  std::vector<double> hybrid_ms;    // filtered, all
  uint64_t queries = 0;
  std::vector<Span> spans;
};

struct StreamStats {
  std::vector<double> upsert_ms;
  double wall_s = 0;
  uint64_t rows_upserted = 0;
  IoStats::View io;
  uint64_t wal_bytes_peak = 0;
  std::vector<Span> spans;
};

class Bench {
 public:
  Bench(Args args, WorkloadConfig config)
      : args_(std::move(args)),
        config_(std::move(config)),
        tracer_(args_.trace),
        model_(config_.rows_built + config_.rows_streamed) {}

  /// Runs the workload; returns the process exit code.
  int Run();

 private:
  DbOptions MakeOptions() const;
  std::string DbPath(int n) const {
    return args_.workdir + "/db" + std::to_string(n) + "/bench.mnn";
  }
  Status SetupOnce(int n, double* seconds);
  void GroundTruth(bool filtered, std::vector<std::vector<uint32_t>>* out);
  std::vector<uint32_t> BruteForce(const float* q, int tag, size_t k) const;
  void CheckFiltered(const SearchResponse& r, uint16_t tag);
  double Recall(const SearchResponse& r, const std::vector<uint32_t>& truth);
  void LoopQuery(int c, size_t j, LoopStats* out);
  void Client(int c, Clock::time_point deadline, LoopStats* out);
  void Rounds(Clock::time_point deadline, size_t min_rounds,
              LoopStats* loop);
  void Stream(StreamStats* out);
  void FinalChecks();
  Status Replay();
  void Violation(const std::string& what);
  bool Ok(const Status& s, const char* op);
  SearchRequest Request(size_t q, bool filtered) const;
  Result<SearchResponse> TracedSearch(const SearchRequest& req,
                                      const char* name, uint64_t parent,
                                      uint64_t request, std::vector<Span>* buf,
                                      double* ms);
  Result<SearchResponse> TimedSearch(const SearchRequest& req, bool traced,
                                     const char* name, std::vector<Span>* buf,
                                     double* ms);
  double SpaceAmp() const;
  double WindowedP90() const;
  MetricMap EndToEnd() const;
  MetricMap PerLayer() const;
  void PrintFingerprint();

  Args args_;
  WorkloadConfig config_;
  Tracer tracer_;
  WorkloadData data_;
  Model model_;
  std::unique_ptr<DB> db_;
  std::vector<std::pair<uint32_t, size_t>> deleted_;  // id, last vector row

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex violations_mutex_;
  std::vector<std::string> violations_;

  // Ground truth and first-seen recall per distinct query.
  std::vector<std::vector<uint32_t>> truth_unfiltered_;
  std::vector<std::vector<uint32_t>> truth_filtered_;
  std::unique_ptr<std::atomic<bool>[]> seen_;
  std::vector<double> recall_;  // 2 * kQueries slots: unfiltered, filtered
  std::atomic<bool> writer_running_{false};

  // Measurements the metrics are computed from.
  std::vector<double> setup_s_;
  std::vector<LoopStats> loops_;
  Clock::time_point loop_start_;
  double loop_s_ = 0;
  double loop_cpu_s_ = 0;
  size_t query_mem_peak_ = 0;
  double space_amp_ = 0;
  std::vector<double> hybrid_segment_ms_;
  std::vector<double> cold_ms_;
  StreamStats stream_;
  IoStats::View run_io_;
  // Replay (traced run only).
  std::vector<ReplayStages> replay_;
  std::vector<double> replay_search_us_;
  std::vector<double> replay_mem_exec_;
  std::vector<double> fts_us_;
};

DbOptions Bench::MakeOptions() const {
  DbOptions o;
  o.dim = kDim;
  o.metric = Metric::kL2;
  o.default_nprobe = kNprobe;
  o.fts_columns = {"tags"};
  o.pager.cache_bytes = config_.cache_bytes;
  // Acked writes must survive: every commit is fsynced.
  o.pager.sync_on_commit = true;
  return o;
}

void Bench::Violation(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(violations_mutex_);
  if (violations_.size() < 20) violations_.push_back(what);
}

bool Bench::Ok(const Status& s, const char* op) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (s.ok()) return true;
  Violation(std::string(op) + " failed: " + s.ToString());
  return false;
}

SearchRequest Bench::Request(size_t q, bool filtered) const {
  SearchRequest r;
  r.query.assign(data_.query(q), data_.query(q) + kDim);
  r.k = kTopK;
  r.nprobe = kNprobe;
  if (filtered) {
    r.filter =
        Predicate::Match("tags", TagGenerator::TagName(data_.query_tag[q]));
  }
  return r;
}

// One set-up on a fresh database. `seconds` is the time spent inside the
// DB calls only; building the request batches is harness work.
Status Bench::SetupOnce(int n, double* seconds) {
  const std::string path = DbPath(n);
  fs::remove_all(fs::path(path).parent_path());
  fs::create_directories(fs::path(path).parent_path());
  std::vector<Span> buf;
  double program_s = 0;
  auto timed = [&](Span* span, auto&& call) {
    const Clock::time_point t0 = Clock::now();
    auto result = call();
    program_s += SecondsBetween(t0, Clock::now());
    if (span != nullptr) tracer_.End(span);
    return result;
  };
  Span root = tracer_.Begin("setup", 0, tracer_.NewId());
  Span open = tracer_.Begin("DB::Open", root.id, root.request);
  MICRONN_ASSIGN_OR_RETURN(
      db_, timed(&open, [&] { return DB::Open(path, MakeOptions()); }));
  Span load = tracer_.Begin("load", root.id, root.request);
  const double before_load = program_s;
  std::vector<UpsertRequest> batch;
  for (uint32_t id = 0; id < config_.rows_built; ++id) {
    UpsertRequest r;
    r.asset_id = AssetOf(id);
    r.vector.assign(data_.row(id), data_.row(id) + kDim);
    r.attributes["tags"] = AttributeValue::String(data_.tag_text[id]);
    r.attributes["year"] = AttributeValue::Int(data_.year[id]);
    batch.push_back(std::move(r));
    if (batch.size() == kLoadBatch || id + 1 == config_.rows_built) {
      const Status st = timed(nullptr, [&] { return db_->Upsert(batch); });
      if (!Ok(st, "load Upsert")) return st;
      batch.clear();
    }
  }
  tracer_.End(&load);
  // The span also covers building the batches; core.load_s uses the time
  // inside the Upsert calls.
  load.Set("upsert_s", program_s - before_load);
  Span build = tracer_.Begin("DB::BuildIndex", root.id, root.request);
  const Status built = timed(&build, [&] { return db_->BuildIndex(); });
  if (!Ok(built, "BuildIndex")) return built;
  Span analyze = tracer_.Begin("DB::AnalyzeStats", root.id, root.request);
  const Status analyzed = timed(&analyze, [&] { return db_->AnalyzeStats(); });
  if (!Ok(analyzed, "AnalyzeStats")) return analyzed;
  *seconds = program_s;
  tracer_.End(&root);
  if (tracer_.enabled()) {
    for (Span* s : {&root, &open, &load, &build, &analyze}) {
      buf.push_back(std::move(*s));
    }
    tracer_.Merge(&buf);
  }
  return Status::OK();
}

std::vector<uint32_t> Bench::BruteForce(const float* q, int tag,
                                        size_t k) const {
  std::vector<std::pair<float, uint32_t>> cand;
  cand.reserve(model_.live().size());
  for (const uint32_t id : model_.live()) {
    const size_t row = model_.Row(id);
    if (tag >= 0 && !data_.HasTag(row, static_cast<uint16_t>(tag))) continue;
    cand.emplace_back(L2Squared(q, data_.row(row), kDim), id);
  }
  const size_t keep = std::min(k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + keep, cand.end());
  std::vector<uint32_t> ids(keep);
  for (size_t i = 0; i < keep; ++i) ids[i] = cand[i].second;
  return ids;
}

void Bench::GroundTruth(bool filtered,
                        std::vector<std::vector<uint32_t>>* out) {
  out->assign(kQueries, {});
  // Independent per query; two threads halve the harness's own time.
  auto work = [&](size_t begin) {
    for (size_t q = begin; q < kQueries; q += 2) {
      (*out)[q] = BruteForce(data_.query(q),
                             filtered ? data_.query_tag[q] : -1, kTopK);
    }
  };
  std::thread other(work, 1);
  work(0);
  other.join();
}

void Bench::CheckFiltered(const SearchResponse& r, uint16_t tag) {
  for (const ResultItem& item : r.items) {
    const uint32_t id = IdOf(item.asset_id);
    if (!model_.Live(id) || !data_.HasTag(model_.Row(id), tag)) {
      Violation("filtered result " + item.asset_id + " lacks " +
                TagGenerator::TagName(tag));
      return;
    }
  }
}

double Bench::Recall(const SearchResponse& r,
                     const std::vector<uint32_t>& truth) {
  if (truth.empty()) return 1.0;
  std::vector<uint32_t> got;
  got.reserve(r.items.size());
  for (const ResultItem& item : r.items) got.push_back(IdOf(item.asset_id));
  std::sort(got.begin(), got.end());
  size_t hit = 0;
  for (const uint32_t id : truth) {
    hit += std::binary_search(got.begin(), got.end(), id) ? 1 : 0;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

Result<SearchResponse> Bench::TracedSearch(const SearchRequest& req,
                                           const char* name, uint64_t parent,
                                           uint64_t request,
                                           std::vector<Span>* buf,
                                           double* ms) {
  if (request == 0) request = tracer_.NewId();
  const IoStats::View io0 = db_->io_stats_snapshot();
  Span s = tracer_.Begin(name, parent, request);
  Result<SearchResponse> r = db_->Search(req);
  tracer_.End(&s);
  *ms = s.dur_us() / 1e3;
  AttachIo(&s, db_->io_stats_snapshot() - io0);
  AttachMemory(&s);
  s.Set("filtered", req.filter.has_value() ? 1 : 0);
  if (r.ok()) AttachExplain(&s, r->explain);
  buf->push_back(std::move(s));
  return r;
}

// Times one search; a traced one also records its span into `buf`.
Result<SearchResponse> Bench::TimedSearch(const SearchRequest& req,
                                          bool traced, const char* name,
                                          std::vector<Span>* buf, double* ms) {
  if (traced) return TracedSearch(req, name, 0, 0, buf, ms);
  const Clock::time_point t0 = Clock::now();
  Result<SearchResponse> r = db_->Search(req);
  *ms = MsSince(t0);
  return r;
}

// The j-th query of closed-loop client c. Client c walks the query list
// from its own offset; in the hybrid loop it alternates unfiltered and
// MATCH queries. In the traced run every other query of each kind is
// traced, so traced and untraced latencies of the same run give the
// tracing overhead.
void Bench::LoopQuery(int c, size_t j, LoopStats* out) {
  const bool check = !config_.stream_in_loop;
  const size_t offset = c * kQueries / config_.clients;
  const bool filtered = config_.filtered_in_loop && j % 2 == 1;
  const size_t step = config_.filtered_in_loop ? j / 2 : j;
  const size_t q = (offset + step) % kQueries;
  const bool traced = tracer_.enabled() && step % 2 == 0;
  const SearchRequest req = Request(q, filtered);
  double ms = 0;
  Result<SearchResponse> r =
      TimedSearch(req, traced, "DB::Search", &out->spans, &ms);
  if (traced && step % kIndexStatsEvery == 0) {
    Span s = tracer_.Begin("DB::GetIndexStats", 0, tracer_.NewId());
    Result<IndexStats> st = db_->GetIndexStats();
    tracer_.End(&s);
    if (Ok(st.status(), "GetIndexStats")) {
      s.Set("delta_count", static_cast<double>(st->delta_count));
    }
    out->spans.push_back(std::move(s));
  }
  if (!Ok(r.status(), "Search")) return;
  // On update_mix only queries that ran beside the writer count.
  if (config_.stream_in_loop &&
      !writer_running_.load(std::memory_order_acquire)) {
    return;
  }
  ++out->queries;
  if (filtered) {
    out->hybrid_ms.push_back(ms);
  } else if (traced) {
    out->search_traced_ms.push_back(ms);
  } else {
    out->search_ms.push_back(ms);
    out->search_end_s.push_back(SecondsBetween(loop_start_, Clock::now()));
  }
  if (!check) {
    if (r->items.size() != kTopK) {
      Violation("search returned " + std::to_string(r->items.size()) +
                " items");
    }
    return;
  }
  if (filtered) CheckFiltered(*r, data_.query_tag[q]);
  const size_t slot = q + (filtered ? kQueries : 0);
  if (!seen_[slot].exchange(true)) {
    recall_[slot] =
        Recall(*r, filtered ? truth_filtered_[q] : truth_unfiltered_[q]);
  }
}

// One closed-loop client: issues its next query as soon as the previous
// returns, until the deadline (hybrid_warm) or the end of the write stream
// (update_mix).
void Bench::Client(int c, Clock::time_point deadline, LoopStats* out) {
  for (size_t j = 0;; ++j) {
    if (config_.stream_in_loop
            ? !writer_running_.load(std::memory_order_acquire)
            : Clock::now() >= deadline) {
      break;
    }
    LoopQuery(c, j, out);
  }
}

// Runs rounds on this thread until `deadline` has passed and at least
// `min_rounds` are done (see kRoundSeconds). With a `loop`, each round ends
// with the unfiltered closed loop, whose wall and CPU time are added to
// loop_s_ and loop_cpu_s_. The cold queries leave the cache as a cold
// query leaves it, so the queries after them start nearly warm.
void Bench::Rounds(Clock::time_point deadline, size_t min_rounds,
                   LoopStats* loop) {
  std::vector<Span> buf;
  size_t j = 0;
  for (size_t round = 0; round < min_rounds || Clock::now() < deadline;
       ++round) {
    const Clock::time_point round_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kRoundSeconds));
    for (size_t i = 0; i < kColdPerRound; ++i) {
      const size_t q = (round * kColdPerRound + i) * 7 % kQueries;
      Span d = tracer_.Begin("DB::DropCaches", 0, tracer_.NewId());
      db_->DropCaches();
      tracer_.End(&d);
      if (tracer_.enabled()) buf.push_back(std::move(d));
      double ms = 0;
      Result<SearchResponse> r = TimedSearch(
          Request(q, false), tracer_.enabled(), "DB::Search.cold", &buf, &ms);
      if (Ok(r.status(), "Search")) cold_ms_.push_back(ms);
    }
    for (size_t i = 0; !config_.filtered_in_loop && i < kHybridPerRound;
         ++i) {
      const size_t q = (round * kHybridPerRound + i) % kQueries;
      double ms = 0;
      Result<SearchResponse> r = TimedSearch(
          Request(q, true), tracer_.enabled(), "DB::Search.hybrid", &buf, &ms);
      if (!Ok(r.status(), "Search")) continue;
      hybrid_segment_ms_.push_back(ms);
      CheckFiltered(*r, data_.query_tag[q]);
    }
    if (loop == nullptr) continue;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    while (Clock::now() < round_end) LoopQuery(0, j++, loop);
    loop_s_ += SecondsBetween(t0, Clock::now());
    loop_cpu_s_ += ProcessCpuSeconds() - cpu0;
  }
  tracer_.Merge(&buf);
}

// The write stream: 64-row Upsert batches of new rows, ~20% of each batch
// re-upserting a live id with a fresh vector, a 13-id Delete after every
// 4th batch, and Maintain after every `maintain_every` upserted rows plus
// once at the end. Only acknowledged writes enter the reference model.
void Bench::Stream(StreamStats* out) {
  Rng rng(args_.seed * 6364136223846793005ull + 11);
  const uint32_t end = static_cast<uint32_t>(config_.rows_built +
                                             config_.rows_streamed);
  uint32_t next_new = static_cast<uint32_t>(config_.rows_built);
  size_t next_pool = end;
  size_t since_maintain = 0;
  const std::string wal_path = DbPath(kSetupRepeats - 1) + "-wal";
  const IoStats::View io0 = db_->io_stats_snapshot();
  const Clock::time_point t0 = Clock::now();
  auto note_wal = [&] {
    if (tracer_.enabled()) {
      out->wal_bytes_peak = std::max(out->wal_bytes_peak, FileSize(wal_path));
    }
  };
  auto maintain = [&] {
    Span s = tracer_.Begin("DB::Maintain", 0, tracer_.NewId());
    const IoStats::View m0 = db_->io_stats_snapshot();
    Result<MaintenanceReport> rep = db_->Maintain();
    tracer_.End(&s);
    if (Ok(rep.status(), "Maintain") && tracer_.enabled()) {
      s.Set("full_rebuild", rep->full_rebuild ? 1 : 0);
      s.Set("row_changes", static_cast<double>(rep->row_changes));
      s.Set("delta_flushed", static_cast<double>(rep->delta_flushed));
      s.Set("partitions_requantized",
            static_cast<double>(rep->partitions_requantized));
      AttachIo(&s, db_->io_stats_snapshot() - m0);
      out->spans.push_back(std::move(s));
    }
    note_wal();
    since_maintain = 0;
  };
  for (size_t batch_no = 0; next_new < end; ++batch_no) {
    std::vector<UpsertRequest> batch;
    std::vector<std::pair<uint32_t, size_t>> puts;  // id -> vector row
    while (batch.size() < kUpsertBatch && next_new < end) {
      uint32_t id = next_new;
      size_t row = next_new;
      if (static_cast<int>(rng.Uniform(100)) < kReplacePercent &&
          !model_.live().empty() && next_pool < data_.size()) {
        const uint32_t victim =
            model_.live()[rng.Uniform(model_.live().size())];
        bool dup = false;
        for (const auto& p : puts) dup |= p.first == victim;
        if (!dup) {
          id = victim;
          row = next_pool++;
        }
      }
      if (id == next_new) ++next_new;
      UpsertRequest r;
      r.asset_id = AssetOf(id);
      r.vector.assign(data_.row(row), data_.row(row) + kDim);
      r.attributes["tags"] = AttributeValue::String(data_.tag_text[row]);
      r.attributes["year"] = AttributeValue::Int(data_.year[row]);
      batch.push_back(std::move(r));
      puts.emplace_back(id, row);
    }
    Span s = tracer_.Begin("DB::Upsert", 0, tracer_.NewId());
    const IoStats::View u0 = db_->io_stats_snapshot();
    const Clock::time_point u = Clock::now();
    const Status st = db_->Upsert(batch);
    out->upsert_ms.push_back(MsSince(u));
    tracer_.End(&s);
    if (Ok(st, "Upsert")) {
      for (const auto& [id, row] : puts) model_.Put(id, row);
      out->rows_upserted += puts.size();
      since_maintain += puts.size();
    }
    if (tracer_.enabled()) {
      s.Set("rows", static_cast<double>(puts.size()));
      AttachIo(&s, db_->io_stats_snapshot() - u0);
      out->spans.push_back(std::move(s));
    }
    note_wal();
    if (batch_no % kDeleteEvery == kDeleteEvery - 1) {
      std::vector<std::string> ids;
      std::vector<uint32_t> victims;
      for (size_t i = 0; i < kDeleteCount && !model_.live().empty(); ++i) {
        const uint32_t v = model_.live()[rng.Uniform(model_.live().size())];
        if (std::find(victims.begin(), victims.end(), v) != victims.end()) {
          continue;
        }
        victims.push_back(v);
        ids.push_back(AssetOf(v));
      }
      Span d = tracer_.Begin("DB::Delete", 0, tracer_.NewId());
      const Status ds = db_->Delete(ids);
      tracer_.End(&d);
        if (Ok(ds, "Delete")) {
        for (const uint32_t v : victims) {
          deleted_.emplace_back(v, model_.Row(v));
          model_.Remove(v);
        }
      }
      if (tracer_.enabled()) out->spans.push_back(std::move(d));
      note_wal();
    }
    if (since_maintain >= config_.maintain_every) maintain();
  }
  if (since_maintain > 0) maintain();
  out->wall_s = SecondsBetween(t0, Clock::now());
  out->io = db_->io_stats_snapshot() - io0;
}

// End-of-run gates: the reference model against the DB.
void Bench::FinalChecks() {
  Result<uint64_t> count = db_->VectorCount();
  if (Ok(count.status(), "VectorCount") && *count != model_.live().size()) {
    Violation("VectorCount " + std::to_string(*count) + " != model " +
              std::to_string(model_.live().size()));
  }
  Rng rng(args_.seed + 99);
  auto nearest = [&](const float* v) -> Result<SearchResponse> {
    SearchRequest r;
    r.query.assign(v, v + kDim);
    r.k = 1;
    r.exact = true;
    return db_->Search(r);
  };
  for (size_t i = 0; i < kLiveProbes && !model_.live().empty(); ++i) {
    const uint32_t id = model_.live()[rng.Uniform(model_.live().size())];
    Result<SearchResponse> r = nearest(data_.row(model_.Row(id)));
    if (!Ok(r.status(), "Search")) continue;
    if (r->items.empty() || r->items[0].asset_id != AssetOf(id) ||
        r->items[0].distance != 0.f) {
      Violation("live id " + AssetOf(id) + " not found at distance 0");
    }
  }
  for (size_t i = 0; i < kDeletedProbes && i < deleted_.size(); ++i) {
    const auto [id, row] = deleted_[rng.Uniform(deleted_.size())];
    if (model_.Live(id)) continue;  // re-upserted after its delete
    Result<SearchResponse> r = nearest(data_.row(row));
    if (!Ok(r.status(), "Search")) continue;
    for (const ResultItem& item : r->items) {
      if (item.asset_id == AssetOf(id)) {
        Violation("deleted id " + AssetOf(id) + " still returned");
      }
    }
  }
  // Exact mode must equal brute force id-for-id (ties aside).
  for (size_t i = 0; i < kExactSpotQueries + kExactSpotFiltered; ++i) {
    const size_t q = i * 37 % kQueries;
    const bool filtered = i >= kExactSpotQueries;
    SearchRequest req = Request(q, filtered);
    req.exact = true;
    Result<SearchResponse> r = db_->Search(req);
    if (!Ok(r.status(), "Search")) continue;
    const std::vector<uint32_t> truth =
        BruteForce(data_.query(q), filtered ? data_.query_tag[q] : -1, kTopK);
    bool same = r->items.size() == truth.size();
    for (size_t j = 0; same && j < truth.size(); ++j) {
      if (IdOf(r->items[j].asset_id) == truth[j]) continue;
      // Accept a swap of equidistant neighbours.
      const float dt = L2Squared(data_.query(q),
                                 data_.row(model_.Row(truth[j])), kDim);
      same = std::abs(dt - r->items[j].distance) <= 1e-5f * (1 + dt);
    }
    if (!same) {
      Violation("exact search differs from brute force on query " +
                std::to_string(q));
    }
  }
}

void Bench::PrintFingerprint() {
  utsname u{};
  uname(&u);
  const unsigned hw = std::thread::hardware_concurrency();
  std::string out = "{\"fingerprint\": {";
  auto add = [&](const char* k, const std::string& v, bool quote) {
    if (out.back() != '{') out += ", ";
    out += "\"" + std::string(k) + "\": ";
    out += quote ? "\"" + JsonEscape(v) + "\"" : v;
  };
  add("workload", config_.name, true);
  add("seed", std::to_string(args_.seed), false);
  add("seconds", JsonNumber(args_.seconds), false);
  add("trace", args_.trace ? "1" : "0", false);
  add("nproc", std::to_string(hw), false);
  add("cpu_model", CpuModel(), true);
  add("kernel", std::string(u.sysname) + " " + u.release, true);
  add("simd", std::string(SimdLevelName(ActiveSimdLevel())), true);
  add("io_backend",
      db_ != nullptr ? IoBackendName(db_->engine()->pager()->io_backend())
                     : "unopened",
      true);
  add("build_type", PERFBENCH_BUILD_TYPE, true);
  add("flush_policy", "sync_on_commit=true", true);
  add("cache_bytes", std::to_string(config_.cache_bytes), false);
  add("nprobe", std::to_string(kNprobe), false);
  add("k", std::to_string(kTopK), false);
  add("rows_built", std::to_string(config_.rows_built), false);
  add("rows_streamed", std::to_string(config_.rows_streamed), false);
  add("clients", std::to_string(config_.clients), false);
  out += "}}";
  std::printf("%s\n", out.c_str());
}


double Bench::SpaceAmp() const {
  const std::string path = DbPath(kSetupRepeats - 1);
  const double bytes = static_cast<double>(
      FileSize(path) + FileSize(path + "-wal") + FileSize(path + "-sum"));
  return bytes / (static_cast<double>(model_.live().size()) * kDim *
                  sizeof(float));
}

Status Bench::Replay() {
  MICRONN_ASSIGN_OR_RETURN(std::unique_ptr<Replayer> replayer,
                           Replayer::Open(db_.get()));
  std::vector<Span> buf;
  MemoryTracker& mem = MemoryTracker::Global();
  for (size_t i = 0; i < kReplayQueries; ++i) {
    const size_t q = i * 5 % kQueries;
    Span root = tracer_.Begin("replay.request", 0, tracer_.NewId());
    const SearchRequest req = Request(q, false);
    const size_t total0 = mem.CurrentTotal();
    mem.ResetPeak();
    double ms = 0;
    Result<SearchResponse> r =
        TracedSearch(req, "DB::Search.replay", root.id, root.request, &buf,
                     &ms);
    const size_t peak = mem.PeakTotal();
    if (!Ok(r.status(), "Search")) continue;
    ReplayStages st;
    const Status rs = replayer->Run(req.query, kTopK, kNprobe, *r, &tracer_,
                                    root.id, root.request, &buf, &st);
    tracer_.End(&root);
    buf.push_back(root);
    if (!Ok(rs, "replay")) continue;
    if (!st.parity_error.empty()) {
      Violation("replay parity, query " + std::to_string(q) + ": " +
                st.parity_error);
    }
    replay_.push_back(st);
    replay_search_us_.push_back(ms * 1e3);
    replay_mem_exec_.push_back(
        static_cast<double>(peak > total0 ? peak - total0 : 0));
  }
  // FTS lookups for the query tags; the postings must match the reference
  // model's document frequency.
  for (size_t i = 0; i < kReplayQueries; ++i) {
    const uint16_t tag = data_.query_tag[i * 5 % kQueries];
    Span s = tracer_.Begin("replay.fts", 0, tracer_.NewId());
    double us = 0;
    uint64_t docs = 0;
    const Status st =
        replayer->TimeMatch("tags", TagGenerator::TagName(tag), &us, &docs);
    tracer_.End(&s);
    if (!Ok(st, "fts lookup")) continue;
    uint64_t df = 0;
    for (const uint32_t id : model_.live()) {
      df += data_.HasTag(model_.Row(id), tag) ? 1 : 0;
    }
    if (docs != df) {
      Violation("FTS postings of " + TagGenerator::TagName(tag) + ": " +
                std::to_string(docs) + " docs, model has " +
                std::to_string(df));
    }
    s.Set("docs", static_cast<double>(docs));
    buf.push_back(std::move(s));
    fts_us_.push_back(us);
  }
  tracer_.Merge(&buf);
  return Status::OK();
}

// A burst on the host that slows a few seconds of the loop moves a p90
// over the whole phase by up to a third; the median of per-window p90s
// moves only when most of the phase is slow. Falls back to the p90 of
// the whole phase when no window holds enough queries.
double Bench::WindowedP90() const {
  std::map<int64_t, std::vector<double>> windows;
  std::vector<double> all;
  for (const LoopStats& l : loops_) {
    for (size_t i = 0; i < l.search_ms.size(); ++i) {
      windows[static_cast<int64_t>(l.search_end_s[i] / kRoundSeconds)]
          .push_back(l.search_ms[i]);
      all.push_back(l.search_ms[i]);
    }
  }
  std::vector<double> p90s;
  for (const auto& [w, ms] : windows) {
    if (ms.size() >= kMinWindowSamples) p90s.push_back(Quantile(ms, 0.9));
  }
  return p90s.empty() ? Quantile(all, 0.9) : Median(p90s);
}

MetricMap Bench::EndToEnd() const {
  MetricMap m;
  std::vector<double> search;
  std::vector<double> hybrid = hybrid_segment_ms_;
  uint64_t queries = 0;
  for (const LoopStats& l : loops_) {
    search.insert(search.end(), l.search_ms.begin(), l.search_ms.end());
    hybrid.insert(hybrid.end(), l.hybrid_ms.begin(), l.hybrid_ms.end());
    queries += l.queries;
  }
  std::vector<double> recalls;
  for (const double r : recall_) {
    if (r >= 0) recalls.push_back(r);
  }
  const double user_bytes = static_cast<double>(stream_.rows_upserted) *
                            kDim * sizeof(float);
  m["setup_s"] = {Median(setup_s_), "s"};
  m["search_p50_ms"] = {Quantile(search, 0.5), "ms"};
  m["search_p90_ms"] = {WindowedP90(), "ms"};
  m["cold_search_p50_ms"] = {Median(cold_ms_), "ms"};
  m["hybrid_p50_ms"] = {Quantile(hybrid, 0.5), "ms"};
  m["search_qps"] = {static_cast<double>(queries) / loop_s_, "1/s"};
  m["recall_at_100"] = {Mean(recalls), "ratio"};
  m["query_mem_mib"] = {static_cast<double>(query_mem_peak_) / kMiBf, "MiB"};
  m["upsert_rows_per_s"] = {
      static_cast<double>(stream_.rows_upserted) / stream_.wall_s, "1/s"};
  m["upsert_p50_ms"] = {Quantile(stream_.upsert_ms, 0.5), "ms"};
  m["write_amp"] = {static_cast<double>(stream_.io.frames_written +
                                        stream_.io.checkpoint_pages) *
                        kPageSize / user_bytes,
                    "ratio"};
  m["space_amp"] = {space_amp_, "ratio"};
  std::fprintf(stderr,
               "samples: search %zu, hybrid %zu, cold %zu, upsert %zu, "
               "recall over %zu queries\n",
               search.size(), hybrid.size(), cold_ms_.size(),
               stream_.upsert_ms.size(), recalls.size());
  return m;
}

MetricMap Bench::PerLayer() const {
  MetricMap m;
  auto named = [&](const char* name) {
    std::vector<const Span*> out;
    for (const Span& s : tracer_.spans()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(&s);
    }
    return out;
  };
  auto durations_s = [&](const char* name) {
    std::vector<double> d;
    for (const Span* s : named(name)) d.push_back(s->dur_us() / 1e6);
    return d;
  };
  auto sum = [](const std::vector<const Span*>& spans, const char* key) {
    double total = 0;
    for (const Span* s : spans) total += s->Get(key);
    return total;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<double> load_s;
  for (const Span* s : named("load")) load_s.push_back(s->Get("upsert_s"));
  m["core.load_s"] = {Median(load_s), "s"};
  m["core.build_index_s"] = {Median(durations_s("DB::BuildIndex")), "s"};

  // Storage read path: the replayed DB::Search calls, which run alone.
  const std::vector<const Span*> rs = named("DB::Search.replay");
  const double n_rs = static_cast<double>(rs.size());
  const double hits = sum(rs, "pages_cache_hit");
  const double misses = sum(rs, "cache_misses");
  m["storage.pages_touched_per_query"] = {per(hits + misses, n_rs), "count"};
  m["storage.cache_hit_ratio"] = {per(hits, hits + misses), "ratio"};
  m["storage.main_reads_per_query"] = {per(sum(rs, "pages_read_main"), n_rs),
                                       "count"};
  m["storage.read_syscalls_per_query"] = {
      per(sum(rs, "read_syscalls"), n_rs), "count"};
  m["storage.prefetch_useful"] = {
      per(sum(rs, "prefetch_hits"), sum(rs, "pages_prefetched")), "ratio"};
  m["storage.evictions_per_query"] = {per(sum(rs, "cache_evictions"), n_rs),
                                      "count"};
  m["storage.wal_reads_per_query"] = {per(sum(rs, "pages_read_wal"), n_rs),
                                      "count"};

  // Storage write path: the whole write stream.
  const IoStats::View& w = stream_.io;
  const double commits = static_cast<double>(w.commits);
  m["storage.frames_per_commit"] = {per(w.frames_written, commits), "count"};
  m["storage.wal_writes_per_commit"] = {per(w.wal_writes, commits), "count"};
  m["storage.wal_syncs_per_commit"] = {per(w.wal_syncs, commits), "count"};
  m["storage.checkpoint_pages"] = {static_cast<double>(w.checkpoint_pages),
                                   "count"};
  m["storage.write_syscalls"] = {static_cast<double>(w.write_syscalls),
                                 "count"};
  m["storage.wal_bytes_peak"] = {
      static_cast<double>(stream_.wal_bytes_peak) / kMiBf, "MiB"};
  m["storage.backpressure_stalls"] = {
      static_cast<double>(g_backpressure_stalls.load()), "count"};
  m["storage.io_retries"] = {static_cast<double>(run_io_.io_retries),
                             "count"};
  m["storage.corruptions_detected"] = {
      static_cast<double>(run_io_.corruptions_detected), "count"};

  std::vector<double> probe, scan, rerank, residual, coverage;
  double resolve_us = 0, point_reads = 0, sq8_ns = 0, sq8_rows = 0,
         l2_ns = 0, l2_rows = 0;
  for (size_t i = 0; i < replay_.size(); ++i) {
    const ReplayStages& st = replay_[i];
    probe.push_back(st.probe_us);
    scan.push_back(st.scan_us);
    rerank.push_back(st.rerank_us);
    residual.push_back(replay_search_us_[i] - st.StageSumUs());
    coverage.push_back(st.StageSumUs() / replay_search_us_[i]);
    resolve_us += st.resolve_us;
    point_reads += static_cast<double>(st.point_reads);
    sq8_ns += st.sq8_ns;
    sq8_rows += static_cast<double>(st.sq8_rows);
    l2_ns += st.l2_ns;
    l2_rows += static_cast<double>(st.l2_rows);
  }
  m["storage.point_read_us"] = {per(resolve_us, point_reads), "us"};

  // Index and query layers: the traced timed-phase searches.
  std::vector<const Span*> unfiltered, filtered, scanning;
  for (const Span* s : named("DB::Search")) {
    (s->Get("filtered") != 0 ? filtered : unfiltered).push_back(s);
    if (s->Get("plan") != static_cast<double>(QueryPlan::kPreFilter)) {
      scanning.push_back(s);
    }
  }
  for (const Span* s : named("DB::Search.hybrid")) filtered.push_back(s);
  const double n_unf = static_cast<double>(unfiltered.size());
  m["ivf.partitions_scanned_per_query"] = {
      per(sum(unfiltered, "partitions_scanned"), n_unf), "count"};
  m["ivf.rows_scanned_per_query"] = {
      per(sum(unfiltered, "rows_scanned"), n_unf), "count"};
  m["ivf.quantized_frac"] = {per(sum(unfiltered, "partitions_quantized"),
                                 sum(unfiltered, "partitions_scanned")),
                             "ratio"};
  m["ivf.rows_reranked_per_query"] = {
      per(sum(unfiltered, "rows_reranked"), n_unf), "count"};
  m["ivf.probe_us"] = {Median(probe), "us"};
  m["ivf.scan_us"] = {Median(scan), "us"};
  m["ivf.rerank_us"] = {Median(rerank), "us"};
  const std::vector<const Span*> stats = named("DB::GetIndexStats");
  m["ivf.delta_rows"] = {
      per(sum(stats, "delta_count"), static_cast<double>(stats.size())),
      "count"};
  double flush_s = 0, rebuild_s = 0, row_changes = 0;
  for (const Span* s : named("DB::Maintain")) {
    (s->Get("full_rebuild") != 0 ? rebuild_s : flush_s) += s->dur_us() / 1e6;
    row_changes += s->Get("row_changes");
  }
  m["ivf.maint_flush_s"] = {flush_s, "s"};
  m["ivf.maint_rebuild_s"] = {rebuild_s, "s"};
  m["ivf.maint_row_changes"] = {row_changes, "count"};
  m["numerics.sq8_ns_per_row"] = {per(sq8_ns, sq8_rows), "ns"};
  m["numerics.l2_ns_per_row"] = {per(l2_ns, l2_rows), "ns"};

  const std::vector<const Span*> loop = named("DB::Search");
  const double n_loop = static_cast<double>(loop.size());
  m["query.sched_wait_us"] = {per(sum(loop, "coalesce_wait_us"), n_loop),
                              "us"};
  m["query.group_size"] = {per(sum(loop, "group_size"), n_loop), "count"};
  m["query.scan_share"] = {per(sum(scanning, "group_probe_pairs"),
                               sum(scanning, "group_partitions_scanned")),
                           "ratio"};
  std::vector<const Span*> pre;
  for (const Span* s : filtered) {
    if (s->Get("plan") == static_cast<double>(QueryPlan::kPreFilter)) {
      pre.push_back(s);
    }
  }
  const double n_fil = static_cast<double>(filtered.size());
  m["query.prefilter_frac"] = {per(static_cast<double>(pre.size()), n_fil),
                               "ratio"};
  m["query.candidates_per_prefilter"] = {
      per(sum(pre, "candidates"), static_cast<double>(pre.size())), "count"};
  m["query.rows_filtered_per_query"] = {
      per(sum(filtered, "rows_filtered"), n_fil), "count"};
  m["query.residual_us"] = {Median(residual), "us"};
  m["text.match_us"] = {Median(fts_us_), "us"};

  double page_cache = 0;
  uint64_t queries = 0;
  for (const Span* s : loop) {
    page_cache = std::max(page_cache, s->Get("mem_page_cache"));
  }
  for (const LoopStats& l : loops_) queries += l.queries;
  m["common.mem_page_cache_mib"] = {page_cache / kMiBf, "MiB"};
  double exec_peak = 0;
  for (const double b : replay_mem_exec_) exec_peak = std::max(exec_peak, b);
  m["common.mem_query_exec_mib"] = {exec_peak / kMiBf, "MiB"};
  m["common.cpu_ms_per_query"] = {
      per(loop_cpu_s_ * 1e3, static_cast<double>(queries)), "ms"};

  std::vector<double> untraced, traced;
  for (const LoopStats& l : loops_) {
    untraced.insert(untraced.end(), l.search_ms.begin(), l.search_ms.end());
    traced.insert(traced.end(), l.search_traced_ms.begin(),
                  l.search_traced_ms.end());
  }
  m["trace.coverage"] = {Median(coverage), "ratio"};
  m["trace.overhead_us"] = {(Median(traced) - Median(untraced)) * 1e3, "us"};
  m["trace.replayed_queries"] = {static_cast<double>(replay_.size()),
                                 "count"};
  return m;
}

int Bench::Run() {
  InstallLogSink();
  // Wall time per phase, on stderr, for sizing the workloads.
  Clock::time_point mark = Clock::now();
  std::string phases;
  auto phase = [&](const char* name) {
    const Clock::time_point now = Clock::now();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s %.2fs", name,
                  SecondsBetween(mark, now));
    phases += buf;
    mark = now;
  };
  data_ = GenerateWorkloadData(config_, args_.seed);
  phase("generate");
  seen_.reset(new std::atomic<bool>[2 * kQueries]);
  for (size_t i = 0; i < 2 * kQueries; ++i) seen_[i] = false;
  recall_.assign(2 * kQueries, -1);

  // Set-up, repeated; the last database is the one the run uses.
  for (int n = 0; n < kSetupRepeats; ++n) {
    if (db_ != nullptr) {
      Ok(db_->Close(), "Close");
      db_.reset();
      fs::remove_all(fs::path(DbPath(n - 1)).parent_path());
    }
    FlushFileSystem(args_.workdir);
    double s = 0;
    const Status st = SetupOnce(n, &s);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s_.push_back(s);
  }
  for (uint32_t id = 0; id < config_.rows_built; ++id) model_.Put(id, id);
  PrintFingerprint();
  phase("setup");

  FlushFileSystem(args_.workdir);
  if (!config_.stream_in_loop) {
    space_amp_ = SpaceAmp();
    GroundTruth(false, &truth_unfiltered_);
    if (config_.filtered_in_loop) GroundTruth(true, &truth_filtered_);
  }
  phase("truth");

  // Timed phase: closed-loop clients, plus the writer on update_mix; on
  // disk_ann, rounds of the cold, filtered and unfiltered segments.
  loops_.resize(config_.clients);
  MemoryTracker::Global().ResetPeak();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  loop_start_ = start;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args_.seconds));
  std::thread writer;
  if (config_.stream_in_loop) {
    writer_running_ = true;
    writer = std::thread([this, cpu0] {
      Stream(&stream_);
      // CPU time over the same window as the counted reader queries.
      loop_cpu_s_ = ProcessCpuSeconds() - cpu0;
      writer_running_.store(false, std::memory_order_release);
    });
  }
  if (config_.rounds_in_loop()) {
    Rounds(deadline, 0, &loops_[0]);
  } else {
    std::vector<std::thread> clients;
    for (int c = 1; c < config_.clients; ++c) {
      clients.emplace_back(&Bench::Client, this, c, deadline, &loops_[c]);
    }
    Client(0, deadline, &loops_[0]);
    for (std::thread& t : clients) t.join();
    if (writer.joinable()) writer.join();
    // On update_mix the counted queries are those beside the writer.
    if (!config_.stream_in_loop) {
      loop_s_ = SecondsBetween(start, Clock::now());
      loop_cpu_s_ = ProcessCpuSeconds() - cpu0;
    } else {
      loop_s_ = stream_.wall_s;
    }
  }
  query_mem_peak_ = MemoryTracker::Global().PeakTotal();
  for (LoopStats& l : loops_) tracer_.Merge(&l.spans);
  tracer_.Merge(&stream_.spans);
  FlushFileSystem(args_.workdir);
  phase("timed");

  if (config_.stream_in_loop) {
    // Space and recall on the final live set. How much of the WAL the
    // stream's checkpoints folded depends on where the reader's snapshots
    // fell, so the database is closed (which folds and resets the WAL) and
    // reopened, untimed, before the later segments read it.
    space_amp_ = SpaceAmp();
    // The replay reads the WAL as the stream left it.
    if (tracer_.enabled()) Ok(Replay(), "replay");
    Ok(db_->Close(), "Close");
    db_.reset();
    Result<std::unique_ptr<DB>> reopened =
        DB::Open(DbPath(kSetupRepeats - 1), MakeOptions());
    if (!Ok(reopened.status(), "Open")) return 1;
    db_ = std::move(*reopened);
    FlushFileSystem(args_.workdir);
    GroundTruth(false, &truth_unfiltered_);
    for (size_t q = 0; q < kQueries; ++q) {
      Result<SearchResponse> r = db_->Search(Request(q, false));
      if (Ok(r.status(), "Search")) {
        recall_[q] = Recall(*r, truth_unfiltered_[q]);
      }
    }
  }

  if (tracer_.enabled() && !config_.stream_in_loop) Ok(Replay(), "replay");
  phase("recall+replay");

  // The rounds, where the timed phase has none: until the deadline on
  // update_mix, whose stream may end before it. The cold queries (Fig. 4)
  // drop every in-memory cache first; the files stay in the OS page cache,
  // so this is the program's cold path, not a device read.
  if (!config_.rounds_in_loop()) Rounds(deadline, kMinRounds, nullptr);
  phase("rounds");

  if (!config_.stream_in_loop) {
    FlushFileSystem(args_.workdir);
    Stream(&stream_);
    tracer_.Merge(&stream_.spans);
  }
  phase("stream");
  FinalChecks();
  run_io_ = db_->io_stats_snapshot();
  Ok(db_->Close(), "Close");
  db_.reset();
  fs::remove_all(fs::path(DbPath(kSetupRepeats - 1)).parent_path());
  phase("checks");
  std::fprintf(stderr, "phases:%s\n", phases.c_str());

  MetricMap metrics = tracer_.enabled() ? PerLayer() : EndToEnd();
  if (tracer_.enabled()) {
    const std::string dir = args_.workdir + "/traces";
    fs::create_directories(dir);
    const std::string path = dir + "/" + config_.name + "-seed" +
                             std::to_string(args_.seed) + ".jsonl";
    if (!tracer_.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans in %s\n", tracer_.spans().size(),
                 path.c_str());
  }
  for (const std::string& v : violations_) {
    std::fprintf(stderr, "violation: %s\n", v.c_str());
  }

  const std::vector<std::pair<const char*, const char*>>& names =
      tracer_.enabled() ? kPerLayerMetrics : kEndToEndMetrics;
  std::string out = "{\"correct\": ";
  const uint64_t failed = failed_.load();
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_.load());
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      std::fprintf(stderr, "internal error: metric %s not computed\n", name);
      return 1;
    }
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += name;
    out += "\": {\"value\": " + JsonNumber(it->second.value);
    out += ", \"unit\": \"";
    out += unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::WorkloadConfig config;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  if (!perfbench::FindWorkload(args.workload, &config)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(std::move(args), std::move(config));
  return bench.Run();
}
