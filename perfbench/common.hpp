// Shared pieces of the benchmark program: the workload table, the files a
// prepared workload leaves in its work directory, the metric record each
// phase prints, span self-time analysis and the per-layer probes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace perfbench {

using graphsd::VertexId;

enum class WorkloadKind { kPageRank, kSssp, kServe };

/// One benchmark workload: the graph to generate and how it is stored.
/// PageRank runs on an RMAT graph, the others on web-crawl graphs.
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kPageRank;
  std::uint32_t rmat_scale = 0;
  std::uint32_t rmat_edge_factor = 0;
  VertexId web_vertices = 0;
  std::uint32_t web_avg_degree = 0;
  double whisker_fraction = 0;  // appended whisker vertices / web_vertices
  double max_weight = 0;        // 0 = unweighted
  std::uint32_t p = 0;
  std::string codec = "none";
};

/// Looks up `name` at full or tiny (self-test) size.
graphsd::Result<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// Deterministic edge list for (spec, seed).
graphsd::EdgeList GenerateGraph(const WorkloadSpec& spec, std::uint64_t seed);

/// Engine worker threads: min(hardware threads, 4).
std::size_t EngineThreads();
unsigned HardwareThreads();

// ---- Work-directory layout ------------------------------------------------

std::string GraphPath(const std::string& work);     // binary edge list
std::string DatasetDir(const std::string& work);    // preprocessed grid
std::string ExpectedPath(const std::string& work);  // reference values
std::string InputsPath(const std::string& work);    // key=value facts

/// Small key=value file of prepared-input facts (root, counts, queries).
graphsd::Status WriteKeyValues(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries);
graphsd::Result<std::map<std::string, std::string>> ReadKeyValues(
    const std::string& path);

graphsd::Status WriteDoubles(const std::string& path,
                             const std::vector<double>& values);
graphsd::Result<std::vector<double>> ReadDoubles(const std::string& path);

// ---- Result record ----------------------------------------------------------

/// What one phase prints as its last stdout line: op counts, named metrics
/// with units, run metadata and ungated diagnostics. run.py merges the
/// phases' records into the benchmark's result line.
class Record {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  /// `json` must be a complete JSON value.
  void Diagnostic(const std::string& key, std::string json);
  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;  // key, JSON value
  std::vector<std::pair<std::string, std::string>> diagnostics_;
};

// ---- Statistics -----------------------------------------------------------

double Median(std::vector<double> values);
/// Percentile interpolated linearly between the closest ranks, `q` in
/// [0, 1]; steadier than nearest-rank on the few jobs of one run.
double Percentile(std::vector<double> values, double q);

constexpr double kMiB = 1024.0 * 1024.0;

// ---- Span analysis ----------------------------------------------------------

/// Per-layer time of the traced jobs. A span's self time is its duration
/// minus the part its child spans on the same thread cover; self times are
/// summed per span name across threads (loader and compute shards alike).
struct SpanBreakdown {
  std::map<std::string, double> self_seconds;
  /// Wall time of the `root` spans, and the part of it no other span on
  /// any thread covers.
  double root_seconds = 0;
  double unattributed_seconds = 0;
  std::uint64_t roots = 0;
};
SpanBreakdown AnalyzeSpans(const std::vector<graphsd::obs::TraceEvent>& events,
                           const std::string& root);

/// Records the engine spans' self times per root span (one engine job
/// each), trace.unattributed_frac, and every span name's self time as a
/// diagnostic.
void RecordSpanMetrics(const SpanBreakdown& spans, Record& record);

// ---- Layer probes -----------------------------------------------------------

/// Throughput of the storage-layer calls on one dataset, measured outside
/// the engine: Crc32c over the edge files, FetchSubBlock and DecodeSubBlock
/// over every sub-block, and LoadIndex over every index.
struct ProbeResult {
  double crc_mb_per_s = 0;
  double fetch_mb_per_s = 0;
  double decode_mb_per_s = 0;  // 0 on raw datasets: nothing to decode
  double index_mb_per_s = 0;
  double open_s = 0;           // median GridDataset::Open
};
graphsd::Result<ProbeResult> RunProbes(const std::string& dataset_dir);

/// On-disk bytes of every file in `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench
