#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include "graph/generators.hpp"
#include "io/device.hpp"
#include "io/file.hpp"
#include "obs/json_writer.hpp"
#include "partition/grid_dataset.hpp"
#include "partition/manifest.hpp"
#include "util/clock.hpp"
#include "util/crc32c.hpp"

namespace perfbench {

using graphsd::Result;
using graphsd::Status;

Result<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  spec.p = tiny ? 4 : 8;
  if (name == "pr-rmat") {
    // The reference workload: RMAT scale 20, edge factor 16, unweighted.
    spec.kind = WorkloadKind::kPageRank;
    spec.rmat_scale = tiny ? 12 : 20;
    spec.rmat_edge_factor = 16;
    return spec;
  }
  if (name == "sssp-web" || name == "bfs-serve") {
    // Web-crawl graphs with 12 % whisker chains: the chains give the long
    // sparse-frontier tail that exercises the state-aware scheduler.
    const bool serve = name == "bfs-serve";
    spec.kind = serve ? WorkloadKind::kServe : WorkloadKind::kSssp;
    spec.web_vertices = tiny ? (serve ? 2048 : 4096) : (serve ? 131072 : 262144);
    spec.web_avg_degree = 16;
    spec.whisker_fraction = 0.12;
    spec.max_weight = serve ? 0 : 100;
    spec.codec = serve ? "varint-delta" : "none";
    return spec;
  }
  return graphsd::InvalidArgumentError(
      "unknown workload '" + name + "' (pr-rmat | sssp-web | bfs-serve)");
}

graphsd::EdgeList GenerateGraph(const WorkloadSpec& spec, std::uint64_t seed) {
  if (spec.kind == WorkloadKind::kPageRank) {
    graphsd::RmatOptions o;
    o.scale = spec.rmat_scale;
    o.edge_factor = spec.rmat_edge_factor;
    o.max_weight = spec.max_weight;
    o.seed = seed;
    return graphsd::GenerateRmat(o);
  }
  graphsd::WebGraphOptions o;
  o.num_vertices = spec.web_vertices;
  o.avg_degree = spec.web_avg_degree;
  o.max_weight = spec.max_weight;
  o.seed = seed;
  graphsd::EdgeList graph = graphsd::GenerateWebGraph(o);
  // Same whisker shape as `graphsd generate --whiskers`.
  graphsd::AppendWhiskers(
      graph, static_cast<VertexId>(graph.num_vertices() * spec.whisker_fraction),
      32, seed, spec.max_weight);
  return graph;
}

unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t EngineThreads() { return std::min(HardwareThreads(), 4u); }

std::string GraphPath(const std::string& work) { return work + "/graph.bin"; }
std::string DatasetDir(const std::string& work) { return work + "/dataset"; }
std::string ExpectedPath(const std::string& work) {
  return work + "/expected.f64";
}
std::string InputsPath(const std::string& work) { return work + "/inputs.txt"; }

Status WriteKeyValues(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::string text;
  for (const auto& [key, value] : entries) text += key + "=" + value + "\n";
  return graphsd::io::WriteStringToFile(path, text);
}

Result<std::map<std::string, std::string>> ReadKeyValues(
    const std::string& path) {
  auto text = graphsd::io::ReadFileToString(path);
  if (!text.ok()) return text.status();
  std::map<std::string, std::string> out;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return graphsd::CorruptDataError("bad line in " + path + ": " + line);
    }
    out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

Status WriteDoubles(const std::string& path, const std::vector<double>& values) {
  std::string bytes(values.size() * sizeof(double), '\0');
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return graphsd::io::WriteStringToFile(path, bytes);
}

Result<std::vector<double>> ReadDoubles(const std::string& path) {
  auto bytes = graphsd::io::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() % sizeof(double) != 0) {
    return graphsd::CorruptDataError(path + ": truncated value file");
  }
  std::vector<double> values(bytes->size() / sizeof(double));
  std::memcpy(values.data(), bytes->data(), bytes->size());
  return values;
}

// ---- Record -----------------------------------------------------------------

void Record::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Record::Meta(const std::string& key, const std::string& value) {
  graphsd::obs::JsonWriter json;
  json.String(value);
  meta_.emplace_back(key, json.Finish());
}

void Record::Meta(const std::string& key, double value) {
  graphsd::obs::JsonWriter json;
  json.Double(value);
  meta_.emplace_back(key, json.Finish());
}

void Record::Diagnostic(const std::string& key, std::string json) {
  diagnostics_.emplace_back(key, std::move(json));
}

std::string Record::ToJson() const {
  graphsd::obs::JsonWriter json;
  json.BeginObject();
  json.Field("attempted", attempted_);
  json.Field("failed", failed_);
  json.Key("metrics");
  json.BeginObject();
  for (const Entry& m : metrics_) {
    json.Key(m.name);
    json.BeginObject();
    json.Field("value", m.value);
    json.Field("unit", m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("meta");
  json.BeginObject();
  for (const auto& [key, value] : meta_) {
    json.Key(key);
    json.RawValue(value);
  }
  json.EndObject();
  json.Key("diagnostics");
  json.BeginObject();
  for (const auto& [key, value] : diagnostics_) {
    json.Key(key);
    json.RawValue(value);
  }
  json.EndObject();
  json.EndObject();
  return json.Finish();
}

// ---- Statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[lo + 1] - values[lo]);
}

// ---- Span analysis ----------------------------------------------------------

namespace {

struct Interval {
  double begin = 0;
  double end = 0;
};

// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double covered = 0;
  double cursor = lo;
  for (const Interval& iv : intervals) {
    const double b = std::max(iv.begin, cursor);
    const double e = std::min(iv.end, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

SpanBreakdown AnalyzeSpans(const std::vector<graphsd::obs::TraceEvent>& events,
                           const std::string& root) {
  SpanBreakdown out;
  std::map<std::uint32_t, std::vector<const graphsd::obs::TraceEvent*>> by_tid;
  std::vector<Interval> roots;
  std::vector<Interval> inner;
  for (const auto& e : events) {
    by_tid[e.tid].push_back(&e);
    const Interval iv{e.start_us, e.start_us + e.duration_us};
    (root == e.name ? roots : inner).push_back(iv);
  }
  // Spans on one thread come from scoped objects, so they nest: walk each
  // thread's spans in start order with a stack of open ancestors, and
  // charge every span's duration to its innermost enclosing parent.
  for (auto& [tid, list] : by_tid) {
    std::stable_sort(list.begin(), list.end(), [](auto* a, auto* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      return a->duration_us > b->duration_us;
    });
    struct Open {
      const graphsd::obs::TraceEvent* event;
      double child_us;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& open) {
      out.self_seconds[open.event->name] +=
          std::max(0.0, open.event->duration_us - open.child_us) * 1e-6;
    };
    for (const auto* e : list) {
      while (!stack.empty() &&
             stack.back().event->start_us + stack.back().event->duration_us <=
                 e->start_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += e->duration_us;
      stack.push_back({e, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  for (const Interval& r : roots) {
    const double length = r.end - r.begin;
    out.root_seconds += length * 1e-6;
    out.unattributed_seconds +=
        (length - CoveredLength(inner, r.begin, r.end)) * 1e-6;
    ++out.roots;
  }
  return out;
}

void RecordSpanMetrics(const SpanBreakdown& spans, Record& record) {
  const double per_job = spans.roots > 0 ? 1.0 / spans.roots : 0.0;
  const auto self = [&](const char* name) {
    auto it = spans.self_seconds.find(name);
    return it == spans.self_seconds.end() ? 0.0 : it->second * per_job;
  };
  record.Metric("io.edge_read_s", self("edge-read"), "s");
  record.Metric("io.index_load_s", self("index-load") + self("index-read"), "s");
  record.Metric("cross_iter.s", self("cross-iter-update"), "s");
  record.Metric("state.load_s", self("state-load"), "s");
  record.Metric("state.writeback_s", self("write-back"), "s");
  record.Metric("apply.compute_span_s", self("compute"), "s");
  record.Metric("decode.span_s", self("decode"), "s");
  record.Metric("sched.decision_span_s", self("schedule-decision"), "s");
  record.Metric("trace.unattributed_frac",
                spans.root_seconds > 0
                    ? spans.unattributed_seconds / spans.root_seconds
                    : 0.0,
                "fraction");
  graphsd::obs::JsonWriter json;
  json.BeginObject();
  for (const auto& [name, seconds] : spans.self_seconds) {
    json.Field(name, seconds * per_job);
  }
  json.EndObject();
  record.Diagnostic("self_seconds_per_job", json.Finish());
}

// ---- Layer probes -----------------------------------------------------------

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

Result<ProbeResult> RunProbes(const std::string& dataset_dir) {
  namespace io = graphsd::io;
  namespace partition = graphsd::partition;
  constexpr double kMinProbeSeconds = 0.25;
  ProbeResult out;

  std::vector<double> opens;
  for (int rep = 0; rep < 5; ++rep) {
    auto device = io::MakePosixDevice();
    graphsd::WallTimer timer;
    auto ds = partition::GridDataset::Open(*device, dataset_dir);
    if (!ds.ok()) return ds.status();
    opens.push_back(timer.Seconds());
  }
  out.open_s = Median(opens);

  auto device = io::MakePosixDevice();
  auto opened = partition::GridDataset::Open(*device, dataset_dir);
  if (!opened.ok()) return opened.status();
  const partition::GridDataset& ds = *opened;
  const std::uint32_t p = ds.p();

  // Crc32c over the edge files' bytes, already in memory.
  std::vector<std::string> files;
  std::uint64_t file_bytes = 0;
  for (std::uint32_t i = 0; i < p; ++i) {
    for (std::uint32_t j = 0; j < p; ++j) {
      auto bytes = io::ReadFileToString(
          partition::SubBlockEdgesPath(dataset_dir, i, j));
      if (!bytes.ok()) return bytes.status();
      file_bytes += bytes->size();
      files.push_back(std::move(bytes).value());
    }
  }
  volatile std::uint32_t crc_sink = 0;  // keeps the checksums observable
  std::uint64_t passes = 0;
  graphsd::WallTimer crc_timer;
  do {
    for (const std::string& f : files) {
      crc_sink = crc_sink ^ graphsd::Crc32c(0, f.data(), f.size());
    }
    ++passes;
  } while (crc_timer.Seconds() < kMinProbeSeconds);
  const double crc_s = crc_timer.Seconds() / static_cast<double>(passes);
  files.clear();
  out.crc_mb_per_s = static_cast<double>(file_bytes) / kMiB / crc_s;

  // FetchSubBlock / DecodeSubBlock over every sub-block, one at a time.
  const bool weights = ds.weighted();
  double fetch_s = 0;
  double decode_s = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t decoded_bytes = 0;
  for (std::uint32_t i = 0; i < p; ++i) {
    for (std::uint32_t j = 0; j < p; ++j) {
      graphsd::WallTimer timer;
      auto payload = ds.FetchSubBlock(i, j, weights);
      fetch_s += timer.Seconds();
      if (!payload.ok()) return payload.status();
      disk_bytes += ds.SubBlockDiskBytes(i, j, weights);
      if (payload->frame.empty()) continue;
      timer.Restart();
      GRAPHSD_RETURN_IF_ERROR(ds.DecodeSubBlock(i, j, *payload));
      decode_s += timer.Seconds();
      decoded_bytes += payload->block.edges.size() * sizeof(graphsd::Edge);
    }
  }
  out.fetch_mb_per_s = fetch_s > 0 ? disk_bytes / kMiB / fetch_s : 0;
  out.decode_mb_per_s = decode_s > 0 ? decoded_bytes / kMiB / decode_s : 0;

  if (ds.manifest().has_index) {
    double index_s = 0;
    std::uint64_t index_bytes = 0;
    for (std::uint32_t i = 0; i < p; ++i) {
      for (std::uint32_t j = 0; j < p; ++j) {
        graphsd::WallTimer timer;
        auto index = ds.LoadIndex(i, j);
        if (!index.ok()) return index.status();
        index_s += timer.Seconds();
        index_bytes += index->size() * sizeof(std::uint32_t);
      }
    }
    out.index_mb_per_s = index_s > 0 ? index_bytes / kMiB / index_s : 0;
  }
  return out;
}

}  // namespace perfbench
