// pr-rmat and sssp-web: one engine job at a time on a page-cache-warm
// `posix` dataset. An op is one GraphSDEngine::Run to completion, checked
// against the in-memory reference computed before any timing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/reference_algorithms.hpp"
#include "io/device.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using graphsd::Result;
using graphsd::Status;

constexpr std::uint32_t kPageRankIterations = 10;
// PageRank is a fixed-iteration sum program: the engine and the reference
// add the same terms in different orders, so values agree only up to
// reassociation. This is the differential harness's tolerance for
// fixed-iteration gather programs (src/testing/difftest.cpp).
constexpr double kRelTol = 1e-9;
constexpr double kAbsTol = 1e-12;

bool ValuesMatch(WorkloadKind kind, double want, double got) {
  if (kind == WorkloadKind::kSssp) {
    // SSSP is monotone: distances must be bit-identical to ReferenceSssp.
    return std::memcmp(&want, &got, sizeof(double)) == 0;
  }
  if (std::isnan(want) || std::isnan(got)) return false;
  return std::abs(want - got) <=
         kAbsTol + kRelTol * std::max(std::abs(want), std::abs(got));
}

struct Job {
  double wall_s = 0;
  bool ok = false;
  graphsd::core::ExecutionReport report;
  double evictions = 0;
  double buffer_capacity_bytes = 0;
};

std::string ModelString(const graphsd::core::ExecutionReport& report) {
  std::string models;
  for (const auto& round : report.per_round) {
    models.push_back(static_cast<char>(round.model));
  }
  return models;
}

}  // namespace

Status PrepareJobInputs(const WorkloadSpec& spec, const graphsd::EdgeList& graph,
                        std::uint64_t seed, const std::string& work) {
  const VertexId n = graph.num_vertices();
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<double> expected;
  if (spec.kind == WorkloadKind::kPageRank) {
    expected = graphsd::ReferencePageRank(graph, kPageRankIterations);
  } else {
    // A seeded root inside the giant component: whisker vertices reach only
    // their own chain, which would make a trivial job.
    graphsd::Xoshiro256 rng(seed ^ 0x5353535350ull);
    for (int attempt = 0; attempt < 64 && expected.empty(); ++attempt) {
      const auto root = static_cast<VertexId>(rng.NextBounded(n));
      std::vector<double> dist = graphsd::ReferenceSssp(graph, root);
      std::uint64_t reached = 0;
      for (const double d : dist) reached += std::isfinite(d) ? 1 : 0;
      if (2 * reached >= n) {
        expected = std::move(dist);
        facts.emplace_back("root", std::to_string(root));
      }
    }
    if (expected.empty()) {
      return graphsd::InternalError("no SSSP root reaches half the graph");
    }
  }
  GRAPHSD_RETURN_IF_ERROR(WriteDoubles(ExpectedPath(work), expected));
  return WriteKeyValues(InputsPath(work), facts);
}

Status RunJobs(const WorkloadSpec& spec, const RunOptions& options,
               Record& record) {
  namespace core = graphsd::core;
  namespace obs = graphsd::obs;

  auto facts = ReadKeyValues(InputsPath(options.work));
  if (!facts.ok()) return facts.status();
  auto expected = ReadDoubles(ExpectedPath(options.work));
  if (!expected.ok()) return expected.status();
  VertexId root = 0;
  if (spec.kind == WorkloadKind::kSssp) {
    root = static_cast<VertexId>(std::stoul(facts->at("root")));
  }

  auto device = graphsd::io::MakePosixDevice();
  auto opened =
      graphsd::partition::GridDataset::Open(*device, DatasetDir(options.work));
  if (!opened.ok()) return opened.status();
  const graphsd::partition::GridDataset& dataset = *opened;
  if (expected->size() != dataset.num_vertices()) {
    return graphsd::CorruptDataError("reference size differs from dataset");
  }

  obs::TraceBuffer trace;
  std::uint64_t op_index = 0;
  const auto run_job = [&](obs::TraceBuffer* sink) {
    Job job;
    obs::MetricsRegistry metrics;
    core::EngineOptions engine_options;
    engine_options.num_threads = EngineThreads();
    engine_options.metrics = &metrics;
    engine_options.trace = sink;
    core::GraphSDEngine engine(dataset, engine_options);
    std::unique_ptr<core::Program> program;
    if (spec.kind == WorkloadKind::kPageRank) {
      program = std::make_unique<graphsd::algos::PageRank>(kPageRankIterations);
    } else {
      program = std::make_unique<graphsd::algos::Sssp>(root);
    }

    graphsd::WallTimer timer;
    Result<core::ExecutionReport> report = graphsd::InternalError("not run");
    {
      obs::TraceSpan span(sink, "job", 0);
      report = engine.Run(*program);
    }
    job.wall_s = timer.Seconds();
    const bool corrupt = options.inject_wrong_result && op_index == 1;
    ++op_index;

    if (!report.ok()) {
      std::fprintf(stderr, "perfbench: job failed: %s\n",
                   report.status().ToString().c_str());
      record.CountOp(false);
      return job;
    }
    job.report = std::move(report).value();
    job.ok = !job.report.cancelled;
    for (VertexId v = 0; v < dataset.num_vertices() && job.ok; ++v) {
      double got = program->ValueOf(*engine.state(), v);
      if (corrupt && v == root) got = got == 0 ? 1.0 : -got;
      if (!ValuesMatch(spec.kind, (*expected)[v], got)) {
        std::fprintf(stderr,
                     "perfbench: wrong value at vertex %u: want %.17g got "
                     "%.17g\n",
                     v, (*expected)[v], got);
        job.ok = false;
      }
    }
    record.CountOp(job.ok);
    job.evictions = metrics.GetGauge("buffer.evictions").value();
    job.buffer_capacity_bytes = metrics.GetGauge("buffer.capacity_bytes").value();
    return job;
  };

  // One untimed job first, so the timed ones see a warm page cache.
  const Job warm = run_job(nullptr);

  // The traced run alternates untraced and traced jobs, so drift in the
  // host's speed lands on both sides of the overhead comparison.
  const std::size_t min_jobs = options.trace ? 2 : 3;
  std::vector<Job> plain;
  std::vector<Job> traced;
  graphsd::WallTimer phase;
  for (std::size_t i = 0;; ++i) {
    const bool use_trace = options.trace && i % 2 == 1;
    (use_trace ? traced : plain).push_back(run_job(use_trace ? &trace : nullptr));
    if (phase.Seconds() >= options.seconds && plain.size() >= min_jobs &&
        (!options.trace || traced.size() >= min_jobs)) {
      break;
    }
  }

  // Per-job statistics over the untraced jobs.
  const auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const Job& job : plain) values.push_back(field(job));
    return Median(values);
  };
  std::vector<double> walls;
  double wall_sum = 0;
  for (const Job& job : plain) {
    walls.push_back(job.wall_s);
    wall_sum += job.wall_s;
  }
  const double job_s = Median(walls);

  record.Meta("vertices", static_cast<double>(dataset.num_vertices()));
  record.Meta("edges", static_cast<double>(dataset.num_edges()));
  record.Meta("buffer_capacity_mb", warm.buffer_capacity_bytes / kMiB);
  record.Meta("jobs_timed", static_cast<double>(plain.size()));
  if (spec.kind == WorkloadKind::kSssp) record.Meta("root", static_cast<double>(root));
  record.Diagnostic("job_seconds", [&] {
    obs::JsonWriter json;
    json.BeginArray();
    for (const double w : walls) json.Double(w);
    json.EndArray();
    return json.Finish();
  }());
  {
    obs::JsonWriter json;
    json.String(ModelString(warm.report));
    record.Diagnostic("round_models", json.Finish());
  }

  if (!options.trace) {
    record.Metric("job_s", job_s, "s");
    record.Metric("read_mb", median_of([](const Job& j) {
                    return j.report.io.TotalReadBytes() / kMiB;
                  }),
                  "MiB");
    record.Metric("query_p50_ms", job_s * 1e3, "ms");
    record.Metric("query_p90_ms", Percentile(walls, 0.9) * 1e3, "ms");
    record.Metric("queries_per_s", plain.size() / wall_sum, "1/s");
    return Status::Ok();
  }

  const auto read_ops = [](const Job& j) {
    return static_cast<double>(j.report.io.seq_read_ops + j.report.io.rand_read_ops);
  };
  const auto rounds_of = [](const Job& j, char a, char b) {
    double count = 0;
    for (const auto& round : j.report.per_round) {
      const char m = static_cast<char>(round.model);
      if (m == a || m == b) ++count;
    }
    return count;
  };
  record.Metric("io.read_ops", median_of(read_ops), "count");
  record.Metric("io.bytes_per_read_op", median_of([&](const Job& j) {
                  const double ops = read_ops(j);
                  return ops > 0 ? j.report.io.TotalReadBytes() / ops : 0.0;
                }),
                "B");
  record.Metric("io.write_mb", median_of([](const Job& j) {
                  return j.report.io.TotalWriteBytes() / kMiB;
                }),
                "MiB");
  record.Metric("decode.s", median_of([](const Job& j) {
                  return j.report.decode_seconds;
                }),
                "s");
  record.Metric("decode.frames", median_of([](const Job& j) {
                  return static_cast<double>(j.report.frames_decoded);
                }),
                "count");
  record.Metric("sched.s", median_of([](const Job& j) {
                  return j.report.scheduler_seconds;
                }),
                "s");
  record.Metric("sched.rounds_sciu",
                median_of([&](const Job& j) { return rounds_of(j, 'S', 'S'); }),
                "count");
  record.Metric("sched.rounds_full",
                median_of([&](const Job& j) { return rounds_of(j, 'F', 'P'); }),
                "count");
  record.Metric("sched.rounds_semi",
                median_of([&](const Job& j) { return rounds_of(j, 'M', 'M'); }),
                "count");
  record.Metric("apply.update_s", median_of([](const Job& j) {
                  return j.report.update_seconds;
                }),
                "s");
  record.Metric("apply.compute_s", median_of([](const Job& j) {
                  return j.report.compute_seconds;
                }),
                "s");
  record.Metric("apply.serialization_s", median_of([](const Job& j) {
                  return j.report.apply_serialization_seconds;
                }),
                "s");
  record.Metric("core.iterations", median_of([](const Job& j) {
                  return static_cast<double>(j.report.iterations);
                }),
                "count");
  record.Metric("core.rounds", median_of([](const Job& j) {
                  return static_cast<double>(j.report.rounds);
                }),
                "count");
  record.Metric("buffer.hit_rate", median_of([](const Job& j) {
                  const double lookups = static_cast<double>(
                      j.report.buffer_hits + j.report.buffer_misses);
                  return lookups > 0 ? j.report.buffer_hits / lookups : 0.0;
                }),
                "fraction");
  record.Metric("buffer.evictions",
                median_of([](const Job& j) { return j.evictions; }), "count");
  record.Metric("buffer.saved_mb", median_of([](const Job& j) {
                  return j.report.buffer_disk_bytes_saved / kMiB;
                }),
                "MiB");

  // Per-layer self time of the traced jobs, per job.
  RecordSpanMetrics(AnalyzeSpans(trace.Events(), "job"), record);
  std::vector<double> traced_walls;
  for (const Job& job : traced) traced_walls.push_back(job.wall_s);
  record.Metric("trace.overhead_frac", Median(traced_walls) / job_s - 1.0,
                "fraction");
  record.Meta("trace_events", static_cast<double>(trace.event_count()));
  record.Meta("trace_dropped", static_cast<double>(trace.dropped()));

  // Service layers do no work here.
  record.Metric("service.batch_width_mean", 0, "lanes");
  record.Metric("service.engine_runs_per_query", 0, "1/query");
  record.Metric("service.rejections", 0, "count");
  record.Metric("service.read_mb_per_query", 0, "MiB");
  record.Metric("service.shared_hit_rate", 0, "fraction");
  return Status::Ok();
}

}  // namespace perfbench
