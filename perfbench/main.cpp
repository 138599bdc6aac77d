// perfbench: the phases of one benchmark run, each a separate process so
// that run.py can read the resident high-water mark of the timed phase
// alone.
//
//   perfbench prepare --workload W --seed S --work DIR
//       generate the seeded graph and its reference results (untimed)
//   perfbench setup --workload W --work DIR
//       preprocess the binary edge file into the grid several times
//       (setup_s is the median)
//   perfbench run --workload W --work DIR --seconds T --trace 0|1
//       timed ops with the correctness gate; --trace 1 adds the traced
//       run and the layer probes
//
// Every phase prints one JSON record as its last stdout line (see
// common.hpp). --tiny selects the self-test sizes.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/edge_io.hpp"
#include "io/device.hpp"
#include "io/file.hpp"
#include "partition/grid_builder.hpp"
#include "util/cli.hpp"
#include "util/clock.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using graphsd::Status;

Status Prepare(const WorkloadSpec& spec, std::uint64_t seed,
               const std::string& work, Record& record) {
  GRAPHSD_RETURN_IF_ERROR(graphsd::io::MakeDirectories(work));
  const graphsd::EdgeList graph = GenerateGraph(spec, seed);
  auto device = graphsd::io::MakePosixDevice();
  GRAPHSD_RETURN_IF_ERROR(
      graphsd::WriteBinaryEdgeList(graph, *device, GraphPath(work)));
  record.Meta("vertices", static_cast<double>(graph.num_vertices()));
  record.Meta("edges", static_cast<double>(graph.num_edges()));
  return spec.kind == WorkloadKind::kServe
             ? PrepareServeInputs(spec, graph, seed, work)
             : PrepareJobInputs(spec, graph, seed, work);
}

// Flushes what a set-up repeat wrote, untimed, so that no writeback is left
// to slow down the next repeat or the timed phase.
Status SyncFilesystem(const std::string& work) {
  const int fd = ::open(work.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return graphsd::InternalError("open " + work);
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) return graphsd::InternalError("syncfs " + work);
  return Status::Ok();
}

Status Setup(const WorkloadSpec& spec, const std::string& work,
             Record& record) {
  constexpr int kSetupRepeats = 5;
  std::vector<double> totals;
  std::vector<double> builds;
  std::vector<double> writes;
  graphsd::partition::GridBuildOptions options;
  options.num_intervals = spec.p;
  options.codec = spec.codec;
  options.name = spec.name;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    // Every repeat writes into an empty dataset directory.
    std::error_code error;
    std::filesystem::remove_all(DatasetDir(work), error);
    if (error) return graphsd::InternalError("remove: " + error.message());
    double total = 0;
    {
      auto device = graphsd::io::MakePosixDevice();
      graphsd::WallTimer timer;
      auto graph = graphsd::ReadBinaryEdgeList(*device, GraphPath(work));
      if (!graph.ok()) return graph.status();
      graphsd::WallTimer build_timer;
      auto manifest = graphsd::partition::BuildGrid(*graph, *device,
                                                    DatasetDir(work), options);
      if (!manifest.ok()) return manifest.status();
      builds.push_back(build_timer.Seconds());
      total = timer.Seconds();
      writes.push_back(device->stats().Snapshot().TotalWriteBytes() / kMiB);
    }
    GRAPHSD_RETURN_IF_ERROR(SyncFilesystem(work));
    if (spec.kind == WorkloadKind::kServe) {
      auto start = TimeServerStart(work);
      if (!start.ok()) return start.status();
      total += *start;
    }
    totals.push_back(total);
  }
  record.Metric("setup_s", Median(totals), "s");
  record.Metric("partition.build_s", Median(builds), "s");
  record.Metric("partition.write_mb", Median(writes), "MiB");
  record.Meta("on_disk_mb", DirectoryBytes(DatasetDir(work)) / kMiB);
  return Status::Ok();
}

Status Run(const WorkloadSpec& spec, const RunOptions& options,
           Record& record) {
  GRAPHSD_RETURN_IF_ERROR(spec.kind == WorkloadKind::kServe
                              ? RunServe(options, record)
                              : RunJobs(spec, options, record));
  record.Meta("codec", spec.codec);
  record.Meta("p", static_cast<double>(spec.p));
  record.Meta("device", "posix");
  record.Meta("hardware_threads", static_cast<double>(HardwareThreads()));
  record.Meta("engine_threads", static_cast<double>(EngineThreads()));
  if (!options.trace) return Status::Ok();

  // Layer probes: each storage-layer call timed from outside, after the
  // timed ops so they cannot disturb them.
  auto probes = RunProbes(DatasetDir(options.work));
  if (!probes.ok()) return probes.status();
  record.Metric("partition.open_s", probes->open_s, "s");
  record.Metric("partition.fetch_mb_per_s", probes->fetch_mb_per_s, "MiB/s");
  record.Metric("partition.index_mb_per_s", probes->index_mb_per_s, "MiB/s");
  record.Metric("crc.mb_per_s", probes->crc_mb_per_s, "MiB/s");
  record.Metric("decode.mb_per_s", probes->decode_mb_per_s, "MiB/s");
  return Status::Ok();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prepare|setup|run [flags]\n");
    return 2;
  }
  const std::string phase = argv[1];
  graphsd::CliFlags flags;
  flags.Define("workload", "", "pr-rmat | sssp-web | bfs-serve");
  flags.Define("work", "", "work directory of this workload");
  flags.Define("seed", "1", "input seed");
  flags.Define("seconds", "10", "run: length of the timed phase");
  flags.Define("trace", "0", "run: 1 = traced run and layer probes");
  flags.Define("tiny", "false", "self-test sizes");
  flags.Define("inject-wrong-result", "false",
               "run: corrupt one op's result (self-test of the gate)");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 2;
  }
  auto spec = FindWorkload(flags.GetString("workload"), flags.GetBool("tiny"));
  const std::string work = flags.GetString("work");
  if (!spec.ok() || work.empty()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 spec.ok() ? "--work is required"
                           : spec.status().ToString().c_str());
    return 2;
  }

  Record record;
  Status status = graphsd::InvalidArgumentError("unknown phase " + phase);
  if (phase == "prepare") {
    status = Prepare(*spec, static_cast<std::uint64_t>(flags.GetInt("seed")),
                     work, record);
  } else if (phase == "setup") {
    status = Setup(*spec, work, record);
  } else if (phase == "run") {
    RunOptions options;
    options.work = work;
    options.seconds = flags.GetDouble("seconds");
    options.trace = flags.GetInt("trace") != 0;
    options.inject_wrong_result = flags.GetBool("inject-wrong-result");
    status = Run(*spec, options, record);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", phase.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", record.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
