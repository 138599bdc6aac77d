// The benchmark's workload phases. Each phase runs in its own process (see
// run.py), so a phase's resident high-water mark is its own.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "graph/edge_list.hpp"

namespace perfbench {

struct RunOptions {
  std::string work;             // the workload's work directory
  double seconds = 10;          // length of the timed phase
  bool trace = false;           // traced run: per-layer metrics
  /// Self-test hook: alter one op's result after it returns, so the
  /// correctness gate must count it as failed.
  bool inject_wrong_result = false;
};

// pr-rmat and sssp-web: repeated GraphSDEngine::Run jobs on one dataset.

/// Writes the jobs' reference values (and the SSSP root) into `work`.
graphsd::Status PrepareJobInputs(const WorkloadSpec& spec,
                                 const graphsd::EdgeList& graph,
                                 std::uint64_t seed, const std::string& work);
graphsd::Status RunJobs(const WorkloadSpec& spec, const RunOptions& options,
                        Record& record);

// bfs-serve: an in-process QueryServer under closed-loop BFS clients.

/// Draws the query pool (roots + probe vertices) and their ReferenceBfs
/// levels into `work`.
graphsd::Status PrepareServeInputs(const WorkloadSpec& spec,
                                   const graphsd::EdgeList& graph,
                                   std::uint64_t seed, const std::string& work);
/// Seconds for QueryServer::Start plus the first (verifying) dataset open.
graphsd::Result<double> TimeServerStart(const std::string& work);
graphsd::Status RunServe(const RunOptions& options, Record& record);

}  // namespace perfbench
