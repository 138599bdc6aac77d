// bfs-serve: an in-process QueryServer on a compressed web graph, driven by
// a closed loop of client threads. Each client sends its next BFS query
// (a seeded root from the query pool, plus a few seeded vertices whose
// levels it wants back) only once the previous reply has arrived. An op is
// one query round trip; a reply whose levels differ from ReferenceBfs is a
// failed op.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/bfs.hpp"
#include "core/engine.hpp"
#include "graph/reference_algorithms.hpp"
#include "obs/json_writer.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/str_format.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using graphsd::Result;
using graphsd::Status;
namespace service = graphsd::service;

constexpr std::size_t kClients = 4;
constexpr std::size_t kProbesPerQuery = 8;

struct Query {
  VertexId root = 0;
  std::vector<VertexId> vertices;
  std::vector<double> levels;  // engine encoding: unreached = 2^64 - 1
};

// One worker running two-lane batches, under four clients: two queries
// always wait while a pair runs, so every run is a batch of exactly two, in
// arrival order, and a query's latency is the run ahead of it plus its own.
// With two workers, or wider batches, the batch widths depend on how replies
// race the batch linger, and the slowest tenth of the latencies swings
// between runs with it.
service::ServerOptions ServeOptions(const std::string& work) {
  service::ServerOptions options;
  options.socket_path = work + "/svc.sock";
  options.registry.device = "posix";
  options.registry.verify_on_open = true;
  options.registry.cache_compressed = true;
  options.workers = 1;
  options.engine_threads = 2;
  options.share_buffer = true;
  options.enable_batching = true;
  options.max_batch = 2;
  return options;
}

Result<std::vector<Query>> LoadQueries(const std::string& work) {
  auto facts = ReadKeyValues(InputsPath(work));
  if (!facts.ok()) return facts.status();
  std::vector<Query> queries;
  for (std::size_t i = 0;; ++i) {
    auto it = facts->find("query." + std::to_string(i));
    if (it == facts->end()) break;
    std::istringstream in(it->second);
    Query q;
    in >> q.root;
    VertexId v = 0;
    double level = 0;
    while (in >> v >> level) {
      q.vertices.push_back(v);
      q.levels.push_back(level);
    }
    queries.push_back(std::move(q));
  }
  if (queries.empty()) return graphsd::CorruptDataError("empty query pool");
  return queries;
}

// One reply as the client saw it, plus what its run report says about the
// engine run that served it.
struct Reply {
  double latency_s = 0;
  bool ok = false;
  std::uint64_t batch_width = 0;
  double engine_s = 0;
  double scheduler_s = 0;
  double update_s = 0;
  double serialization_s = 0;
  double iterations = 0;
  double rounds = 0;
  double rounds_sciu = 0;
  double rounds_full = 0;
  double rounds_semi = 0;
  double decode_s = 0;
  double frames = 0;
};

bool CheckReply(const std::string& line, const Query& query, bool corrupt,
                Reply& reply) {
  auto parsed = service::ParseJson(line, 16 << 20);
  if (!parsed.ok() || !parsed->GetBool("ok") || parsed->GetBool("cancelled")) {
    std::fprintf(stderr, "perfbench: query failed: %s\n", line.c_str());
    return false;
  }
  reply.batch_width = parsed->GetUint("batch_width");
  if (const service::JsonValue* report = parsed->Find("report")) {
    if (const service::JsonValue* seconds = report->Find("seconds")) {
      reply.engine_s = seconds->GetNumber("compute");
      reply.scheduler_s = seconds->GetNumber("scheduler");
      reply.update_s = seconds->GetNumber("update");
    }
    reply.serialization_s = report->GetNumber("apply_serialization_seconds");
    reply.iterations = report->GetNumber("iterations");
    reply.rounds = report->GetNumber("rounds");
    if (const service::JsonValue* c = report->Find("compression")) {
      reply.decode_s = c->GetNumber("decode_seconds");
      reply.frames = c->GetNumber("frames_decoded");
    }
    if (const service::JsonValue* rounds = report->Find("per_round")) {
      for (const service::JsonValue& r : rounds->elements()) {
        const std::string model = r.GetString("model");
        if (model == "S") ++reply.rounds_sciu;
        if (model == "F" || model == "P") ++reply.rounds_full;
        if (model == "M") ++reply.rounds_semi;
      }
    }
  }
  const service::JsonValue* values = parsed->Find("values");
  if (values == nullptr || values->elements().size() != query.levels.size()) {
    std::fprintf(stderr, "perfbench: reply without the asked values\n");
    return false;
  }
  for (std::size_t i = 0; i < query.levels.size(); ++i) {
    auto value = service::ParseHexDouble(values->elements()[i].string_value());
    double got = value.ok() ? *value : -1;
    if (corrupt && i == 0) got = -1;  // never a BFS level
    if (got != query.levels[i]) {
      std::fprintf(stderr,
                   "perfbench: wrong BFS level of %u from root %u: want %.17g "
                   "got %.17g\n",
                   query.vertices[i], query.root, query.levels[i], got);
      return false;
    }
  }
  return true;
}

std::string QueryLine(std::uint64_t id, const std::string& dataset,
                      const Query& query) {
  std::string line = graphsd::StrPrintf(
      R"({"id":%llu,"op":"run","dataset":"%s","algo":"bfs","root":%u,)"
      R"("values":true,"vertices":[)",
      static_cast<unsigned long long>(id), dataset.c_str(), query.root);
  for (std::size_t i = 0; i < query.vertices.size(); ++i) {
    if (i > 0) line += ",";
    line += std::to_string(query.vertices[i]);
  }
  return line + "]}";
}

// Closed loop: `kClients` threads, each with its own connection, sending
// queries from the shared pool until `seconds` have passed (or, with
// `one_each`, exactly one query per client). Returns every reply.
class LoadGenerator {
 public:
  LoadGenerator(const std::string& socket, const std::string& dataset,
                const std::vector<Query>& pool, bool inject_wrong_result)
      : socket_(socket),
        dataset_(dataset),
        pool_(pool),
        inject_wrong_result_(inject_wrong_result) {}

  std::vector<Reply> Run(double seconds, bool one_each, Record& record,
                         double& wall_s) {
    std::vector<Reply> replies;
    std::mutex mutex;
    graphsd::WallTimer phase;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        service::ServiceClient client;
        const bool connected = client.Connect(socket_).ok();
        do {
          const std::uint64_t q = next_query_.fetch_add(1);
          const Query& query = pool_[q % pool_.size()];
          Reply reply;
          graphsd::WallTimer timer;
          Result<std::string> line = graphsd::InternalError("not connected");
          if (connected) {
            line = client.RoundTrip(QueryLine(q, dataset_, query), 120);
          }
          reply.latency_s = timer.Seconds();
          const bool corrupt = inject_wrong_result_ && q == kCorruptQuery;
          reply.ok = line.ok() && CheckReply(*line, query, corrupt, reply);
          if (!line.ok()) {
            std::fprintf(stderr, "perfbench: %s\n",
                         line.status().ToString().c_str());
          }
          std::lock_guard<std::mutex> lock(mutex);
          record.CountOp(reply.ok);
          replies.push_back(reply);
        } while (!one_each && phase.Seconds() < seconds);
      });
    }
    for (std::thread& t : clients) t.join();
    wall_s = phase.Seconds();
    return replies;
  }

 private:
  // The first query after the warm-up batch.
  static constexpr std::uint64_t kCorruptQuery = kClients;

  std::string socket_;
  std::string dataset_;
  const std::vector<Query>& pool_;
  bool inject_wrong_result_;
  std::atomic<std::uint64_t> next_query_{0};
};

}  // namespace

Status PrepareServeInputs(const WorkloadSpec& spec,
                          const graphsd::EdgeList& graph, std::uint64_t seed,
                          const std::string& work) {
  const VertexId n = graph.num_vertices();
  // Enough distinct roots that no two in-flight queries share one.
  const std::size_t pool = spec.web_vertices < 10000 ? 16 : 64;
  graphsd::Xoshiro256 rng(seed ^ 0x4246535256ull);
  std::vector<Query> candidates(2 * pool);
  for (Query& q : candidates) {
    q.root = static_cast<VertexId>(rng.NextBounded(n));
    for (std::size_t k = 0; k < kProbesPerQuery; ++k) {
      q.vertices.push_back(static_cast<VertexId>(rng.NextBounded(n)));
    }
  }
  // ReferenceBfs per candidate, in parallel; roots outside the giant
  // component (whisker chains) are skipped, keeping candidate order.
  std::vector<char> accepted(candidates.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < EngineThreads(); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < candidates.size(); i = next++) {
        const std::vector<std::uint32_t> level =
            graphsd::ReferenceBfs(graph, candidates[i].root);
        std::uint64_t reached = 0;
        for (const std::uint32_t l : level) {
          reached += l != graphsd::kUnreachedLevel ? 1 : 0;
        }
        accepted[i] = 2 * reached >= n;
        for (const VertexId v : candidates[i].vertices) {
          candidates[i].levels.push_back(
              level[v] == graphsd::kUnreachedLevel
                  ? static_cast<double>(UINT64_MAX)
                  : static_cast<double>(level[v]));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  std::vector<std::pair<std::string, std::string>> facts;
  for (std::size_t i = 0; i < candidates.size() && facts.size() < pool; ++i) {
    if (!accepted[i]) continue;
    std::string line = std::to_string(candidates[i].root);
    for (std::size_t k = 0; k < kProbesPerQuery; ++k) {
      line += graphsd::StrPrintf(" %u %.17g", candidates[i].vertices[k],
                                 candidates[i].levels[k]);
    }
    facts.emplace_back("query." + std::to_string(facts.size()), line);
  }
  if (facts.size() < pool) {
    return graphsd::InternalError("too few BFS roots in the giant component");
  }
  return WriteKeyValues(InputsPath(work), facts);
}

Result<double> TimeServerStart(const std::string& work) {
  service::QueryServer server(ServeOptions(work));
  graphsd::WallTimer timer;
  GRAPHSD_RETURN_IF_ERROR(server.Start());
  auto entry = server.registry().GetOrOpen(DatasetDir(work));
  const double seconds = timer.Seconds();
  server.Shutdown();
  server.Wait();
  if (!entry.ok()) return entry.status();
  return seconds;
}

Status RunServe(const RunOptions& options, Record& record) {
  auto pool = LoadQueries(options.work);
  if (!pool.ok()) return pool.status();
  const std::string dataset = DatasetDir(options.work);
  service::QueryServer server(ServeOptions(options.work));
  GRAPHSD_RETURN_IF_ERROR(server.Start());
  auto opened = server.registry().GetOrOpen(dataset);
  if (!opened.ok()) {
    server.Shutdown();
    server.Wait();
    return opened.status();
  }
  service::DatasetEntry& entry = **opened;

  LoadGenerator load(server.socket_path(), dataset, *pool,
                     options.inject_wrong_result);
  double wall_s = 0;
  // One untimed batch (a query per client) warms the page cache and the
  // shared buffer.
  load.Run(0, /*one_each=*/true, record, wall_s);

  const auto io_before = entry.device->stats().Snapshot();
  const auto buffer_before = server.registry().TotalBufferCounters();
  const auto stats_before = server.stats();

  const std::vector<Reply> replies =
      load.Run(options.seconds, /*one_each=*/false, record, wall_s);
  std::vector<double> latencies;
  for (const Reply& r : replies) latencies.push_back(r.latency_s);

  const auto io = entry.device->stats().Snapshot() - io_before;
  const auto buffer_after = server.registry().TotalBufferCounters();
  const service::ServiceStats stats = server.stats();
  const std::size_t capacity = entry.buffer->capacity_bytes();
  server.Shutdown();
  server.Wait();

  // QueryServer takes no trace sink, so the engine's spans come from solo
  // BFS jobs on the same dataset, configured like a server run: one
  // untraced, one traced, for the overhead.
  graphsd::obs::TraceBuffer trace;
  const auto solo_job = [&](graphsd::obs::TraceBuffer* sink) {
    const Query& query = pool->front();
    graphsd::core::EngineOptions engine_options;
    engine_options.num_threads = ServeOptions(options.work).engine_threads;
    engine_options.cache_compressed = true;
    engine_options.trace = sink;
    graphsd::core::GraphSDEngine engine(*entry.dataset, engine_options);
    graphsd::algos::Bfs bfs(query.root);
    graphsd::WallTimer timer;
    Result<graphsd::core::ExecutionReport> report =
        graphsd::InternalError("not run");
    {
      graphsd::obs::TraceSpan span(sink, "job", 0);
      report = engine.Run(bfs);
    }
    const double seconds = timer.Seconds();
    bool ok = report.ok() && !report->cancelled;
    for (std::size_t i = 0; ok && i < query.vertices.size(); ++i) {
      ok = bfs.ValueOf(*engine.state(), query.vertices[i]) == query.levels[i];
    }
    record.CountOp(ok);
    return seconds;
  };
  double solo_plain_s = 0;
  double solo_traced_s = 0;
  if (options.trace) {
    solo_plain_s = solo_job(nullptr);
    solo_traced_s = solo_job(&trace);
  }

  const double queries = static_cast<double>(replies.size());
  const auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const Reply& r : replies) values.push_back(field(r));
    return Median(values);
  };
  std::map<std::uint64_t, std::uint64_t> widths;
  for (const Reply& r : replies) ++widths[r.batch_width];

  record.Meta("vertices", static_cast<double>(entry.dataset->num_vertices()));
  record.Meta("edges", static_cast<double>(entry.dataset->num_edges()));
  record.Meta("buffer_capacity_mb", static_cast<double>(capacity) / kMiB);
  record.Meta("queries_timed", queries);
  record.Meta("clients", static_cast<double>(kClients));
  {
    graphsd::obs::JsonWriter json;
    json.BeginObject();
    for (const auto& [width, count] : widths) {
      json.Field(std::to_string(width), count);
    }
    json.EndObject();
    record.Diagnostic("batch_width_counts", json.Finish());
  }
  {
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    graphsd::obs::JsonWriter json;
    json.BeginArray();
    for (const double s : sorted) json.Double(s * 1e3);
    json.EndArray();
    record.Diagnostic("latency_ms_sorted", json.Finish());
  }

  if (!options.trace) {
    record.Metric("job_s", median_of([](const Reply& r) { return r.engine_s; }),
                  "s");
    record.Metric("read_mb", io.TotalReadBytes() / kMiB / queries, "MiB");
    record.Metric("query_p50_ms", Median(latencies) * 1e3, "ms");
    record.Metric("query_p90_ms", Percentile(latencies, 0.9) * 1e3, "ms");
    record.Metric("queries_per_s", queries / wall_s, "1/s");
    return Status::Ok();
  }

  const double read_ops = static_cast<double>(io.seq_read_ops + io.rand_read_ops);
  record.Metric("io.read_ops", read_ops / queries, "count");
  record.Metric("io.bytes_per_read_op",
                read_ops > 0 ? io.TotalReadBytes() / read_ops : 0.0, "B");
  record.Metric("io.write_mb", io.TotalWriteBytes() / kMiB / queries, "MiB");
  record.Metric("decode.s", median_of([](const Reply& r) { return r.decode_s; }),
                "s");
  record.Metric("decode.frames",
                median_of([](const Reply& r) { return r.frames; }), "count");
  record.Metric("sched.s",
                median_of([](const Reply& r) { return r.scheduler_s; }), "s");
  record.Metric("sched.rounds_sciu",
                median_of([](const Reply& r) { return r.rounds_sciu; }), "count");
  record.Metric("sched.rounds_full",
                median_of([](const Reply& r) { return r.rounds_full; }), "count");
  record.Metric("sched.rounds_semi",
                median_of([](const Reply& r) { return r.rounds_semi; }), "count");
  record.Metric("apply.update_s",
                median_of([](const Reply& r) { return r.update_s; }), "s");
  record.Metric("apply.compute_s",
                median_of([](const Reply& r) { return r.engine_s; }), "s");
  record.Metric("apply.serialization_s",
                median_of([](const Reply& r) { return r.serialization_s; }),
                "s");
  record.Metric("core.iterations",
                median_of([](const Reply& r) { return r.iterations; }), "count");
  record.Metric("core.rounds",
                median_of([](const Reply& r) { return r.rounds; }), "count");

  const double hits = static_cast<double>(buffer_after.hits - buffer_before.hits);
  const double lookups =
      hits + static_cast<double>(buffer_after.misses - buffer_before.misses);
  const double hit_rate = lookups > 0 ? hits / lookups : 0.0;
  record.Metric("buffer.hit_rate", hit_rate, "fraction");
  record.Metric("buffer.evictions",
                (buffer_after.evictions - buffer_before.evictions) / queries,
                "count");
  record.Metric("buffer.saved_mb",
                (buffer_after.disk_bytes_saved - buffer_before.disk_bytes_saved) /
                    kMiB / queries,
                "MiB");

  const double runs = static_cast<double>(stats.runs - stats_before.runs);
  record.Metric("service.batch_width_mean",
                runs > 0 ? (stats.run_requests - stats_before.run_requests) / runs
                         : 0.0,
                "lanes");
  record.Metric("service.engine_runs_per_query", runs / queries, "1/query");
  record.Metric("service.rejections",
                static_cast<double>(stats.admission_rejections -
                                    stats_before.admission_rejections),
                "count");
  record.Metric("service.read_mb_per_query", io.TotalReadBytes() / kMiB / queries,
                "MiB");
  record.Metric("service.shared_hit_rate", hit_rate, "fraction");

  RecordSpanMetrics(AnalyzeSpans(trace.Events(), "job"), record);
  record.Metric("trace.overhead_frac", solo_traced_s / solo_plain_s - 1.0,
                "fraction");
  record.Meta("trace_events", static_cast<double>(trace.event_count()));
  record.Meta("trace_dropped", static_cast<double>(trace.dropped()));
  return Status::Ok();
}

}  // namespace perfbench
