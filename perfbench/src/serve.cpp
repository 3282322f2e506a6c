// serve-bfs: the query server on a unix socket in the measuring process,
// driven in a closed loop by kServeConnections connections from one client
// process (`perfbench clients`, spawned by the measuring process). Each
// connection sends BFS queries from roots drawn uniformly (seeded) among
// all vertices with an out-edge. The client process keeps a digest of
// every answer and, after its phase, checks each one bitwise against the
// in-memory reference BFS from its root. Keeping the clients out of the
// server's process keeps their response parsing and the reference out of
// its peak memory.
#include <atomic>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "algos/bfs.hpp"
#include "graph/edge_io.hpp"
#include "graph/reference_algorithms.hpp"
#include "io/device.hpp"
#include "io/file.hpp"
#include "phases.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

using graphsd::Result;
using graphsd::Status;
using graphsd::VertexId;
using graphsd::service::JsonValue;

namespace {

// Queries a window needs before it may close: a p90 needs 10 samples
// beyond it.
constexpr std::size_t kMinQueries = 100;
constexpr double kWindowGraceSeconds = 60;
// Warm-up queries per connection before the window (fills the shared
// buffer the way a long-running server has it filled).
constexpr int kWarmupQueriesPerConnection = 2;
// Solo engine jobs the traced run attributes: at least this many, and at
// least kSoloSeconds of them.
constexpr std::size_t kMinSoloJobs = 8;
constexpr double kSoloSeconds = 3.0;
// Responses carry every vertex's value as a hex-float string.
constexpr std::size_t kMaxResponseBytes = std::size_t{64} << 20;

struct QuerySample {
  double rtt_seconds = 0;
  double engine_seconds = 0;
};

// A query the server answered, kept for the check against the reference.
struct Answered {
  VertexId root = 0;
  std::uint64_t digest = 0;  // of the returned values, see ValuesDigest
};

// FNV-1a over the bit patterns of `values`: equal digests mean bitwise
// equal values, up to a 2^-64 collision.
class ValuesDigest {
 public:
  void Add(double value) {
    hash_ = (hash_ ^ std::bit_cast<std::uint64_t>(value)) * 0x100000001B3ULL;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// What the client process shares between its connections.
struct ClientShared {
  std::string socket_path;
  std::string dataset_dir;
  std::uint64_t seed = 0;
  bool window = false;
  graphsd::EdgeList graph;             // the edge file, for the reference
  std::vector<VertexId> candidates;    // every vertex with an out-edge

  std::mutex mutex;  // guards everything below
  std::vector<QuerySample> samples;
  std::vector<Answered> answered;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  Status error;  // first transport-level error
};

// Checks the shape of one response and digests its values; returns "" when
// it is a complete answer, otherwise what is wrong.
std::string ReadResponse(const JsonValue& response, VertexId num_vertices,
                         double* engine_seconds, std::uint64_t* digest) {
  if (!response.GetBool("ok")) {
    const JsonValue* error = response.Find("error");
    return "query failed: " +
           (error != nullptr ? error->GetString("message") : std::string("?"));
  }
  if (response.GetBool("cancelled")) return "query cancelled";
  const JsonValue* report = response.Find("report");
  const JsonValue* seconds = report != nullptr ? report->Find("seconds") : nullptr;
  if (seconds == nullptr) return "response without a run report";
  *engine_seconds = seconds->GetNumber("compute");
  const JsonValue* values = response.Find("values");
  if (values == nullptr || !values->is_array() ||
      values->elements().size() != num_vertices) {
    return "response without one value per vertex";
  }
  ValuesDigest hash;
  for (VertexId v = 0; v < num_vertices; ++v) {
    auto got = graphsd::service::ParseHexDouble(
        values->elements()[v].string_value());
    if (!got.ok()) return "vertex " + std::to_string(v) + ": unparsable value";
    hash.Add(*got);
  }
  *digest = hash.value();
  return "";
}

// One closed-loop connection: send, wait for the answer, record it,
// repeat while `keep_going()` holds. Samples are the window's only.
void ClientLoop(ClientShared& shared, std::uint32_t connection,
                const std::function<bool(std::size_t done)>& keep_going) {
  graphsd::service::ServiceClient client;
  if (Status s = client.Connect(shared.socket_path); !s.ok()) {
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (shared.error.ok()) shared.error = s;
    return;
  }
  graphsd::Xoshiro256 rng(shared.seed * 1000003 + connection * 7919 +
                          (shared.window ? 1 : 0));
  for (std::size_t done = 0; keep_going(done); ++done) {
    const VertexId root =
        shared.candidates[rng.NextBounded(shared.candidates.size())];
    const std::string request =
        "{\"id\":" + std::to_string(done) +
        ",\"op\":\"run\",\"algo\":\"bfs\",\"dataset\":\"" + shared.dataset_dir +
        "\",\"root\":" + std::to_string(root) + ",\"values\":true}";
    const double start = NowSeconds();
    Result<std::string> line = client.RoundTrip(request);
    const double rtt = NowSeconds() - start;
    if (!line.ok()) {
      std::lock_guard<std::mutex> lock(shared.mutex);
      if (shared.error.ok()) shared.error = line.status();
      return;
    }
    double engine_seconds = 0;
    std::uint64_t digest = 0;
    std::string problem;
    auto response = graphsd::service::ParseJson(*line, kMaxResponseBytes);
    if (!response.ok()) {
      problem = "unparsable response: " + response.status().ToString();
    } else {
      problem = ReadResponse(*response, shared.graph.num_vertices(),
                             &engine_seconds, &digest);
    }
    std::lock_guard<std::mutex> lock(shared.mutex);
    ++shared.attempted;
    if (!problem.empty()) {
      shared.failures.push_back("root " + std::to_string(root) + ": " + problem);
      continue;
    }
    shared.answered.push_back({root, digest});
    if (shared.window) shared.samples.push_back({rtt, engine_seconds});
  }
}

void RunClients(ClientShared& shared,
                const std::function<bool(std::size_t done)>& keep_going) {
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kServeConnections; ++c) {
    clients.emplace_back([&, c] { ClientLoop(shared, c, keep_going); });
  }
  for (std::thread& t : clients) t.join();
}

// Checks every answered query bitwise against graph/reference_algorithms'
// BFS from its root (computed once per distinct root, after the phase).
// algos::Bfs reports a level as a double and an unreached vertex as its
// UINT64_MAX level. Returns the number of distinct roots.
std::size_t CheckAnswers(ClientShared& shared) {
  std::map<VertexId, std::uint64_t> reference;
  for (const Answered& a : shared.answered) {
    auto [it, fresh] = reference.try_emplace(a.root, 0);
    if (fresh) {
      ValuesDigest hash;
      for (const std::uint32_t level : graphsd::ReferenceBfs(shared.graph, a.root)) {
        hash.Add(level == graphsd::kUnreachedLevel
                     ? static_cast<double>(UINT64_MAX)
                     : static_cast<double>(level));
      }
      it->second = hash.value();
    }
    if (a.digest != it->second) {
      shared.failures.push_back("BFS from root " + std::to_string(a.root) +
                                " differs from the reference");
    }
  }
  return reference.size();
}

Result<std::string> Info(const std::string& socket_path,
                         const std::string& dataset_dir) {
  graphsd::service::ServiceClient client;
  GRAPHSD_RETURN_IF_ERROR(client.Connect(socket_path));
  GRAPHSD_ASSIGN_OR_RETURN(
      std::string line,
      client.RoundTrip("{\"id\":0,\"op\":\"info\",\"dataset\":\"" +
                       dataset_dir + "\"}"));
  GRAPHSD_ASSIGN_OR_RETURN(const JsonValue response,
                           graphsd::service::ParseJson(line));
  if (!response.GetBool("ok")) {
    return graphsd::InternalError("dataset registration failed: " + line);
  }
  return line;
}

// Paths both processes agree on.
std::string SocketPath(const MeasureOptions& options) {
  return options.dir + "/serve.sock";
}
std::string DatasetDir(const MeasureOptions& options) {
  return options.dir + "/dataset";
}
std::string ClientsResultPath(const MeasureOptions& options, bool window) {
  return options.dir + (window ? "/clients-window.txt" : "/clients-warmup.txt");
}

// What the client processes report back to the measuring process.
struct ServedQueries {
  std::uint64_t attempted = 0;
  std::vector<QuerySample> samples;  // the window's
  std::vector<std::string> failures;
  std::size_t window_roots = 0;      // distinct roots in the window
  double window_seconds = 0;
};

// Runs `perfbench clients` for the warm-up or the window, waits for it and
// folds what it wrote into `served`.
Status SpawnClients(const MeasureOptions& options, bool window,
                    ServedQueries& served) {
  GRAPHSD_RETURN_IF_ERROR(RunSelf(
      options.self_path,
      {"clients", "--workload", options.workload.name, "--seed",
       std::to_string(options.seed), "--dir", options.dir, "--seconds",
       std::to_string(options.seconds), "--window", window ? "1" : "0"},
      "client process"));
  GRAPHSD_ASSIGN_OR_RETURN(const std::string text,
                           ReadText(ClientsResultPath(options, window)));
  std::istringstream in(text);
  for (std::string key; in >> key;) {
    if (key == "attempted") {
      std::uint64_t attempted = 0;
      in >> attempted;
      served.attempted += attempted;
    } else if (key == "seconds" && window) {
      in >> served.window_seconds;
    } else if (key == "roots" && window) {
      in >> served.window_roots;
    } else if (key == "sample") {
      QuerySample sample;
      in >> sample.rtt_seconds >> sample.engine_seconds;
      served.samples.push_back(sample);
    } else if (key == "fail") {
      std::string failure;
      std::getline(in >> std::ws, failure);
      served.failures.push_back(failure);
    }
  }
  return Status::Ok();
}

}  // namespace

Status RunServeClients(const MeasureOptions& options) {
  ClientShared shared;
  shared.socket_path = SocketPath(options);
  shared.dataset_dir = DatasetDir(options);
  shared.seed = options.seed;
  shared.window = options.window;
  auto device = graphsd::io::MakePosixDevice();
  GRAPHSD_ASSIGN_OR_RETURN(
      shared.graph,
      graphsd::ReadBinaryEdgeList(*device, options.dir + "/" + kEdgeFile));
  const std::vector<std::uint32_t> degrees = shared.graph.OutDegrees();
  for (VertexId v = 0; v < shared.graph.num_vertices(); ++v) {
    if (degrees[v] > 0) shared.candidates.push_back(v);
  }
  if (shared.candidates.empty()) {
    return graphsd::InvalidArgumentError("no vertex has an out-edge");
  }

  const double start = NowSeconds();
  if (options.window) {
    std::atomic<std::size_t> completed{0};
    RunClients(shared, [&](std::size_t done) {
      if (done > 0) completed.fetch_add(1, std::memory_order_relaxed);
      const double elapsed = NowSeconds() - start;
      if (elapsed >= options.seconds + kWindowGraceSeconds) return false;
      return elapsed < options.seconds ||
             completed.load(std::memory_order_relaxed) < kMinQueries;
    });
  } else {
    RunClients(shared, [](std::size_t done) {
      return done < static_cast<std::size_t>(kWarmupQueriesPerConnection);
    });
  }
  const double seconds = NowSeconds() - start;
  GRAPHSD_RETURN_IF_ERROR(shared.error);
  const std::size_t roots = CheckAnswers(shared);
  std::ostringstream out;
  out.precision(17);
  out << "attempted " << shared.attempted << "\nseconds " << seconds
      << "\nroots " << roots << "\n";
  for (const QuerySample& q : shared.samples) {
    out << "sample " << q.rtt_seconds << " " << q.engine_seconds << "\n";
  }
  for (const std::string& failure : shared.failures) {
    out << "fail " << failure << "\n";
  }
  return WriteText(ClientsResultPath(options, options.window), out.str());
}

Result<RunResult> MeasureServe(const MeasureOptions& options) {
  const std::string edge_file = options.dir + "/" + kEdgeFile;
  const std::string socket_path = SocketPath(options);
  const std::string dataset_dir = DatasetDir(options);
  // The solo jobs' roots and their reference answers, from `prepare`.
  GRAPHSD_ASSIGN_OR_RETURN(const std::vector<VertexId> roots,
                           ReadRoots(options.dir));
  GRAPHSD_ASSIGN_OR_RETURN(const std::vector<double> answer,
                           ReadDoubles(options.dir + "/" + kAnswerFile));
  if (roots.empty() || answer.size() % roots.size() != 0) {
    return graphsd::InvalidArgumentError("reference answers do not match roots");
  }
  const auto num_vertices = static_cast<VertexId>(answer.size() / roots.size());

  graphsd::service::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.registry.device = "real:ssd";

  // Set-up: preprocess, start the server, register the dataset (the
  // registry opens it and walks every frame's CRC once).
  std::unique_ptr<graphsd::service::QueryServer> server;
  SetupSamples setup;
  while (setup.Continue()) {
    server.reset();  // shuts down and joins
    const double start = NowSeconds();
    GRAPHSD_RETURN_IF_ERROR(BuildDataset(edge_file, dataset_dir, kCodec));
    const double built = NowSeconds();
    server = std::make_unique<graphsd::service::QueryServer>(server_options);
    GRAPHSD_RETURN_IF_ERROR(server->Start());
    GRAPHSD_RETURN_IF_ERROR(Info(socket_path, dataset_dir).status());
    const double registered = NowSeconds();
    setup.build.push_back(built - start);
    setup.verify.push_back(registered - built);
    setup.total.push_back(registered - start);
  }
  GRAPHSD_ASSIGN_OR_RETURN(graphsd::service::DatasetEntry * entry,
                           server->registry().GetOrOpen(dataset_dir));
  FlushFilesystem(options.dir);
  GRAPHSD_RETURN_IF_ERROR(EndSetup(setup));
  // Copied out: the entry dies with the server.
  const auto manifest = entry->dataset->manifest();
  const std::uint64_t disk_bytes = DirectoryBytes(dataset_dir);
  std::printf("input: %u vertices, %llu edges, P=%u, on disk %.2f MiB, "
              "shared sub-block buffer %.2f MiB; %u connections"
              "\n%s\n",
              manifest.num_vertices,
              static_cast<unsigned long long>(manifest.num_edges), manifest.p,
              double(disk_bytes) / kMiB,
              double(manifest.TotalEdgeBytes() / 20) / kMiB, kServeConnections, setup.Summary().c_str());

  // Warm-up, then the measured window, each by one client process.
  ServedQueries served;
  GRAPHSD_RETURN_IF_ERROR(SpawnClients(options, false, served));
  const auto io_before = entry->device->stats().Snapshot();
  const auto stats_before = server->stats();
  const auto buffer_before = server->registry().TotalBufferCounters();
  GRAPHSD_RETURN_IF_ERROR(SpawnClients(options, true, served));
  const auto io = entry->device->stats().Snapshot() - io_before;
  const auto stats_after = server->stats();
  const auto buffer_after = server->registry().TotalBufferCounters();
  GRAPHSD_ASSIGN_OR_RETURN(const double serving_rss_mib, PeakRssMib());
  server.reset();  // shuts down and joins

  RunResult result;
  result.attempted = served.attempted;
  for (const std::string& failure : served.failures) result.Fail(failure);
  if (served.samples.empty()) {
    return graphsd::InternalError("no query completed in the window");
  }
  std::vector<double> rtts;
  std::vector<double> engine_seconds;
  std::vector<double> queue_seconds;
  for (const QuerySample& s : served.samples) {
    rtts.push_back(s.rtt_seconds);
    engine_seconds.push_back(s.engine_seconds);
    queue_seconds.push_back(s.rtt_seconds - s.engine_seconds);
  }
  const double queries = double(rtts.size());
  std::printf("queries: %zu from %zu distinct roots in %.2f s (+%d warm-up "
              "per connection); round trip p50 %.2f ms, p90 %.2f ms; runs "
              "%llu; peak RSS %.1f MiB in set-up, %.1f MiB serving\n",
              rtts.size(), served.window_roots, served.window_seconds,
              kWarmupQueriesPerConnection, Median(rtts) * 1e3,
              Quantile(rtts, 0.9) * 1e3,
              static_cast<unsigned long long>(stats_after.runs -
                                              stats_before.runs),
              setup.peak_rss_mib, serving_rss_mib);

  if (!options.trace) {
    result.Add("setup_s", Median(setup.total), "s");
    result.Add("job_s", Median(rtts), "s");
    result.Add("read_mib", double(io.TotalReadBytes()) / kMiB / queries, "MiB");
    result.Add("write_mib", double(io.TotalWriteBytes()) / kMiB / queries,
               "MiB");
    result.Add("disk_bytes_per_edge",
               double(disk_bytes) / double(manifest.num_edges), "B");
    result.Add("peak_rss_mib", serving_rss_mib, "MiB");
    return result;
  }

  ServiceLayer service;
  service.queue_wait_ms_p50 = Median(queue_seconds) * 1e3;
  service.engine_ms_p50 = Median(engine_seconds) * 1e3;
  const double runs = double(stats_after.runs - stats_before.runs);
  const double requests =
      double(stats_after.run_requests - stats_before.run_requests);
  service.batch_width_mean = runs > 0 ? requests / runs : 0;
  service.dedup_rate =
      requests > 0 ? double(stats_after.deduped - stats_before.deduped) / requests
                   : 0;
  const double hits = double(buffer_after.hits - buffer_before.hits);
  const double misses = double(buffer_after.misses - buffer_before.misses);
  service.buffer_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  const std::optional<double> p90 = TailQuantile(rtts, 0.9);
  if (!p90) return graphsd::InternalError("too few queries for a p90");
  service.query_ms_p90 = *p90 * 1e3;
  service.queries_per_s = queries / served.window_seconds;

  // The server's engine runs take no trace sink, so the per-layer split
  // comes from solo BFS jobs on the same dataset through the library,
  // alternating traced and untraced.
  auto device = graphsd::io::MakeRealSsdDevice();
  GRAPHSD_ASSIGN_OR_RETURN(
      graphsd::partition::GridDataset dataset,
      graphsd::partition::GridDataset::Open(*device, dataset_dir));
  const std::string scratch_dir = options.dir + "/scratch";
  GRAPHSD_RETURN_IF_ERROR(graphsd::io::MakeDirectories(scratch_dir));
  const auto run_solo = [&](std::size_t r, bool traced,
                            bool overlap_charging) -> Result<EngineJob> {
    graphsd::algos::Bfs program(roots[r]);
    GRAPHSD_ASSIGN_OR_RETURN(EngineJob job,
                             RunEngineJob(dataset, program, scratch_dir, traced,
                                          overlap_charging));
    ++result.attempted;
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (!SameBits(job.values[v], answer[r * num_vertices + v])) {
        result.Fail("solo BFS from root " + std::to_string(roots[r]) +
                    " differs from the reference at vertex " +
                    std::to_string(v));
        break;
      }
    }
    CheckAttribution(job, result);
    job.values.clear();
    return job;
  };
  std::vector<EngineJob> traced_jobs;
  std::vector<double> untraced_walls;
  const double solo_start = NowSeconds();
  for (std::size_t k = 0;; ++k) {
    if (k >= kMinSoloJobs && NowSeconds() - solo_start >= kSoloSeconds) break;
    GRAPHSD_ASSIGN_OR_RETURN(EngineJob job,
                             run_solo((k / 2) % roots.size(), k % 2 == 0, false));
    if (job.split) {
      traced_jobs.push_back(std::move(job));
    } else {
      untraced_walls.push_back(job.wall_seconds);
    }
  }

  AddSetupLayerMetrics(result, setup);
  AddEngineLayerMetrics(result, traced_jobs, untraced_walls);
  const std::string raw_dir = options.dir + "/dataset-raw";
  GRAPHSD_RETURN_IF_ERROR(BuildDataset(edge_file, raw_dir, "none"));
  GRAPHSD_ASSIGN_OR_RETURN(const ProbeRates rates,
                           RunLayerProbes(dataset, raw_dir));
  AddProbeMetrics(result, rates);
  GRAPHSD_ASSIGN_OR_RETURN(const EngineJob first, run_solo(0, false, true));
  GRAPHSD_ASSIGN_OR_RETURN(const EngineJob second, run_solo(0, false, true));
  result.Add("core.overlap_decision_drift",
             double(ModelDrift(first.report, second.report)), "count");
  AddServiceMetrics(result, service);
  return result;
}

}  // namespace perfbench
