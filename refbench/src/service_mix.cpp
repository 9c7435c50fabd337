// service-mix: a closed loop of 2 client connections against
// `refereectl serve --workers 2`. Each client sends its next request only
// after the previous reply, cycling through four kinds in turn: sealed
// `transcript decode` of small captured cells (batchable), `reconstruct`
// with a graph on stdin, a 16-cell `campaign --json` and `service stats`.
// The equal weights are synthetic: no request log of the daemon exists to
// base them on. This is the only workload through wire framing, admission
// and warm per-worker arenas. Every reply must be ok and equal the same
// procedure's in-process output.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "campaign/scenario.hpp"
#include "cells.hpp"
#include "common.hpp"
#include "graph/io.hpp"
#include "model/transcript.hpp"
#include "service/procedure.hpp"
#include "service/wire.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"
#include "trace.hpp"

extern char** environ;

namespace refbench {

using namespace referee;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kDaemonWorkers = 2;

/// A `refereectl serve` child process: spawned on construction, stopped
/// with SIGTERM and reaped on stop() or destruction.
class Daemon {
 public:
  Daemon(const std::string& refereectl, const std::string& socket,
         const std::string& log) {
    std::filesystem::remove(socket);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    // The daemon must never write to the benchmark's standard output.
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const std::string workers = std::to_string(kDaemonWorkers);
    const char* argv[] = {refereectl.c_str(), "serve",   "--socket",
                          socket.c_str(),     "--workers", workers.c_str(),
                          nullptr};
    const int rc = posix_spawn(&pid_, refereectl.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw CheckError("cannot start " + refereectl + " serve");
    // Ready once a client can connect; polled finely, as set-up times it.
    for (int attempt = 0;; ++attempt) {
      try {
        ServiceClient probe(socket);
        return;
      } catch (const CheckError&) {
        if (attempt == 10000 || waitpid(pid_, nullptr, WNOHANG) != 0) {
          pid_ = -1;
          throw CheckError("refereectl serve did not come up; see " + log);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~Daemon() {
    if (pid_ > 0) stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM, wait for the drain; returns the child's peak RSS in MiB.
  double stop() {
    rusage usage{};
    int status = 0;
    kill(pid_, SIGTERM);
    wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  bool clean_exit() const { return clean_exit_; }

 private:
  pid_t pid_ = -1;
  bool clean_exit_ = false;
};

enum class Kind { kDecode, kReconstruct, kCampaign, kStats };

struct MixRequest {
  Kind kind = Kind::kStats;
  Request request;
  std::string expected;  // in-process output; unused for stats
  double cells = 0.0;
  double nodes = 0.0;
};

/// The closed loop's send order: one request of each kind in turn.
constexpr Kind kPattern[] = {Kind::kDecode, Kind::kReconstruct, Kind::kCampaign,
                             Kind::kStats};

std::string in_process_output(const Request& request) {
  const ProcedureDesc* desc = find_procedure(request.proc);
  REFEREE_CHECK_MSG(desc != nullptr, "no procedure " + request.proc);
  std::ostringstream out;
  std::ostringstream err;
  ProcedureIO io{out, err};
  const int rc = desc->handler(request, ProcedureContext{}, io);
  REFEREE_CHECK_MSG(rc == 0, request.proc + " failed in process: " + err.str());
  return std::move(out).str();
}

struct ProcedureCounters {
  double requests = 0, shed = 0, batched = 0, total_micros = 0;
};

/// The per-procedure rows and the arena growth of a `service stats` reply.
struct StatsSnapshot {
  std::map<std::string, ProcedureCounters> procedures;
  double arena_growth = 0.0;
};

double json_number(const std::string& text, std::size_t from,
                   const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":", from);
  REFEREE_CHECK_MSG(at != std::string::npos, "service stats lacks " + key);
  return std::stod(text.substr(at + key.size() + 3));
}

StatsSnapshot parse_stats(const std::string& text) {
  StatsSnapshot snap;
  snap.arena_growth = json_number(text, 0, "arena_growth_events");
  const std::string marker = "{\"name\":\"";
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at + 1)) {
    const std::size_t begin = at + marker.size();
    ProcedureCounters& row =
        snap.procedures[text.substr(begin, text.find('"', begin) - begin)];
    row.requests = json_number(text, at, "requests");
    row.shed = json_number(text, at, "shed");
    row.batched = json_number(text, at, "batched");
    row.total_micros = json_number(text, at, "total_micros");
  }
  return snap;
}

struct Setup {
  std::unique_ptr<Daemon> daemon;
  std::vector<ScenarioSpec> decode_specs;  // the captured cells
  std::vector<MixRequest> decodes;
  std::vector<MixRequest> reconstructs;
  MixRequest campaign;
  MixRequest stats;
};

Setup set_up(const Options& opts, const std::string& socket,
             const std::string& log) {
  const std::size_t n = opts.smoke ? 64 : 512;
  Setup s;
  s.daemon = std::make_unique<Daemon>(opts.refereectl, socket, log);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ScenarioSpec spec;
    spec.generator = "kdeg";
    spec.n = n;
    spec.k = 3;
    spec.protocol = "degeneracy";
    spec.seed = opts.seed * 64 + i + 1;
    const std::string path =
        std::filesystem::absolute(std::filesystem::path(opts.work_dir) /
                                  ("cell-" + std::to_string(i) + ".rtr"))
            .string();
    const TranscriptSink capture = [&](unsigned, std::uint64_t epoch,
                                       std::uint32_t, std::span<const Message> wire) {
      write_transcript_file(path, epoch, wire);
    };
    std::vector<Message> transcript;
    const ScenarioResult live = run_scenario(
        spec, Simulator(), transcript, DecodeArena::for_current_thread(), &capture);
    REFEREE_CHECK_MSG(live.outcome == "exact", "captured cell is not exact");
    s.decode_specs.push_back(spec);
    MixRequest decode{Kind::kDecode, Request{"transcript decode", {}, ""}, "", 1.0,
                      static_cast<double>(n)};
    decode.request.args.values = {{"generator", "kdeg"},
                                  {"n", std::to_string(n)},
                                  {"k", "3"},
                                  {"protocol", "degeneracy"},
                                  {"seed", std::to_string(spec.seed)},
                                  {"in", path}};
    decode.expected = in_process_output(decode.request);
    REFEREE_CHECK_MSG(decode.expected.starts_with("outcome      exact\n"),
                      "in-process decode is not exact");
    s.decodes.push_back(std::move(decode));
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    ScenarioSpec spec;
    spec.n = n;
    spec.seed = opts.seed * 64 + 16 + i;
    const std::string edges = to_edge_list(make_campaign_graph(spec));
    MixRequest reconstruct{Kind::kReconstruct, Request{"reconstruct", {}, edges},
                           edges, 1.0, static_cast<double>(n)};
    reconstruct.request.args.values = {{"k", "3"}};
    s.reconstructs.push_back(std::move(reconstruct));
  }
  s.campaign = MixRequest{Kind::kCampaign, Request{"campaign", {}, ""}, "", 16.0,
                          (16.0 + 24.0) * 8.0};
  s.campaign.request.args.values = {
      {"generators", "kdeg,tree"},
      {"sizes", "16,24"},
      {"protocols", "degeneracy,forest"},
      {"seed-list",
       std::to_string(2 * opts.seed + 1) + "," + std::to_string(2 * opts.seed + 2)},
      {"json", "1"}};
  s.campaign.expected = in_process_output(s.campaign.request);
  REFEREE_CHECK_MSG(
      s.campaign.expected.find("\"silent_wrong\": 0}") != std::string::npos,
      "in-process campaign has silent-wrong cells");
  s.stats = MixRequest{Kind::kStats, Request{"service stats", {}, ""}, "", 0.0, 0.0};
  return s;
}

const MixRequest& pick(const Setup& s, std::size_t index) {
  const std::size_t round = index / std::size(kPattern);
  switch (kPattern[index % std::size(kPattern)]) {
    case Kind::kDecode:
      return s.decodes[round % s.decodes.size()];
    case Kind::kReconstruct:
      return s.reconstructs[round % s.reconstructs.size()];
    case Kind::kCampaign:
      return s.campaign;
    case Kind::kStats:
      break;
  }
  return s.stats;
}

/// What one client saw.
struct ClientLog {
  std::vector<double> latency_ms;
  double cells = 0.0;
  double nodes = 0.0;
  double frame_bytes = 0.0;
  std::vector<std::string> failures;
};

void client_loop(const Setup& s, const std::string& socket, std::size_t client,
                 std::int64_t deadline_ns, std::size_t min_requests,
                 Tracer* tracer, ClientLog& log) {
  ServiceClient connection(socket);
  for (std::size_t i = 0; now_ns() < deadline_ns || i < min_requests; ++i) {
    const MixRequest& mix = pick(s, i + client * 2);
    const std::uint64_t op = (client + 1) * 1000000 + i;
    const std::int64_t t0 = now_ns();
    ServiceResponse reply;
    {
      const Tracer::Scope span(tracer, "service.call", op);
      reply = connection.call(mix.request);
    }
    log.latency_ms.push_back(seconds_since(t0) * 1e3);
    log.frame_bytes += static_cast<double>(format_request(mix.request).size() +
                                           format_response(reply).size() + 8);
    log.cells += mix.cells;
    log.nodes += mix.nodes;
    const bool output_ok = mix.kind == Kind::kStats
                               ? reply.output.starts_with("{\"referee-service-stats\":1")
                               : reply.output == mix.expected;
    if (reply.status != ServiceStatus::kOk || reply.exit_code != 0 || !output_ok) {
      log.failures.push_back(mix.request.proc + " replied " +
                             std::string(service_status_name(reply.status)) +
                             " exit " + std::to_string(reply.exit_code) +
                             (output_ok ? "" : " with output unlike in-process"));
    }
  }
}

StatsSnapshot read_stats(const std::string& socket) {
  ServiceClient client(socket);
  const ServiceResponse reply = client.call(Request{"service stats", {}, ""});
  REFEREE_CHECK_MSG(reply.status == ServiceStatus::kOk, "service stats failed");
  return parse_stats(reply.output);
}

}  // namespace

RunResult run_service_mix(const Options& opts, Tracer* tracer) {
  RunResult result;
  if (opts.nproc < kClients + kDaemonWorkers) {
    throw std::runtime_error("skipped: service-mix needs " +
                             std::to_string(kClients + kDaemonWorkers) +
                             " threads, nproc is " + std::to_string(opts.nproc));
  }
  const std::filesystem::path dir(opts.work_dir);
  // sockaddr_un holds ~108 bytes, so the socket path stays relative.
  const std::string socket =
      std::filesystem::relative(dir / "serve.sock").string();
  const std::string log = (dir / "serve.log").string();

  // Set-up: start the daemon, capture and seal the decode cells, and
  // compute every request's in-process output.
  Setup s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s = Setup{};  // stops the previous daemon
    const std::int64_t t0 = now_ns();
    s = set_up(opts, socket, log);
    setup_s.push_back(seconds_since(t0));
  }
  // The benchmark's own check of the captured cells, untimed.
  for (const ScenarioSpec& spec : s.decode_specs) {
    if (!decodes_to(spec, canonical_edges(make_campaign_graph(spec)))) {
      result.fail("captured cell does not decode to its input");
    }
  }
  {
    ClientLog warm;  // every request once, untimed, warms the workers
    client_loop(s, socket, 0, 0, std::size(kPattern) * s.decodes.size(),
                nullptr, warm);
    for (const std::string& why : warm.failures) result.fail("warm-up " + why);
  }

  const StatsSnapshot before = read_stats(socket);
  std::vector<ClientLog> logs(kClients);
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(opts.seconds * 1e9);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          client_loop(s, socket, c, deadline, 16, tracer, logs[c]);
        } catch (const std::exception& e) {
          logs[c].failures.push_back(std::string("client: ") + e.what());
        }
      });
    }
  }
  const double wall_s = seconds_since(start);
  const StatsSnapshot after = read_stats(socket);
  const double peak_rss_mb = s.daemon->stop();
  if (!s.daemon->clean_exit()) result.fail("refereectl serve did not drain cleanly");

  EndToEnd e2e;
  double frame_bytes = 0.0;
  for (const ClientLog& log : logs) {
    e2e.op_ms.insert(e2e.op_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    e2e.cells += log.cells;
    e2e.nodes += log.nodes;
    frame_bytes += log.frame_bytes;
    for (const std::string& why : log.failures) result.fail(why);
  }
  result.attempted += e2e.op_ms.size();
  const auto requests = static_cast<double>(e2e.op_ms.size());

  if (tracer != nullptr) {
    ProcedureCounters delta;
    ProcedureCounters decode;
    for (const auto& [name, row] : after.procedures) {
      const ProcedureCounters& old = before.procedures.at(name);
      delta.requests += row.requests - old.requests;
      delta.shed += row.shed - old.shed;
      delta.total_micros += row.total_micros - old.total_micros;
      if (name == "transcript decode") {
        decode.requests = row.requests - old.requests;
        decode.batched = row.batched - old.batched;
      }
    }
    std::map<std::string, double> layer_ms = self_ms_by_name(
        tracer->spans(), [](const Tracer::Span&) { return true; });
    const double call_ms = layer_ms["service.call"] /= requests;
    const double handler_ms = delta.total_micros / delta.requests * 1e-3;
    add_per_layer(result, layer_ms,
                  {{"support.arena_growth", after.arena_growth - before.arena_growth},
                   {"service.handler_ms", handler_ms},
                   {"service.wait_ms", call_ms - handler_ms},
                   {"service.batched_frac",
                    decode.requests > 0 ? decode.batched / decode.requests : 0.0},
                   {"service.shed", delta.shed},
                   {"service.frame_bytes", frame_bytes / requests}});
    return result;
  }

  e2e.setup_s = median(setup_s);
  e2e.wall_s = wall_s;
  e2e.requests = requests;
  e2e.peak_rss_mb = peak_rss_mb;
  add_end_to_end(result, e2e);
  return result;
}

}  // namespace refbench
