//===- agbench.cpp - the repository benchmark driver ---------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures what it costs to keep the Async Graph always on, end to end and
// layer by layer, on three workloads (see README.md in this directory):
//
//   acmeair-sim   AcmeAir on the sim kernel, 8 in-loop closed-loop clients
//   acmeair-wire  AcmeAir on epoll over loopback, 4 keep-alive connections
//                 driven by runWireLoad from a client thread
//   ingest-v4     two recorded shard streams ingested by one IngestHub
//
// The AcmeAir workloads assemble the production stack from public APIs:
// Runtime -> HookRegistry -> AsyncPipeline (default PipelineConfig plus a
// v4 RecordPath) -> AsyncGBuilder (Retire=true) -> DetectorSuite. A run
// repeats sessions of a fixed request count until --seconds have passed;
// every session starts from a fresh stack and the same seeded inputs, and
// the run reports totals over its sessions (medians for the per-layer
// ledger). --trace 1 alternates untraced and traced sessions; the traced
// ones insert the pass-through shims of Shims.h.
//
//   agbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   agbench --check-shims
//
// The last line of stdout is the result object; progress and host facts
// go to the lines before it and to result.json in the run's directory.
//
//===----------------------------------------------------------------------===//

#include "Shims.h"

#include "ag/AsyncPipeline.h"
#include "ag/Builder.h"
#include "ag/IngestHub.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/LoadGen.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "jsrt/Runtime.h"
#include "node/Http.h"
#include "sim/EpollNetwork.h"
#include "sim/Network.h"
#include "sim/Random.h"
#include "sim/RealKernel.h"
#include "support/TraceFormat.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

using namespace asyncg;
using namespace asyncg::jsrt;
using namespace agbench;

namespace {

//===----------------------------------------------------------------------===//
// Fixed workload shape
//===----------------------------------------------------------------------===//

/// Requests per acmeair-sim session (8 in-loop clients share them).
constexpr uint64_t SimRequests = 20000;
constexpr int SimClients = 8;
/// Requests per acmeair-wire session over 4 keep-alive connections.
constexpr uint64_t WireRequests = 8000;
constexpr int WireConnections = 4;
/// Requests recorded per ingest-v4 shard stream (8 in-loop clients).
constexpr uint64_t IngestRequests = 6000;
/// ingest-v4 records its streams again every this many passes (setup_s is
/// the median of all recordings of a run).
constexpr int IngestSetupEvery = 6;

/// AcmeAir's known warning sites: the dead 'data' listener and the four
/// promise chains without a rejection handler. Every correct run of every
/// workload resolves exactly this set.
const std::set<std::string> &knownSites() {
  static const std::set<std::string> Sites = {
      "Dead Listeners @ acmeair.js:12",
      "Missing Exceptional Reaction @ acmeair.js:26",
      "Missing Exceptional Reaction @ acmeair.js:35",
      "Missing Exceptional Reaction @ acmeair.js:45",
      "Missing Exceptional Reaction @ acmeair.js:62",
  };
  return Sites;
}

std::set<std::string> warningSites(const ag::AsyncGraph &G) {
  std::set<std::string> Out;
  for (const ag::Warning &W : G.warnings())
    Out.insert(std::string(ag::bugCategoryName(W.Category)) + " @ " +
               W.Loc.str());
  return Out;
}

std::string joinSites(const std::set<std::string> &S) {
  std::string Out;
  for (const std::string &X : S)
    Out += (Out.empty() ? "" : "; ") + X;
  return Out;
}

/// splitmix64 of the workload seed and a stream tag: every input the
/// program receives is a pure function of --seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Tag) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Tag + 1;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Measurement helpers
//===----------------------------------------------------------------------===//

uint64_t processCpuNs() { return cpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

/// Linear-interpolated quantile (numpy's default) of unsorted \p V.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

template <typename T, typename Fn>
double medianOf(const std::vector<T> &Items, Fn &&Get) {
  std::vector<double> V;
  V.reserve(Items.size());
  for (const T &I : Items)
    V.push_back(Get(I));
  return median(V);
}

double ratio(double A, double B) { return B != 0 ? A / B : 0; }

/// Runs one session or pass on a thread of its own and returns its result.
/// The vCPUs of a shared host differ in speed, and the difference drifts;
/// the scheduler places a fresh thread anew, so a run is not tied to the
/// vCPU its main thread started on.
template <typename Fn> auto onFreshThread(Fn &&F) {
  decltype(F()) Out;
  std::thread([&] { Out = F(); }).join();
  return Out;
}

/// Resets the kernel's peak-RSS mark so VmHWM covers one session or pass
/// only. Returns false where /proc does not allow it.
bool resetPeakRss() {
  FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

double peakRssMib() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::string readFirstLine(const char *Path) {
  std::ifstream In(Path);
  std::string Line;
  if (!In || !std::getline(In, Line))
    return "";
  return Line;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Host facts recorded with every result.
std::string hostFactsJson() {
  utsname U{};
  std::string Release = uname(&U) == 0 ? U.release : "unknown";
  std::string CpuMax = readFirstLine("/sys/fs/cgroup/cpu.max");
  if (CpuMax.empty()) {
    std::string Quota = readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
    std::string Period =
        readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
    CpuMax = Quota.empty() ? "unavailable" : Quota + " " + Period;
  }
  std::string Out = "{";
  Out += "\"hw_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  Out += ", \"cgroup_cpu_max\": \"" + jsonEscape(CpuMax) + "\"";
  Out += ", \"kernel\": \"" + jsonEscape(Release) + "\"";
  Out += ", \"compiler\": \"" + jsonEscape("gcc " __VERSION__) + "\"";
  Out += ", \"build_type\": \"" AGBENCH_BUILD_TYPE "\"";
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

/// Every metric the benchmark reports, with its unit. BENCHMARK.json lists
/// the same names and units; the short-mode test checks they agree.
struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"req_per_s", "req/s"},          {"complete_req_per_s", "req/s"},
    {"p50_us", "us"},                {"p90_us", "us"},
    {"cpu_us_per_req", "us/req"},    {"records_per_s", "records/s"},
    {"cpu_ns_per_record", "ns/record"}, {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

/// Per-layer metrics; a layer that does not run on a workload reports 0.
const MetricDef PerLayer[] = {
    {"jsrt.loop_self_us_per_req", "us/req"},
    {"jsrt.callbacks_per_req", "count/req"},
    {"instr.events_per_req", "count/req"},
    {"ag.pipeline.emit_ns_per_event", "ns/event"},
    {"ag.pipeline.records_per_req", "records/req"},
    {"instr.trace_bytes_per_record", "B/record"},
    {"support.ring.blocked_pushes", "count"},
    {"support.ring.blocked_ms", "ms"},
    {"support.ring.max_depth_records", "records"},
    {"ag.pipeline.drain_tail_ms", "ms"},
    {"ag.builder.apply_ns_per_record", "ns/record"},
    {"detect.ns_per_record", "ns/record"},
    {"instr.decode_tee_ns_per_record", "ns/record"},
    {"ag.builder.busy_ratio", "ratio"},
    {"ag.builder.thread_cpu_ns_per_record", "ns/record"},
    {"ag.graph.footprint_mib", "MiB"},
    {"ag.graph.live_nodes", "count"},
    {"sim.syscalls_per_req", "count/req"},
    {"sim.net_recoveries", "count"},
    {"acmeair.loadgen_cpu_ratio", "ratio"},
    {"support.trace.scan_ns_per_record", "ns/record"},
    {"ag.ingest.decode_ns_per_record", "ns/record"},
    {"ag.ingest.build_ns_per_record", "ns/record"},
    {"ag.ingest.cpu_parallelism", "ratio"},
    {"ag.ingest.records", "records"},
    {"ag.merge.skipped_retired_ticks", "count"},
    {"bench.trace_overhead", "ratio"},
    {"failed_ratio", "ratio"},
};

struct Result {
  std::map<std::string, double> Values;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;

  void set(const std::string &Name, double Value) {
    Values[Name] = std::isfinite(Value) ? Value : 0;
  }
  void problem(const std::string &What) {
    std::printf("CHECK FAILED: %s\n", What.c_str());
    Problems.push_back(What);
  }
  bool correct() const { return Problems.empty() && Failed == 0; }

  /// The result object: the end-to-end set, or the per-layer set of a
  /// traced run.
  std::string json(bool Traced) const {
    std::string Out = "{\"correct\": ";
    Out += correct() ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed);
    Out += ", \"metrics\": {";
    bool First = true;
    auto Emit = [&](const MetricDef &M) {
      auto It = Values.find(M.Name);
      Out += First ? "" : ", ";
      Out += std::string("\"") + M.Name + "\": {\"value\": " +
             num(It == Values.end() ? 0 : It->second) + ", \"unit\": \"" +
             M.Unit + "\"}";
      First = false;
    };
    if (Traced)
      for (const MetricDef &M : PerLayer)
        Emit(M);
    else
      for (const MetricDef &M : EndToEnd)
        Emit(M);
    Out += "}}";
    return Out;
  }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutRoot = ".bench_out";
  std::string RunDir;
};

/// Request latencies of a whole run in 1 us buckets up to 100 ms. The
/// memory is fixed up front, so a run that serves more requests does not
/// report a larger peak RSS; quantiles interpolate inside a bucket.
class LatencyHistogram {
public:
  void add(uint64_t Ns) {
    ++Counts[std::min<size_t>(Ns / 1000, Counts.size() - 1)];
    ++Total;
  }
  uint64_t count() const { return Total; }
  double quantileUs(double Q) const {
    if (Total == 0)
      return 0;
    double Rank = Q * static_cast<double>(Total - 1);
    double Cum = 0;
    for (size_t B = 0; B != Counts.size(); ++B) {
      double N = static_cast<double>(Counts[B]);
      if (Cum + N > Rank)
        return static_cast<double>(B) + (Rank - Cum + 0.5) / N;
      Cum += N;
    }
    return static_cast<double>(Counts.size());
  }

private:
  std::vector<uint64_t> Counts = std::vector<uint64_t>(100000);
  uint64_t Total = 0;
};

//===----------------------------------------------------------------------===//
// In-loop closed-loop clients (acmeair-sim, ingest-v4 recording)
//===----------------------------------------------------------------------===//

/// The JMeter-style clients of the sim workloads: each keeps one keep-alive
/// connection, logs in, then issues AcmeAir's weighted request mix (the
/// same mix and framing as acmeair::WorkloadDriver), one request at a time.
/// They live outside the instrumented program, on raw simulated sockets,
/// and time every request on the wall clock.
class InLoopClients {
public:
  InLoopClients(Runtime &RT, int Port, int Clients, uint64_t Requests,
                uint64_t Seed, int Customers, LatencyHistogram &Latency)
      : Latency(Latency), RT(RT), Port(Port), Requests(Requests) {
    for (int I = 0; I < Clients; ++I) {
      auto C = std::make_unique<Client>();
      C->Rng = sim::Random(Seed * 7919 + static_cast<uint64_t>(I));
      C->User = "uid" + std::to_string(C->Rng.nextInt(
                            0, static_cast<uint64_t>(Customers - 1)));
      All.push_back(std::move(C));
    }
  }

  /// Connects every client; call inside the main tick after listen.
  bool start() {
    bool Ok = true;
    for (auto &CPtr : All) {
      Client *C = CPtr.get();
      Ok &= RT.network().connect(Port, [this, C](std::shared_ptr<sim::Socket>
                                                     S) {
        C->Sock = std::move(S);
        C->Sock->onData([this, C](const std::string &Msg) {
          node::http::ClientResponse Res;
          if (node::http::parseResponse(Msg, Res))
            onResponse(*C, Res.Status, Res.Body);
        });
        issue(*C);
      });
    }
    return Ok;
  }

  uint64_t Issued = 0;
  uint64_t Completed = 0;
  uint64_t Non200 = 0;
  uint64_t LastResponseNs = 0;

private:
  struct Client {
    sim::Random Rng{0};
    std::shared_ptr<sim::Socket> Sock;
    std::string User;
    std::string Token;
    uint64_t SentNs = 0;
  };

  void send(Client &C, const std::string &Method, const std::string &Path,
            const std::string &Body) {
    C.Sock->write(node::http::frameRequestLine(Method, Path));
    if (!Body.empty())
      C.Sock->write(node::http::frameDataChunk(Body));
    C.Sock->write(node::http::frameEnd());
  }

  void issue(Client &C) {
    if (Issued >= Requests) {
      C.Sock->end();
      return;
    }
    ++Issued;
    C.SentNs = nowNs();
    if (C.Token.empty()) {
      send(C, "POST", "/rest/api/login",
           "user=" + C.User + "&password=password");
      return;
    }
    const acmeair::WorkloadMix M;
    double Weights[5] = {M.QueryFlights, M.ViewProfile, M.BookFlight,
                         M.UpdateProfile, M.Login};
    const auto &Air = acmeair::AcmeAirApp::airports();
    switch (C.Rng.pickWeighted(Weights)) {
    case 0: {
      size_t A = C.Rng.nextInt(0, Air.size() - 1);
      size_t B = C.Rng.nextInt(0, Air.size() - 2);
      if (B >= A)
        ++B;
      send(C, "GET",
           "/rest/api/queryflights?from=" + Air[A] + "&to=" + Air[B], "");
      return;
    }
    case 1:
      send(C, "GET", "/rest/api/customer/byid?token=" + C.Token, "");
      return;
    case 2: {
      size_t A = C.Rng.nextInt(0, Air.size() - 1);
      std::string Flight = Air[A] + "-" + Air[(A + 1) % Air.size()] + "|f0";
      send(C, "POST", "/rest/api/bookflights",
           "token=" + C.Token + "&flight=" + Flight);
      return;
    }
    case 3:
      send(C, "POST", "/rest/api/customer/update",
           "token=" + C.Token + "&name=Customer" +
               std::to_string(C.Rng.nextInt(0, 999)));
      return;
    default:
      send(C, "POST", "/rest/api/login",
           "user=" + C.User + "&password=password");
      return;
    }
  }

  void onResponse(Client &C, int Status, const std::string &Body) {
    LastResponseNs = nowNs();
    Latency.add(LastResponseNs - C.SentNs);
    ++Completed;
    if (Status != 200)
      ++Non200;
    else if (Body.rfind("OK token=", 0) == 0)
      C.Token = Body.substr(9);
    issue(C);
  }

  LatencyHistogram &Latency;
  Runtime &RT;
  int Port;
  uint64_t Requests;
  std::vector<std::unique_ptr<Client>> All;
};

//===----------------------------------------------------------------------===//
// The analysis stack (shared by untraced and traced sessions)
//===----------------------------------------------------------------------===//

/// Builder, detectors and pipeline, with the shims spliced in when traced.
/// Everything else is one code path.
struct AnalysisStack {
  AnalysisStack(bool Traced, const std::string &RecordPath)
      : Builder(builderConfig()) {
    if (Traced) {
      Det = std::make_unique<DetectorShim>(Detectors);
      Builder.addObserver(Det.get());
      Sink = std::make_unique<SinkShim>(Builder);
    } else {
      Detectors.attachTo(Builder);
    }
    ag::PipelineConfig PCfg;
    PCfg.RecordPath = RecordPath;
    Pipe = std::make_unique<ag::AsyncPipeline>(
        Sink ? static_cast<instr::AnalysisBase &>(*Sink) : Builder, PCfg);
    if (Sink) {
      Sink->watch(Pipe.get());
      Hook = std::make_unique<HookShim>(*Pipe);
    }
  }

  static ag::BuilderConfig builderConfig() {
    ag::BuilderConfig C;
    C.Retire = true;
    return C;
  }

  /// What the runtime's HookRegistry attaches.
  instr::AnalysisBase &entry() {
    return Hook ? static_cast<instr::AnalysisBase &>(*Hook) : *Pipe;
  }

  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  std::unique_ptr<DetectorShim> Det;
  std::unique_ptr<SinkShim> Sink;
  std::unique_ptr<ag::AsyncPipeline> Pipe;
  std::unique_ptr<HookShim> Hook;
};

//===----------------------------------------------------------------------===//
// AcmeAir sessions
//===----------------------------------------------------------------------===//

struct Session {
  double SetupS = 0;
  uint64_t Requests = 0, Issued = 0, Completed = 0, Failed = 0;
  /// Session-level check misses (the whole session then counts failed).
  std::vector<std::string> Problems;
  uint64_t ServeNs = 0, CompleteNs = 0, DrainTailNs = 0, CpuNs = 0;
  double PeakRssMib = 0;
  double P50Us = 0, P90Us = 0;
  uint64_t Records = 0, RecordedBytes = 0;
  ag::BackpressureStats Ring;
  std::set<std::string> Sites;
  // Traced only.
  uint64_t Events = 0, Callbacks = 0;
  double HookNs = 0, SinkNs = 0, DetNs = 0;
  uint64_t BuilderCpuNs = 0, BusyNs = 0, BusyCpuNs = 0;
  double FootprintMib = 0, LiveNodes = 0;
  uint64_t Syscalls = 0, NetRecoveries = 0;
  double LoadgenCpuRatio = 0;

  double reqPerS() const { return ratio(Completed * 1e9, ServeNs); }
  double completeReqPerS() const { return ratio(Completed * 1e9, CompleteNs); }
};

/// Picks a loopback port the kernel considers free right now.
int probeFreePort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return 0;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  A.sin_port = 0;
  socklen_t Len = sizeof(A);
  int Port = 0;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0 &&
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&A), &Len) == 0)
    Port = ntohs(A.sin_port);
  ::close(Fd);
  return Port;
}

/// One AcmeAir session: assemble the stack (setup), serve a fixed number
/// of requests, stop the pipeline (graph and warnings final), check.
Session runAcmeSession(bool Wire, bool Traced, uint64_t Requests,
                       uint64_t Seed, const std::string &RecordPath,
                       LatencyHistogram &Latency) {
  Session S;
  S.Requests = Requests;
  uint64_t SetupT0 = nowNs();

  RuntimeConfig RC;
  acmeair::AppConfig ACfg;
  if (Wire) {
    RC.Backend = sim::KernelBackend::Epoll;
    ACfg.Port = probeFreePort();
  }
  auto RT = std::make_unique<Runtime>(RC);
  auto App = std::make_unique<acmeair::AcmeAirApp>(*RT, ACfg);
  AnalysisStack Stack(Traced, RecordPath);
  RT->hooks().attach(&Stack.entry());
  std::unique_ptr<InLoopClients> Clients;
  if (!Wire)
    Clients = std::make_unique<InLoopClients>(
        *RT, ACfg.Port, SimClients, Requests, Seed, ACfg.Customers, Latency);
  S.SetupS = static_cast<double>(nowNs() - SetupT0) / 1e9;

  std::atomic<int> Ready{0}; // 1 listening, -1 failed to listen
  bool ClientsStarted = true;
  Function Main = RT->makeBuiltin("main", [&](Runtime &R, const CallArgs &) {
    App->start(JSLINE("bench.js", 1));
    bool Listening = R.network().isListening(ACfg.Port);
    Ready.store(Listening ? 1 : -1, std::memory_order_release);
    if (Clients)
      ClientsStarted = Listening && Clients->start();
    return Completion::normal();
  });

  // acmeair-wire: the client thread drives the load, then stops the loop.
  acmeair::LoadStats Load;
  uint64_t ServeEndNs = 0;
  uint64_t LoadgenCpuNs = 0;
  std::thread ClientThread;
  if (Wire) {
    auto *RK = static_cast<sim::RealKernel *>(&RT->realKernel());
    ClientThread = std::thread([&, RK] {
      while (Ready.load(std::memory_order_acquire) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (Ready.load(std::memory_order_acquire) == 1) {
        acmeair::LoadConfig LC;
        LC.Port = ACfg.Port;
        LC.Connections = WireConnections;
        LC.TotalRequests = Requests;
        LC.Seed = Seed;
        LC.Customers = ACfg.Customers;
        uint64_t Cpu0 = cpuClockNs(CLOCK_THREAD_CPUTIME_ID);
        acmeair::runWireLoad(LC, Load);
        LoadgenCpuNs = cpuClockNs(CLOCK_THREAD_CPUTIME_ID) - Cpu0;
      }
      ServeEndNs = nowNs();
      RK->requestStop();
    });
  }

  resetPeakRss();
  uint64_t Cpu0 = processCpuNs();
  uint64_t T0 = nowNs();
  RT->main(Main);
  if (ClientThread.joinable())
    ClientThread.join();
  Stack.Pipe->stop();
  uint64_t T1 = nowNs();
  S.CpuNs = processCpuNs() - Cpu0;
  S.PeakRssMib = peakRssMib();
  RT->hooks().detach(&Stack.entry());

  if (Ready.load() != 1)
    S.Problems.push_back("server not listening on port " +
                         std::to_string(ACfg.Port));
  if (Wire) {
    S.Issued = Load.Issued;
    S.Completed = Load.Completed;
    S.Failed = Load.Errors + Load.Abandoned;
    S.P50Us = static_cast<double>(Load.P50Us);
    S.P90Us = static_cast<double>(Load.P90Us);
    if (Load.Issued != Load.Completed + Load.Abandoned)
      S.Problems.push_back("issued " + std::to_string(Load.Issued) +
                           " != completed " + std::to_string(Load.Completed) +
                           " + abandoned " + std::to_string(Load.Abandoned));
    if (ServeEndNs < T0)
      ServeEndNs = T1;
    S.LoadgenCpuRatio = ratio(static_cast<double>(LoadgenCpuNs),
                              Load.WallSeconds * 1e9);
  } else {
    S.Issued = Clients->Issued;
    S.Completed = Clients->Completed;
    S.Failed = Clients->Non200 + (Clients->Issued - Clients->Completed);
    if (!ClientsStarted)
      S.Problems.push_back("in-loop clients could not connect");
    ServeEndNs = Clients->LastResponseNs ? Clients->LastResponseNs : T1;
  }
  if (S.Issued < Requests)
    S.Failed += Requests - S.Issued;
  if (S.Failed)
    S.Problems.push_back(std::to_string(S.Failed) + " of " +
                         std::to_string(Requests) + " requests failed");

  S.ServeNs = ServeEndNs - T0;
  S.CompleteNs = T1 - T0;
  S.DrainTailNs = T1 - ServeEndNs;
  S.Records = Stack.Pipe->pushedRecords();
  S.RecordedBytes = Stack.Pipe->recordedBytes();
  S.Ring = Stack.Pipe->backpressure();
  S.Sites = warningSites(Stack.Builder.graph());

  if (Traced) {
    S.Events = Stack.Hook->Events;
    S.HookNs = ticksToNs(Stack.Hook->Ticks);
    S.Callbacks = Stack.Hook->Callbacks;
    S.SinkNs = ticksToNs(Stack.Sink->Ticks);
    S.DetNs = ticksToNs(Stack.Det->Ticks);
    S.BuilderCpuNs = Stack.Sink->ThreadCpuNs;
    S.BusyNs = Stack.Sink->BusyNs;
    S.BusyCpuNs = Stack.Sink->BusyCpuNs;
    S.FootprintMib =
        static_cast<double>(Stack.Builder.memoryFootprint()) / 1048576.0;
    S.LiveNodes = static_cast<double>(Stack.Builder.graph().nodeCount());
    S.Syscalls = RT->kernel().kernelStats().Syscalls;
    if (auto *EN = dynamic_cast<sim::EpollNetwork *>(&RT->network())) {
      sim::NetRecoveryStats N = EN->recoveryStats();
      S.NetRecoveries = N.EintrRetries + N.AcceptPauses + N.EnobufsRetries +
                        N.ShortWrites + N.ResetsInjected + N.DrainedConns;
    }
  }
  if (Stack.Pipe->recordingFailed())
    S.Problems.push_back("v4 recording tee failed");
  if (S.Sites != knownSites())
    S.Problems.push_back("warning sites differ: " + joinSites(S.Sites));
  return S;
}

/// Checks one session; every miss counts its requests as failed.
void checkSession(Result &R, const Session &S, const char *Kind, int Index) {
  R.Attempted += S.Requests;
  for (const std::string &P : S.Problems)
    R.problem(std::string(Kind) + " session " + std::to_string(Index) +
              ": " + P);
  R.Failed += S.Problems.empty() ? 0 : S.Requests;
}

void runAcmeAir(const Options &O, bool Wire, Result &R) {
  const uint64_t Requests = Wire ? WireRequests : SimRequests;
  const uint64_t Seed = deriveSeed(O.Seed, Wire ? 2 : 1);
  const std::string RecordPath = O.RunDir + "/session.agtrace";
  if (Wire && !sim::kernelBackendSupported(sim::KernelBackend::Epoll)) {
    R.problem("epoll backend unavailable on this host");
    R.Attempted = 1;
    R.Failed = 1;
    return;
  }

  // Warm-up: caches, allocator arenas and the symbol table fill here.
  LatencyHistogram WarmLatency, Latency, TracedLatency;
  onFreshThread([&] {
    return runAcmeSession(Wire, false, Requests / 4, Seed, RecordPath,
                          WarmLatency);
  });

  std::vector<Session> Plain, Traced;
  uint64_t Start = nowNs();
  for (int I = 0;; ++I) {
    bool T = O.Trace && (I % 2 == 1);
    Session S = onFreshThread([&] {
      return runAcmeSession(Wire, T, Requests, Seed, RecordPath,
                            T ? TracedLatency : Latency);
    });
    checkSession(R, S, T ? "traced" : "untraced", I);
    std::printf("%s session %d: %.0f req/s serving, %.0f req/s complete, "
                "%llu records, peak RSS %.1f MiB\n",
                T ? "traced  " : "untraced", I, S.reqPerS(),
                S.completeReqPerS(), static_cast<unsigned long long>(S.Records),
                S.PeakRssMib);
    (T ? Traced : Plain).push_back(std::move(S));
    double Elapsed = static_cast<double>(nowNs() - Start) / 1e9;
    double Typical = Elapsed / (I + 1);
    bool Enough = !O.Trace || (!Plain.empty() && !Traced.empty());
    if (Enough && Elapsed + 0.5 * Typical >= O.Seconds)
      break;
  }

  // Same seed, same inputs: the sim's record count repeats exactly in
  // every session, traced or not.
  if (!Wire) {
    for (const std::vector<Session> *Set : {&Plain, &Traced})
      for (const Session &S : *Set)
        if (S.Records != Plain.front().Records)
          R.problem("record count differs between sessions: " +
                    std::to_string(S.Records) + " vs " +
                    std::to_string(Plain.front().Records));
  }

  if (!O.Trace) {
    // Rates and costs are totals over the run's sessions: the host's speed
    // drifts over seconds, and a total integrates over the drift where a
    // median of sessions would jump between its modes.
    double Done = 0, Serve = 0, Complete = 0, Cpu = 0, Records = 0;
    for (const Session &S : Plain) {
      Done += static_cast<double>(S.Completed);
      Serve += static_cast<double>(S.ServeNs);
      Complete += static_cast<double>(S.CompleteNs);
      Cpu += static_cast<double>(S.CpuNs);
      Records += static_cast<double>(S.Records);
    }
    R.set("req_per_s", ratio(Done * 1e9, Serve));
    R.set("complete_req_per_s", ratio(Done * 1e9, Complete));
    if (Wire) {
      // runWireLoad reports whole-microsecond percentiles per session.
      R.set("p50_us", medianOf(Plain, [](const Session &S) {
              return S.P50Us;
            }));
      R.set("p90_us", medianOf(Plain, [](const Session &S) {
              return S.P90Us;
            }));
    } else {
      R.set("p50_us", Latency.quantileUs(0.50));
      R.set("p90_us", Latency.quantileUs(0.90));
    }
    R.set("cpu_us_per_req", ratio(Cpu / 1e3, Done));
    R.set("records_per_s", ratio(Records * 1e9, Complete));
    R.set("cpu_ns_per_record", ratio(Cpu, Records));
    R.set("peak_rss_mib", medianOf(Plain, [](const Session &S) {
            return S.PeakRssMib;
          }));
    R.set("setup_s", medianOf(Plain, [](const Session &S) {
            return S.SetupS;
          }));
    return;
  }

  // Traced run: the shims must be pass-through. On the wire the loop's
  // turns depend on timing, so its record count moves by a few records in
  // a million between any two sessions; there it must agree within 0.1%.
  for (const Session &S : Traced) {
    if (S.Sites != Plain.front().Sites)
      R.problem("traced warning sites differ from untraced");
    double Drift = std::fabs(ratio(static_cast<double>(S.Records),
                                   static_cast<double>(Plain.front().Records)) -
                             1.0);
    if (Wire && Drift > 1e-3)
      R.problem("traced session pushed " + std::to_string(S.Records) +
                " records, untraced " +
                std::to_string(Plain.front().Records));
  }

  auto M = [&](auto Get) { return medianOf(Traced, Get); };
  auto PerRec = [](double Ns, const Session &S) {
    return ratio(Ns, static_cast<double>(S.Records));
  };
  R.set("jsrt.loop_self_us_per_req", M([](const Session &S) {
          return ratio((static_cast<double>(S.ServeNs) - S.HookNs) / 1e3,
                       S.Completed);
        }));
  R.set("jsrt.callbacks_per_req", M([](const Session &S) {
          return ratio(S.Callbacks, S.Completed);
        }));
  R.set("instr.events_per_req", M([](const Session &S) {
          return ratio(S.Events, S.Completed);
        }));
  R.set("ag.pipeline.emit_ns_per_event", M([](const Session &S) {
          // Ring waits are reported on their own (support.ring.*).
          return ratio(S.HookNs - static_cast<double>(S.Ring.BlockedTimeNs),
                       S.Events);
        }));
  R.set("ag.pipeline.records_per_req", M([](const Session &S) {
          return ratio(S.Records, S.Completed);
        }));
  R.set("instr.trace_bytes_per_record", M([](const Session &S) {
          return ratio(S.RecordedBytes, S.Records);
        }));
  R.set("support.ring.blocked_pushes", M([](const Session &S) {
          return static_cast<double>(S.Ring.BlockedPushes);
        }));
  R.set("support.ring.blocked_ms", M([](const Session &S) {
          return S.Ring.BlockedTimeNs / 1e6;
        }));
  R.set("support.ring.max_depth_records", M([](const Session &S) {
          return static_cast<double>(S.Ring.MaxQueueDepth);
        }));
  R.set("ag.pipeline.drain_tail_ms", M([](const Session &S) {
          return S.DrainTailNs / 1e6;
        }));
  R.set("ag.builder.apply_ns_per_record", M([&](const Session &S) {
          return PerRec(S.SinkNs - S.DetNs, S);
        }));
  R.set("detect.ns_per_record", M([&](const Session &S) {
          return PerRec(S.DetNs, S);
        }));
  R.set("instr.decode_tee_ns_per_record", M([&](const Session &S) {
          return PerRec(
              std::max(0.0, static_cast<double>(S.BusyCpuNs) - S.SinkNs), S);
        }));
  R.set("ag.builder.busy_ratio", M([](const Session &S) {
          return ratio(S.BusyNs, S.CompleteNs);
        }));
  R.set("ag.builder.thread_cpu_ns_per_record", M([&](const Session &S) {
          return PerRec(static_cast<double>(S.BuilderCpuNs), S);
        }));
  R.set("ag.graph.footprint_mib", M([](const Session &S) {
          return S.FootprintMib;
        }));
  R.set("ag.graph.live_nodes", M([](const Session &S) {
          return S.LiveNodes;
        }));
  R.set("sim.syscalls_per_req", M([](const Session &S) {
          return ratio(S.Syscalls, S.Completed);
        }));
  R.set("sim.net_recoveries", M([](const Session &S) {
          return static_cast<double>(S.NetRecoveries);
        }));
  R.set("acmeair.loadgen_cpu_ratio", M([](const Session &S) {
          return S.LoadgenCpuRatio;
        }));
  R.set("bench.trace_overhead",
        ratio(M([](const Session &S) { return S.completeReqPerS(); }),
              medianOf(Plain, [](const Session &S) {
                return S.completeReqPerS();
              })));
}

//===----------------------------------------------------------------------===//
// ingest-v4
//===----------------------------------------------------------------------===//

struct Recording {
  std::vector<std::string> Paths;
  uint64_t Records = 0;
  uint64_t RecordBytes = 0;
  uint64_t Requests = 0;
};

/// Setup: record the two shard streams (no builder attached).
bool recordStreams(const Options &O, Recording &Out, std::string &Err) {
  Out = Recording();
  for (uint32_t Shard = 0; Shard != 2; ++Shard) {
    std::string Path =
        O.RunDir + "/shard" + std::to_string(Shard) + ".agtrace";
    RuntimeConfig RC;
    RC.Shard = Shard;
    Runtime RT(RC);
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    LatencyHistogram Unused;
    InLoopClients Clients(RT, ACfg.Port, SimClients, IngestRequests,
                          deriveSeed(O.Seed, 10 + Shard), ACfg.Customers,
                          Unused);
    instr::TraceRecorder Rec;
    if (!Rec.open(Path, Shard)) {
      Err = "cannot open " + Path;
      return false;
    }
    RT.hooks().attach(&Rec);
    bool Started = false;
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLINE("bench.js", 1));
      Started = Clients.start();
      return Completion::normal();
    });
    RT.main(Main);
    RT.hooks().detach(&Rec);
    if (!Rec.finalize()) {
      Err = "cannot finalize " + Path;
      return false;
    }
    if (!Started || Clients.Completed != IngestRequests || Clients.Non200) {
      Err = "recording run of shard " + std::to_string(Shard) + " served " +
            std::to_string(Clients.Completed) + " requests (" +
            std::to_string(Clients.Non200) + " non-200)";
      return false;
    }
    Out.Paths.push_back(Path);
    Out.Records += Rec.recordCount();
    Out.RecordBytes += Rec.recordBytes();
    Out.Requests += Clients.Completed;
  }
  return true;
}

struct Pass {
  bool Ok = false;
  uint64_t WallNs = 0, CpuNs = 0;
  uint64_t Records = 0, BadRecords = 0;
  double DetNs = 0, PeakRssMib = 0;
  std::set<std::string> Sites;
  double FootprintMib = 0, LiveNodes = 0;
  uint64_t SkippedRetiredTicks = 0;
  std::string Err;
};

unsigned ingestJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return std::max(1u, std::min(N, 4u));
}

/// One ingest of both streams into a merged graph. \p Traced wraps each
/// stream's detector suite in a DetectorShim; \p BuildGraph false is the
/// decode-only pass (no graph, no detectors).
Pass ingestOnce(const Recording &Rec, bool Traced, bool BuildGraph) {
  ag::IngestOptions Opts;
  Opts.Jobs = ingestJobs();
  Opts.Builder.Retire = true;
  Opts.Builder.BuildGraph = BuildGraph;
  ag::IngestHub Hub(Opts);
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  std::vector<std::unique_ptr<DetectorShim>> Shims;
  for (const std::string &P : Rec.Paths) {
    size_t S = Hub.addFile(P);
    if (!BuildGraph)
      continue;
    Suites.push_back(std::make_unique<detect::DetectorSuite>());
    if (Traced) {
      Shims.push_back(std::make_unique<DetectorShim>(*Suites.back()));
      Hub.builder(S).addObserver(Shims.back().get());
    } else {
      Suites.back()->attachTo(Hub.builder(S));
    }
  }
  Pass P;
  resetPeakRss();
  uint64_t Cpu0 = processCpuNs();
  uint64_t T0 = nowNs();
  P.Ok = Hub.run(&P.Err);
  P.WallNs = nowNs() - T0;
  P.CpuNs = processCpuNs() - Cpu0;
  P.PeakRssMib = peakRssMib();
  P.Records = Hub.stats().Records;
  for (const ag::IngestStreamStats &S : Hub.stats().Streams)
    P.BadRecords += S.BadRecords;
  for (const auto &Sh : Shims)
    P.DetNs += ticksToNs(Sh->Ticks);
  if (BuildGraph && P.Ok) {
    P.Sites = warningSites(Hub.graph());
    P.FootprintMib =
        static_cast<double>(Hub.graph().memoryFootprint()) / 1048576.0;
    P.LiveNodes = static_cast<double>(Hub.graph().nodeCount());
    P.SkippedRetiredTicks = Hub.mergeStats().SkippedRetiredTicks;
  }
  return P;
}

/// Frame pre-scan of every stream (what IngestHub runs up front).
uint64_t scanNs(const Recording &Rec, std::string &Err) {
  uint64_t Total = 0;
  for (const std::string &Path : Rec.Paths) {
    trace::TraceMmapReader Rd;
    if (!Rd.open(Path, &Err))
      return 0;
    std::vector<trace::TraceFrameRef> Frames;
    uint64_t T0 = nowNs();
    bool Ok = trace::scanV4Frames(Rd.recordData(),
                                  static_cast<size_t>(Rd.recordByteSize()),
                                  Rd.header().RecordCount, Frames, &Err);
    Total += nowNs() - T0;
    if (!Ok)
      return 0;
  }
  return Total;
}

void checkPass(Result &R, const Recording &Rec, const Pass &P, int Index) {
  R.Attempted += Rec.Records;
  std::string Why;
  if (!P.Ok)
    Why = "ingest failed: " + P.Err;
  else if (P.Records != Rec.Records)
    Why = "ingested " + std::to_string(P.Records) + " records, recorded " +
          std::to_string(Rec.Records);
  else if (P.BadRecords)
    Why = std::to_string(P.BadRecords) + " bad records";
  else if (P.Sites != knownSites())
    Why = "merged warning sites differ: " + joinSites(P.Sites);
  if (!Why.empty()) {
    R.problem("ingest pass " + std::to_string(Index) + ": " + Why);
    R.Failed += Rec.Records;
  }
}

void runIngest(const Options &O, Result &R) {
  Recording Rec;
  std::vector<double> SetupS;
  // Setup records both streams. It is repeated every IngestSetupEvery
  // passes, so its median samples the whole run; one seed must record the
  // same streams every time.
  auto Setup = [&]() {
    uint64_t T0 = nowNs();
    std::string Err;
    Recording This;
    if (!onFreshThread([&] { return recordStreams(O, This, Err); })) {
      R.problem("setup: " + Err);
      return false;
    }
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    if (!Rec.Paths.empty() && This.Records != Rec.Records)
      R.problem("same seed recorded " + std::to_string(This.Records) +
                " records, earlier " + std::to_string(Rec.Records));
    Rec = This;
    return true;
  };
  if (!Setup()) {
    R.Attempted = R.Failed = 1;
    return;
  }
  std::printf("setup: recorded %llu records (%llu requests) in two shard "
              "streams in %.3f s\n",
              static_cast<unsigned long long>(Rec.Records),
              static_cast<unsigned long long>(Rec.Requests), SetupS.back());

  // Warm-up: page cache, allocator arenas.
  onFreshThread([&] { return ingestOnce(Rec, false, true); });

  std::vector<Pass> Plain, Traced, DecodeOnly;
  std::vector<double> ScanNs;
  uint64_t Start = nowNs();
  for (int I = 0;; ++I) {
    if (I % IngestSetupEvery == IngestSetupEvery - 1 && !Setup())
      break;
    bool T = O.Trace && (I % 2 == 1);
    Pass P = onFreshThread([&] { return ingestOnce(Rec, T, true); });
    checkPass(R, Rec, P, I);
    std::printf("%s pass %d: %.0f records/s, %.3f s\n",
                T ? "traced  " : "untraced", I,
                ratio(P.Records * 1e9, P.WallNs), P.WallNs / 1e9);
    if (T) {
      Pass D = onFreshThread([&] { return ingestOnce(Rec, false, false); });
      if (!D.Ok || D.Records != Rec.Records)
        R.problem("decode-only pass ingested " + std::to_string(D.Records) +
                  " records: " + D.Err);
      DecodeOnly.push_back(D);
      std::string Err;
      uint64_t Ns = scanNs(Rec, Err);
      if (!Err.empty())
        R.problem("frame scan: " + Err);
      ScanNs.push_back(static_cast<double>(Ns));
    }
    (T ? Traced : Plain).push_back(std::move(P));
    double Elapsed = static_cast<double>(nowNs() - Start) / 1e9;
    double Typical = Elapsed / (I + 1);
    bool Enough = !O.Trace || (!Plain.empty() && !Traced.empty());
    if (Enough && Elapsed + 0.5 * Typical >= O.Seconds)
      break;
  }
  const double Records = static_cast<double>(Rec.Records);
  const double Requests = static_cast<double>(Rec.Requests);

  if (!O.Trace) {
    // Totals over the run's passes, as for the acmeair sessions.
    std::vector<double> LatUs;
    double Wall = 0, Cpu = 0;
    for (const Pass &P : Plain) {
      LatUs.push_back(P.WallNs / 1e3);
      Wall += static_cast<double>(P.WallNs);
      Cpu += static_cast<double>(P.CpuNs);
    }
    const double N = static_cast<double>(Plain.size());
    R.set("req_per_s", ratio(N * Requests * 1e9, Wall));
    R.set("complete_req_per_s", ratio(N * Requests * 1e9, Wall));
    R.set("p50_us", quantile(LatUs, 0.50));
    R.set("p90_us", quantile(LatUs, 0.90));
    R.set("cpu_us_per_req", ratio(Cpu / 1e3, N * Requests));
    R.set("records_per_s", ratio(N * Records * 1e9, Wall));
    R.set("cpu_ns_per_record", ratio(Cpu, N * Records));
    R.set("peak_rss_mib", medianOf(Plain, [](const Pass &P) {
            return P.PeakRssMib;
          }));
    R.set("setup_s", median(SetupS));
    return;
  }

  for (const Pass &P : Traced)
    if (P.Sites != Plain.front().Sites || P.Records != Plain.front().Records)
      R.problem("traced ingest differs from untraced");

  double FullNs = medianOf(Traced, [](const Pass &P) {
    return static_cast<double>(P.WallNs);
  });
  double DetNs = medianOf(Traced, [](const Pass &P) { return P.DetNs; });
  double DecodeNs = medianOf(DecodeOnly, [](const Pass &P) {
    return static_cast<double>(P.WallNs);
  });
  R.set("ag.pipeline.records_per_req", ratio(Records, Requests));
  R.set("instr.trace_bytes_per_record",
        ratio(static_cast<double>(Rec.RecordBytes), Records));
  R.set("detect.ns_per_record", ratio(DetNs, Records));
  R.set("ag.graph.footprint_mib", medianOf(Traced, [](const Pass &P) {
          return P.FootprintMib;
        }));
  R.set("ag.graph.live_nodes", medianOf(Traced, [](const Pass &P) {
          return P.LiveNodes;
        }));
  R.set("support.trace.scan_ns_per_record", ratio(median(ScanNs), Records));
  R.set("ag.ingest.decode_ns_per_record", ratio(DecodeNs, Records));
  R.set("ag.ingest.build_ns_per_record",
        ratio(std::max(0.0, FullNs - DecodeNs - DetNs), Records));
  R.set("ag.ingest.cpu_parallelism", medianOf(Plain, [](const Pass &P) {
          return ratio(P.CpuNs, P.WallNs);
        }));
  R.set("ag.ingest.records", Records);
  R.set("ag.merge.skipped_retired_ticks", medianOf(Traced, [](const Pass &P) {
          return static_cast<double>(P.SkippedRetiredTicks);
        }));
  R.set("bench.trace_overhead",
        ratio(medianOf(Plain, [](const Pass &P) {
                return static_cast<double>(P.WallNs);
              }),
              FullNs));
}

//===----------------------------------------------------------------------===//
// Shim transparency
//===----------------------------------------------------------------------===//

/// The graph and warnings of one Table-I case built through \p Entry.
struct CaseBuild {
  std::string Dot;
  std::string Warnings;
};

/// Builds every Table-I case three ways: directly (builder on the hooks),
/// through the untraced stack (AsyncPipeline -> builder) and through the
/// traced stack (HookShim -> AsyncPipeline -> SinkShim -> builder, with
/// the DetectorShim around the suite). The shims are pass-through when the
/// traced build matches the untraced one byte for byte, DOT and warnings,
/// and its DOT matches the direct build.
int checkShims() {
  int Bad = 0, Checked = 0;
  for (const cases::CaseDef &Def : cases::allCases()) {
    auto Build = [&](int Way) {
      ag::AsyncGBuilder B;
      detect::DetectorSuite Suite;
      DetectorShim Det(Suite);
      if (Way == 2)
        B.addObserver(&Det);
      else
        Suite.attachTo(B);
      SinkShim Sink(B);
      if (Way == 0) {
        cases::runCaseWith(Def, false, B);
      } else {
        ag::AsyncPipeline Pipe(Way == 2 ? static_cast<instr::AnalysisBase &>(
                                              Sink)
                                        : B);
        Sink.watch(&Pipe);
        HookShim Hook(Pipe);
        cases::runCaseWith(Def, false,
                           Way == 2 ? static_cast<instr::AnalysisBase &>(Hook)
                                    : Pipe);
        Pipe.stop();
        if (Way == 2 && (Hook.Events == 0 || Sink.Calls == 0))
          return CaseBuild{};
      }
      return CaseBuild{viz::toDot(B.graph()), viz::warningsReport(B.graph())};
    };
    CaseBuild Direct = Build(0), Plain = Build(1), Shimmed = Build(2);
    ++Checked;
    if (Shimmed.Dot.empty() || Shimmed.Dot != Plain.Dot ||
        Shimmed.Dot != Direct.Dot || Shimmed.Warnings != Plain.Warnings) {
      std::printf("shim check FAILED: %s\n", Def.Name.c_str());
      ++Bad;
    }
  }
  std::printf("shim check: %d of %d Table-I cases byte-identical through "
              "the shims\n",
              Checked - Bad, Checked);
  return Bad == 0 && Checked > 0 ? 0 : 1;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload acmeair-sim|acmeair-wire|ingest-v4 "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       %s --check-shims\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--check-shims")
      return checkShims();
    const char *V = Next();
    if (!V)
      return usage(argv[0]);
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, nullptr);
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "0") != 0;
      HaveTrace = !std::strcmp(V, "0") || !std::strcmp(V, "1");
    } else if (A == "--out") {
      O.OutRoot = V;
    } else {
      return usage(argv[0]);
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace ||
      (O.Workload != "acmeair-sim" && O.Workload != "acmeair-wire" &&
       O.Workload != "ingest-v4"))
    return usage(argv[0]);

  // Per-run directory (workload, seed, pid): parallel runs never share a
  // trace file.
  O.RunDir = O.OutRoot + "/" + O.Workload + "-s" + std::to_string(O.Seed) +
             "-t" + (O.Trace ? "1" : "0") + "-p" +
             std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(O.RunDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "cannot create %s\n", O.RunDir.c_str());
    return 1;
  }
  std::string Host = hostFactsJson();
  nsPerTick(); // calibrate the span clock before anything is timed
  std::printf("workload %s, seed %llu, %.1f s, trace %d\nhost %s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, Host.c_str());

  Result R;
  if (O.Workload == "ingest-v4")
    runIngest(O, R);
  else
    runAcmeAir(O, O.Workload == "acmeair-wire", R);
  if (R.Attempted == 0)
    R.Attempted = 1;
  R.set("failed_ratio", ratio(R.Failed, R.Attempted));

  for (const char *Trace : {"session.agtrace", "shard0.agtrace",
                            "shard1.agtrace"})
    std::remove((O.RunDir + "/" + Trace).c_str());
  std::string Json = R.json(O.Trace);
  if (FILE *F = std::fopen((O.RunDir + "/result.json").c_str(), "w")) {
    std::fprintf(F, "{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu, "
                    "\"result\": %s}\n",
                 Host.c_str(), O.Workload.c_str(),
                 static_cast<unsigned long long>(O.Seed), Json.c_str());
    std::fclose(F);
  }
  std::printf("%s\n", Json.c_str());
  return 0;
}
