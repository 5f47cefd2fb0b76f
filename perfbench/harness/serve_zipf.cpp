// serve-zipf: a closed loop against `sherlockc --serve --socket`.
//
// The daemon serves one connection at a time and answers a session's
// requests at FLUSH. So the K logical clients share one connection: each
// has one request outstanding and sends the next when its reply arrives,
// and a FLUSH goes out whenever requests are waiting and no earlier FLUSH
// is outstanding (group commit). Requests written while a FLUSH drains
// queue in the socket and form the next batch.
//
// The daemon runs one executor worker. With one worker per core, a
// batch waited for its slowest compile on a shared host, and throughput
// and tail latency moved by 30-60% between runs while throughput was no
// higher: the protocol serializes batches anyway.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "harness/run.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/stream.h"
#include "ir/canonical.h"
#include "ir/evaluator.h"
#include "ir/serialize.h"
#include "mapping/compiler.h"
#include "serve/service.h"
#include "sim/simulator.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "transforms/passes.h"

extern char** environ;

namespace perfbench {

using namespace sherlock;

namespace {

constexpr int kTargetDim = 256;
constexpr int kDaemonWorkers = 1;
constexpr int kCacheSize = 48;  // per cache level; below the working set
constexpr int kReplayRequests = 512;
// The timed loop is cut into windows of about two seconds. Request rates,
// medians and tails are the median over windows, so that a stretch of
// host interference moves few of them; at the usual 1000-2000 requests a
// second a window's tail is its p99.
constexpr double kWindowSeconds = 2.0;
// compile_ms_tail uses the first this many cold requests, so that its
// percentile rung (p95) does not move with how many a run reaches: about
// 1500 on a quiet host, 700 on a busy one.
constexpr size_t kColdTailSamples = 500;
// Simulator timing passes over the stream's distinct kernels: one before
// the loop, the rest in the check phase after a set-up repetition each.
// Slow stretches of the host last seconds, so the passes are spread out,
// and each kernel's fastest pass counts.
constexpr int kSimPasses = 5;

serve::RequestOptions requestOptions() {
  serve::RequestOptions o;
  o.targetDim = kTargetDim;
  return o;
}

// ---------------------------------------------------------------------
// Daemon process

class Daemon {
 public:
  Daemon(const RunOptions& options, const std::string& socketPath,
         const std::string& tracePath)
      : socketPath_(socketPath) {
    std::vector<std::string> args = {options.daemon,
                                     "--serve",
                                     "--socket",
                                     socketPath,
                                     "--cache-size",
                                     std::to_string(kCacheSize),
                                     "--jobs",
                                     std::to_string(kDaemonWorkers),
                                     "--target",
                                     std::to_string(kTargetDim)};
    if (!tracePath.empty()) {
      args.push_back("--trace-out");
      args.push_back(tracePath);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::string log = options.workDir + "/daemon.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw Error(strCat("cannot start ", options.daemon, ": ", strerror(rc)));
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// Waits until the socket accepts a connection.
  void waitReady() {
    auto t0 = Clock::now();
    while (secondsSince(t0) < 20) {
      int fd = tryConnect();
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw Error("daemon exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw Error("daemon did not open its socket within 20 s");
  }

  int tryConnect() const {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath_.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// Waits for the daemon to exit (it was sent SHUTDOWN); kills it after
  /// `graceSeconds`. Returns true on a clean exit.
  bool stop(double graceSeconds = 0) {
    if (pid_ <= 0) return true;
    auto t0 = Clock::now();
    int status = 0;
    while (secondsSince(t0) < graceSeconds) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

 private:
  std::string socketPath_;
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------
// Client connection

/// One reply from the daemon: RESP/BUSY for a request, or the framed
/// JSON of STATS-RESP/TRACE-RESP.
struct Reply {
  std::string kind;    ///< "RESP", "BUSY", "STATS-RESP", "TRACE-RESP"
  uint64_t id = 0;
  std::string status;  ///< "ok" or "error" (RESP)
  bool hit = false, direct = false, coalesced = false;
  double totalUs = 0;
  std::string payload;
};

double fieldValue(const std::string& line, const std::string& key) {
  size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtod(line.c_str() + at + key.size() + 2, nullptr);
}

/// Blocking client side of one daemon session. Owns the descriptor.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const std::string& text) {
    size_t off = 0;
    while (off < text.size()) {
      ssize_t n = ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads the next reply; false at end of stream.
  bool read(Reply& r) {
    std::string line;
    for (;;) {
      if (!readLine(line)) return false;
      std::istringstream fields(line);
      r = Reply{};
      fields >> r.kind;
      if (r.kind == "STATS-RESP" || r.kind == "TRACE-RESP")
        return readBytes(static_cast<size_t>(fieldValue(line, "bytes")), r.payload);
      if (r.kind == "BUSY") return static_cast<bool>(fields >> r.id);
      if (r.kind != "RESP") continue;
      fields >> r.id >> r.status;
      r.hit = fieldValue(line, "hit") != 0;
      r.direct = fieldValue(line, "direct") != 0;
      r.coalesced = fieldValue(line, "coalesced") != 0;
      r.totalUs = fieldValue(line, "total_us");
      return readBytes(static_cast<size_t>(fieldValue(line, "bytes")), r.payload);
    }
  }

  /// Sends STATS or TRACE and returns the framed JSON.
  std::string verb(const std::string& name) {
    Reply r;
    if (!send(name + "\n")) return "";
    while (read(r))
      if (r.kind == name + "-RESP") return r.payload;
    return "";
  }

 private:
  bool readLine(std::string& line) {
    line.clear();
    for (;;) {
      if (pos_ == buf_.size() && !fill()) return false;
      char c = buf_[pos_++];
      if (c == '\n') return true;
      line.push_back(c);
    }
  }

  bool readBytes(size_t n, std::string& out) {
    out.clear();
    while (out.size() < n) {
      if (pos_ == buf_.size() && !fill()) return false;
      size_t take = std::min(n - out.size(), buf_.size() - pos_);
      out.append(buf_, pos_, take);
      pos_ += take;
    }
    return true;
  }

  bool fill() {
    char chunk[65536];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.assign(chunk, static_cast<size_t>(n));
      pos_ = 0;
      return true;
    }
  }

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Daemon artifacts

/// Value after `"key": ` in the STATS JSON, searching from `from`.
double jsonNumber(const std::string& json, const std::string& key,
                  size_t from = 0) {
  size_t at = json.find("\"" + key + "\": ", from);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

double histogramP50(const std::string& json, const std::string& name) {
  size_t at = json.find("\"" + name + "\": {");
  return at == std::string::npos ? 0 : jsonNumber(json, "p50", at);
}

/// Rebuilds the daemon's B/E trace events as spans named
/// "<category>.<name>", one stack per track.
std::vector<SpanRecord> spansFromTrace(const std::string& json) {
  std::vector<SpanRecord> spans;
  std::map<long, std::vector<int>> open;
  size_t at = 0;
  while ((at = json.find("{\"ph\": \"", at)) != std::string::npos) {
    char ph = json[at + 8];
    size_t end = json.find('}', at);
    std::string event = json.substr(at, end - at);
    at = end;
    long tid = static_cast<long>(jsonNumber(event, "tid"));
    double ts = jsonNumber(event, "ts");
    if (ph == 'B') {
      auto field = [&](const std::string& key) {
        size_t n = event.find("\"" + key + "\": \"");
        size_t from = n + key.size() + 5;
        return n == std::string::npos
                   ? std::string()
                   : event.substr(from, event.find('"', from) - from);
      };
      SpanRecord span;
      span.name = field("cat") + "." + field("name");
      span.startUs = ts;
      span.request = static_cast<uint64_t>(tid);
      span.parent = open[tid].empty() ? -1 : open[tid].back();
      spans.push_back(span);
      open[tid].push_back(static_cast<int>(spans.size()) - 1);
    } else if (ph == 'E' && !open[tid].empty()) {
      spans[static_cast<size_t>(open[tid].back())].endUs = ts;
      open[tid].pop_back();
    }
  }
  return spans;
}

// ---------------------------------------------------------------------
// Check phase: references the daemon did not produce

/// One checked kernel of the stream, kept for the simulator timing passes.
struct SimCase {
  size_t source = 0;
  ir::Graph graph;
  isa::TargetSpec target;
  mapping::Program program;
  sim::SimOptions options;
  long insts = 0;
  std::vector<double> seconds;  ///< one per timing pass
};

struct ModelTotals {
  std::vector<double> latency, energy, papp;
  double insts = 0;
  std::vector<SimCase> cases;
};

/// Compiles stream source `source` the way the service does (canonicalize,
/// then the canonical form), simulates it and checks it against the
/// BitVector model of the source DAG. Returns false on a mismatch. The
/// served payload is compared with the program after the loop.
bool modelKernel(const ServeStream& stream, size_t source, uint64_t seed,
                 ModelTotals& totals) {
  ir::Graph g = ir::graphFromText(stream.sources[source]);
  ir::CanonicalForm form = ir::canonicalForm(transforms::canonicalize(g));
  SimCase c;
  c.source = source;
  c.target = isa::TargetSpec::square(
      kTargetDim,
      device::TechnologyParams::forTechnology(device::Technology::ReRam), 2);
  mapping::CompileOptions copts;
  copts.verify = true;
  c.program = mapping::compile(form.graph, c.target, copts).program;

  Rng rng(seed);
  ir::InputValues lanes;
  std::map<std::string, std::vector<uint64_t>> words;
  for (ir::NodeId id : g.inputNodes()) {
    uint64_t word = rng();
    lanes[g.node(id).name] = BitVector::fromWords(&word, 64);
    words[g.node(id).name] = {word};
  }
  for (size_t k = 0; k < form.inputNames.size(); ++k)
    c.options.wideInputs[strCat("i", k)] = words.at(form.inputNames[k]);
  c.options.staticVerify = false;
  sim::SimResult res = sim::simulate(form.graph, c.target, c.program, c.options);
  std::vector<uint64_t> values =
      ir::evaluateAllWordsPacked(form.graph, c.options.wideInputs, 1);
  std::vector<BitVector> expected = ir::evaluateOutputs(g, lanes);
  if (!res.verified || expected.size() != form.graph.outputs().size())
    return false;
  for (size_t j = 0; j < expected.size(); ++j)
    if (values[static_cast<size_t>(form.graph.outputs()[j])] != expected[j].word(0))
      return false;
  totals.latency.push_back(res.latencyUs());
  totals.energy.push_back(res.energyUj());
  if (res.pApp > 0) totals.papp.push_back(res.pApp);  // 0: no scouting op
  totals.insts += static_cast<double>(c.program.instructions.size());
  c.insts = res.instructionCount;
  c.graph = std::move(form.graph);
  totals.cases.push_back(std::move(c));
  return true;
}

void simPass(ModelTotals& model) {
  for (SimCase& c : model.cases) {
    auto s0 = Clock::now();
    sim::simulate(c.graph, c.target, c.program, c.options);
    c.seconds.push_back(secondsSince(s0));
  }
}

struct Sample {
  double latencyUs = 0;
  double serverUs = 0;
  double doneS = 0;  ///< reply time, seconds after the loop started
  int source = 0;
  enum Class { Direct, Canonical, Cold, Coalesced, Failed } cls = Failed;
};

}  // namespace

RunResult runServeZipf(const RunOptions& options) {
  RunResult result;
  std::filesystem::create_directories(options.workDir);
  const std::string socketPath = options.workDir + "/serve.sock";
  const std::string tracePath =
      options.trace ? options.workDir + "/daemon-trace.json" : "";
  const int clients =
      std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));

  // Set-up: stream generation and daemon start to the first accepted
  // connection. It runs once before the loop and again between the
  // simulator timing passes of the check phase (against a daemon that is
  // then shut down); setup_s is the median.
  std::vector<double> setupSeconds;
  double buildMs = 0;
  ServeStream stream;
  std::unique_ptr<Daemon> daemon;
  auto setUp = [&] {
    auto s0 = Clock::now();
    stream = makeServeStream(options.seed);
    buildMs = secondsSince(s0) * 1e3;
    daemon = std::make_unique<Daemon>(options, socketPath, tracePath);
    daemon->waitReady();
    setupSeconds.push_back(secondsSince(s0));
  };
  auto shutDown = [&] {
    int fd = daemon->tryConnect();
    if (fd >= 0) {
      (void)!::write(fd, "SHUTDOWN\n", 9);
      ::close(fd);
    }
    bool clean = daemon->stop(10);
    daemon.reset();
    return clean;
  };
  setUp();

  // Every distinct kernel of the stream (the hot set and the fresh pool),
  // compiled in-process and checked against the BitVector model, then the
  // first simulator timing pass.
  ModelTotals model;
  for (size_t i = 0; i < stream.sources.size(); ++i) {
    if (stream.kernelOf[i] >= 0 && i % kVariantsPerKernel != 0) continue;
    if (!modelKernel(stream, i, deriveSeed(options.seed, 9000 + i), model))
      result.fail(strCat("kernel source ", i, ": program wrong against the "
                         "BitVector model"));
  }
  simPass(model);

  int fd = daemon->tryConnect();
  if (fd < 0) throw Error("cannot connect to the daemon");
  std::vector<Sample> all;
  std::vector<std::string> firstPayload(stream.sources.size());
  long mismatches = 0;
  std::string statsJson, traceJson;
  double elapsed = 0, daemonRssMb = 0;
  {
    // One thread drives all clients: a reply is recorded and that
    // client's next request written before the next reply is read, so
    // client-side thread wake-ups stay out of the measured latency.
    Connection conn(fd);
    struct Inflight {
      int source;
      Clock::time_point sent;
    };
    std::unordered_map<uint64_t, Inflight> inflight;
    uint64_t written = 0, flushedUpTo = 0, responded = 0;
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(options.seconds));
    auto issue = [&] {
      uint64_t id = written++;
      const int source = stream.requests[id % stream.requests.size()];
      inflight[id] = Inflight{source, Clock::now()};
      return conn.send(strCat("REQ ", id, "\n",
                              stream.sources[static_cast<size_t>(source)], "END\n"));
    };
    bool alive = true;
    for (int c = 0; c < clients && alive; ++c) alive = issue();
    auto flushIfIdle = [&] {
      // A FLUSH covers every request written before it; the next one
      // goes out once all of those have been answered.
      if (responded >= flushedUpTo && written > flushedUpTo) {
        flushedUpTo = written;
        return conn.send("FLUSH\n");
      }
      return true;
    };
    alive = alive && flushIfIdle();
    Reply r;
    while (alive && !inflight.empty() && conn.read(r)) {
      if (r.kind != "RESP" && r.kind != "BUSY") continue;
      auto it = inflight.find(r.id);
      if (it == inflight.end()) continue;
      const auto now = Clock::now();
      Sample s;
      s.latencyUs =
          std::chrono::duration<double, std::micro>(now - it->second.sent).count();
      s.doneS = std::chrono::duration<double>(now - start).count();
      s.serverUs = r.totalUs;
      s.source = it->second.source;
      inflight.erase(it);
      ++responded;
      if (r.kind != "RESP" || r.status != "ok") {
        s.cls = Sample::Failed;
      } else {
        s.cls = r.direct      ? Sample::Direct
                : r.hit       ? Sample::Canonical
                : r.coalesced ? Sample::Coalesced
                              : Sample::Cold;
        std::string& first = firstPayload[static_cast<size_t>(s.source)];
        if (first.empty()) first = std::move(r.payload);
        else if (first != r.payload) ++mismatches;
      }
      all.push_back(s);
      if (now < deadline) alive = issue();
      alive = alive && flushIfIdle();
    }
    elapsed = secondsSince(start);
    if (!inflight.empty()) result.fail("the daemon closed the session early");
    statsJson = conn.verb("STATS");
    if (options.trace) traceJson = conn.verb("TRACE");
    daemonRssMb = peakRssMb(daemon->pid());
    conn.send("SHUTDOWN\n");
  }
  if (!daemon->stop(30)) result.fail("daemon did not shut down cleanly");
  daemon.reset();

  // Every sample, classified, and assigned to its window.
  const int windows = std::max(1, static_cast<int>(options.seconds / kWindowSeconds));
  const double windowSeconds = elapsed / windows;
  struct Window {
    std::vector<double> latencyUs, coldMs;
  };
  std::vector<Window> perWindow(static_cast<size_t>(windows));
  std::vector<double> latency, coldMs, directUs, canonicalUs, coldUs, protocolUs;
  long counts[5] = {0, 0, 0, 0, 0};
  for (const Sample& s : all) {
    ++result.attempted;
    ++counts[s.cls];
    if (s.cls == Sample::Failed) {
      result.fail(strCat("request for source ", s.source, " was not answered ok"));
      continue;
    }
    Window& w = perWindow[static_cast<size_t>(
        std::min(windows - 1, static_cast<int>(s.doneS / windowSeconds)))];
    w.latencyUs.push_back(s.latencyUs);
    if (s.cls == Sample::Cold) w.coldMs.push_back(s.serverUs / 1e3);
    latency.push_back(s.latencyUs);
    protocolUs.push_back(s.latencyUs - s.serverUs);
    if (s.cls == Sample::Direct) directUs.push_back(s.serverUs);
    if (s.cls == Sample::Canonical) canonicalUs.push_back(s.serverUs);
    if (s.cls == Sample::Cold) {
      coldUs.push_back(s.serverUs);
      coldMs.push_back(s.serverUs / 1e3);
    }
  }
  if (mismatches > 0)
    result.fail(strCat(mismatches, " responses differ from the first "
                       "response to the same source"));

  // Cache-disabled cold compile of every source served, byte for byte.
  serve::ServiceOptions coldOptions;
  coldOptions.cacheCapacity = 0;
  serve::CompileService cold(coldOptions);
  const serve::RequestOptions ropts = requestOptions();
  long checked = 0;
  std::vector<std::string> reference(stream.sources.size());
  for (size_t i = 0; i < stream.sources.size(); ++i) {
    if (firstPayload[i].empty()) continue;
    serve::CompileResponse ref = cold.handle(stream.sources[i], ropts);
    reference[i] = ref.payload;
    ++checked;
    if (!ref.ok || ref.payload != firstPayload[i])
      result.fail(strCat("source ", i, ": served payload differs from a "
                         "cache-disabled cold compile"));
  }

  // The payload of every distinct kernel (as served, or from the
  // cache-disabled service if the loop never requested it) ends with the
  // program compiled in-process.
  for (const SimCase& c : model.cases) {
    std::string& served = reference[c.source];
    if (served.empty()) served = cold.handle(stream.sources[c.source], ropts).payload;
    if (!served.ends_with(isa::toAssembly(c.program.instructions)))
      result.fail(strCat("kernel source ", c.source, ": served payload does not "
                         "end with the in-process program"));
  }

  // The remaining simulator timing passes, with a set-up repetition before
  // each.
  for (int pass = 1; pass < kSimPasses; ++pass) {
    setUp();
    if (!shutDown()) result.fail("daemon did not shut down cleanly");
    simPass(model);
  }
  double simInsts = 0, simSeconds = 0;
  for (const SimCase& c : model.cases) {
    simInsts += static_cast<double>(c.insts);
    simSeconds += std::ranges::min(c.seconds);
  }

  // Serial replay of the stream prefix: its class shares are a pure
  // function of the seed.
  serve::ServiceOptions replayOptions;
  replayOptions.cacheCapacity = kCacheSize;
  serve::CompileService replay(replayOptions);
  long replayCounts[3] = {0, 0, 0};
  for (int r = 0; r < kReplayRequests; ++r) {
    const int source = stream.requests[static_cast<size_t>(r)];
    serve::CompileResponse resp =
        replay.handle(stream.sources[static_cast<size_t>(source)], ropts);
    ++replayCounts[resp.direct ? 0 : resp.cacheHit ? 1 : 2];
  }

  const double answered = static_cast<double>(latency.size());
  auto share = [&](long n, double of) { return of > 0 ? n / of : 0.0; };
  Tail requestTail = tailPercentile(latency);
  Tail coldTail = tailPercentile(std::vector<double>(
      coldMs.begin(), coldMs.begin() + static_cast<long>(
                                           std::min(coldMs.size(), kColdTailSamples))));
  std::cout << "clients " << clients << ", requests " << all.size() << " in "
            << elapsed << " s; checked " << checked << " sources cold\n"
            << "shares direct " << share(counts[Sample::Direct], answered)
            << " canonical " << share(counts[Sample::Canonical], answered)
            << " cold " << share(counts[Sample::Cold], answered)
            << " coalesced " << share(counts[Sample::Coalesced], answered) << "\n"
            << "serial replay of " << kReplayRequests << ": direct "
            << replayCounts[0] << " canonical " << replayCounts[1] << " cold "
            << replayCounts[2] << "\n"
            << "pooled request tail " << describe(requestTail) << "; cold tail "
            << describe(coldTail) << "\n";

  const double failedFrac =
      result.attempted ? static_cast<double>(result.failed) / result.attempted : 0;
  std::vector<double> windowRate, windowLatencyUs, windowTailUs, windowColdMs;
  for (const Window& w : perWindow) {
    windowRate.push_back(static_cast<double>(w.latencyUs.size()) / windowSeconds);
    if (!w.latencyUs.empty()) windowLatencyUs.push_back(median(w.latencyUs));
    Tail tail = tailPercentile(w.latencyUs);
    if (tail.enough) windowTailUs.push_back(tail.value);
    std::cout << "  window: " << w.latencyUs.size() / windowSeconds
              << " requests/s, latency tail " << describe(tail) << "\n";
    if (!w.coldMs.empty()) windowColdMs.push_back(median(w.coldMs));
  }
  const double requestsPerS = median(windowRate);
  std::cout << "window reply rates p25/p50/p75 " << percentile(windowRate, 25)
            << " / " << requestsPerS << " / " << percentile(windowRate, 75) << "\n";
  if (!options.trace) {
    result.set("setup_s", median(setupSeconds), "s");
    result.set("compile_ms_p50", median(windowColdMs), "ms");
    result.set("compile_ms_tail", coldTail.value, "ms");
    result.set("sim_minst_per_s", simSeconds > 0 ? simInsts / simSeconds / 1e6 : 0,
               "Minst/s");
    result.set("kernels_per_s", requestsPerS, "1/s");
    result.set("request_us_p50", median(windowLatencyUs), "us");
    result.set("request_us_tail", median(windowTailUs), "us");
    result.set("requests_per_s", requestsPerS, "1/s");
    result.set("peak_rss_mb", daemonRssMb, "MB");
    if (!model.latency.empty()) {
      result.set("model_latency_us", geomean(model.latency), "sim_us");
      result.set("model_energy_uj", geomean(model.energy), "sim_uJ");
      result.set("model_p_app", geomean(model.papp), "prob");
    }
    result.set("program_insts", model.insts, "count");
    return result;
  }

  std::cout << "traced requests_per_s " << requestsPerS << "\n";
  // Inclusive durations: the daemon's layer spans have sub-step children
  // (map -> cluster/partition) that belong to the same layer.
  std::map<std::string, std::vector<double>> durations;
  for (const SpanRecord& span : spansFromTrace(traceJson))
    durations[span.name].push_back(span.endUs - span.startUs);
  auto spanMs = [&](const std::string& name) {
    auto it = durations.find(name);
    return it == durations.end() ? 0.0 : median(it->second) / 1e3;
  };
  result.set("workloads.build_ms", buildMs, "ms");
  result.set("ir.parse_dag_ms", spanMs("ir.parse_dag"), "ms");
  result.set("ir.canonical_form_ms", spanMs("ir.canonical_form"), "ms");
  result.set("mapping.map_ms", spanMs("mapping.map"), "ms");
  result.set("mapping.codegen_ms", spanMs("mapping.codegen"), "ms");
  result.set("verify.check_ms", spanMs("mapping.verify"), "ms");
  result.set("serve.direct_hit_us_p50", median(directUs), "us");
  result.set("serve.canonical_hit_us_p50", median(canonicalUs), "us");
  result.set("serve.cold_us_p50", median(coldUs), "us");
  result.set("serve.protocol_us_p50", median(protocolUs), "us");
  result.set("serve.queue_wait_us_p50", histogramP50(statsJson, "serve.queue_wait_us"),
             "us");
  result.set("serve.hit_rate", jsonNumber(statsJson, "serve.hit_rate"), "frac");
  result.set("serve.coalesced", jsonNumber(statsJson, "serve.coalesced"), "count");
  result.set("serve.evictions", jsonNumber(statsJson, "serve.evictions"), "count");
  result.set("serve.direct_share", share(counts[Sample::Direct], answered), "frac");
  result.set("serve.canonical_share", share(counts[Sample::Canonical], answered), "frac");
  result.set("serve.cold_share",
             share(counts[Sample::Cold] + counts[Sample::Coalesced], answered), "frac");
  result.set("serve.replay_direct_share", share(replayCounts[0], kReplayRequests), "frac");
  result.set("serve.replay_canonical_share", share(replayCounts[1], kReplayRequests),
             "frac");
  result.set("serve.replay_cold_share", share(replayCounts[2], kReplayRequests), "frac");
  result.set("mapping.insts", model.insts, "count");
  result.set("failed_frac", failedFrac, "frac");
  return result;
}

}  // namespace perfbench
