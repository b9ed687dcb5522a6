// The `tenants` workload and the server probe of the traced runs: a
// StreamServer with a 2-thread shared pool behind TcpServer on loopback,
// driven by one client thread per session, one connection each, over
// wire protocol v=1.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <thread>

#include "bench.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/wire.h"

namespace perfbench {

using namespace streamasp;

SessionSpec TrafficSession(std::string name) {
  SessionSpec spec;
  spec.name = std::move(name);
  spec.kind = StreamKind::kTraffic;
  spec.program = TrafficProgramText();
  spec.geometry = {2000, 2000};
  spec.open_options = "window=2000 async=1";
  spec.open_frame = 250;
  spec.open_rate = 90'000;
  spec.slo_ms = 50;
  spec.oracle_stride = 8;
  spec.warmup_windows = 10;
  return spec;
}

SessionSpec ReachSession(std::string name) {
  SessionSpec spec;
  spec.name = std::move(name);
  spec.kind = StreamKind::kReach;
  spec.program = ReachProgramText();
  spec.geometry = {1600, 100};
  spec.open_options = "window=1600 slide=100 async=1 reuse=solve";
  spec.open_frame = 100;
  spec.open_rate = 2'500;
  spec.slo_ms = 50;
  spec.oracle_stride = 8;
  spec.warmup_windows = 10;
  return spec;
}

namespace {

/// A run alternates closed-loop and open-loop halves of one round.
constexpr double kRoundMs = 2000;
/// Set-up repetitions before and after the measured rounds.
constexpr int kSetupRepsBefore = 3;
constexpr int kSetupRepsAfter = 2;

/// Blocking-send, polling-receive client for the length-prefixed wire.
class WireClient {
 public:
  explicit WireClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Fail("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Fail("connect failed");
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~WireClient() {
    if (fd_ >= 0) close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Sends one framed payload; returns the bytes written.
  size_t Send(const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n =
          send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) Fail("send failed");
      sent += static_cast<size_t>(n);
    }
    return frame.size();
  }

  /// Next complete payload, waiting at most timeout_ms. False on timeout.
  bool Next(std::string* payload, double timeout_ms) {
    const double deadline = NowMs() + timeout_ms;
    while (!decoder_.Next(payload)) {
      if (!decoder_.status().ok()) Fail("bad frame from server");
      const double wait = deadline - NowMs();
      if (wait <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      const int64_t wait_ns = static_cast<int64_t>(wait * 1e6);
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ppoll(&p, 1, &timeout, nullptr);
      if (ready < 0) Fail("poll failed");
      if (ready == 0) continue;
      char buffer[1 << 16];
      const ssize_t n = recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) Fail("server closed the connection");
      decoder_.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    }
    return true;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// Client-side state of one session.
struct Session {
  SessionSpec spec;
  uint64_t seed = 0;
  SymbolTablePtr symbols = MakeSymbolTable();
  std::unique_ptr<TripleSource> source;
  std::unique_ptr<WireClient> client;
  uint64_t next = 0;  ///< Next triple to push.

  std::vector<double> event_ms;   ///< Receipt time by window, -1 if none.
  std::vector<char> event_ok;     ///< Result event of the right size.
  std::vector<double> close_send_ms;  ///< Send time of the closing frame.
  std::map<uint64_t, std::vector<std::string>> sampled;

  std::deque<double> pending_pushes;  ///< Send times awaiting "ok push".
  std::vector<double> ack_ms;
  std::vector<double> late_ms;
  std::vector<std::string> captured_frames;
  uint64_t push_bytes = 0;
  uint64_t push_triples = 0;
  std::atomic<uint64_t> delivered_triples{0};
  std::atomic<int64_t> gen_cpu_us{0};
  double open_ms = 0;
  SpanLog spans;
  bool trace = false;

  void Record(uint64_t seq, double t, bool ok) {
    if (event_ms.size() <= seq) {
      event_ms.resize(seq + 1, -1);
      event_ok.resize(seq + 1, 0);
    }
    event_ms[seq] = t;
    event_ok[seq] = ok ? 1 : 0;
  }

  /// Handles one server payload: an event or a reply.
  void Handle(const std::string& payload, double t) {
    const size_t eol = payload.find('\n');
    const std::string head = payload.substr(0, eol);
    if (head.rfind("event ", 0) == 0) {
      const size_t seq_at = head.find(" seq=");
      if (seq_at == std::string::npos) Fail("event without seq: " + head);
      const uint64_t seq = std::strtoull(head.c_str() + seq_at + 5, nullptr, 10);
      const bool result = head.find(" result ") != std::string::npos;
      const size_t items_at = head.find(" items=");
      const bool full =
          items_at != std::string::npos &&
          std::strtoull(head.c_str() + items_at + 7, nullptr, 10) ==
              spec.geometry.size;
      Record(seq, t, result && full);
      if (trace && seq < close_send_ms.size()) {
        spans.Add({"server.window", close_send_ms[seq], t, -1,
                   static_cast<int64_t>(seq)});
      }
      if (result && seq % spec.oracle_stride == 0) {
        std::vector<std::string> lines;
        size_t start = eol == std::string::npos ? payload.size() : eol + 1;
        while (start < payload.size()) {
          size_t end = payload.find('\n', start);
          if (end == std::string::npos) end = payload.size();
          lines.push_back(payload.substr(start, end - start));
          start = end + 1;
        }
        sampled[seq] = std::move(lines);
      }
      if (result) delivered_triples += spec.geometry.slide;
      return;
    }
    if (head.rfind("ok push ", 0) == 0) {
      if (pending_pushes.empty()) Fail("unexpected push reply");
      ack_ms.push_back(t - pending_pushes.front());
      if (trace) spans.Add({"server.push", pending_pushes.front(), t, -1, -1});
      pending_pushes.pop_front();
      return;
    }
    Fail("unexpected reply for " + spec.name + ": " + head);
  }

  /// Pushes triples [next, next + count) as one frame.
  void Push(size_t count) {
    const double g0 = ThreadCpuMs();
    std::string payload = "push " + spec.name;
    for (uint64_t i = next; i < next + count; ++i) {
      payload += '\n';
      payload += source->Line(i);
    }
    gen_cpu_us += static_cast<int64_t>((ThreadCpuMs() - g0) * 1e3);
    if (trace && captured_frames.size() < 16) captured_frames.push_back(payload);
    const double t = NowMs();
    push_bytes += client->Send(payload);
    push_triples += count;
    pending_pushes.push_back(t);
    next += count;
    const uint64_t closed = spec.geometry.ClosedWindows(next);
    if (closed > 0) {
      if (close_send_ms.size() < closed) close_send_ms.resize(closed, -1);
      if (close_send_ms[closed - 1] < 0) close_send_ms[closed - 1] = t;
    }
  }

  /// Reads until every window closed so far has its event.
  void AwaitClosed(double timeout_ms) {
    const uint64_t closed = spec.geometry.ClosedWindows(next);
    const double deadline = NowMs() + timeout_ms;
    std::string payload;
    while (closed > 0 &&
           (event_ms.size() < closed || event_ms[closed - 1] < 0 ||
            !pending_pushes.empty())) {
      const double wait = deadline - NowMs();
      if (wait <= 0 || !client->Next(&payload, wait)) {
        Fail("session " + spec.name + " stalled");
      }
      Handle(payload, NowMs());
    }
  }

  /// Bytes the client holds for measurement and the oracle.
  size_t BufferBytes() const {
    size_t bytes = event_ok.capacity() +
                   (event_ms.capacity() + close_send_ms.capacity() +
                    ack_ms.capacity() + late_ms.capacity()) *
                       sizeof(double);
    for (const auto& [seq, lines] : sampled) {
      for (const std::string& line : lines) bytes += line.capacity();
    }
    for (const std::string& frame : captured_frames) bytes += frame.capacity();
    return bytes;
  }

  /// Handles whatever arrives until NowMs() >= until_ms.
  void PumpUntil(double until_ms) {
    std::string payload;
    while (true) {
      const double wait = until_ms - NowMs();
      if (wait <= 0) return;
      if (client->Next(&payload, wait)) Handle(payload, NowMs());
    }
  }
};

struct Harness {
  std::vector<std::unique_ptr<Session>> sessions;
  std::unique_ptr<StreamServer> server;
  std::unique_ptr<TcpServer> tcp;
  /// Members are torn down in Stop(): clients first (their connections
  /// close the sessions), then the transport, then the server.
  void Stop() {
    for (auto& s : sessions) s->client.reset();
    if (tcp) tcp->Stop();
    tcp.reset();
    server.reset();
  }
  ~Harness() { Stop(); }
};

/// Server start, connections, opens and warm-up windows: time to steady
/// state.
std::unique_ptr<Harness> SetUp(const std::vector<SessionSpec>& specs,
                               uint64_t seed, bool trace, double* setup_ms) {
  const double t0 = NowMs();
  auto h = std::make_unique<Harness>();
  ServerConfig config;
  config.shared_pool_threads = 2;
  h->server = std::make_unique<StreamServer>(config);
  h->tcp = std::make_unique<TcpServer>(h->server.get(), TcpServer::Options{});
  const Status started = h->tcp->Start();
  if (!started.ok()) Fail("tcp server: " + started.ToString());
  for (size_t k = 0; k < specs.size(); ++k) {
    auto s = std::make_unique<Session>();
    s->spec = specs[k];
    s->seed = seed * 16 + k;
    s->trace = trace;
    s->source = std::make_unique<TripleSource>(s->spec.kind, s->seed,
                                               *s->symbols);
    s->client = std::make_unique<WireClient>(h->tcp->port());
    h->sessions.push_back(std::move(s));
  }
  for (auto& s : h->sessions) {
    const double t = NowMs();
    s->client->Send("open " + s->spec.name + " v=1 " + s->spec.open_options +
                    "\n" + s->spec.program);
    std::string reply;
    if (!s->client->Next(&reply, 30'000)) Fail("open timed out");
    s->open_ms = NowMs() - t;
    if (reply.rfind("ok open " + s->spec.name + " v=1", 0) != 0) {
      Fail("open refused: " + reply);
    }
  }
  for (auto& s : h->sessions) {
    const Geometry& g = s->spec.geometry;
    s->Push(g.size);
    s->AwaitClosed(30'000);
    for (size_t w = 1; w < s->spec.warmup_windows; ++w) {
      s->Push(g.slide);
      s->AwaitClosed(30'000);
    }
  }
  *setup_ms = NowMs() - t0;
  return h;
}

/// Samples accumulated over the rounds of a run.
struct Measurements {
  // Closed loop, summed over phases: triples delivered, wall time, and
  // engine CPU time; and per window, closing-frame send to event receipt.
  double delivered_triples = 0;
  double delivered_ms = 0;
  double cpu_ms = 0;
  std::vector<double> closed_emit_ms;
  double tps() const {
    return delivered_ms > 0 ? delivered_triples / delivered_ms * 1e3 : 0;
  }
  double cpu_ms_per_ktriple() const {
    return delivered_triples > 0 ? cpu_ms / (delivered_triples / 1e3) : 0;
  }
  // Open loop: per delivered window (late: per frame).
  std::vector<double> emit_ms;
  std::vector<double> late_ms;
  uint64_t open_windows = 0;
  /// ((session, window), emit latency) of every open-loop window delivered
  /// as a full result.
  std::vector<std::pair<std::pair<size_t, uint64_t>, double>> open_emit;
};

/// Each client pushes one window's new triples and waits for that
/// window's event before the next, for duration_ms.
void RunClosedLoop(Harness& h, double duration_ms, Measurements* m) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<uint64_t> first_window(h.sessions.size());
  for (size_t k = 0; k < h.sessions.size(); ++k) {
    Session* s = h.sessions[k].get();
    first_window[k] = s->spec.geometry.ClosedWindows(s->next);
    threads.emplace_back([s, &stop] {
      while (!stop.load()) {
        s->Push(s->spec.geometry.slide);
        s->AwaitClosed(30'000);
      }
    });
  }
  auto delivered = [&h] {
    uint64_t total = 0;
    for (auto& s : h.sessions) total += s->delivered_triples.load();
    return total;
  };
  auto engine_cpu_ms = [&h] {
    int64_t gen_us = 0;
    for (auto& s : h.sessions) gen_us += s->gen_cpu_us.load();
    return ProcessCpuMs() - static_cast<double>(gen_us) / 1e3;
  };
  const double t = NowMs();
  const uint64_t d = delivered();
  const double c = engine_cpu_ms();
  SleepUntilMs(t + duration_ms);
  m->delivered_triples += static_cast<double>(delivered() - d);
  m->delivered_ms += NowMs() - t;
  m->cpu_ms += engine_cpu_ms() - c;
  stop = true;
  for (std::thread& thread : threads) thread.join();

  for (size_t k = 0; k < h.sessions.size(); ++k) {
    Session& s = *h.sessions[k];
    const uint64_t end = s.spec.geometry.ClosedWindows(s.next);
    for (uint64_t w = first_window[k]; w < end; ++w) {
      m->closed_emit_ms.push_back(s.event_ms[w] - s.close_send_ms[w]);
    }
  }
}

/// Every client pushes at its session's fixed rate; session k starts k/n
/// of its window period late, so the sessions' windows close staggered
/// rather than all at once. Latency runs from the due time of a window's
/// last triple to the receipt of its event.
void RunOpenLoop(Harness& h, double duration_ms, Measurements* m) {
  const size_t n = h.sessions.size();
  std::vector<double> t0(n);
  std::vector<uint64_t> first(n);
  std::vector<std::thread> threads;
  const double start = NowMs() + 2;
  for (size_t k = 0; k < n; ++k) {
    Session* s = h.sessions[k].get();
    const double window_period_ms =
        static_cast<double>(s->spec.geometry.slide) / s->spec.open_rate * 1e3;
    t0[k] = start + window_period_ms * static_cast<double>(k) /
                        static_cast<double>(n);
    first[k] = s->next;
    threads.emplace_back([s, t0 = t0[k], duration_ms] {
      const uint64_t i0 = s->next;
      const double ms_per_triple = 1e3 / s->spec.open_rate;
      const size_t frame = s->spec.open_frame;
      while (true) {
        const uint64_t last = s->next + frame - 1;
        const double due =
            t0 + static_cast<double>(last - i0 + 1) * ms_per_triple;
        if ((s->next - i0) % s->spec.geometry.slide == 0 &&
            due > t0 + duration_ms) {
          break;
        }
        s->PumpUntil(due);
        s->late_ms.push_back(NowMs() - due);
        s->Push(frame);
      }
      s->AwaitClosed(30'000);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t k = 0; k < n; ++k) {
    Session& s = *h.sessions[k];
    const Geometry& g = s.spec.geometry;
    const double ms_per_triple = 1e3 / s.spec.open_rate;
    for (uint64_t w = g.ClosedWindows(first[k]); w < g.ClosedWindows(s.next);
         ++w) {
      ++m->open_windows;
      if (!s.event_ok[w]) continue;
      const double due =
          t0[k] + static_cast<double>(g.LastTriple(w) - first[k] + 1) *
                      ms_per_triple;
      const double emit = s.event_ms[w] - due;
      m->emit_ms.push_back(emit);
      m->open_emit.push_back({{k, w}, emit});
    }
    m->late_ms.insert(m->late_ms.end(), s.late_ms.begin(), s.late_ms.end());
    s.late_ms.clear();
  }
}

/// Alternates closed-loop and open-loop halves of kRoundMs.
void RunRounds(Harness& h, double duration_ms, Measurements* m) {
  const double end_ms = NowMs() + duration_ms;
  do {
    RunClosedLoop(h, kRoundMs / 2, m);
    RunOpenLoop(h, kRoundMs / 2, m);
  } while (NowMs() + kRoundMs / 2 < end_ms);
}

/// Oracle tally over every closed window of every session; returns the
/// failed (session, window) pairs.
std::vector<std::pair<size_t, uint64_t>> CheckWindows(Harness& h,
                                                      uint64_t* closed) {
  std::vector<std::pair<size_t, uint64_t>> failed;
  *closed = 0;
  for (size_t k = 0; k < h.sessions.size(); ++k) {
    Session& s = *h.sessions[k];
    Oracle oracle(s.spec.kind, s.spec.program, s.seed, s.spec.geometry);
    const uint64_t n = s.spec.geometry.ClosedWindows(s.next);
    *closed += n;
    for (uint64_t w = 0; w < n; ++w) {
      bool ok = w < s.event_ok.size() && s.event_ok[w];
      if (ok && w % s.spec.oracle_stride == 0) {
        const auto it = s.sampled.find(w);
        ok = it != s.sampled.end() &&
             CanonicalWireAnswers(it->second) == oracle.Expected(w);
      }
      if (!ok) {
        failed.emplace_back(k, w);
        std::printf("mismatch workload=tenants session=%s seed=%llu "
                    "window=%llu\n",
                    s.spec.name.c_str(),
                    static_cast<unsigned long long>(s.seed),
                    static_cast<unsigned long long>(w));
      }
    }
  }
  return failed;
}

std::vector<SessionSpec> TenantMix() {
  return {TrafficSession("t0"), TrafficSession("t1"), TrafficSession("t2"),
          ReachSession("r0")};
}

std::vector<EngineStats> SessionStats(Harness& h) {
  std::vector<EngineStats> stats;
  for (auto& s : h.sessions) {
    stats.push_back(
        Check(h.server->FindSession(s->spec.name), "session")->stats().engine);
  }
  return stats;
}

/// Mean reasoning latency per window over the sessions' engines, counting
/// only the windows reasoned between the two snapshots (set-up excluded).
double MeanReasonMs(const std::vector<EngineStats>& before,
                    const std::vector<EngineStats>& after) {
  double total = 0;
  double windows = 0;
  for (size_t k = 0; k < after.size(); ++k) {
    total += after[k].reasoning.total_latency_ms -
             before[k].reasoning.total_latency_ms;
    windows += static_cast<double>(after[k].reasoning.windows -
                                   before[k].reasoning.windows);
  }
  return windows > 0 ? total / windows : 0;
}

double Mean(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return values.empty() ? 0 : total / static_cast<double>(values.size());
}

/// server.* and util.* metrics from a set-up harness after its phases.
void AddServerMetrics(Harness& h, const std::vector<double>& emit_ms,
                      double mean_reason_ms,
                      RunReport* report) {
  std::vector<double> open_ms, ack_ms;
  uint64_t bytes = 0, triples = 0;
  std::vector<std::string> frames;
  for (auto& s : h.sessions) {
    open_ms.push_back(s->open_ms);
    ack_ms.insert(ack_ms.end(), s->ack_ms.begin(), s->ack_ms.end());
    bytes += s->push_bytes;
    triples += s->push_triples;
    frames.insert(frames.end(), s->captured_frames.begin(),
                  s->captured_frames.end());
  }
  report->Add("server.open_ms", Median(open_ms), "ms");
  report->Add("server.push_ack_ms_p50", Median(ack_ms), "ms");
  report->Add("server.wire_bytes_per_triple",
              static_cast<double>(bytes) / static_cast<double>(triples), "B");

  // The server's request path over the captured push frames: frame
  // decoding plus request parsing.
  std::string stream;
  for (const std::string& frame : frames) stream += EncodeFrame(frame);
  std::vector<double> per_frame;
  for (int rep = 0; rep < 5; ++rep) {
    FrameDecoder decoder;
    const double t = NowMs();
    decoder.Feed(stream);
    std::string payload;
    size_t decoded = 0;
    while (decoder.Next(&payload)) {
      Check(ParseRequest(payload), "captured request");
      ++decoded;
    }
    per_frame.push_back((NowMs() - t) * 1e3 / static_cast<double>(decoded));
  }
  report->Add("server.decode_us_per_frame", Median(per_frame), "us");

  // Pool wait: mean emit latency minus the sessions' mean reasoning
  // latency (per-window reasoning latency does not travel on the wire).
  report->Add("util.pool_wait_ms_p50", Mean(emit_ms) - mean_reason_ms, "ms");
}

}  // namespace

void AddServerLayerMetrics(const std::vector<SessionSpec>& specs,
                           uint64_t seed, double budget_ms, SpanLog* spans,
                           RunReport* report) {
  double setup_ms = 0;
  std::unique_ptr<Harness> h = SetUp(specs, seed, /*trace=*/true, &setup_ms);
  Measurements m;
  const std::vector<EngineStats> before = SessionStats(*h);
  RunClosedLoop(*h, budget_ms, &m);
  AddServerMetrics(*h, m.closed_emit_ms,
                   MeanReasonMs(before, SessionStats(*h)), report);
  for (auto& s : h->sessions) spans->Append(s->spans);
}

namespace {

RunReport RunTraced(const Options& options,
                    const std::vector<SessionSpec>& specs) {
  RunReport report;
  double setup_ms = 0;
  std::unique_ptr<Harness> h = SetUp(specs, options.seed, false, &setup_ms);
  // Half the run: rounds of untraced closed loop, traced closed loop and
  // traced open loop, so the overhead compares neighbouring blocks.
  Measurements untraced, traced;
  const std::vector<EngineStats> before = SessionStats(*h);
  const double end_ms = NowMs() + options.seconds * 1e3 / 2;
  do {
    RunClosedLoop(*h, kRoundMs / 4, &untraced);
    for (auto& s : h->sessions) s->trace = true;
    RunClosedLoop(*h, kRoundMs / 4, &traced);
    RunOpenLoop(*h, kRoundMs / 2, &traced);
    for (auto& s : h->sessions) s->trace = false;
  } while (NowMs() + kRoundMs / 2 < end_ms);

  // Per-window reasoning latency does not travel on the wire: waits are
  // mean emit latency minus the sessions' mean reasoning latency over the
  // same rounds, from EngineStats.
  const std::vector<EngineStats> stats = SessionStats(*h);
  const double mean_reason = MeanReasonMs(before, stats);
  AddServerMetrics(*h, traced.closed_emit_ms, mean_reason, &report);
  AddEngineStatsMetrics(stats, &report);
  const double untraced_tps = untraced.tps();
  const double traced_tps = traced.tps();
  report.Add("streamrule.reason_ms_p50", mean_reason, "ms");
  report.Add("streamrule.queue_wait_ms_p50",
             Mean(traced.emit_ms) - mean_reason, "ms");
  report.Add("bench.trace_overhead_share", 1.0 - traced_tps / untraced_tps,
             "ratio");
  report.Diag("throughput_untraced_tps", untraced_tps, "triples/s");
  report.Diag("throughput_traced_tps", traced_tps, "triples/s");
  report.Diag("emit_p99_ms", Percentile(traced.emit_ms, 0.99), "ms");
  report.Diag("bench.generator_late_ms", Median(traced.late_ms), "ms");

  uint64_t closed = 0;
  report.failed = CheckWindows(*h, &closed).size();
  report.attempted = closed;
  SpanLog spans;
  for (auto& s : h->sessions) spans.Append(s->spans);
  h.reset();
  ReplayTrafficLayers(options.seed, options.seconds * 1e3 / 4, &spans,
                      &report);
  ReportSpans(spans.spans(), options.spans_path);
  return report;
}

}  // namespace

RunReport RunTenantsWorkload(const Options& options) {
  const std::vector<SessionSpec> specs = TenantMix();
  if (options.trace) return RunTraced(options, specs);

  // Set-up timed before and after the measured rounds, as in engine.cc;
  // the peak-RSS mark is reset just before the measured server starts.
  std::vector<double> setup_ms;
  std::unique_ptr<Harness> h;
  bool rss_reset = false;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    h.reset();
    if (rep + 1 == kSetupRepsBefore) rss_reset = ResetPeakRss();
    double ms = 0;
    h = SetUp(specs, options.seed, false, &ms);
    setup_ms.push_back(ms);
  }
  if (!rss_reset) Fail("cannot reset the peak-RSS mark");

  Measurements m;
  RunRounds(*h, options.seconds * 1e3, &m);
  const double peak_rss = PeakRssMb();
  size_t buffer_bytes = 0;
  for (const auto& s : h->sessions) buffer_bytes += s->BufferBytes();

  uint64_t closed = 0;
  const auto failed = CheckWindows(*h, &closed);
  h.reset();
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) {
    double ms = 0;
    SetUp(specs, options.seed, false, &ms);
    setup_ms.push_back(ms);
  }
  // A window meets the limit only if it was also right.
  const std::set<std::pair<size_t, uint64_t>> wrong(failed.begin(),
                                                    failed.end());
  uint64_t within_slo = 0;
  for (const auto& [window, emit] : m.open_emit) {
    if (emit <= specs[window.first].slo_ms && wrong.count(window) == 0) {
      ++within_slo;
    }
  }

  RunReport report;
  report.attempted = closed;
  report.failed = failed.size();
  EndToEnd e;
  e.throughput_tps = m.tps();
  e.emit_p50_ms = Median(m.emit_ms);
  e.slo_met_share = Share(static_cast<double>(within_slo),
                          static_cast<double>(m.open_windows));
  e.correct_window_share = 1.0 - Share(static_cast<double>(failed.size()),
                                       static_cast<double>(closed));
  e.setup_s = Median(setup_ms) / 1e3;
  e.peak_rss_mb = peak_rss;
  e.cpu_ms_per_ktriple = m.cpu_ms_per_ktriple();
  AddEndToEnd(e, &report);
  report.Diag("emit_p99_ms", Percentile(m.emit_ms, 0.99), "ms");
  report.Diag("open_windows", static_cast<double>(m.open_windows), "count");
  report.Diag("bench.generator_late_ms", Median(m.late_ms), "ms");
  report.Diag("bench.buffer_mb", static_cast<double>(buffer_bytes) / 1048576.0,
              "MiB");
  return report;
}

}  // namespace perfbench
