// Shared pieces of the stream-reasoning benchmark: workload definitions,
// the counter-based input generator, the cold one-shot oracle, timing and
// memory probes, the span recorder of the traced run, and the result line.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asp/program.h"
#include "asp/symbol_table.h"
#include "stream/triple.h"
#include "streamrule/answer.h"
#include "streamrule/engine.h"

namespace perfbench {

using streamasp::GroundAnswer;
using streamasp::Program;
using streamasp::SymbolTable;
using streamasp::SymbolTablePtr;
using streamasp::Triple;

// ---------------------------------------------------------------------------
// Time, CPU, memory.
// ---------------------------------------------------------------------------

/// Milliseconds on the steady clock since the first call in the process.
double NowMs();
/// Blocks until NowMs() >= due_ms.
void SleepUntilMs(double due_ms);
/// Process CPU time (user + system, every thread), in ms.
double ProcessCpuMs();
/// CPU time of the calling thread, in ms.
double ThreadCpuMs();
/// Returns freed heap to the OS and resets the kernel's peak-RSS mark to
/// the current RSS, so a later PeakRssMb() covers only what follows.
/// False when the kernel refuses the reset.
bool ResetPeakRss();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();
/// A fixed single-threaded integer loop, timed: the host-speed probe each
/// run prints at its start and end. Milliseconds.
double CalibrationMs();

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------------
// Workload inputs.
// ---------------------------------------------------------------------------

/// Which stream a generator produces.
enum class StreamKind {
  /// The paper's traffic schema, event-rich: 40 locations, values in
  /// [0, 100), car_number weighted to a quarter of the stream.
  kTraffic,
  /// Edges and alarm marks over a 48-node universe.
  kReach,
};

/// Program P' of the paper (Listing 1 + r7) with its #show directive.
std::string TrafficProgramText();
/// Recursive reachability with alarms over reachable marked pairs.
std::string ReachProgramText();

/// Counter-based generator: triple i is a pure function of (seed, i), so
/// any window can be regenerated for the oracle without replaying the
/// stream. Predicates and symbols are interned into the table given at
/// construction; the engine must parse its program into the same table.
class TripleSource {
 public:
  TripleSource(StreamKind kind, uint64_t seed, SymbolTable& symbols);

  Triple At(uint64_t index) const;
  /// Appends triples [first, first + count) to *out.
  void Fill(uint64_t first, size_t count, std::vector<Triple>* out) const;
  /// Wire-protocol line of triple `index`: `<predicate> <subject> [<object>]`.
  std::string Line(uint64_t index) const;

 private:
  struct Shape {
    streamasp::SymbolId predicate;
    std::string name;
    bool has_object;
    bool status_object;  ///< Object from {high, low}.
    double cumulative_weight;
  };
  struct Drawn {
    size_t shape;
    int64_t subject;
    int64_t object;  ///< Index into {high, low} for status objects.
  };
  Drawn Draw(uint64_t index) const;

  uint64_t seed_;
  std::vector<Shape> shapes_;
  int64_t subjects_ = 0;
  int64_t values_ = 0;
  streamasp::PackedTerm status_[2];
  const char* status_names_[2] = {"high", "low"};
};

/// Window geometry of a count-based stream: window `s` covers triples
/// [s * slide, s * slide + size).
struct Geometry {
  size_t size = 0;
  size_t slide = 0;
  uint64_t FirstTriple(uint64_t seq) const { return seq * slide; }
  uint64_t LastTriple(uint64_t seq) const { return seq * slide + size - 1; }
  /// Windows closed once triples [0, pushed) have arrived.
  uint64_t ClosedWindows(uint64_t pushed) const {
    return pushed < size ? 0 : (pushed - size) / slide + 1;
  }
};

/// Canonical text of a window's answers, independent of symbol ids and
/// of answer order: atoms sorted within an answer, answers sorted.
std::string CanonicalAnswers(const std::vector<GroundAnswer>& answers,
                             const SymbolTable& symbols);
/// Same canonical form from wire-rendered answer lines ("{a, b(1,2)}").
std::string CanonicalWireAnswers(const std::vector<std::string>& lines);

/// The cold one-shot oracle: a fresh Grounder + Solver over the whole
/// window (no partitioning, no reuse) — the re-solve semantics every
/// delivered window must equal.
class Oracle {
 public:
  Oracle(StreamKind kind, const std::string& program_text, uint64_t seed,
         Geometry geometry);
  /// Canonical expected answers of window `seq`.
  std::string Expected(uint64_t seq);

 private:
  SymbolTablePtr symbols_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<TripleSource> source_;
  Geometry geometry_;
};

// ---------------------------------------------------------------------------
// Traced run: spans recorded in memory, written at exit.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;     ///< Index of the enclosing span, -1 for none.
  int64_t window = -1;     ///< Window sequence, -1 when not per-window.
};

/// Append-only span log. Open/Close from one thread at a time per
/// recorder; the live engine's delivery thread uses its own recorder.
class SpanLog {
 public:
  size_t Open(std::string name, int64_t parent = -1, int64_t window = -1);
  void Close(size_t index);
  /// Records an already finished span.
  void Add(Span span) { spans_.push_back(std::move(span)); }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

/// Scoped span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent = -1,
             int64_t window = -1)
      : log_(log),
        index_(log ? log->Open(std::move(name), parent, window) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return log_ ? static_cast<int64_t>(index_) : -1; }

 private:
  SpanLog* log_;
  size_t index_;
};

/// Prints each span name's total self time (duration minus the part its
/// child spans cover) as "self <name> self_ms=… spans=…" lines and, when
/// `path` is not empty, writes the spans there as a JSON array.
void ReportSpans(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed as "diag name=value" lines before the result line.
  std::vector<Metric> diagnostics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Diag(std::string name, double value, std::string unit) {
    diagnostics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The end-to-end metrics of one untraced run (see README.md).
struct EndToEnd {
  double throughput_tps = 0;
  double emit_p50_ms = 0;
  double slo_met_share = 0;
  double correct_window_share = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double cpu_ms_per_ktriple = 0;
};
/// Adds them to the report under their names and units.
void AddEndToEnd(const EndToEnd& e, RunReport* report);

/// part / whole, 0 when whole is 0.
inline double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Aborts the run with a message (exit code 2, no result line).
[[noreturn]] void Fail(const std::string& message);

/// Unwraps a StatusOr or fails the run.
template <typename T>
T Check(streamasp::StatusOr<T> value, const char* what) {
  if (!value.ok()) Fail(std::string(what) + ": " + value.status().ToString());
  return std::move(*value);
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// One server session of the tenants mix (and of the server probe).
struct SessionSpec {
  std::string name;
  StreamKind kind = StreamKind::kTraffic;
  std::string program;
  Geometry geometry;
  std::string open_options;  ///< key=value fields of the open request.
  size_t open_frame = 0;     ///< Triples per push frame in the open loop.
  double open_rate = 0;      ///< Fixed open-loop rate, triples/s.
  double slo_ms = 0;         ///< Open-loop latency limit per window.
  size_t oracle_stride = 1;  ///< Every stride-th window meets the oracle.
  size_t warmup_windows = 0;
};
SessionSpec TrafficSession(std::string name);
SessionSpec ReachSession(std::string name);

/// Runs `sessions` over TCP for about budget_ms and adds the server.*
/// and util.* per-layer metrics (tenants.cc).
void AddServerLayerMetrics(const std::vector<SessionSpec>& sessions,
                           uint64_t seed, double budget_ms, SpanLog* spans,
                           RunReport* report);
/// Adds the per-layer counters engines report through EngineStats,
/// aggregated over one or more engines (engine.cc).
void AddEngineStatsMetrics(const std::vector<streamasp::EngineStats>& stats,
                           RunReport* report);
/// Single-threaded replay of the traffic workload's windows through the
/// layer APIs (engine.cc).
void ReplayTrafficLayers(uint64_t seed, double budget_ms, SpanLog* spans,
                         RunReport* report);

// Workload entry points (engine.cc, tenants.cc).
RunReport RunEngineWorkload(const Options& options);
RunReport RunTenantsWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
