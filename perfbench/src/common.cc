#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "asp/parser.h"
#include "bench.h"
#include "streamrule/reasoner.h"

namespace perfbench {

using namespace streamasp;

using Clock = std::chrono::steady_clock;

double NowMs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

void SleepUntilMs(double due_ms) {
  const double wait = due_ms - NowMs();
  if (wait <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ThreadCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double CalibrationMs() {
  // Integer mixing over a cache-resident table: no allocation, no
  // syscalls, so it tracks only the core's speed.
  std::vector<uint64_t> table(4096, 0);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const double start = NowMs();
  for (uint32_t i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 4095] += x * 0xBF58476D1CE4E5B9ull;
  }
  const double elapsed = NowMs() - start;
  // Keeps the loop's result observable so it is not optimized away.
  static volatile uint64_t sink = 0;
  for (uint64_t v : table) sink = sink + v;
  return elapsed;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Programs and generator.
// ---------------------------------------------------------------------------

std::string TrafficProgramText() {
  return R"(
very_slow_speed(X)   :- average_speed(X, Y), Y < 20.
many_cars(X)         :- car_number(X, Y), Y > 40.
traffic_jam(X)       :- very_slow_speed(X), many_cars(X),
                        not traffic_light(X).
car_fire(X)          :- car_in_smoke(C, high), car_speed(C, 0),
                        car_location(C, X).
give_notification(X) :- traffic_jam(X).
give_notification(X) :- car_fire(X).
traffic_jam(X)       :- car_fire(X), many_cars(X).
#input average_speed/2, car_number/2, traffic_light/1,
       car_in_smoke/2, car_speed/2, car_location/2.
#show traffic_jam/1, car_fire/1, give_notification/1.
)";
}

std::string ReachProgramText() {
  return R"(
#input link/2.
#input high/1.
reach(X, Y) :- link(X, Y).
reach(X, Z) :- reach(X, Y), link(Y, Z).
alarm(X, Y) :- high(X), high(Y), reach(X, Y).
#show alarm/2.
)";
}

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

TripleSource::TripleSource(StreamKind kind, uint64_t seed,
                           SymbolTable& symbols)
    : seed_(Mix(seed)) {
  struct Decl {
    const char* name;
    bool has_object;
    bool status_object;
    double weight;
  };
  std::vector<Decl> decls;
  if (kind == StreamKind::kTraffic) {
    // car_number at 5/3 against five 1.0 weights is a quarter of the
    // stream: the paper's duplicated-instance share for P'.
    decls = {{"average_speed", true, false, 1.0},
             {"car_number", true, false, 5.0 / 3.0},
             {"traffic_light", false, false, 1.0},
             {"car_in_smoke", true, true, 1.0},
             {"car_speed", true, false, 1.0},
             {"car_location", true, false, 1.0}};
    subjects_ = 40;
    values_ = 100;
  } else {
    decls = {{"link", true, false, 4.0}, {"high", false, false, 1.0}};
    subjects_ = 48;
    values_ = 48;
  }
  double total = 0;
  for (const Decl& d : decls) total += d.weight;
  double cumulative = 0;
  for (const Decl& d : decls) {
    cumulative += d.weight / total;
    shapes_.push_back(Shape{symbols.Intern(d.name), d.name, d.has_object,
                            d.status_object, cumulative});
  }
  shapes_.back().cumulative_weight = 1.0;
  status_[0] = PackedTerm::Symbol(symbols.Intern("high"));
  status_[1] = PackedTerm::Symbol(symbols.Intern("low"));
}

TripleSource::Drawn TripleSource::Draw(uint64_t index) const {
  const uint64_t h1 = Mix(seed_ ^ Mix(index));
  const uint64_t h2 = Mix(h1);
  const double u = static_cast<double>(h1 >> 11) * 0x1.0p-53;
  Drawn drawn{0, 0, 0};
  while (u >= shapes_[drawn.shape].cumulative_weight) ++drawn.shape;
  drawn.subject = static_cast<int64_t>(h2 % static_cast<uint64_t>(subjects_));
  const Shape& shape = shapes_[drawn.shape];
  if (shape.status_object) {
    drawn.object = static_cast<int64_t>((h2 >> 32) & 1);
  } else {
    drawn.object =
        static_cast<int64_t>((h2 >> 32) % static_cast<uint64_t>(values_));
  }
  return drawn;
}

Triple TripleSource::At(uint64_t index) const {
  const Drawn drawn = Draw(index);
  const Shape& shape = shapes_[drawn.shape];
  Triple triple;
  triple.predicate = shape.predicate;
  triple.subject = PackedTerm::Integer(drawn.subject);
  if (shape.status_object) {
    triple.object = status_[drawn.object];
  } else if (shape.has_object) {
    triple.object = PackedTerm::Integer(drawn.object);
  }
  return triple;
}

void TripleSource::Fill(uint64_t first, size_t count,
                        std::vector<Triple>* out) const {
  out->reserve(out->size() + count);
  for (uint64_t i = first; i < first + count; ++i) out->push_back(At(i));
}

std::string TripleSource::Line(uint64_t index) const {
  const Drawn drawn = Draw(index);
  const Shape& shape = shapes_[drawn.shape];
  std::string line = shape.name;
  line += ' ';
  line += std::to_string(drawn.subject);
  if (shape.status_object) {
    line += ' ';
    line += status_names_[drawn.object];
  } else if (shape.has_object) {
    line += ' ';
    line += std::to_string(drawn.object);
  }
  return line;
}

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

namespace {

std::string JoinSorted(std::vector<std::string> parts, const char* sep) {
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

std::string CanonicalAnswers(const std::vector<GroundAnswer>& answers,
                             const SymbolTable& symbols) {
  std::vector<std::string> rendered;
  for (const GroundAnswer& answer : answers) {
    std::vector<std::string> atoms;
    for (const Atom& atom : answer) atoms.push_back(atom.ToString(symbols));
    rendered.push_back(JoinSorted(std::move(atoms), " "));
  }
  return JoinSorted(std::move(rendered), " | ");
}

std::string CanonicalWireAnswers(const std::vector<std::string>& lines) {
  std::vector<std::string> rendered;
  for (const std::string& line : lines) {
    // "{a, b(1,2), c}": split on the ", " separators at depth 0.
    std::vector<std::string> atoms;
    std::string body = line;
    if (body.size() >= 2 && body.front() == '{' && body.back() == '}') {
      body = body.substr(1, body.size() - 2);
    }
    int depth = 0;
    std::string current;
    for (size_t i = 0; i < body.size(); ++i) {
      const char c = body[i];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (depth == 0 && c == ',' && i + 1 < body.size() &&
          body[i + 1] == ' ') {
        atoms.push_back(current);
        current.clear();
        ++i;
        continue;
      }
      current += c;
    }
    if (!current.empty()) atoms.push_back(current);
    rendered.push_back(JoinSorted(std::move(atoms), " "));
  }
  return JoinSorted(std::move(rendered), " | ");
}

Oracle::Oracle(StreamKind kind, const std::string& program_text,
               uint64_t seed, Geometry geometry)
    : symbols_(MakeSymbolTable()), geometry_(geometry) {
  Parser parser(symbols_);
  program_ = std::make_unique<Program>(
      Check(parser.ParseProgram(program_text), "oracle program"));
  source_ = std::make_unique<TripleSource>(kind, seed, *symbols_);
}

std::string Oracle::Expected(uint64_t seq) {
  TripleWindow window;
  window.sequence = seq;
  source_->Fill(geometry_.FirstTriple(seq), geometry_.size, &window.items);
  const Reasoner reasoner(program_.get());
  const ReasonerResult result =
      Check(reasoner.Process(window), "oracle reasoning");
  return CanonicalAnswers(result.answers, *symbols_);
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

size_t SpanLog::Open(std::string name, int64_t parent, int64_t window) {
  Span span;
  span.name = std::move(name);
  span.start_ms = NowMs();
  span.parent = parent;
  span.window = window;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) { spans_[index].end_ms = NowMs(); }

void SpanLog::Append(const SpanLog& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

namespace {

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f,\"parent\":%lld,\"window\":%lld}%s\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.window),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

void PrintSelfTimes(const std::vector<Span>& spans) {
  // Children of one parent never overlap (each log is single-threaded),
  // so the covered part is the sum of the children's durations.
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, std::pair<double, size_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_name[spans[i].name];
    entry.first += spans[i].end_ms - spans[i].start_ms - child_ms[i];
    ++entry.second;
  }
  for (const auto& [name, entry] : by_name) {
    std::printf("self %s self_ms=%.3f spans=%zu\n", name.c_str(), entry.first,
                entry.second);
  }
}

}  // namespace

void AddEndToEnd(const EndToEnd& e, RunReport* report) {
  report->Add("throughput_tps", e.throughput_tps, "triples/s");
  report->Add("emit_p50_ms", e.emit_p50_ms, "ms");
  report->Add("slo_met_share", e.slo_met_share, "ratio");
  report->Add("correct_window_share", e.correct_window_share, "ratio");
  report->Add("setup_s", e.setup_s, "s");
  report->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
  report->Add("cpu_ms_per_ktriple", e.cpu_ms_per_ktriple, "ms");
}

void ReportSpans(const std::vector<Span>& spans, const std::string& path) {
  PrintSelfTimes(spans);
  if (path.empty()) return;
  if (!WriteSpans(spans, path)) Fail("cannot write spans to " + path);
  std::printf("spans %s (%zu spans)\n", path.c_str(), spans.size());
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace perfbench
