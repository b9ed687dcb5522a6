// The `traffic` and `reach-sliding` workloads: one StreamEngine driven
// in-process through a set-up phase, a saturated closed-loop phase and a
// paced open-loop phase, then checked window by window against the cold
// oracle. With --trace 1 the same engine runs again with spans around
// its calls, and a single-threaded replay of the same windows through
// the layer APIs supplies the per-layer numbers.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "asp/parser.h"
#include "bench.h"
#include "depgraph/decomposition.h"
#include "depgraph/input_dependency_graph.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "stream/format.h"
#include "stream/query_processor.h"
#include "streamrule/combining_handler.h"
#include "streamrule/partitioning_handler.h"

namespace perfbench {

using namespace streamasp;

namespace {

/// A run alternates saturated and open-loop halves of one round.
constexpr double kRoundMs = 2000;
/// Longest measurement block of the saturated phase.
constexpr double kBlockMs = 500;
/// Windows the traced run replays through the layer APIs.
constexpr size_t kReplayWindows = 200;
/// Set-up repetitions before and after the measured rounds.
constexpr int kSetupRepsBefore = 3;
constexpr int kSetupRepsAfter = 2;

struct EngineSpec {
  StreamKind kind = StreamKind::kTraffic;
  std::string program;
  Geometry geometry;
  EngineConfig config;
  /// Triples per PushBatch in the open loop; divides geometry.slide.
  size_t open_batch = 0;
  /// Fixed absolute open-loop input rate, triples/s.
  double open_rate = 0;
  /// Open-loop latency limit per window.
  double slo_ms = 0;
  /// Windows delivered before the engine counts as steady.
  size_t warmup_windows = 0;
  /// Every stride-th window is compared with the oracle.
  size_t oracle_stride = 1;
};

EngineSpec MakeSpec(const std::string& workload) {
  EngineSpec spec;
  if (workload == "traffic") {
    // P' has a connected input-dependency graph, so every window takes
    // the Louvain + duplication path: partition, cold ground/solve per
    // partition, combine; the router broadcasts duplicated car_number.
    spec.kind = StreamKind::kTraffic;
    spec.program = TrafficProgramText();
    spec.geometry = {2000, 2000};
    spec.config.num_shards = 2;
    spec.config.pipeline.async = true;
    spec.config.pipeline.num_reason_workers = 1;
    spec.config.pipeline.reasoner.num_threads = 1;
    spec.open_batch = 250;
    spec.open_rate = 400'000;
    spec.slo_ms = 25;
    spec.warmup_windows = 50;
    spec.oracle_stride = 8;
  } else {
    // One community: no partitioning, combining or threads. Incremental
    // grounding and the maintained fixpoint do nearly all the work.
    spec.kind = StreamKind::kReach;
    spec.program = ReachProgramText();
    spec.geometry = {1600, 100};
    spec.config.pipeline.reuse_grounding = true;
    spec.config.pipeline.reuse_solving = true;
    spec.config.pipeline.reasoner.reasoner.solving.maintain_fixpoint = true;
    spec.config.pipeline.reasoner.num_threads = 1;
    spec.open_batch = 100;
    spec.open_rate = 3'000;
    spec.slo_ms = 25;
    spec.warmup_windows = 20;
    spec.oracle_stride = 8;
  }
  spec.config.pipeline.window_size = spec.geometry.size;
  spec.config.pipeline.window_slide =
      spec.geometry.slide == spec.geometry.size ? 0 : spec.geometry.slide;
  return spec;
}

/// What the delivery thread records per window.
struct Delivered {
  double t_ms = -1;  ///< -1: never delivered.
  EmissionEvent::Kind kind = EmissionEvent::Kind::kError;
  double reason_ms = 0;
};

struct Recorder {
  size_t oracle_stride = 1;
  std::vector<Delivered> windows;
  /// Raw answers of the oracle-sampled windows.
  std::unordered_map<uint64_t, std::vector<GroundAnswer>> sampled;
  SpanLog* spans = nullptr;  ///< Delivery-thread spans (traced run).

  void OnEvent(EmissionEvent& event) {
    const double t = NowMs();
    ScopedSpan span(spans, "engine.deliver", -1,
                    static_cast<int64_t>(event.sequence));
    if (windows.size() <= event.sequence) windows.resize(event.sequence + 1);
    Delivered& w = windows[event.sequence];
    w.t_ms = t;
    w.kind = event.kind;
    if (event.kind == EmissionEvent::Kind::kResult) {
      w.reason_ms = event.result->latency_ms;
      if (event.sequence % oracle_stride == 0) {
        sampled[event.sequence] = event.result->answers;
      }
    }
  }
};

/// One engine with its program, input source and recorder. Members are
/// destroyed bottom-up: the engine (and its delivery thread) first.
struct Instance {
  SymbolTablePtr symbols;
  std::unique_ptr<Program> program;
  std::unique_ptr<TripleSource> source;
  std::unique_ptr<Recorder> recorder;
  std::unique_ptr<StreamEngine> engine;
  uint64_t next = 0;  ///< Index of the next triple to push.
  double gen_cpu_ms = 0;

  /// Pushes triples [next, next + count) as one batch.
  void Push(size_t count, std::vector<Triple>* batch, SpanLog* spans) {
    batch->clear();
    const double g0 = ThreadCpuMs();
    source->Fill(next, count, batch);
    gen_cpu_ms += ThreadCpuMs() - g0;
    ScopedSpan span(spans, "engine.push_batch");
    engine->PushBatch(*batch);
    next += count;
  }
  void Flush(SpanLog* spans) {
    ScopedSpan span(spans, "engine.flush");
    engine->Flush();
  }
};

/// Program parse, analysis and plan (inside Create), engine start-up and
/// the warm-up windows: the time to steady state.
std::unique_ptr<Instance> SetUp(const EngineSpec& spec, uint64_t seed,
                                double* setup_ms) {
  const double t0 = NowMs();
  auto inst = std::make_unique<Instance>();
  inst->symbols = MakeSymbolTable();
  Parser parser(inst->symbols);
  inst->program = std::make_unique<Program>(
      Check(parser.ParseProgram(spec.program), "program"));
  inst->source = std::make_unique<TripleSource>(spec.kind, seed,
                                                *inst->symbols);
  inst->recorder = std::make_unique<Recorder>();
  inst->recorder->oracle_stride = spec.oracle_stride;
  Recorder* recorder = inst->recorder.get();
  inst->engine =
      Check(StreamEngine::Create(
                inst->program.get(), spec.config,
                [recorder](EmissionEvent& event) { recorder->OnEvent(event); }),
            "engine");
  std::vector<Triple> batch;
  const Geometry& g = spec.geometry;
  inst->Push(g.size, &batch, nullptr);
  for (size_t w = 1; w < spec.warmup_windows; ++w) {
    inst->Push(g.slide, &batch, nullptr);
  }
  inst->Flush(nullptr);
  *setup_ms = NowMs() - t0;
  return inst;
}

/// Samples accumulated over the rounds of a run.
struct Measurements {
  // Saturated closed loop, summed over blocks: triples delivered and the
  // wall time they took; triples pushed and the CPU time they took.
  double delivered_triples = 0;
  double delivered_ms = 0;
  double pushed_triples = 0;
  double cpu_ms = 0;
  size_t blocks = 0;
  double tps() const {
    return delivered_ms > 0 ? delivered_triples / delivered_ms * 1e3 : 0;
  }
  double cpu_ms_per_ktriple() const {
    return pushed_triples > 0 ? cpu_ms / (pushed_triples / 1e3) : 0;
  }
  // Open loop, one entry per delivered window (late: per push).
  std::vector<double> emit_ms;
  std::vector<double> reason_ms;
  std::vector<double> queue_wait_ms;  ///< Emit minus reasoning latency.
  std::vector<double> generator_late_ms;
  uint64_t open_windows = 0;
  /// (window, emit latency) of every open-loop window delivered as a result.
  std::vector<std::pair<uint64_t, double>> open_emit;
};

/// Lossless (kBlock) push as fast as the engine accepts, in blocks of at
/// most kBlockMs. A block's delivery time runs from the delivery of the
/// window before it to the delivery of its last window. Throughput is a
/// ratio of sums over blocks, not a median of block rates: the rare
/// expensive windows (grounding fallbacks) then weigh in by frequency
/// instead of by how many happen to fall into the median block.
void RunSaturated(Instance& inst, const EngineSpec& spec, double duration_ms,
                  SpanLog* spans, Measurements* m) {
  const Geometry& g = spec.geometry;
  struct Block {
    uint64_t first_triple;
    double start_ms;
    double cpu_ms;
    double gen_ms;
  };
  std::vector<Block> blocks;
  std::vector<Triple> batch;
  const double end_ms = NowMs() + duration_ms;
  while (NowMs() < end_ms) {
    blocks.push_back({inst.next, NowMs(), ProcessCpuMs(), inst.gen_cpu_ms});
    const double block_end = std::min(end_ms, NowMs() + kBlockMs);
    while (NowMs() < block_end) inst.Push(g.slide, &batch, spans);
  }
  inst.Flush(spans);
  blocks.push_back({inst.next, NowMs(), ProcessCpuMs(), inst.gen_cpu_ms});

  const std::vector<Delivered>& windows = inst.recorder->windows;
  for (size_t k = 0; k + 1 < blocks.size(); ++k) {
    const uint64_t a = g.ClosedWindows(blocks[k].first_triple);
    const uint64_t b = g.ClosedWindows(blocks[k + 1].first_triple);
    if (b <= a) continue;
    const double t_start = a > 0 && windows[a - 1].t_ms > blocks[k].start_ms
                               ? windows[a - 1].t_ms
                               : blocks[k].start_ms;
    const double t_end = windows[b - 1].t_ms;
    if (t_end <= t_start) continue;
    m->delivered_triples += static_cast<double>((b - a) * g.slide);
    m->delivered_ms += t_end - t_start;
    m->cpu_ms += blocks[k + 1].cpu_ms - blocks[k].cpu_ms -
                 (blocks[k + 1].gen_ms - blocks[k].gen_ms);
    m->pushed_triples += static_cast<double>(blocks[k + 1].first_triple -
                                             blocks[k].first_triple);
    ++m->blocks;
  }
}

/// Pushes at the spec's fixed absolute rate. Triple i is due at
/// t0 + (i - i0 + 1) / rate; a window's latency runs from the due time of
/// its last triple to its delivery, so generator lateness counts.
void RunOpenLoop(Instance& inst, const EngineSpec& spec, double duration_ms,
                 SpanLog* spans, Measurements* m) {
  const Geometry& g = spec.geometry;
  const uint64_t i0 = inst.next;
  const double ms_per_triple = 1e3 / spec.open_rate;
  const double t0 = NowMs() + 1;
  auto due = [&](uint64_t index) {
    return t0 + static_cast<double>(index - i0 + 1) * ms_per_triple;
  };
  std::vector<Triple> batch;
  while (true) {
    const uint64_t last = inst.next + spec.open_batch - 1;
    // Stop only on a window boundary, so every pushed window closes.
    if ((inst.next - i0) % g.slide == 0 && due(last) > t0 + duration_ms) {
      break;
    }
    batch.clear();
    const double g0 = ThreadCpuMs();
    inst.source->Fill(inst.next, spec.open_batch, &batch);
    inst.gen_cpu_ms += ThreadCpuMs() - g0;
    SleepUntilMs(due(last));
    m->generator_late_ms.push_back(NowMs() - due(last));
    {
      ScopedSpan span(spans, "engine.push_batch");
      inst.engine->PushBatch(batch);
    }
    inst.next += spec.open_batch;
  }
  inst.Flush(spans);

  const uint64_t first = g.ClosedWindows(i0);
  const uint64_t end = g.ClosedWindows(inst.next);
  m->open_windows += end - first;
  const std::vector<Delivered>& windows = inst.recorder->windows;
  for (uint64_t s = first; s < end; ++s) {
    if (s >= windows.size() || windows[s].t_ms < 0 ||
        windows[s].kind != EmissionEvent::Kind::kResult) {
      continue;
    }
    const double emit = windows[s].t_ms - due(g.LastTriple(s));
    m->emit_ms.push_back(emit);
    m->reason_ms.push_back(windows[s].reason_ms);
    m->queue_wait_ms.push_back(emit - windows[s].reason_ms);
    m->open_emit.emplace_back(s, emit);
  }
}

/// Alternates saturated and open-loop halves of kRoundMs for duration_ms,
/// so both phases sample the whole run rather than one half of it.
void RunRounds(Instance& inst, const EngineSpec& spec, double duration_ms,
               SpanLog* spans, Measurements* m) {
  const double end_ms = NowMs() + duration_ms;
  do {
    RunSaturated(inst, spec, kRoundMs / 2, spans, m);
    RunOpenLoop(inst, spec, kRoundMs / 2, spans, m);
  } while (NowMs() + kRoundMs / 2 < end_ms);
}

struct OracleResult {
  uint64_t closed = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> failed_windows;
};

/// Every closed window must have been delivered as a result; every
/// stride-th one must equal the cold one-shot solve of its triples.
OracleResult CheckWindows(const Instance& inst, const EngineSpec& spec,
                          const std::string& workload, uint64_t seed) {
  OracleResult result;
  const Geometry& g = spec.geometry;
  result.closed = g.ClosedWindows(inst.next);
  Oracle oracle(spec.kind, spec.program, seed, g);
  const std::vector<Delivered>& windows = inst.recorder->windows;
  for (uint64_t s = 0; s < result.closed; ++s) {
    bool ok = s < windows.size() && windows[s].t_ms >= 0 &&
              windows[s].kind == EmissionEvent::Kind::kResult;
    if (ok && s % spec.oracle_stride == 0) {
      const auto it = inst.recorder->sampled.find(s);
      ok = it != inst.recorder->sampled.end() &&
           CanonicalAnswers(it->second, *inst.symbols) == oracle.Expected(s);
    }
    if (!ok) {
      ++result.failed;
      result.failed_windows.push_back(s);
      std::printf("mismatch workload=%s seed=%llu window=%llu\n",
                  workload.c_str(), static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(s));
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------------

/// Single-threaded replay of the workload's first windows through the
/// layer APIs, each call wrapped in a span.
void ReplayLayers(const EngineSpec& spec, uint64_t seed, double budget_ms,
                  SpanLog* spans, RunReport* report) {
  SymbolTablePtr symbols = MakeSymbolTable();
  TripleSource source(spec.kind, seed, *symbols);

  // Runs fn inside a span and returns its wall time in ms.
  auto timed = [spans](const char* name, int64_t parent, int64_t seq,
                       auto&& fn) {
    ScopedSpan span(spans, name, parent, seq);
    const double t = NowMs();
    fn();
    return NowMs() - t;
  };

  // asp: parse.
  std::vector<double> parse_ms;
  std::unique_ptr<Program> program;
  for (int rep = 0; rep < 21; ++rep) {
    Parser parser(symbols);
    parse_ms.push_back(timed("asp.parse", -1, -1, [&] {
      program = std::make_unique<Program>(
          Check(parser.ParseProgram(spec.program), "parse"));
    }));
  }
  report->Add("asp.parse_ms", Median(parse_ms), "ms");

  // depgraph: input-dependency graph + decomposition into a plan.
  std::vector<double> plan_ms;
  PartitioningPlan plan;
  for (int rep = 0; rep < 21; ++rep) {
    plan_ms.push_back(timed("depgraph.plan", -1, -1, [&] {
      const InputDependencyGraph graph =
          Check(InputDependencyGraph::Build(*program), "dependency graph");
      plan = Check(DecomposeInputDependencyGraph(graph), "plan");
    }));
  }
  report->Add("depgraph.plan_ms", Median(plan_ms), "ms");
  report->Add("depgraph.communities", plan.num_communities(), "count");
  report->Add("depgraph.duplicated_predicates",
              static_cast<double>(plan.DuplicatedPredicates().size()),
              "count");

  // stream: the windower over the raw stream.
  const Geometry& g = spec.geometry;
  std::vector<TripleWindow> windows;
  StreamQueryProcessor windower(
      g.size, g.slide, [&](TripleWindow w) { windows.push_back(std::move(w)); });
  for (const PredicateSignature& sig : program->input_predicates()) {
    windower.RegisterPredicate(sig.name);
  }
  double window_ms = 0;
  std::vector<Triple> batch;
  uint64_t next = 0;
  for (size_t w = 0; w < kReplayWindows; ++w) {
    const size_t count = w == 0 ? g.size : g.slide;
    batch.clear();
    source.Fill(next, count, &batch);
    next += count;
    window_ms += timed("stream.push_batch", -1, static_cast<int64_t>(w),
                       [&] { windower.PushBatch(batch); });
  }
  report->Add("stream.window_us",
              window_ms * 1e3 / static_cast<double>(windows.size()), "us");

  DataFormatProcessor format;
  if (!format.DeclareInputPredicates(program->input_predicates()).ok()) {
    Fail("format processor rejected the input predicates");
  }
  PartitioningHandler partitioner(plan);
  CombiningHandler combiner;
  const Grounder grounder;
  const Solver solver;
  SolverOptions incremental_options;
  incremental_options.reuse_solving = true;
  incremental_options.maintain_fixpoint = true;
  IncrementalGroundingOptions reuse;
  reuse.assemble_output = false;
  IncrementalGrounder incremental_grounder(program.get(), {}, reuse);
  IncrementalSolver incremental_solver(incremental_options);
  const bool incremental = spec.config.pipeline.reuse_solving;
  const std::vector<PredicateSignature>& shown = program->shown_predicates();
  auto extract = [&](const AtomTable& atoms,
                     const std::vector<AnswerSet>& models) {
    std::vector<GroundAnswer> answers;
    for (const AnswerSet& model : models) {
      GroundAnswer answer;
      for (GroundAtomId id : model.atoms) {
        const Atom& atom = atoms.GetAtom(id);
        if (std::find(shown.begin(), shown.end(), atom.signature()) !=
            shown.end()) {
          answer.push_back(atom);
        }
      }
      NormalizeAnswer(&answer);
      answers.push_back(std::move(answer));
    }
    return answers;
  };

  double convert_ms = 0;
  uint64_t converted = 0;
  std::vector<double> partition_ms, combine_ms, ground_ms, solve_ms;
  uint64_t partition_items = 0, window_items = 0;
  uint64_t ground_rules = 0, ground_atoms = 0;
  const double deadline = NowMs() + budget_ms;
  for (const TripleWindow& window : windows) {
    if (NowMs() > deadline && ground_ms.size() >= 20) break;
    const int64_t seq = static_cast<int64_t>(window.sequence);
    ScopedSpan window_span(spans, "replay.window", -1, seq);
    const int64_t parent = window_span.index();
    window_items += window.items.size();

    std::vector<std::vector<Triple>> parts;
    partition_ms.push_back(timed("streamrule.partition", parent, seq, [&] {
      parts = partitioner.Partition(window.items);
    }));
    for (const auto& part : parts) partition_items += part.size();

    std::vector<std::vector<GroundAnswer>> per_partition;
    double window_ground = 0, window_solve = 0;
    if (incremental) {
      // One community: the partition is the window itself, and the
      // persistent grounder/solver pair consumes the windower's delta.
      std::vector<Atom> facts;
      IncrementalGrounder::FactDelta delta;
      const bool has_delta =
          window.has_delta && window.delta_base != TripleWindow::kNoDeltaBase;
      convert_ms += timed("stream.convert", parent, seq, [&] {
        facts = Check(format.ToFacts(window.items), "convert");
        if (has_delta) {
          delta.previous_sequence = window.delta_base;
          delta.expired = Check(format.ToFacts(window.expired), "convert");
          delta.admitted = Check(format.ToFacts(window.admitted), "convert");
        }
      });
      converted += window.items.size();
      GroundingStats stats;
      window_ground = timed("ground.ground", parent, seq, [&] {
        Check(incremental_grounder.GroundWindow(window.sequence, facts,
                                                has_delta ? &delta : nullptr,
                                                &stats),
              "incremental grounding");
      });
      ground_rules += stats.num_rules;
      ground_atoms += stats.num_atoms;
      std::vector<AnswerSet> models;
      window_solve = timed("solve.solve", parent, seq, [&] {
        const Status solved = incremental_solver.SolveWindow(
            incremental_grounder.last_delta(),
            incremental_grounder.cached_rules(),
            incremental_grounder.atom_table().size(), &models);
        if (!solved.ok()) Fail("incremental solve: " + solved.ToString());
      });
      per_partition.push_back(
          extract(incremental_grounder.atom_table(), models));
    } else {
      for (const auto& part : parts) {
        std::vector<Atom> facts;
        convert_ms += timed("stream.convert", parent, seq, [&] {
          facts = Check(format.ToFacts(part), "convert");
        });
        converted += part.size();
        GroundingStats stats;
        GroundProgram ground;
        window_ground += timed("ground.ground", parent, seq, [&] {
          ground = Check(grounder.Ground(*program, facts, &stats), "grounding");
        });
        ground_rules += stats.num_rules;
        ground_atoms += stats.num_atoms;
        std::vector<AnswerSet> models;
        window_solve += timed("solve.solve", parent, seq, [&] {
          models = Check(solver.Solve(ground), "solving");
        });
        per_partition.push_back(extract(ground.atoms(), models));
      }
    }
    ground_ms.push_back(window_ground);
    solve_ms.push_back(window_solve);
    combine_ms.push_back(timed("streamrule.combine", parent, seq, [&] {
      Check(combiner.Combine(per_partition), "combine");
    }));
  }
  const double triples = static_cast<double>(window_items);
  report->Add("stream.convert_us_per_ktriple",
              convert_ms * 1e3 / (static_cast<double>(converted) / 1e3), "us");
  report->Add("streamrule.partition_ms_p50", Median(partition_ms), "ms");
  report->Add("streamrule.partition_items_ratio",
              Share(static_cast<double>(partition_items), triples), "ratio");
  report->Add("streamrule.combine_ms_p50", Median(combine_ms), "ms");
  report->Add("ground.ground_ms_p50", Median(ground_ms), "ms");
  report->Add("ground.rules_per_triple",
              Share(static_cast<double>(ground_rules), triples), "ratio");
  report->Add("ground.atoms_per_triple",
              Share(static_cast<double>(ground_atoms), triples), "ratio");
  report->Add("solve.solve_ms_p50", Median(solve_ms), "ms");
  report->Diag("replay.windows", static_cast<double>(ground_ms.size()),
               "count");
}

}  // namespace

void AddEngineStatsMetrics(const std::vector<EngineStats>& engines,
                           RunReport* report) {
  // Counters sum over engines; depth, skew and footprint take the worst.
  PipelineStats r;
  size_t reorder_depth = 0;
  double skew = 1.0;
  double bytes_per_triple = 0;
  for (const EngineStats& stats : engines) {
    const PipelineStats& e = stats.reasoning;
    r.grounding_rules_retained += e.grounding_rules_retained;
    r.grounding_rules_new += e.grounding_rules_new;
    r.grounding_fallbacks += e.grounding_fallbacks;
    r.incremental_windows += e.incremental_windows;
    r.incremental_solve_windows += e.incremental_solve_windows;
    r.solve_rebuilds += e.solve_rebuilds;
    r.atoms_touched += e.atoms_touched;
    r.assignments_reused += e.assignments_reused;
    r.fixpoint_maintained_windows += e.fixpoint_maintained_windows;
    reorder_depth = std::max(reorder_depth, stats.max_merge_reorder_depth);
    if (!stats.routed_items.empty()) {
      double total = 0;
      for (uint64_t routed : stats.routed_items) {
        total += static_cast<double>(routed);
      }
      const double mean =
          total / static_cast<double>(stats.routed_items.size());
      if (mean > 0) {
        skew = std::max(
            skew, static_cast<double>(stats.max_shard_items()) / mean);
      }
    }
    bytes_per_triple = std::max(bytes_per_triple, stats.bytes_per_triple());
  }
  report->Add("streamrule.merge_reorder_depth_max",
              static_cast<double>(reorder_depth), "count");
  report->Add("streamrule.shard_skew", skew, "ratio");
  report->Add("streamrule.bytes_per_triple", bytes_per_triple, "B");
  report->Add("ground.retained_share",
              Share(static_cast<double>(r.grounding_rules_retained),
                    static_cast<double>(r.grounding_rules_retained +
                                        r.grounding_rules_new)),
              "ratio");
  report->Add("ground.fallback_share",
              Share(static_cast<double>(r.grounding_fallbacks),
                    static_cast<double>(r.incremental_windows +
                                        r.grounding_fallbacks)),
              "ratio");
  const double solves =
      static_cast<double>(r.incremental_solve_windows + r.solve_rebuilds);
  report->Add("solve.atoms_touched_ratio",
              Share(static_cast<double>(r.atoms_touched),
                    static_cast<double>(r.atoms_touched +
                                        r.assignments_reused)),
              "ratio");
  report->Add("solve.maintained_share",
              Share(static_cast<double>(r.fixpoint_maintained_windows), solves),
              "ratio");
  report->Add("solve.rebuild_share",
              Share(static_cast<double>(r.solve_rebuilds), solves), "ratio");
}

void ReplayTrafficLayers(uint64_t seed, double budget_ms, SpanLog* spans,
                         RunReport* report) {
  ReplayLayers(MakeSpec("traffic"), seed, budget_ms, spans, report);
}

namespace {

RunReport RunTraced(const Options& options, const EngineSpec& spec) {
  RunReport report;
  SpanLog spans;
  SpanLog delivery_spans;

  double setup_ms = 0;
  std::unique_ptr<Instance> inst;
  {
    ScopedSpan span(&spans, "bench.setup");
    inst = SetUp(spec, options.seed, &setup_ms);
  }
  // Half the run: rounds of untraced saturated, traced saturated and
  // traced open-loop load, so the overhead compares neighbouring blocks.
  Measurements untraced, traced;
  const double end_ms = NowMs() + options.seconds * 1e3 / 2;
  do {
    RunSaturated(*inst, spec, kRoundMs / 4, nullptr, &untraced);
    inst->recorder->spans = &delivery_spans;
    RunSaturated(*inst, spec, kRoundMs / 4, &spans, &traced);
    RunOpenLoop(*inst, spec, kRoundMs / 2, &spans, &traced);
    inst->recorder->spans = nullptr;
  } while (NowMs() + kRoundMs / 2 < end_ms);

  const double untraced_tps = untraced.tps();
  const double traced_tps = traced.tps();
  report.Add("streamrule.reason_ms_p50", Median(traced.reason_ms), "ms");
  report.Add("streamrule.queue_wait_ms_p50", Median(traced.queue_wait_ms),
             "ms");
  AddEngineStatsMetrics({inst->engine->stats()}, &report);
  report.Add("bench.trace_overhead_share", 1.0 - traced_tps / untraced_tps,
             "ratio");
  report.Diag("throughput_untraced_tps", untraced_tps, "triples/s");
  report.Diag("throughput_traced_tps", traced_tps, "triples/s");
  report.Diag("emit_p99_ms", Percentile(traced.emit_ms, 0.99), "ms");
  report.Diag("bench.generator_late_ms", Median(traced.generator_late_ms),
              "ms");

  const OracleResult checked =
      CheckWindows(*inst, spec, options.workload, options.seed);
  report.attempted = checked.closed;
  report.failed = checked.failed;
  inst.reset();

  const double quarter_ms = options.seconds * 1e3 / 4;
  ReplayLayers(spec, options.seed, quarter_ms, &spans, &report);
  AddServerLayerMetrics(
      {spec.kind == StreamKind::kTraffic ? TrafficSession("s0")
                                         : ReachSession("s0")},
      options.seed, quarter_ms, &spans, &report);

  spans.Append(delivery_spans);
  ReportSpans(spans.spans(), options.spans_path);
  return report;
}

}  // namespace

RunReport RunEngineWorkload(const Options& options) {
  const EngineSpec spec = MakeSpec(options.workload);
  if (options.trace) return RunTraced(options, spec);

  // Set-up is timed kSetupRepsBefore times before the measured rounds
  // (the last of these engines carries on into them) and kSetupRepsAfter
  // times after, so its median samples both ends of the run. The peak-RSS
  // mark is reset just before the measured engine is created: peak_rss_mb
  // covers one engine's life plus the benchmark's own bounded buffers.
  std::vector<double> setup_ms;
  std::unique_ptr<Instance> inst;
  bool rss_reset = false;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    inst.reset();
    if (rep + 1 == kSetupRepsBefore) rss_reset = ResetPeakRss();
    double ms = 0;
    inst = SetUp(spec, options.seed, &ms);
    setup_ms.push_back(ms);
  }
  if (!rss_reset) Fail("cannot reset the peak-RSS mark");

  Measurements m;
  RunRounds(*inst, spec, options.seconds * 1e3, nullptr, &m);
  const double peak_rss = PeakRssMb();
  const size_t buffer_bytes =
      inst->recorder->windows.capacity() * sizeof(Delivered) +
      std::max(spec.open_batch, spec.geometry.size) * sizeof(Triple);

  const OracleResult checked =
      CheckWindows(*inst, spec, options.workload, options.seed);
  inst.reset();
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) {
    double ms = 0;
    SetUp(spec, options.seed, &ms);
    setup_ms.push_back(ms);
  }

  // A window meets the limit only if it was also right.
  const std::unordered_set<uint64_t> failed(checked.failed_windows.begin(),
                                            checked.failed_windows.end());
  uint64_t within_slo = 0;
  for (const auto& [window, emit] : m.open_emit) {
    if (emit <= spec.slo_ms && failed.count(window) == 0) ++within_slo;
  }

  RunReport report;
  report.attempted = checked.closed;
  report.failed = checked.failed;
  EndToEnd e;
  e.throughput_tps = m.tps();
  e.emit_p50_ms = Median(m.emit_ms);
  e.slo_met_share = Share(static_cast<double>(within_slo),
                          static_cast<double>(m.open_windows));
  e.correct_window_share =
      1.0 - Share(static_cast<double>(checked.failed),
                  static_cast<double>(checked.closed));
  e.setup_s = Median(setup_ms) / 1e3;
  e.peak_rss_mb = peak_rss;
  e.cpu_ms_per_ktriple = m.cpu_ms_per_ktriple();
  AddEndToEnd(e, &report);
  report.Diag("emit_p99_ms", Percentile(m.emit_ms, 0.99), "ms");
  report.Diag("open_windows", static_cast<double>(m.open_windows), "count");
  report.Diag("slo_limit_ms", spec.slo_ms, "ms");
  report.Diag("open_rate_tps", spec.open_rate, "triples/s");
  report.Diag("bench.generator_late_ms", Median(m.generator_late_ms), "ms");
  report.Diag("saturated_triples", m.delivered_triples, "count");
  report.Diag("saturated_blocks", static_cast<double>(m.blocks), "count");
  report.Diag("bench.buffer_mb", static_cast<double>(buffer_bytes) / 1048576.0,
              "MiB");
  return report;
}

}  // namespace perfbench
