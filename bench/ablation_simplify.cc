// Ablation: the grounder's equivalence-preserving simplification (certain
// instances folded into facts during instantiation, then fact propagation
// + satisfied-rule elimination over the rest). It shifts work from the
// solver to the grounder, and on P' leaves the solver a facts-only
// program it answers without search; this bench shows the net effect on
// end-to-end reasoner latency and the ground-program size it hands the
// solver.

#include <cstdio>

#include "bench/figure_common.h"
#include "stream/format.h"

int main() {
  using namespace streamasp;

  constexpr int kReps = 3;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  DataFormatProcessor format;
  (void)format.DeclareInputPredicates(program->input_predicates());

  std::printf("# Ablation: grounder simplification (program P', end-to-end "
              "reasoner latency, ms)\n");
  std::printf("# %8s %12s %12s %14s %14s\n", "window", "simplify_ms",
              "raw_ms", "rules_simpl", "rules_raw");

  for (size_t window_size : {5000u, 20000u, 40000u}) {
    double simplified_ms = 0;
    double raw_ms = 0;
    size_t rules_simplified = 0;
    size_t rules_raw = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      GeneratorOptions gen_options;
      gen_options.seed = 90 + rep;
      SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                         gen_options);
      const TripleWindow window = generator.GenerateTripleWindow(window_size);

      ReasonerOptions simplify_on;   // Default: simplify = true.
      ReasonerOptions simplify_off;
      simplify_off.grounding.simplify = false;
      Reasoner with(&*program, simplify_on);
      Reasoner without(&*program, simplify_off);

      StatusOr<ReasonerResult> a = with.Process(window);
      StatusOr<ReasonerResult> b = without.Process(window);
      if (!a.ok() || !b.ok()) {
        std::fprintf(stderr, "run failed\n");
        return 1;
      }
      simplified_ms += a->latency_ms;
      raw_ms += b->latency_ms;
      rules_simplified += a->grounding.num_rules;
      rules_raw += b->grounding.num_rules;
    }
    std::printf("  %8zu %12.2f %12.2f %14zu %14zu\n", window_size,
                simplified_ms / kReps, raw_ms / kReps,
                rules_simplified / kReps, rules_raw / kReps);
  }
  std::printf("# both settings produce identical answer sets (tested in "
              "integration_test and property_test)\n");
  return 0;
}
