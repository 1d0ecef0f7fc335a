// Experiment C4 (SIGMOD 2011 evaluation design): effect of the CIUR-tree
// cluster count. Too few clusters blend topics (loose intersection vectors);
// too many inflate per-node summary cost. The paper observes a sweet spot in
// the tens.

#include "bench_common.h"

int main() {
  using namespace rst::bench;
  PrintTitle("C4: CIUR-tree query cost vs cluster count");
  PrintHeader({"clusters", "CIUR_ms", "CIUROE_ms", "CIURTE_ms", "CIUR_io",
               "CIURTE_io", "index_MB"});
  for (uint32_t m : {1, 2, 4, 8, 16, 32, 64}) {
    CoreParams params;
    params.num_clusters = m;
    const CorePoint p = RunCorePoint(params, /*run_baseline=*/false);
    const CoreEnv& env = CachedCoreEnv(params);
    PrintRow({FmtInt(m), Fmt(p.ciur.query_ms), Fmt(p.ciur_oe.query_ms),
              Fmt(p.ciur_te.query_ms), Fmt(p.ciur.io, 0), Fmt(p.ciur_te.io, 0),
              Fmt(static_cast<double>(env.frozen_ciur.IndexBytes()) / (1 << 20))});
  }
  EmitFigureMetrics("fig_core_vary_clusters");
  return 0;
}
