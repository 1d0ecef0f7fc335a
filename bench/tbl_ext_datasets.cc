// Experiment E12 (2016 paper, Table 4): statistics of the generated
// collections, mirroring the columns the paper reports for Flickr and Yelp:
// total objects, total unique terms, average unique terms per object, total
// terms. The substitution targets (DESIGN.md §4): Flickr-like ≈ 7 unique
// terms/object with Zipf tags; Yelp-like = text-heavy long documents.

#include "bench_common.h"

int main() {
  using namespace rst::bench;
  using namespace rst;

  PrintTitle("E12/Table 4: dataset statistics of the generators");
  PrintHeader({"dataset", "objects", "uniq_terms", "avg_uniq/o", "total_terms",
               "index_MB"});

  {
    ExtParams params;
    const ExtEnv& env = CachedExtEnv(params);
    const DatasetStatsRow row = ComputeDatasetStats(env.dataset);
    PrintRow({"flickr-like", FmtInt(row.total_objects),
              FmtInt(row.total_unique_terms),
              Fmt(row.avg_unique_terms_per_object, 1),
              FmtInt(row.total_terms),
              Fmt(static_cast<double>(env.tree.IndexBytes()) / (1 << 20))});
  }
  {
    ExtParams params;
    params.yelp = true;
    const ExtEnv& env = CachedExtEnv(params);
    const DatasetStatsRow row = ComputeDatasetStats(env.dataset);
    PrintRow({"yelp-like", FmtInt(row.total_objects),
              FmtInt(row.total_unique_terms),
              Fmt(row.avg_unique_terms_per_object, 1),
              FmtInt(row.total_terms),
              Fmt(static_cast<double>(env.tree.IndexBytes()) / (1 << 20))});
  }
  {
    CoreParams params;
    const CoreEnv& env = CachedCoreEnv(params);
    const DatasetStatsRow row = ComputeDatasetStats(env.dataset);
    PrintRow({"geonames-like", FmtInt(row.total_objects),
              FmtInt(row.total_unique_terms),
              Fmt(row.avg_unique_terms_per_object, 1),
              FmtInt(row.total_terms),
              Fmt(static_cast<double>(env.frozen_iur.IndexBytes()) / (1 << 20))});
  }
  EmitFigureMetrics("tbl_ext_datasets");
  return 0;
}
