// The adaptive optimizer: partition-tuner load bounds on adversarial
// clustered inputs, result equivalence of the tuned cell map, the
// cost-feedback join advisor (cold-start fallback and learning), the
// adaptive parallel join's determinism contract, and the coordinator's
// PbsmJoinStats aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/coordinator.h"
#include "core/parallel_ops.h"
#include "datagen/datagen.h"
#include "exec/spatial_join.h"
#include "geom/box.h"
#include "opt/join_advisor.h"
#include "opt/partition_tuner.h"
#include "opt/stats.h"

namespace paradise {
namespace {

using core::AdaptiveJoinReport;
using core::Cluster;
using core::ParallelSpatialJoin;
using core::ParallelSpatialJoinOptions;
using core::PerNode;
using core::QueryCoordinator;
using exec::ExecContext;
using exec::PbsmJoinStats;
using exec::PbsmOptions;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;
using geom::Box;
using opt::HistogramStats;
using opt::JoinAdvisor;
using opt::JoinDecision;
using opt::JoinFeatures;
using opt::JoinMethod;
using opt::JoinObservation;
using opt::PartitionTunerOptions;
using opt::TunedPartitioning;
using opt::TunePartitions;

#define ASSERT_OK(expr)                    \
  do {                                     \
    Status _s = (expr);                    \
    ASSERT_TRUE(_s.ok()) << _s.ToString(); \
  } while (0)

Cluster::Options SmallClusterOptions() {
  Cluster::Options o;
  o.buffer_pool_frames = 512;
  return o;
}

/// Urban point clusters and coastline-road corridor boxes — the clustered
/// workload the tuner exists for. Corridors are road MBRs so the exact
/// box-contains-point predicate has real hits.
struct ClusteredJoinInput {
  TupleVec points;     // PlacesSchema; shape at col kPlaceLocation
  TupleVec corridors;  // (id, type, box); shape at col 2
  Box universe = Box::Empty();
};

ClusteredJoinInput MakeClusteredInput(uint64_t seed, int64_t count) {
  datagen::ClusteredDataOptions copt;
  copt.seed = seed;
  copt.count = count;
  copt.num_clusters = 4;
  copt.skew = 0.95;
  ClusteredJoinInput in;
  in.points = datagen::GenerateUrbanPoints(copt);
  for (const Tuple& t : datagen::GenerateCoastlineRoads(copt)) {
    in.corridors.push_back(
        Tuple({t.at(datagen::col::kLineId), t.at(datagen::col::kLineType),
               Value(t.at(datagen::col::kLineShape).Mbr())}));
  }
  for (const Tuple& t : in.points) {
    in.universe =
        in.universe.Union(t.at(datagen::col::kPlaceLocation).Mbr());
  }
  for (const Tuple& t : in.corridors) {
    in.universe = in.universe.Union(t.at(2).Mbr());
  }
  return in;
}

HistogramStats HistogramOf(const std::string& name, const TupleVec& rows,
                           size_t col, const Box& universe, uint64_t seed) {
  opt::SpatialSampler sampler(seed, /*salt=*/0, /*capacity=*/4096);
  for (size_t i = 0; i < rows.size(); ++i) {
    sampler.Add(i, rows[i].at(col).Mbr());
  }
  opt::BuildHistogramOptions hopt;
  hopt.tiles_per_axis = 128;
  return opt::BuildHistogram(name, universe, sampler.Samples(),
                             static_cast<int64_t>(rows.size()), hopt);
}

// ---------- Partition tuner ----------

TEST(PartitionTunerTest, BoundsPredictedLoadOnAdversarialClusters) {
  for (uint64_t seed : {7u, 29u, 101u}) {
    ClusteredJoinInput in = MakeClusteredInput(seed, 8000);
    HistogramStats lhist = HistogramOf("points", in.points,
                                       datagen::col::kPlaceLocation,
                                       in.universe, seed);
    HistogramStats rhist =
        HistogramOf("corridors", in.corridors, 2, in.universe, seed + 1);
    PartitionTunerOptions topt;
    topt.num_partitions = 64;
    topt.skew_target = 1.25;
    TunedPartitioning tuned = TunePartitions(lhist, &rhist, topt);

    ASSERT_TRUE(tuned.grid.Valid(64)) << "seed " << seed;
    EXPECT_LE(tuned.predicted_skew, topt.skew_target) << "seed " << seed;
    // Edges strictly increase (no degenerate sliver cells) and every cell
    // maps to a real partition.
    for (size_t i = 0; i + 1 < tuned.grid.x_edges.size(); ++i) {
      EXPECT_LT(tuned.grid.x_edges[i], tuned.grid.x_edges[i + 1]);
    }
    for (size_t i = 0; i + 1 < tuned.grid.y_edges.size(); ++i) {
      EXPECT_LT(tuned.grid.y_edges[i], tuned.grid.y_edges[i + 1]);
    }
    EXPECT_EQ(tuned.grid.cell_part.size(),
              tuned.grid.cells_x() * tuned.grid.cells_y());
    for (uint32_t p : tuned.grid.cell_part) EXPECT_LT(p, 64u);
  }
}

TEST(PartitionTunerTest, PathologicalSingleHotBinMergesInsteadOfSlivers) {
  // Every sample at one point: all quantiles coincide; the tuner must
  // merge them into fewer, wider cells, never emit zero-width ones.
  std::vector<Box> samples(500, Box(10, 10, 10.001, 10.001));
  HistogramStats h =
      opt::BuildHistogram("hot", Box(0, 0, 100, 100), samples, 500);
  PartitionTunerOptions topt;
  topt.num_partitions = 16;
  TunedPartitioning tuned = TunePartitions(h, nullptr, topt);
  ASSERT_TRUE(tuned.grid.Valid(16));
  for (size_t i = 0; i + 1 < tuned.grid.x_edges.size(); ++i) {
    EXPECT_LT(tuned.grid.x_edges[i], tuned.grid.x_edges[i + 1]);
  }
  for (size_t i = 0; i + 1 < tuned.grid.y_edges.size(); ++i) {
    EXPECT_LT(tuned.grid.y_edges[i], tuned.grid.y_edges[i + 1]);
  }
}

TEST(PartitionTunerTest, EmptyStatsYieldInvalidGrid) {
  HistogramStats empty;
  TunedPartitioning tuned = TunePartitions(empty, nullptr, {});
  EXPECT_FALSE(tuned.grid.Valid(32));
}

// ---------- Adaptive cell map in the executor ----------

std::vector<std::string> RenderJoin(const TupleVec& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::string s;
    for (size_t i = 0; i < t.size(); ++i) {
      s += t.at(i).ToString();
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AdaptiveCellMapTest, MatchesBlockHashResultsAndCutsPartitionSkew) {
  ClusteredJoinInput in = MakeClusteredInput(29, 6000);
  HistogramStats lhist = HistogramOf("points", in.points,
                                     datagen::col::kPlaceLocation,
                                     in.universe, 29);
  HistogramStats rhist =
      HistogramOf("corridors", in.corridors, 2, in.universe, 31);
  PartitionTunerOptions topt;
  topt.num_partitions = 64;
  topt.skew_target = 1.25;
  TunedPartitioning tuned = TunePartitions(lhist, &rhist, topt);
  ASSERT_TRUE(tuned.grid.Valid(64));

  auto run = [&](const exec::AdaptiveCellGrid* grid, PbsmJoinStats* stats) {
    PbsmOptions popts;
    popts.num_partitions = 64;
    popts.cells_per_axis = 32;
    popts.adaptive = grid;
    ExecContext ctx;
    ctx.pbsm_stats = stats;
    auto r = exec::PbsmSpatialJoin(in.points, datagen::col::kPlaceLocation,
                                   in.corridors, 2, ctx, popts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return RenderJoin(*r);
  };

  PbsmJoinStats block_stats, adaptive_stats;
  std::vector<std::string> block = run(nullptr, &block_stats);
  std::vector<std::string> adaptive = run(&tuned.grid, &adaptive_stats);

  EXPECT_FALSE(block.empty());
  EXPECT_EQ(adaptive, block) << "the cell map must never change the result";

  double block_skew = static_cast<double>(block_stats.max_partition_items) /
                      block_stats.mean_partition_items;
  double adaptive_skew =
      static_cast<double>(adaptive_stats.max_partition_items) /
      adaptive_stats.mean_partition_items;
  EXPECT_LT(adaptive_skew, block_skew)
      << "tuned cells should balance the clustered load";
}

// ---------- Join advisor ----------

JoinFeatures SomeFeatures() {
  JoinFeatures f;
  f.left_rows = 10'000;
  f.right_rows = 12'000;
  f.left_skew = 4.0;
  f.right_skew = 2.5;
  return f;
}

TEST(JoinAdvisorTest, ColdStartFallsBackToFixedHeuristic) {
  JoinAdvisor advisor;
  JoinDecision d = advisor.Choose(SomeFeatures());
  EXPECT_EQ(d.method, JoinMethod::kPbsm);
  EXPECT_EQ(d.cells_per_axis, 0u) << "cold start uses the executor's auto rule";
  EXPECT_FALSE(d.from_feedback);
  EXPECT_EQ(d.predicted_seconds, 0.0);
}

TEST(JoinAdvisorTest, LearnsTheCheaperMethodFromFeedback) {
  opt::JoinAdvisorOptions aopt;
  aopt.k = 1;  // single nearest neighbour: predictions are exact echoes
  JoinAdvisor advisor(aopt);
  JoinFeatures f = SomeFeatures();
  JoinObservation pbsm;
  pbsm.features = f;
  pbsm.method = JoinMethod::kPbsm;
  pbsm.cells_per_axis = 32;
  pbsm.modeled_seconds = 2.0;
  JoinObservation inl;
  inl.features = f;
  inl.method = JoinMethod::kIndexNestedLoops;
  inl.modeled_seconds = 0.5;
  advisor.Record(pbsm);
  advisor.Record(inl);

  JoinDecision d = advisor.Choose(f);
  EXPECT_TRUE(d.from_feedback);
  EXPECT_EQ(d.method, JoinMethod::kIndexNestedLoops);
  EXPECT_NEAR(d.predicted_seconds, 0.5, 1e-9);

  // A cheaper PBSM observation at nearby features flips the choice for
  // queries nearest to it and carries its resolution along. (Same-feature
  // ties break to the older observation, so nudge the features.)
  JoinFeatures g = f;
  g.left_rows *= 1.2;
  JoinObservation fast_pbsm = pbsm;
  fast_pbsm.features = g;
  fast_pbsm.cells_per_axis = 64;
  fast_pbsm.modeled_seconds = 0.1;
  advisor.Record(fast_pbsm);
  d = advisor.Choose(g);
  EXPECT_TRUE(d.from_feedback);
  EXPECT_EQ(d.method, JoinMethod::kPbsm);
  EXPECT_EQ(d.cells_per_axis, 64u);
  EXPECT_NEAR(d.predicted_seconds, 0.1, 1e-9);
}

TEST(JoinAdvisorTest, FarAwayObservationsDoNotCount) {
  JoinAdvisor advisor;
  JoinObservation pbsm;
  pbsm.features = SomeFeatures();
  pbsm.method = JoinMethod::kPbsm;
  pbsm.modeled_seconds = 2.0;
  JoinObservation inl = pbsm;
  inl.method = JoinMethod::kIndexNestedLoops;
  inl.modeled_seconds = 0.5;
  advisor.Record(pbsm);
  advisor.Record(inl);

  JoinFeatures far;
  far.left_rows = 10.0;  // orders of magnitude off in log-feature space
  far.right_rows = 20.0;
  far.left_skew = 1.0;
  far.right_skew = 1.0;
  JoinDecision d = advisor.Choose(far);
  EXPECT_FALSE(d.from_feedback);
  EXPECT_EQ(d.method, JoinMethod::kPbsm);
}

TEST(JoinAdvisorTest, StoreIsBoundedByCapacity) {
  opt::JoinAdvisorOptions aopt;
  aopt.capacity = 4;
  JoinAdvisor advisor(aopt);
  for (int i = 0; i < 10; ++i) {
    JoinObservation obs;
    obs.features = SomeFeatures();
    obs.modeled_seconds = 1.0 + i;
    advisor.Record(obs);
  }
  EXPECT_EQ(advisor.observations(), 4u);
}

// ---------- Adaptive ParallelSpatialJoin ----------

/// One full adaptive run: forced PBSM and forced index-NL seed the
/// feedback store, then the advisor chooses. Everything observable is
/// captured for bit-identity comparison across thread counts.
struct AdaptiveRun {
  std::vector<std::string> rows;         // advisor-chosen run's result
  std::vector<double> phase_seconds;     // all three queries, in order
  std::vector<double> recorded_seconds;  // advisor store after the runs
  PbsmJoinStats last_stats;
  AdaptiveJoinReport report;             // of the advisor-chosen run
};

AdaptiveRun RunAdaptive(int num_threads) {
  constexpr int kNodes = 4;
  ClusteredJoinInput in = MakeClusteredInput(29, 3000);
  AdaptiveRun out;

  Cluster cluster(kNodes, SmallClusterOptions());
  cluster.SetNumThreads(num_threads);
  cluster.catalog()->PutTableStats(HistogramOf(
      "points", in.points, datagen::col::kPlaceLocation, in.universe, 29));
  cluster.catalog()->PutTableStats(
      HistogramOf("corridors", in.corridors, 2, in.universe, 31));

  PerNode lper(kNodes), rper(kNodes);
  for (size_t i = 0; i < in.points.size(); ++i) {
    lper[i % kNodes].push_back(in.points[i]);
  }
  for (size_t i = 0; i < in.corridors.size(); ++i) {
    rper[i % kNodes].push_back(in.corridors[i]);
  }

  JoinDecision force_pbsm;
  force_pbsm.method = JoinMethod::kPbsm;
  JoinDecision force_inl;
  force_inl.method = JoinMethod::kIndexNestedLoops;
  const JoinDecision* forces[] = {&force_pbsm, &force_inl, nullptr};
  for (const JoinDecision* force : forces) {
    QueryCoordinator coord(&cluster);
    EXPECT_TRUE(coord.BeginQuery().ok());
    ParallelSpatialJoinOptions opts;
    opts.adaptive = true;
    opts.left_stats_table = "points";
    opts.right_stats_table = "corridors";
    opts.pbsm.num_partitions = 64;
    opts.override_decision = force;
    AdaptiveJoinReport rep;
    opts.report = &rep;
    auto r = ParallelSpatialJoin(&coord, lper, datagen::col::kPlaceLocation,
                                 rper, 2, in.universe, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.phase_seconds.push_back(coord.query_seconds());
    if (force == nullptr) {
      TupleVec flat;
      for (TupleVec& v : *r) {
        for (Tuple& t : v) flat.push_back(std::move(t));
      }
      out.rows = RenderJoin(flat);
      out.last_stats = coord.pbsm_stats();
      out.report = rep;
    }
  }
  for (const JoinObservation& obs : cluster.join_advisor()->store()) {
    out.recorded_seconds.push_back(obs.modeled_seconds);
  }
  return out;
}

TEST(AdaptiveParallelJoinTest, BitIdenticalAcrossThreadCounts) {
  AdaptiveRun one = RunAdaptive(1);
  AdaptiveRun eight = RunAdaptive(8);

  EXPECT_FALSE(one.rows.empty());
  EXPECT_EQ(one.rows, eight.rows);
  EXPECT_EQ(one.phase_seconds, eight.phase_seconds);
  EXPECT_EQ(one.recorded_seconds, eight.recorded_seconds);
  // parallel_tasks counts pool submissions, which legitimately change
  // with the thread count (0 when partitions run inline); every other
  // field is part of the determinism contract.
  PbsmJoinStats a = one.last_stats, b = eight.last_stats;
  a.parallel_tasks = 0;
  b.parallel_tasks = 0;
  EXPECT_EQ(a, b);
  EXPECT_EQ(one.report.decision.method, eight.report.decision.method);
  EXPECT_EQ(one.report.decision.predicted_seconds,
            eight.report.decision.predicted_seconds);
  EXPECT_EQ(one.report.observed_seconds, eight.report.observed_seconds);
}

TEST(AdaptiveParallelJoinTest, AdvisorPicksTheObservedCheaperMethod) {
  AdaptiveRun run = RunAdaptive(1);
  ASSERT_EQ(run.recorded_seconds.size(), 3u);
  // Seeds: PBSM then index-NL; the advisor's pick must match whichever
  // observed method was cheaper and predict its cost exactly (same
  // features, k=1 effective).
  const double pbsm_s = run.recorded_seconds[0];
  const double inl_s = run.recorded_seconds[1];
  EXPECT_TRUE(run.report.decision.from_feedback);
  EXPECT_EQ(run.report.decision.method,
            pbsm_s <= inl_s ? JoinMethod::kPbsm
                            : JoinMethod::kIndexNestedLoops);
  EXPECT_NEAR(run.report.decision.predicted_seconds,
              std::min(pbsm_s, inl_s), 1e-12);
  EXPECT_EQ(run.report.observed_seconds, run.recorded_seconds[2]);
  EXPECT_TRUE(run.report.used_tuned_grid ||
              run.report.decision.method == JoinMethod::kIndexNestedLoops);
}

TEST(AdaptiveParallelJoinTest, MatchesNonAdaptiveResults) {
  constexpr int kNodes = 3;
  ClusteredJoinInput in = MakeClusteredInput(11, 2000);
  auto run = [&](bool adaptive) {
    Cluster cluster(kNodes, SmallClusterOptions());
    cluster.SetNumThreads(1);
    if (adaptive) {
      cluster.catalog()->PutTableStats(
          HistogramOf("points", in.points, datagen::col::kPlaceLocation,
                      in.universe, 11));
      cluster.catalog()->PutTableStats(
          HistogramOf("corridors", in.corridors, 2, in.universe, 12));
    }
    PerNode lper(kNodes), rper(kNodes);
    for (size_t i = 0; i < in.points.size(); ++i) {
      lper[i % kNodes].push_back(in.points[i]);
    }
    for (size_t i = 0; i < in.corridors.size(); ++i) {
      rper[i % kNodes].push_back(in.corridors[i]);
    }
    QueryCoordinator coord(&cluster);
    EXPECT_TRUE(coord.BeginQuery().ok());
    ParallelSpatialJoinOptions opts;
    opts.adaptive = adaptive;
    if (adaptive) {
      opts.left_stats_table = "points";
      opts.right_stats_table = "corridors";
    }
    auto r = ParallelSpatialJoin(&coord, lper, datagen::col::kPlaceLocation,
                                 rper, 2, in.universe, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    TupleVec flat;
    for (TupleVec& v : *r) {
      for (Tuple& t : v) flat.push_back(std::move(t));
    }
    return RenderJoin(flat);
  };
  std::vector<std::string> fixed = run(false);
  std::vector<std::string> adaptive = run(true);
  EXPECT_FALSE(fixed.empty());
  EXPECT_EQ(adaptive, fixed)
      << "adaptive mode may change the plan, never the answer";
}

// ---------- PbsmJoinStats population regressions ----------

TEST(PbsmStatsRegressionTest, EmptyInputClearsAReusedSink) {
  ClusteredJoinInput in = MakeClusteredInput(3, 500);
  ExecContext ctx;
  PbsmJoinStats stats;
  ctx.pbsm_stats = &stats;
  auto r1 = exec::PbsmSpatialJoin(in.points, datagen::col::kPlaceLocation,
                                  in.corridors, 2, ctx, {});
  ASSERT_TRUE(r1.ok());
  ASSERT_GT(stats.left_items, 0);
  ASSERT_GT(stats.mean_partition_items, 0.0);

  // The next query's empty input must not leak the previous join's
  // partition/replication/sweep counters into its report.
  auto r2 = exec::PbsmSpatialJoin(TupleVec{}, 0, in.corridors, 2, ctx, {});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
  EXPECT_EQ(stats, PbsmJoinStats{});
}

TEST(PbsmStatsRegressionTest, SinglePartitionJoinPopulatesLoadStats) {
  ClusteredJoinInput in = MakeClusteredInput(3, 500);
  ExecContext ctx;
  PbsmJoinStats stats;
  ctx.pbsm_stats = &stats;
  exec::PbsmOptions popts;
  popts.num_partitions = 1;
  popts.cells_per_axis = 1;
  auto r = exec::PbsmSpatialJoin(in.points, datagen::col::kPlaceLocation,
                                 in.corridors, 2, ctx, popts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.nonempty_partitions, 1);
  EXPECT_EQ(stats.left_items, static_cast<int64_t>(in.points.size()));
  EXPECT_EQ(stats.right_items, static_cast<int64_t>(in.corridors.size()));
  EXPECT_EQ(stats.max_partition_items, stats.left_items + stats.right_items);
  EXPECT_DOUBLE_EQ(stats.mean_partition_items,
                   static_cast<double>(stats.max_partition_items));
}

// ---------- Coordinator PbsmJoinStats aggregation ----------

TEST(PbsmStatsAggregationTest, CoordinatorAggregatesAllNodeSinks) {
  constexpr int kNodes = 3;
  ClusteredJoinInput in = MakeClusteredInput(5, 2000);
  Cluster cluster(kNodes, SmallClusterOptions());
  cluster.SetNumThreads(1);
  PerNode lper(kNodes), rper(kNodes);
  for (size_t i = 0; i < in.points.size(); ++i) {
    lper[i % kNodes].push_back(in.points[i]);
  }
  for (size_t i = 0; i < in.corridors.size(); ++i) {
    rper[i % kNodes].push_back(in.corridors[i]);
  }
  QueryCoordinator coord(&cluster);
  ASSERT_OK(coord.BeginQuery());
  ParallelSpatialJoinOptions opts;
  auto r = ParallelSpatialJoin(&coord, lper, datagen::col::kPlaceLocation,
                               rper, 2, in.universe, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Regression for the aggregation defect: the report must fold every
  // node's sink — sums over nodes for cardinalities, max for the
  // partition peak, and the mean recomputed over non-empty partitions
  // (not copied from one node, not divided by total P).
  PbsmJoinStats agg = coord.pbsm_stats();
  int64_t left_items = 0, right_items = 0, nonempty = 0, max_items = 0;
  int nodes_with_work = 0;
  for (int n = 0; n < kNodes; ++n) {
    const PbsmJoinStats& s = *coord.node_pbsm_stats(n);
    if (s.partitions > 0) ++nodes_with_work;
    left_items += s.left_items;
    right_items += s.right_items;
    nonempty += s.nonempty_partitions;
    max_items = std::max(max_items, s.max_partition_items);
  }
  EXPECT_GT(nodes_with_work, 1) << "join should have run on several nodes";
  EXPECT_EQ(agg.left_items, left_items);
  EXPECT_EQ(agg.right_items, right_items);
  EXPECT_EQ(agg.nonempty_partitions, nonempty);
  EXPECT_EQ(agg.max_partition_items, max_items);
  ASSERT_GT(nonempty, 0);
  EXPECT_DOUBLE_EQ(agg.mean_partition_items,
                   static_cast<double>(left_items + right_items) /
                       static_cast<double>(nonempty));
}

}  // namespace
}  // namespace paradise
