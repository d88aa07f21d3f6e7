#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>

#include "array/raster.h"
#include "benchmark/workload.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/query_builder.h"
#include "datagen/datagen.h"
#include "exec/spatial_join.h"

namespace paradise::perfbench {

namespace col = datagen::col;
using core::ParallelTable;
using core::QueryCoordinator;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;

namespace {

/// Buffer-pool frames per node in `streams`: 16 x 8 KiB = 128 KiB, far
/// below the working set, so pools stay warm and over-subscribed.
constexpr size_t kStreamsPoolFrames = 16;
/// Pool shards per node, pinned so that eviction order (and with it every
/// modeled figure) does not depend on the host's core count.
constexpr int kPoolShards = 8;
constexpr int kNumNodes = 4;
constexpr int kNumStreams = 4;
/// `streams` admits at most this many of its 4 clients' queries at once,
/// so admission queueing shows in the client-observed latencies.
constexpr int kStreamsAdmitted = 2;
/// Seed of the `streams` clients' query draws and think times. It is fixed
/// so that the workload seed changes the data but not the query mix: with
/// 64 draws, the count of the costly Q2 alone varies by about a fifth
/// from seed to seed.
constexpr uint64_t kClientSeed = 42;

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(const ByteBuffer& bytes) {
  uint64_t h = bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = std::rotl((h ^ w) * 0x9e3779b97f4a7c15ULL, 29);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix64(h ^ tail);
}

void PutBox(const geom::Box& b, ByteWriter* w) {
  w->PutDouble(b.xmin);
  w->PutDouble(b.ymin);
  w->PutDouble(b.xmax);
  w->PutDouble(b.ymax);
}

/// The bytes a row's fingerprint hashes. Polylines and polygons are
/// summarized by point count and MBR: every result row also carries its
/// features' ids, and hashing all points would cost more than the joins
/// whose results are being checked.
void EncodeValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  if (v.type() == exec::ValueType::kPolyline) {
    w->PutU64(v.AsPolyline()->num_points());
    PutBox(v.AsPolyline()->Mbr(), w);
    return;
  }
  if (v.type() == exec::ValueType::kPolygon) {
    w->PutU64(v.AsPolygon()->num_points());
    PutBox(v.AsPolygon()->Mbr(), w);
    return;
  }
  if (v.type() != exec::ValueType::kRaster) {
    v.Serialize(w);
    return;
  }
  const array::Raster& r = *v.AsRaster();
  PutBox(r.geo, w);
  const array::ArrayHandle& h = r.handle;
  for (uint32_t d : h.dims) w->PutU32(d);
  for (uint32_t d : h.tile_dims) w->PutU32(d);
  w->PutU32(h.elem_size);
  w->PutBytes(h.inline_data.data(), h.inline_data.size());
  for (const array::TileRef& t : h.tiles) {
    w->PutU32(t.raw_bytes);
    w->PutU8(t.compressed ? 1 : 0);
  }
}

storage::BufferPool::Stats Minus(storage::BufferPool::Stats a,
                                 const storage::BufferPool::Stats& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.evictions -= b.evictions;
  a.dirty_writebacks -= b.dirty_writebacks;
  a.read_retries -= b.read_retries;
  a.checksum_failures -= b.checksum_failures;
  a.readahead_batches -= b.readahead_batches;
  a.readahead_pages -= b.readahead_pages;
  a.scan_shared_windows -= b.scan_shared_windows;
  a.scan_shared_pages -= b.scan_shared_pages;
  a.promotions -= b.promotions;
  a.writeback_runs -= b.writeback_runs;
  a.writeback_pages -= b.writeback_pages;
  return a;
}

/// Everything the nodes and the coordinator were charged since their
/// clocks were last reset (the start of the query, or of the round).
sim::ResourceUsage ClockUsage(core::Cluster* cluster) {
  sim::ResourceUsage u = cluster->coordinator_clock()->total_usage();
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    u.Add(cluster->node(n).clock()->total_usage());
  }
  return u;
}

void AddJoin(const exec::PbsmJoinStats& s, int64_t rows, LayerCounters* c) {
  int64_t tuples = s.left_tuples + s.right_tuples;
  if (tuples == 0) return;  // no PBSM or two-layer join ran
  c->sweep_pair_compares += s.sweep_pair_compares;
  c->sweep_candidates += s.sweep_candidates;
  c->exact_tests += s.exact_tests;
  c->dedup_tests += s.dedup_tests;
  c->join_rows += rows;
  c->join_tuples += tuples;
  c->join_items += s.left_items + s.right_items;
  if (s.mean_partition_items > 0.0) {
    c->max_partition_skew =
        std::max(c->max_partition_skew,
                 static_cast<double>(s.max_partition_items) /
                     s.mean_partition_items);
  }
}

void AddPhases(const std::vector<QueryCoordinator::PhaseReport>& phases,
               int num_nodes, StatementRun* run, LayerCounters* c) {
  for (const QueryCoordinator::PhaseReport& p : phases) {
    run->phases.emplace_back(p.name, p.seconds);
    if (p.sequential) {
      c->sequential_modeled_s += p.seconds;
      continue;
    }
    double mean = p.total_node_seconds / num_nodes;
    if (mean > 0.0) {
      c->max_phase_skew = std::max(c->max_phase_skew, p.max_node_seconds / mean);
    }
  }
}

/// Runs `fn` and turns an escaping exception into a Status, so one
/// throwing statement counts as a failure instead of ending the run.
template <typename Fn>
auto Guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("threw: ") + e.what());
  }
}

/// Runs benchmark query `number` on `db`, as WorkloadRunner::RunQuery.
StatementRun RunBenchmarkQuery(benchmark::BenchmarkDatabase* db,
                               core::Cluster* cluster, int number,
                               LayerCounters* counters) {
  StatementRun run;
  run.name = "q" + std::to_string(number);
  double t0 = run.start_s = Now();
  StatusOr<benchmark::QueryResult> r = Guard(
      [&]() -> StatusOr<benchmark::QueryResult> {
        return benchmark::RunQueryByNumber(db, number);
      });
  run.wall_s = Now() - t0;
  if (!r.ok()) {
    run.status = r.status();
    return run;
  }
  run.digest = {static_cast<int64_t>(r->rows.size()), FingerprintRows(r->rows),
                r->seconds};
  run.latencies = {r->seconds};
  if (counters != nullptr) {
    counters->usage.Add(ClockUsage(cluster));
    AddJoin(r->pbsm, run.digest.rows, counters);
    AddPhases(r->phases, cluster->num_nodes(), &run, counters);
  }
  return run;
}

catalog::TableDef TwoLayerRoadsDef(const geom::Box& universe) {
  catalog::TableDef def;
  def.name = "roads_2l";
  def.schema = datagen::RoadsSchema();
  def.partitioning = catalog::PartitioningKind::kTwoLayer;
  def.partition_column = col::kLineShape;
  def.universe = universe;
  def.indexes = {catalog::IndexDef{"roads_2l_shape", col::kLineShape, true}};
  return def;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "raster") return Workload::kRaster;
  if (name == "vector") return Workload::kVector;
  if (name == "streams") return Workload::kStreams;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kRaster: return "raster";
    case Workload::kVector: return "vector";
    case Workload::kStreams: return "streams";
  }
  return "?";
}

uint64_t FingerprintRows(const TupleVec& rows) {
  uint64_t sum = 0;
  ByteBuffer buf;
  for (const Tuple& t : rows) {
    buf.clear();
    ByteWriter w(&buf);
    for (const Value& v : t.values) EncodeValue(v, &w);
    sum += HashBytes(buf);
  }
  return Mix64(sum ^ rows.size());
}

std::string SqlQ5() {
  return "SELECT * FROM populatedPlaces WHERE name = 'Phoenix'";
}

std::string SqlQ7(const benchmark::QueryConstants& k) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT area(shape), type FROM landCover WHERE shape "
                "OVERLAPS CIRCLE(%.17g %.17g, %.17g) AND area(shape) < %.17g",
                k.point.x, k.point.y, k.radius, k.max_area);
  return buf;
}

std::string SqlQ11(const benchmark::QueryConstants& k) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SELECT closest(shape, POINT(%.17g %.17g)) FROM roads "
                "GROUP BY type",
                k.point.x, k.point.y);
  return buf;
}

StatusOr<std::unique_ptr<WorkloadRunner>> WorkloadRunner::Create(
    Workload workload, uint64_t seed, const Sizing& sizing, int pool_threads,
    SetupTimes* times) {
  std::unique_ptr<WorkloadRunner> r(new WorkloadRunner());
  r->workload_ = workload;
  r->seed_ = seed;
  r->sizing_ = sizing;
  r->pool_threads_ = pool_threads;

  double t0 = Now();
  datagen::DataSetOptions dopts;
  dopts.seed = seed;
  dopts.size_fraction = sizing.fraction;
  dopts.num_dates = sizing.dates;
  dopts.base_raster_size = sizing.raster_size;
  dopts.num_centers = sizing.centers;
  datagen::GlobalDataSet ds = datagen::GenerateGlobalDataSet(dopts);
  double t1 = Now();

  core::Cluster::Options copts;
  copts.pool_shards = kPoolShards;
  if (workload == Workload::kStreams) {
    copts.buffer_pool_frames = kStreamsPoolFrames;
  }
  r->cluster_ = std::make_unique<core::Cluster>(kNumNodes, copts);
  r->cluster_->SetNumThreads(pool_threads);
  benchmark::LoadOptions lopts;
  lopts.tile_bytes = sizing.tile_bytes;
  PARADISE_ASSIGN_OR_RETURN(
      r->db_, benchmark::BenchmarkDatabase::Load(r->cluster_.get(), ds, lopts));
  if (workload == Workload::kVector) {
    PARADISE_ASSIGN_OR_RETURN(
        r->roads_two_layer_,
        ParallelTable::Load(r->cluster_.get(), TwoLayerRoadsDef(ds.universe),
                            ds.roads));
  }
  double t2 = Now();
  if (times != nullptr) {
    times->generate_s = t1 - t0;
    times->load_s = t2 - t1;
  }

  r->sql_.Register(&r->db_->places());
  r->sql_.Register(&r->db_->roads());
  r->sql_.Register(&r->db_->drainage());
  r->sql_.Register(&r->db_->land_cover());
  switch (workload) {
    case Workload::kRaster: r->pass_queries_ = {2, 3, 4, 9, 10, 14}; break;
    case Workload::kVector: r->pass_queries_ = {5, 6, 7, 8, 11, 12, 13}; break;
    case Workload::kStreams: r->pass_queries_ = {2, 5, 6, 7}; break;
  }
  return r;
}

WorkloadRunner::~WorkloadRunner() {
  // Tables release their storage into the cluster's nodes.
  roads_two_layer_.reset();
  db_.reset();
}

storage::BufferPool::Stats WorkloadRunner::PoolStats() {
  storage::BufferPool::Stats total;
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    total.Add(cluster_->node(n).pool()->stats());
  }
  return total;
}

StatementRun WorkloadRunner::RunQuery(int number, LayerCounters* counters) {
  return RunBenchmarkQuery(db_.get(), cluster_.get(), number, counters);
}

StatementRun WorkloadRunner::RunSql(const std::string& name,
                                    const std::string& statement,
                                    LayerCounters* counters) {
  StatementRun run;
  run.name = name;
  QueryCoordinator coord(cluster_.get());
  double t0 = run.start_s = Now();
  StatusOr<TupleVec> rows = Guard([&]() -> StatusOr<TupleVec> {
    return sql_.Execute(statement, &coord);
  });
  coord.EndQuery();
  run.wall_s = Now() - t0;
  if (!rows.ok()) {
    run.status = rows.status();
    return run;
  }
  run.digest = {static_cast<int64_t>(rows->size()), FingerprintRows(*rows),
                coord.query_seconds()};
  run.latencies = {coord.query_seconds()};
  if (counters != nullptr) {
    counters->usage.Add(ClockUsage(cluster_.get()));
    AddJoin(coord.pbsm_stats(), run.digest.rows, counters);
    AddPhases(coord.phases(), cluster_->num_nodes(), &run, counters);
  }
  return run;
}

StatementRun WorkloadRunner::RunTwoLayerJoin(LayerCounters* counters) {
  StatementRun run;
  run.name = "join_two_layer";
  QueryCoordinator coord(cluster_.get());
  double t0 = run.start_s = Now();
  StatusOr<TupleVec> rows = Guard([&]() -> StatusOr<TupleVec> {
    return core::Query::On(&db_->drainage())
        .SpatialJoinWith(roads_two_layer_.get(), col::kLineShape,
                         col::kLineShape)
        .Run(&coord);
  });
  coord.EndQuery();
  run.wall_s = Now() - t0;
  if (!rows.ok()) {
    run.status = rows.status();
    return run;
  }
  run.digest = {static_cast<int64_t>(rows->size()), FingerprintRows(*rows),
                coord.query_seconds()};
  run.latencies = {coord.query_seconds()};
  exec::PbsmJoinStats stats = coord.pbsm_stats();
  if (stats.dedup_tests != 0 || stats.dedup_dropped != 0) {
    run.status = Status::Internal("two-layer join ran the dedup branch");
  }
  if (counters != nullptr) {
    counters->usage.Add(ClockUsage(cluster_.get()));
    AddJoin(stats, run.digest.rows, counters);
    AddPhases(coord.phases(), cluster_->num_nodes(), &run, counters);
  }
  return run;
}

StatementRun WorkloadRunner::RunStreamsRound(LayerCounters* counters) {
  StatementRun run;
  run.name = "round";
  run.queries = static_cast<int64_t>(kNumStreams) * sizing_.queries_per_stream;
  benchmark::WorkloadOptions w;
  w.num_streams = kNumStreams;
  w.queries_per_stream = sizing_.queries_per_stream;
  w.mix = pass_queries_;
  w.seed = kClientSeed;
  w.mean_think_seconds = 0.1;
  w.session.max_concurrent = kStreamsAdmitted;
  double t0 = run.start_s = Now();
  StatusOr<benchmark::WorkloadReport> r =
      Guard([&]() -> StatusOr<benchmark::WorkloadReport> {
        return benchmark::RunWorkload(db_.get(), w);
      });
  run.wall_s = Now() - t0;
  if (!r.ok()) {
    run.status = r.status();
    return run;
  }
  if (static_cast<int64_t>(r->samples.size()) != run.queries) {
    run.status = Status::Internal("round completed " +
                                  std::to_string(r->samples.size()) +
                                  " of " + std::to_string(run.queries) +
                                  " queries");
    return run;
  }
  // The round's fingerprint covers what each client got back: which
  // query it ran and how many rows it returned. Sample times are left
  // out: they drift from round to round as Q6's inserts grow the
  // volumes (see README.md), so only the modeled makespan of a given
  // round index is comparable between runs.
  uint64_t sum = 0;
  for (const benchmark::WorkloadReport::Sample& s : r->samples) {
    uint64_t h = Mix64(static_cast<uint64_t>(s.stream) * 1000003u +
                       static_cast<uint64_t>(s.index));
    h = Mix64(h ^ static_cast<uint64_t>(s.query));
    h = Mix64(h ^ static_cast<uint64_t>(s.rows));
    sum += h;
    run.digest.rows += s.rows;
    run.latencies.push_back(s.latency_seconds());
  }
  run.digest.fingerprint = Mix64(sum ^ r->samples.size());
  run.digest.modeled_s = r->makespan_seconds;
  if (counters != nullptr) {
    for (const benchmark::WorkloadReport::Sample& s : r->samples) {
      counters->admission_waits.push_back(s.admit_seconds - s.submit_seconds);
    }
    counters->usage.Add(ClockUsage(cluster_.get()));
    counters->cache_hits += r->cache_hits;
    counters->cache_misses += r->cache_misses;
    counters->scan_attaches += r->scan_attaches;
  }
  return run;
}

PassResult WorkloadRunner::RunPass(bool traced) {
  PassResult pass;
  LayerCounters* counters = traced ? &pass.counters : nullptr;
  storage::BufferPool::Stats before;
  if (traced) before = PoolStats();
  if (workload_ == Workload::kStreams) {
    pass.statements.push_back(RunStreamsRound(counters));
  } else {
    for (int q : pass_queries_) {
      pass.statements.push_back(RunQuery(q, counters));
    }
  }
  if (workload_ == Workload::kVector) {
    const benchmark::QueryConstants& k = db_->constants();
    pass.statements.push_back(RunSql("sql_q5", SqlQ5(), counters));
    pass.statements.push_back(RunSql("sql_q7", SqlQ7(k), counters));
    pass.statements.push_back(RunSql("sql_q11", SqlQ11(k), counters));
    pass.statements.push_back(RunTwoLayerJoin(counters));
  }
  for (const StatementRun& s : pass.statements) pass.wall_s += s.wall_s;
  if (traced) pass.counters.pool = Minus(PoolStats(), before);
  return pass;
}

StatusOr<std::map<std::string, double>> WorkloadRunner::ProbeLayers(
    int reps) {
  std::map<std::string, double> out;
  core::Cluster* cluster = cluster_.get();
  const benchmark::QueryConstants& k = db_->constants();

  // array: clip one loaded raster with the Q2 polygon from a cold pool,
  // which includes the tile reads and LZW decoding.
  {
    const ParallelTable& rasters = db_->raster();
    int node = 0;
    while (node < cluster->num_nodes() &&
           rasters.fragment(node).num_rows() == 0) {
      ++node;
    }
    if (node == cluster->num_nodes()) return Status::NotFound("no rasters");
    PARADISE_ASSIGN_OR_RETURN(Tuple row, rasters.FetchRow(cluster, node, 0));
    const array::Raster raster = *row.at(col::kRasterData).AsRaster();
    core::Node& owner = cluster->node(static_cast<int>(raster.handle.owner_node));
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      cluster->ResetForQuery();
      double t0 = Now();
      PARADISE_ASSIGN_OR_RETURN(
          array::Raster clipped,
          array::ClipRaster(raster, *k.clip_polygon, owner.local_tile_source(),
                            owner.temp_store(), owner.clock(),
                            raster.handle.owner_node));
      ms.push_back((Now() - t0) * 1e3);
    }
    out["array.clip_ms"] = Median(ms);
  }

  // exec: the three join kernels on node 0's stored drainage x roads rows.
  {
    QueryCoordinator coord(cluster);
    PARADISE_RETURN_IF_ERROR(coord.BeginQuery());
    PARADISE_ASSIGN_OR_RETURN(
        core::PerNode drainage,
        core::ParallelScanAll(&coord, db_->drainage(), nullptr));
    PARADISE_ASSIGN_OR_RETURN(
        core::PerNode roads, core::ParallelScanAll(&coord, db_->roads(), nullptr));
    coord.EndQuery();
    const TupleVec& left = drainage[0];
    const TupleVec& right = roads[0];
    common::ThreadPool pool(pool_threads_);
    std::vector<double> pbsm_ms, two_ms, index_ms;
    exec::ExecContext no_charge;
    std::unique_ptr<index::RStarTree> tree =
        exec::BuildRTreeOnColumn(right, col::kLineShape, no_charge);
    for (int i = 0; i < reps; ++i) {
      sim::NodeClock clock;
      exec::ExecContext ctx;
      ctx.clock = &clock;
      ctx.pool = &pool;
      double t0 = Now();
      PARADISE_ASSIGN_OR_RETURN(
          TupleVec a, exec::PbsmSpatialJoin(left, col::kLineShape, right,
                                            col::kLineShape, ctx));
      double t1 = Now();
      exec::TwoLayerOptions two;
      two.tiles_per_axis = db_->drainage().grid().tiles_per_axis();
      PARADISE_ASSIGN_OR_RETURN(
          TupleVec b, exec::TwoLayerSpatialJoin(left, col::kLineShape, right,
                                                col::kLineShape, ctx, two));
      double t2 = Now();
      PARADISE_ASSIGN_OR_RETURN(
          TupleVec c, exec::IndexSpatialJoin(left, col::kLineShape, right,
                                             col::kLineShape, *tree, ctx));
      double t3 = Now();
      pbsm_ms.push_back((t1 - t0) * 1e3);
      two_ms.push_back((t2 - t1) * 1e3);
      index_ms.push_back((t3 - t2) * 1e3);
      const uint64_t fa = FingerprintRows(a);
      if (a.size() != b.size() || a.size() != c.size() ||
          fa != FingerprintRows(b) || fa != FingerprintRows(c)) {
        return Status::Internal(
            "join kernels disagree: pbsm " + std::to_string(a.size()) +
            " rows, two-layer " + std::to_string(b.size()) + ", index " +
            std::to_string(c.size()));
      }
    }
    out["exec.pbsm_kernel_ms"] = Median(pbsm_ms);
    out["exec.two_layer_kernel_ms"] = Median(two_ms);
    out["exec.index_kernel_ms"] = Median(index_ms);
  }

  // index: Q7-shaped (circle MBR) and Q8-shaped (box of side LENGTH
  // around a point) probes on every node's landCover R*-tree.
  {
    constexpr int kBoxProbes = 512;
    std::vector<geom::Box> probes = {geom::Circle(k.point, k.radius).Mbr()};
    Rng rng(seed_);
    const geom::Box& u = db_->universe();
    for (int i = 0; i < kBoxProbes; ++i) {
      geom::Point p{u.xmin + rng.NextDouble(0.0, 1.0) * (u.xmax - u.xmin),
                    u.ymin + rng.NextDouble(0.0, 1.0) * (u.ymax - u.ymin)};
      probes.push_back(geom::Box::MakeBox(p, k.box_length));
    }
    std::vector<double> us;
    int64_t visits = 0, num_probes = 0;
    for (int i = 0; i < reps; ++i) {
      visits = 0;
      num_probes = 0;
      double t0 = Now();
      for (int n = 0; n < cluster->num_nodes(); ++n) {
        const index::RStarTree* tree = db_->land_cover().fragment(n).rtree.get();
        if (tree == nullptr) continue;
        for (const geom::Box& b : probes) {
          tree->SearchOverlap(
              b, [](const geom::Box&, uint64_t) { return true; }, &visits);
          ++num_probes;
        }
      }
      us.push_back((Now() - t0) * 1e6 / static_cast<double>(num_probes));
    }
    out["index.rtree_visits_per_probe"] =
        static_cast<double>(visits) / static_cast<double>(num_probes);
    out["index.rtree_probe_us"] = Median(us);
  }

  // sql: planning and execution of the Q7-shape statement.
  {
    const std::string q7 = SqlQ7(k);
    std::vector<double> plan_us, exec_ms;
    for (int i = 0; i < reps; ++i) {
      double t0 = Now();
      PARADISE_ASSIGN_OR_RETURN(std::string plan, sql_.Explain(q7));
      double t1 = Now();
      QueryCoordinator coord(cluster);
      PARADISE_ASSIGN_OR_RETURN(TupleVec rows, sql_.Execute(q7, &coord));
      coord.EndQuery();
      double t2 = Now();
      plan_us.push_back((t1 - t0) * 1e6);
      exec_ms.push_back((t2 - t1) * 1e3);
    }
    out["sql.plan_us"] = Median(plan_us);
    out["sql.execute_ms"] = Median(exec_ms);
  }

  // Skew in the clustered regime (`vector` only).
  if (workload_ == Workload::kVector) {
    PARADISE_RETURN_IF_ERROR(ProbeClustered(reps, &out));
  }
  return out;
}

Status WorkloadRunner::ProbeClustered(int reps,
                                      std::map<std::string, double>* out) {
  // The same seed's vector data with the generator's default clustering.
  // Vectors are generated before rasters, so one date of rasters leaves
  // them unchanged and keeps the set-up short.
  datagen::DataSetOptions dopts;
  dopts.seed = seed_;
  dopts.size_fraction = sizing_.fraction;
  dopts.num_dates = 1;
  dopts.base_raster_size = sizing_.raster_size;
  datagen::GlobalDataSet ds = datagen::GenerateGlobalDataSet(dopts);
  core::Cluster::Options copts;
  copts.pool_shards = kPoolShards;
  core::Cluster cluster(kNumNodes, copts);
  cluster.SetNumThreads(pool_threads_);
  benchmark::LoadOptions lopts;
  lopts.tile_bytes = sizing_.tile_bytes;
  PARADISE_ASSIGN_OR_RETURN(
      std::unique_ptr<benchmark::BenchmarkDatabase> db,
      benchmark::BenchmarkDatabase::Load(&cluster, ds, lopts));

  LayerCounters counters;
  std::vector<double> q13_ms;
  for (int q : {12, 13}) {
    Digest first;
    for (int i = 0; i < reps; ++i) {
      LayerCounters unused;
      StatementRun run = RunBenchmarkQuery(db.get(), &cluster, q,
                                           i == 0 ? &counters : &unused);
      PARADISE_RETURN_IF_ERROR(run.status);
      if (i == 0) {
        first = run.digest;
      } else if (run.digest.rows != first.rows ||
                 run.digest.fingerprint != first.fingerprint) {
        return Status::Internal("clustered " + run.name +
                                " changed its result between calls");
      }
      if (q == 13) q13_ms.push_back(run.wall_s * 1e3);
    }
  }
  (*out)["benchmark.clustered_q13_ms"] = Median(q13_ms);
  (*out)["exec.clustered_partition_skew"] = counters.max_partition_skew;
  (*out)["core.clustered_phase_skew"] = counters.max_phase_skew;
  return Status::OK();
}

}  // namespace paradise::perfbench
