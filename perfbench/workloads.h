#ifndef PARADISE_PERFBENCH_WORKLOADS_H_
#define PARADISE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "benchmark/database.h"
#include "benchmark/queries.h"
#include "core/cluster.h"
#include "sql/engine.h"

namespace paradise::perfbench {

/// The benchmark's workloads. Each stresses a different set of layers;
/// README.md in this directory says which and why.
enum class Workload { kRaster, kVector, kStreams };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// Steady-clock seconds.
double Now();
/// Median of `v`; 0 when empty.
double Median(std::vector<double> v);

/// Data-set and client sizing. The defaults are the table benchmarks'
/// default size (fraction 1/64, 90 dates x 4 channels of 256^2 rasters,
/// 2 KiB tiles) on 4 simulated nodes.
struct Sizing {
  double fraction = 1.0 / 64;
  int dates = 90;
  uint32_t raster_size = 256;
  size_t tile_bytes = 2048;
  /// Population centers the vector features cluster around. The data
  /// generator's default of 24 puts a few dense clusters at random places,
  /// so the cost of the fixed-location queries and the size of the joins
  /// swing by up to 3x between seeds. With this many, the density is
  /// smooth at the scale of the queries and a seed changes which features
  /// exist, not how many a query touches. The traced `vector` run measures
  /// the clustered regime separately (WorkloadRunner::ProbeLayers).
  int centers = 65536;
  /// Queries each of the 4 client streams submits per `streams` pass.
  int queries_per_stream = 16;
};

/// What a statement returned: row count, an order-independent fingerprint
/// of the rows, and the modeled seconds it was charged. Two runs agree iff
/// their digests compare equal (modeled seconds bit for bit).
struct Digest {
  int64_t rows = 0;
  uint64_t fingerprint = 0;
  double modeled_s = 0.0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Order-independent fingerprint of a result set. Rasters hash their
/// geometry, shape and inline pixels, never the storage ids of their tiles
/// (those differ between passes that write temporary arrays).
uint64_t FingerprintRows(const exec::TupleVec& rows);

/// One statement of a pass: a benchmark query, an SQL statement, the
/// two-layer join, or (for `streams`) one whole multi-client round.
struct StatementRun {
  std::string name;
  Status status;
  Digest digest;
  double start_s = 0.0;  // steady-clock seconds when the call began
  double wall_s = 0.0;
  /// Client queries this statement stands for (1, or a round's count).
  int64_t queries = 1;
  /// Client-observed modeled latency of each of those queries.
  std::vector<double> latencies;
  /// Modeled seconds per coordinator phase, in execution order.
  std::vector<std::pair<std::string, double>> phases;
};

/// Per-pass counters of every layer, read from the program's public
/// counters around each call (deltas over the pass).
struct LayerCounters {
  storage::BufferPool::Stats pool;  // summed over nodes
  sim::ResourceUsage usage;         // nodes plus coordinator
  // Spatial-join kernels (summed over the pass's PBSM/two-layer joins).
  int64_t sweep_pair_compares = 0;
  int64_t sweep_candidates = 0;
  int64_t exact_tests = 0;
  int64_t dedup_tests = 0;
  int64_t join_rows = 0;
  int64_t join_tuples = 0;
  int64_t join_items = 0;
  double max_partition_skew = 0.0;
  // Coordinator phases.
  double sequential_modeled_s = 0.0;
  double max_phase_skew = 0.0;
  // Workload session (`streams` only).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t scan_attaches = 0;
  std::vector<double> admission_waits;
};

struct PassResult {
  std::vector<StatementRun> statements;
  /// Summed wall time of the statements' calls; the benchmark's own
  /// result checks between calls are not counted.
  double wall_s = 0.0;
  LayerCounters counters;
};

struct SetupTimes {
  double generate_s = 0.0;
  double load_s = 0.0;
};

/// One workload's loaded cluster and the closed-loop pass that drives it.
class WorkloadRunner {
 public:
  /// Generates the data set from `seed`, loads it onto 4 simulated nodes
  /// (plus the two-layer roads copy for `vector`), and fixes the cluster
  /// thread pool at `pool_threads`.
  static StatusOr<std::unique_ptr<WorkloadRunner>> Create(
      Workload workload, uint64_t seed, const Sizing& sizing,
      int pool_threads, SetupTimes* times);

  ~WorkloadRunner();
  WorkloadRunner(const WorkloadRunner&) = delete;
  WorkloadRunner& operator=(const WorkloadRunner&) = delete;

  /// Benchmark query numbers one pass runs through RunQueryByNumber; for
  /// `streams`, the mix the clients draw from.
  const std::vector<int>& pass_queries() const { return pass_queries_; }

  /// One run through the workload's fixed statement list. A traced pass
  /// also reads every layer's counters around each call into
  /// `PassResult::counters` and the statements' `phases`; an untraced pass
  /// leaves them empty.
  PassResult RunPass(bool traced);

  /// Runs query `number` once on its own (cold pool, single-query mode),
  /// adding its layer counters to `counters` unless it is null.
  StatementRun RunQuery(int number, LayerCounters* counters);

  /// Direct calls into single layers on this workload's loaded data, for
  /// the traced run: array clipping, the three join kernels on one node's
  /// drainage x roads rows, R*-tree probes, SQL planning and execution.
  /// On `vector` it also loads the same seed's vector data with the
  /// generator's default clustering onto a second cluster and runs Q12 and
  /// Q13 there, for the skew figures the smoothed data cannot show. Each
  /// timing is the median of `reps` calls. Fails if the join kernels
  /// disagree on the result or a clustered query fails or changes its
  /// result between calls.
  StatusOr<std::map<std::string, double>> ProbeLayers(int reps);

 private:
  WorkloadRunner() = default;

  // Each adds its layer counters to `counters` unless it is null.
  StatementRun RunSql(const std::string& name, const std::string& statement,
                      LayerCounters* counters);
  StatementRun RunTwoLayerJoin(LayerCounters* counters);
  StatementRun RunStreamsRound(LayerCounters* counters);

  /// The clustered Q12 and Q13 figures of ProbeLayers.
  Status ProbeClustered(int reps, std::map<std::string, double>* out);

  storage::BufferPool::Stats PoolStats();

  Workload workload_ = Workload::kRaster;
  uint64_t seed_ = 0;
  Sizing sizing_;
  int pool_threads_ = 1;
  std::vector<int> pass_queries_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<benchmark::BenchmarkDatabase> db_;
  std::unique_ptr<core::ParallelTable> roads_two_layer_;
  sql::SqlEngine sql_;
};

/// The SQL text of the Query 5, 7 and 11 shapes, with the benchmark's
/// query constants.
std::string SqlQ5();
std::string SqlQ7(const benchmark::QueryConstants& k);
std::string SqlQ11(const benchmark::QueryConstants& k);

}  // namespace paradise::perfbench

#endif  // PARADISE_PERFBENCH_WORKLOADS_H_
