#include "exec/spatial_join.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/join_kernel.h"
#include "sim/cost_model.h"
#include "storage/page.h"

namespace paradise::exec {

namespace {

using geom::Box;
using geom::Circle;
using geom::Point;

/// SplitMix64 finalizer: decorrelates block coordinates so neighbouring
/// blocks start their round-robin at unrelated partitions.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Cells per block side of the block-hash map. Small enough that one
/// clustered query region still spans several blocks, large enough that
/// the round-robin inside a block covers many partitions.
constexpr size_t kCellBlock = 4;

/// Block-hash cell→partition map of the uniform grid: cells are tiled into
/// kCellBlock² blocks, each block's coordinates are mixed through Mix64,
/// and the cells inside a block are assigned round-robin from the block's
/// hash — adjacent cells hit distinct partitions and distant blocks are
/// decorrelated, so a hot region spreads over all P. Must be a pure
/// function of (cell, P): the distribute phase and the reference-point
/// duplicate-elimination rule both evaluate it and must agree.
size_t PartitionOfCell(size_t cell, size_t cells_axis, size_t P) {
  size_t cx = cell % cells_axis;
  size_t cy = cell / cells_axis;
  uint64_t block =
      static_cast<uint64_t>(cy / kCellBlock) * 0x1000193u + (cx / kCellBlock);
  size_t within = (cy % kCellBlock) * kCellBlock + (cx % kCellBlock);
  return static_cast<size_t>((Mix64(block) + within) % P);
}

/// Runs every index of [0, count) through `fn`, on the pool when it has
/// real workers and the fan-out is non-trivial, inline otherwise. Caller
/// guarantees fn(i) touches only slot-i state, so the modeled outcome is
/// identical either way; only wall-clock changes.
void ForEachTask(common::ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    pool->ParallelFor(static_cast<int>(count),
                      [&fn](int i) { fn(static_cast<size_t>(i)); });
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

/// A task-local execution context: same node services, but charges land on
/// `task_clock` and nested operators never re-enter the pool.
ExecContext TaskContext(const ExecContext& ctx, sim::NodeClock* task_clock) {
  ExecContext task = ctx;
  task.clock = task_clock;
  task.pool = nullptr;
  task.pbsm_stats = nullptr;
  return task;
}

/// Maps a point to its grid cell (clamped to the grid). The extent→cell
/// scale is precomputed once, so mapping a coordinate is one multiply
/// instead of a divide; CellOf and CellRange use the same scale, so the
/// reference-point rule ("the cell containing the intersection's lower-left
/// corner is within the overlap cell range of both MBRs") keeps holding.
/// Clamping happens in double before the integer cast, so out-of-universe
/// and ±inf (empty-box) coordinates clamp instead of invoking UB; an empty
/// box yields an inverted (hi < lo) cell range, i.e. no cells.
struct Grid {
  double xmin;
  double ymin;
  double x_scale;  // cells per unit of width
  double y_scale;  // cells per unit of height
  size_t cells_x;
  size_t cells_y;

  Grid(const Box& universe, size_t cx, size_t cy)
      : xmin(universe.xmin),
        ymin(universe.ymin),
        x_scale(static_cast<double>(cx) / universe.Width()),
        y_scale(static_cast<double>(cy) / universe.Height()),
        cells_x(cx),
        cells_y(cy) {}

  size_t CellX(double x) const {
    double f = std::max(0.0, (x - xmin) * x_scale);
    return static_cast<size_t>(std::min(f, static_cast<double>(cells_x - 1)));
  }
  size_t CellY(double y) const {
    double f = std::max(0.0, (y - ymin) * y_scale);
    return static_cast<size_t>(std::min(f, static_cast<double>(cells_y - 1)));
  }

  size_t CellOf(double x, double y) const {
    return CellY(y) * cells_x + CellX(x);
  }

  /// Cell index range [cx0,cx1]x[cy0,cy1] overlapped by an MBR.
  void CellRange(double bxlo, double bylo, double bxhi, double byhi,
                 size_t* cx0, size_t* cy0, size_t* cx1, size_t* cy1) const {
    *cx0 = CellX(bxlo);
    *cy0 = CellY(bylo);
    *cx1 = CellX(bxhi);
    *cy1 = CellY(byhi);
  }
};

/// Non-uniform grid over tuned cell boundaries (PbsmOptions::adaptive).
/// Same contract as Grid — CellOf and CellRange agree, out-of-range and
/// ±inf coordinates clamp to the edge cells (an empty box still yields an
/// inverted, i.e. empty, cell range) — but cell lookup is a binary search
/// over the tuned edges instead of one multiply.
struct NonUniformGrid {
  const std::vector<double>& x_edges;
  const std::vector<double>& y_edges;
  size_t cells_x;
  size_t cells_y;

  explicit NonUniformGrid(const AdaptiveCellGrid& g)
      : x_edges(g.x_edges),
        y_edges(g.y_edges),
        cells_x(g.cells_x()),
        cells_y(g.cells_y()) {}

  static size_t CellOnAxis(const std::vector<double>& edges, size_t cells,
                           double v) {
    size_t i = static_cast<size_t>(
        std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
    if (i == 0) return 0;
    --i;
    return i >= cells ? cells - 1 : i;
  }

  size_t CellX(double x) const { return CellOnAxis(x_edges, cells_x, x); }
  size_t CellY(double y) const { return CellOnAxis(y_edges, cells_y, y); }

  size_t CellOf(double x, double y) const {
    return CellY(y) * cells_x + CellX(x);
  }

  void CellRange(double bxlo, double bylo, double bxhi, double byhi,
                 size_t* cx0, size_t* cy0, size_t* cx1, size_t* cy1) const {
    *cx0 = CellX(bxlo);
    *cy0 = CellY(bylo);
    *cx1 = CellX(bxhi);
    *cy1 = CellY(byhi);
  }
};

/// Uniform tile grid with core::SpatialGrid's exact arithmetic: tiles are
/// numbered row-major from the upper-left corner and rows grow *downward*
/// (cy = CoordToCell(ymax - y)), so an MBR's begin tile — the one holding
/// its reference point (xmin, ymin) — is (cx0, cy1) of its cell range.
/// The arithmetic must stay bit-identical to SpatialGrid::TilesOfBox, or
/// a parallel two-layer join could emit a pair at a node the decluster
/// pass never shipped the copies to (core_test pins the agreement).
struct TileGrid {
  double xmin, ymax;
  double width, height;
  uint32_t tiles;

  TileGrid(const Box& universe, uint32_t tiles_per_axis)
      : xmin(universe.xmin),
        ymax(universe.ymax),
        width(universe.Width()),
        height(universe.Height()),
        tiles(tiles_per_axis) {}

  uint32_t CoordToCell(double offset, double extent) const {
    double f = offset / extent * tiles;
    if (f < 0) f = 0;
    uint32_t c = static_cast<uint32_t>(f);
    return std::min(c, tiles - 1);
  }

  /// Columns [cx0, cx1], rows [cy0, cy1]; begin tile = (cx0, cy1).
  void Range(double bxlo, double bylo, double bxhi, double byhi,
             uint32_t* cx0, uint32_t* cy0, uint32_t* cx1,
             uint32_t* cy1) const {
    *cx0 = CoordToCell(bxlo - xmin, width);
    *cx1 = CoordToCell(bxhi - xmin, width);
    *cy0 = CoordToCell(ymax - byhi, height);
    *cy1 = CoordToCell(ymax - bylo, height);
  }
};

/// The nine class pairs whose mini-joins cover every pair exactly once: at
/// the tile holding the intersection's reference point, neither side can
/// be x-spilled on both ends (the intersection's xmin is one side's xmin)
/// nor y-spilled on both ends — which excludes exactly the seven
/// combinations with B/D on the left and B/D's x-spill or C/D's y-spill
/// repeated on the right. Note B×C and C×B are required: a wide-flat MBR
/// crossing a tall-thin one meets it at a tile where neither is class A.
constexpr struct {
  TileClass l, r;
} kMiniJoins[] = {
    {TileClass::kA, TileClass::kA}, {TileClass::kA, TileClass::kB},
    {TileClass::kA, TileClass::kC}, {TileClass::kA, TileClass::kD},
    {TileClass::kB, TileClass::kA}, {TileClass::kC, TileClass::kA},
    {TileClass::kD, TileClass::kA}, {TileClass::kB, TileClass::kC},
    {TileClass::kC, TileClass::kB}};

/// One side's bucket assignment in CSR form: `rows` holds tuple ordinals
/// grouped by bucket (replicas included), `offsets[k] .. offsets[k+1]`
/// delimits bucket k.
struct SideParts {
  std::vector<uint32_t> rows;
  std::vector<size_t> offsets;

  size_t begin(size_t k) const { return offsets[k]; }
  size_t count(size_t k) const { return offsets[k + 1] - offsets[k]; }
};

/// Per-thread sweep buffers, reused across the tasks a worker runs: every
/// field is fully rewritten before use, so reuse affects only allocation
/// traffic, never results or charges. Each sweep task binds `batch` to its
/// own flush callback and flushes it after every sweep, so flush
/// boundaries match a fresh batch per sweep.
struct SweepScratch {
  join_kernel::SweepSide ls, rs;
  std::vector<join_kernel::OrdinalPair> survivors;
  join_kernel::CandidateBatch batch{join_kernel::kCandidateBatchSize};
};
thread_local SweepScratch t_sweep_scratch;

/// One sweep task's outcome, merged in task order after the barrier.
struct SweepTask {
  Status status = Status::OK();
  TupleVec out;
  sim::ResourceUsage usage;
  int64_t compares = 0;
  int64_t candidates = 0;
  int64_t exact_tests = 0;
  int64_t dedup_tests = 0;
  int64_t dedup_dropped = 0;
  bool ran = false;  // counts toward PbsmJoinStats::parallel_tasks
};

/// The partitioned spatial join shared by PBSM and the two-layer plan: the
/// partition → sweep → refine pipeline of "Parallel In-Memory Evaluation
/// of Spatial Joins" and "Two-layer Space-oriented Partitioning for
/// Non-point Data". A plan supplies the bucket keys, the task
/// decomposition, the sweeps each task runs, and its flush filter; the
/// driver runs the steps in order: GatherMbrs, Distribute, RecordShape,
/// SweepTasks.
class PartitionedJoin {
 public:
  PartitionedJoin(const TupleVec& left, size_t left_col, const TupleVec& right,
                  size_t right_col, const ExecContext& ctx)
      : left_(left),
        right_(right),
        left_col_(left_col),
        right_col_(right_col),
        ctx_(ctx) {}
  // Sweep tasks and their flush callbacks hold its address.
  PartitionedJoin(const PartitionedJoin&) = delete;
  PartitionedJoin& operator=(const PartitionedJoin&) = delete;

  /// Gathers every tuple's MBR into column-major buffers
  /// (exec/join_kernel.h), so `Tuple::at(col).Mbr()` runs once per tuple
  /// here and never again inside the hot phases. Returns `universe`, or
  /// the union of both sides' MBRs when it is empty; a degenerate universe
  /// is inflated.
  Box GatherMbrs(Box universe) {
    const bool auto_universe = universe.IsEmpty();
    auto gather = [&](const TupleVec& tuples, size_t col,
                      join_kernel::MbrColumns* cols) {
      const size_t n = tuples.size();
      cols->Resize(n);
      for (size_t i = 0; i < n; ++i) {
        // The tuple array is walked in order but each tuple's values live
        // behind a heap pointer the hardware prefetcher can't follow; stage
        // the next few rows' value arrays in ahead of the Mbr() call.
        if (i + 8 < n) __builtin_prefetch(tuples[i + 8].values.data());
        Box b = tuples[i].at(col).Mbr();
        cols->Set(i, b);
        if (auto_universe) universe.ExpandToInclude(b);
      }
    };
    gather(left_, left_col_, &left_cols_);
    gather(right_, right_col_, &right_cols_);
    if (universe.Width() <= 0 || universe.Height() <= 0) {
      universe = universe.Inflate(1.0);
    }
    return universe;
  }

  /// Replicates each side's row ordinals into CSR buckets:
  /// `emit(cols, i, push)` calls `push(key)` once for every bucket row i
  /// goes to, with keys below `num_buckets` and none twice. Each side is
  /// walked in (xlo, ordinal) order, argsorted once globally, and the
  /// counting sort is stable, so every bucket's rows come out already in
  /// sweep order: two sorts of the whole side replace the per-bucket sorts
  /// the sweeps would otherwise run. The modeled sort charge is computed
  /// from bucket sizes (TaskSweeper::BeginUnit), not from how the host
  /// sorts. The per-tuple overhead is one batched charge per side,
  /// identical to the per-tuple sequence because kTupleOverhead is
  /// integer-valued.
  template <typename EmitFn>
  void Distribute(size_t num_buckets, EmitFn& emit) {
    left_order_ = join_kernel::ArgsortByXlo(left_cols_);
    right_order_ = join_kernel::ArgsortByXlo(right_cols_);
    DistributeSide(left_cols_, left_order_, num_buckets, emit, &left_parts_);
    DistributeSide(right_cols_, right_order_, num_buckets, emit,
                   &right_parts_);
  }

  const SideParts& left_parts() const { return left_parts_; }
  const SideParts& right_parts() const { return right_parts_; }

  /// Records the join's shape in `ctx.pbsm_stats`, when set: one partition
  /// per task, `task_loads[t]` = task t's left + right entries.
  void RecordShape(size_t cells_per_axis,
                   const std::vector<int64_t>& task_loads) const {
    if (ctx_.pbsm_stats == nullptr) return;
    PbsmJoinStats& st = *ctx_.pbsm_stats;
    st.partitions = task_loads.size();
    st.cells_per_axis = cells_per_axis;
    st.left_tuples = static_cast<int64_t>(left_.size());
    st.right_tuples = static_cast<int64_t>(right_.size());
    st.left_items = static_cast<int64_t>(left_parts_.rows.size());
    st.right_items = static_cast<int64_t>(right_parts_.rows.size());
    for (int64_t load : task_loads) {
      st.max_partition_items = std::max(st.max_partition_items, load);
      if (load > 0) ++st.nonempty_partitions;
    }
    if (st.nonempty_partitions > 0) {
      st.mean_partition_items =
          static_cast<double>(st.left_items + st.right_items) /
          static_cast<double>(st.nonempty_partitions);
    }
    st.replicated_entry_bytes =
        (st.left_items - st.left_tuples + st.right_items - st.right_tuples) *
        static_cast<int64_t>(4 * sizeof(double) + sizeof(uint32_t));
  }

  /// What a sweep task's body drives: units of buckets sorted and swept
  /// together (a PBSM partition, a two-layer tile), and bucket-pair sweeps
  /// within them. Charges land on the task's clock in a fixed sequence:
  /// each unit's sort, then its exact tests batch by batch as candidates
  /// flush; the task's pair compares follow as one batched charge.
  class TaskSweeper {
   public:
    TaskSweeper(const PartitionedJoin& join, const ExecContext& task_ctx,
                SweepScratch& scratch, SweepTask* task)
        : join_(join), task_ctx_(task_ctx), scratch_(scratch), task_(task) {}

    /// Starts the unit of buckets [first, first + count). If both sides
    /// have entries there, charges the unit's sort — n·log2(n+1) compares
    /// per non-empty list, left before right, bucket by bucket — and
    /// returns true; otherwise it charges nothing and returns false.
    bool BeginUnit(size_t first, size_t count) const {
      const SideParts& lp = join_.left_parts_;
      const SideParts& rp = join_.right_parts_;
      size_t l_total = 0, r_total = 0;
      for (size_t k = first; k < first + count; ++k) {
        l_total += lp.count(k);
        r_total += rp.count(k);
      }
      if (l_total == 0 || r_total == 0) return false;
      double sort_charge = 0.0;
      for (size_t k = first; k < first + count; ++k) {
        for (const SideParts* side : {&lp, &rp}) {
          const double n = static_cast<double>(side->count(k));
          if (n > 0) sort_charge += n * std::log2(n + 1);
        }
      }
      task_ctx_.ChargeCpu(sort_charge * sim::cpu_cost::kCompare);
      return true;
    }

    /// Sweeps bucket `lk`'s left list against bucket `rk`'s right list and
    /// flushes the candidates.
    void Sweep(size_t lk, size_t rk) const {
      const SideParts& lp = join_.left_parts_;
      const SideParts& rp = join_.right_parts_;
      const size_t ln = lp.count(lk);
      const size_t rn = rp.count(rk);
      if (ln == 0 || rn == 0) return;
      scratch_.ls.GatherPresorted(join_.left_cols_, &lp.rows[lp.begin(lk)],
                                  ln);
      scratch_.rs.GatherPresorted(join_.right_cols_, &rp.rows[rp.begin(rk)],
                                  rn);
      task_->compares += join_kernel::SweepForCandidates(
          scratch_.ls, scratch_.rs, &scratch_.batch);
      scratch_.batch.Flush();
    }

   private:
    const PartitionedJoin& join_;
    const ExecContext& task_ctx_;
    SweepScratch& scratch_;
    SweepTask* task_;
  };

  /// Runs `num_tasks` sweep tasks — on the pool when it has workers
  /// (partition-to-threads), each on a task-local clock and output — and
  /// merges them. `run_task(t, sweeper)` drives task t's sweeps and returns
  /// whether the task counts as run. Each flushed batch passes through the
  /// reference-point filter `make_filter(t)`, a `keep(rx, ry)` test on the
  /// intersection's lower-left corner, unless make_filter returns nullptr;
  /// survivors go to the exact-geometry pass. The merge runs in task
  /// order: the first failure wins, charges fold into the node clock in
  /// one fixed sequence, counters sum, outputs concatenate — so results,
  /// charges and counters depend only on the task decomposition, never on
  /// which thread ran which task when.
  template <typename MakeFilter, typename TaskFn>
  StatusOr<TupleVec> SweepTasks(size_t num_tasks, const MakeFilter& make_filter,
                                const TaskFn& run_task) const {
    std::vector<SweepTask> tasks(num_tasks);
    ForEachTask(ctx_.pool, num_tasks, [&](size_t t) {
      SweepTask& task = tasks[t];
      sim::NodeClock task_clock;
      const ExecContext task_ctx = TaskContext(ctx_, &task_clock);
      SweepScratch& scratch = t_sweep_scratch;
      scratch.batch.set_flush(
          MakeFlush(make_filter(t), task_ctx, scratch, &task));
      task.ran = run_task(t, TaskSweeper(*this, task_ctx, scratch, &task));
      task_ctx.ChargeCpuOps(task.compares, sim::cpu_cost::kCompare);
      task.usage = task_clock.EndPhase();
    });

    for (SweepTask& task : tasks) {
      PARADISE_RETURN_IF_ERROR(std::move(task.status));
    }
    TupleVec out;
    int64_t ran = 0;
    PbsmJoinStats* st = ctx_.pbsm_stats;
    for (SweepTask& task : tasks) {
      if (task.ran) ++ran;
      ctx_.ChargeUsage(task.usage);
      if (st != nullptr) {
        st->sweep_pair_compares += task.compares;
        st->sweep_candidates += task.candidates;
        st->exact_tests += task.exact_tests;
        st->dedup_tests += task.dedup_tests;
        st->dedup_dropped += task.dedup_dropped;
      }
      for (Tuple& t : task.out) out.push_back(std::move(t));
    }
    if (st != nullptr) {
      const bool pooled = ctx_.pool != nullptr && ctx_.pool->num_threads() > 1;
      st->parallel_tasks = pooled ? ran : 0;
    }
    return out;
  }

 private:
  template <typename EmitFn>
  void DistributeSide(const join_kernel::MbrColumns& cols,
                      const std::vector<uint32_t>& order, size_t num_buckets,
                      EmitFn& emit, SideParts* parts) const {
    const size_t n = cols.size();
    ctx_.ChargeCpuOps(static_cast<int64_t>(n), sim::cpu_cost::kTupleOverhead);
    std::vector<uint32_t> entry_key, entry_row;
    entry_key.reserve(n + n / 4);
    entry_row.reserve(n + n / 4);
    std::vector<size_t> counts(num_buckets, 0);
    for (const uint32_t i : order) {
      emit(cols, i, [&](size_t key) {
        entry_key.push_back(static_cast<uint32_t>(key));
        entry_row.push_back(i);
        ++counts[key];
      });
    }
    // Prefix sums into the offsets; each count becomes its bucket's
    // running write cursor in place.
    parts->offsets.assign(num_buckets + 1, 0);
    for (size_t k = 0; k < num_buckets; ++k) {
      parts->offsets[k + 1] = parts->offsets[k] + counts[k];
      counts[k] = parts->offsets[k];
    }
    parts->rows.resize(entry_row.size());
    for (size_t e = 0; e < entry_row.size(); ++e) {
      parts->rows[counts[entry_key[e]]++] = entry_row[e];
    }
  }

  /// The task's flush: the filter (if any), then the batched exact pass.
  template <typename Filter>
  join_kernel::CandidateBatch::FlushFn MakeFlush(Filter keep,
                                                 const ExecContext& task_ctx,
                                                 SweepScratch& scratch,
                                                 SweepTask* task) const {
    return [this, keep, &task_ctx, &scratch, task](
               const join_kernel::Candidate* cands, size_t n) {
      constexpr bool kFiltered = !std::is_null_pointer_v<Filter>;
      const join_kernel::SweepSide& ls = scratch.ls;
      const join_kernel::SweepSide& rs = scratch.rs;
      std::vector<join_kernel::OrdinalPair>& survivors = scratch.survivors;
      task->candidates += static_cast<int64_t>(n);
      survivors.clear();
      for (size_t t = 0; t < n; ++t) {
        const uint32_t lp = cands[t].left_pos;
        const uint32_t rp = cands[t].right_pos;
        if constexpr (kFiltered) {
          if (!keep(std::max(ls.xlo()[lp], rs.xlo()[rp]),
                    std::max(ls.ylo()[lp], rs.ylo()[rp]))) {
            continue;
          }
        }
        survivors.push_back({ls.ordinal(lp), rs.ordinal(rp)});
      }
      if constexpr (kFiltered) {
        task->dedup_tests += static_cast<int64_t>(n);
        task->dedup_dropped +=
            static_cast<int64_t>(n) - static_cast<int64_t>(survivors.size());
      }
      task->exact_tests += static_cast<int64_t>(survivors.size());
      if (!task->status.ok() || survivors.empty()) return;
      task->status = join_kernel::ExactJoinBatch(
          left_, left_col_, right_, right_col_, survivors.data(),
          survivors.size(), task_ctx, &task->out);
    };
  }

  const TupleVec& left_;
  const TupleVec& right_;
  size_t left_col_, right_col_;
  const ExecContext& ctx_;
  join_kernel::MbrColumns left_cols_, right_cols_;
  // Both sides' sweep orders live until the join ends although only the
  // distribute reads them: freeing each right after its side let malloc
  // trim the heap between the sides and more than doubled the minor page
  // faults of a 6k × 6k two-layer join on 100 × 100 tiles (126 → 281).
  std::vector<uint32_t> left_order_, right_order_;
  SideParts left_parts_, right_parts_;
};

/// PBSM over one grid: the bucket is the partition, every partition is
/// one task with one sweep, and the flush keeps a pair only in the
/// partition owning the cell that contains its intersection's lower-left
/// corner. `GridT` is Grid (uniform) or NonUniformGrid (tuned); both
/// expose the same CellOf/CellRange contract, so the distribute and the
/// reference-point rule agree. `cells_axis_stat` is only reported.
template <typename GridT, typename PartFn>
StatusOr<TupleVec> RunPbsm(PartitionedJoin& join, size_t P,
                           size_t cells_axis_stat, const GridT& grid,
                           const PartFn& partition_of_cell) {
  // Each MBR goes to every partition its cells map to. The duplicate guard
  // is an epoch-stamped array: bumping the epoch retires every stamp at
  // once, instead of an O(P) refill per tuple — and only runs for the rare
  // MBR spanning more than one cell.
  std::vector<uint32_t> seen_epoch(P, 0);
  uint32_t epoch = 0;
  auto emit = [&](const join_kernel::MbrColumns& cols, uint32_t i,
                  const auto& push) {
    size_t cx0, cy0, cx1, cy1;
    grid.CellRange(cols.xlo[i], cols.ylo[i], cols.xhi[i], cols.yhi[i], &cx0,
                   &cy0, &cx1, &cy1);
    if (cx0 == cx1 && cy0 == cy1) {
      push(partition_of_cell(cy0 * grid.cells_x + cx0));
      return;
    }
    ++epoch;
    for (size_t cy = cy0; cy <= cy1; ++cy) {
      for (size_t cx = cx0; cx <= cx1; ++cx) {
        const size_t p = partition_of_cell(cy * grid.cells_x + cx);
        if (seen_epoch[p] != epoch) {
          seen_epoch[p] = epoch;
          push(p);
        }
      }
    }
  };
  join.Distribute(P, emit);

  std::vector<int64_t> loads(P);
  for (size_t p = 0; p < P; ++p) {
    loads[p] = static_cast<int64_t>(join.left_parts().count(p) +
                                    join.right_parts().count(p));
  }
  join.RecordShape(cells_axis_stat, loads);

  auto make_filter = [&grid, &partition_of_cell](size_t p) {
    return [&grid, &partition_of_cell, p](double rx, double ry) {
      return partition_of_cell(grid.CellOf(rx, ry)) == p;
    };
  };
  return join.SweepTasks(
      P, make_filter, [](size_t p, const PartitionedJoin::TaskSweeper& s) {
        if (!s.BeginUnit(p, 1)) return false;
        s.Sweep(p, p);
        return true;
      });
}

}  // namespace

bool AdaptiveCellGrid::Valid(size_t num_partitions) const {
  if (x_edges.size() < 2 || y_edges.size() < 2) return false;
  for (size_t i = 1; i < x_edges.size(); ++i) {
    if (!(x_edges[i] > x_edges[i - 1])) return false;
  }
  for (size_t i = 1; i < y_edges.size(); ++i) {
    if (!(y_edges[i] > y_edges[i - 1])) return false;
  }
  if (cell_part.size() != cells_x() * cells_y()) return false;
  for (uint32_t p : cell_part) {
    if (p >= num_partitions) return false;
  }
  return true;
}

StatusOr<TupleVec> PbsmSpatialJoin(const TupleVec& left, size_t left_col,
                                   const TupleVec& right, size_t right_col,
                                   const ExecContext& ctx,
                                   const PbsmOptions& options) {
  // Reset the stats sink up front: a sink reused across queries must
  // describe *this* join, even when an empty input short-circuits below —
  // otherwise the previous query's partition/replication stats leak into
  // this one's report.
  if (ctx.pbsm_stats != nullptr) ctx.pbsm_stats->Clear();
  if (left.empty() || right.empty()) return TupleVec{};

  const size_t P = std::max<size_t>(1, options.num_partitions);
  const AdaptiveCellGrid* tuned = options.adaptive;
  if (tuned != nullptr && !tuned->Valid(P)) {
    return Status::InvalidArgument(
        "PbsmSpatialJoin: PbsmOptions::adaptive is not a valid grid for "
        "num_partitions");
  }
  PartitionedJoin join(left, left_col, right, right_col, ctx);
  const Box universe = join.GatherMbrs(Box::Empty());

  if (tuned != nullptr) {
    const NonUniformGrid grid(*tuned);
    return RunPbsm(join, P, std::max(grid.cells_x, grid.cells_y), grid,
                   [tuned](size_t c) -> size_t { return tuned->cell_part[c]; });
  }

  size_t cells_axis = options.cells_per_axis;
  if (cells_axis == 0) {
    cells_axis = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(std::sqrt(16.0 * P))));
  }
  const Grid grid(universe, cells_axis, cells_axis);
  // Small grids get the cell->partition map precomputed: the distribute
  // loop and the reference-point filter call it per cell visit, and a
  // table lookup beats re-running the block hash every time. Same pure
  // function either way.
  std::vector<uint32_t> cell_part;
  if (cells_axis * cells_axis <= (1u << 16)) {
    cell_part.resize(cells_axis * cells_axis);
    for (size_t c = 0; c < cell_part.size(); ++c) {
      cell_part[c] = static_cast<uint32_t>(PartitionOfCell(c, cells_axis, P));
    }
  }
  auto partition_of_cell = [&cell_part, cells_axis, P](size_t c) -> size_t {
    if (!cell_part.empty()) return cell_part[c];
    return PartitionOfCell(c, cells_axis, P);
  };
  return RunPbsm(join, P, cells_axis, grid, partition_of_cell);
}

StatusOr<TupleVec> TwoLayerSpatialJoin(const TupleVec& left, size_t left_col,
                                       const TupleVec& right, size_t right_col,
                                       const ExecContext& ctx,
                                       const TwoLayerOptions& options) {
  if (ctx.pbsm_stats != nullptr) ctx.pbsm_stats->Clear();
  PARADISE_CHECK(options.tiles_per_axis > 0);
  const uint32_t T = options.tiles_per_axis;
  const size_t num_tiles = static_cast<size_t>(T) * T;
  PARADISE_CHECK(options.owned == nullptr ||
                 options.owned->size() == num_tiles);
  if (left.empty() || right.empty()) return TupleVec{};

  PartitionedJoin join(left, left_col, right, right_col, ctx);
  const TileGrid grid(join.GatherMbrs(options.universe), T);

  // Dense ids for the owned tiles; everything downstream is keyed by
  // dense_tile * 4 + class, so unowned tiles cost nothing.
  std::vector<int32_t> tile_dense(num_tiles, -1);
  size_t num_dense = 0;
  for (size_t t = 0; t < num_tiles; ++t) {
    if (options.owned == nullptr || (*options.owned)[t] != 0) {
      tile_dense[t] = static_cast<int32_t>(num_dense++);
    }
  }
  if (num_dense == 0) return TupleVec{};

  // Bucket = (owned tile, begin class). Unlike PBSM's cell→partition map
  // there is no duplicate guard: a tile is visited at most once per MBR by
  // construction.
  auto emit = [&](const join_kernel::MbrColumns& cols, uint32_t i,
                  const auto& push) {
    uint32_t cx0, cy0, cx1, cy1;
    grid.Range(cols.xlo[i], cols.ylo[i], cols.xhi[i], cols.yhi[i], &cx0, &cy0,
               &cx1, &cy1);
    for (uint32_t cy = cy0; cy <= cy1; ++cy) {
      for (uint32_t cx = cx0; cx <= cx1; ++cx) {
        const int32_t dense = tile_dense[static_cast<size_t>(cy) * T + cx];
        if (dense < 0) continue;
        const uint32_t cls = (cx != cx0 ? 1u : 0u) | (cy != cy1 ? 2u : 0u);
        push(static_cast<size_t>(dense) * 4 + cls);
      }
    }
  };
  join.Distribute(num_dense * 4, emit);
  const SideParts& left_parts = join.left_parts();
  const SideParts& right_parts = join.right_parts();

  // Pack owned tiles into sweep-task groups by combined entry load. The
  // group count and assignment are pure functions of the data and the
  // options — never of the thread count.
  std::vector<int64_t> tile_loads(num_dense, 0);
  int64_t total_entries = 0;
  for (size_t d = 0; d < num_dense; ++d) {
    for (size_t c = 0; c < 4; ++c) {
      tile_loads[d] +=
          static_cast<int64_t>(left_parts.count(d * 4 + c)) +
          static_cast<int64_t>(right_parts.count(d * 4 + c));
    }
    total_entries += tile_loads[d];
  }
  const size_t G =
      std::max<size_t>(1, std::min(options.num_tasks, num_dense));
  std::vector<uint32_t> tile_group;
  if (options.group_packer != nullptr) {
    tile_group = options.group_packer(tile_loads, G);
    PARADISE_CHECK(tile_group.size() == num_dense);
  } else {
    // Contiguous prefix packing: close a group once it reaches its equal
    // share of the total load.
    tile_group.resize(num_dense);
    const int64_t share = (total_entries + static_cast<int64_t>(G) - 1) /
                          static_cast<int64_t>(G);
    size_t g = 0;
    int64_t acc = 0;
    for (size_t d = 0; d < num_dense; ++d) {
      tile_group[d] = static_cast<uint32_t>(g);
      acc += tile_loads[d];
      if (acc >= share && g + 1 < G) {
        ++g;
        acc = 0;
      }
    }
  }
  std::vector<std::vector<uint32_t>> group_tiles(G);
  std::vector<int64_t> group_loads(G, 0);
  for (size_t d = 0; d < num_dense; ++d) {
    PARADISE_CHECK(tile_group[d] < G);
    group_tiles[tile_group[d]].push_back(static_cast<uint32_t>(d));
    group_loads[tile_group[d]] += tile_loads[d];
  }

  join.RecordShape(T, group_loads);
  if (ctx.pbsm_stats != nullptr) {
    PbsmJoinStats& st = *ctx.pbsm_stats;
    int64_t* census[4] = {&st.class_a_items, &st.class_b_items,
                          &st.class_c_items, &st.class_d_items};
    for (size_t d = 0; d < num_dense; ++d) {
      for (size_t c = 0; c < 4; ++c) {
        *census[c] += static_cast<int64_t>(left_parts.count(d * 4 + c)) +
                      static_cast<int64_t>(right_parts.count(d * 4 + c));
      }
    }
  }

  // Per group task, each owned tile with entries on both sides runs its
  // nine class-pair mini-joins as separate sweeps over the
  // class-contiguous presorted lists. Every MBR-overlapping candidate goes
  // straight to the exact pass — no reference-point filter, so
  // `dedup_tests` and `dedup_dropped` stay zero.
  return join.SweepTasks(
      G, [](size_t) { return nullptr; },
      [&](size_t g, const PartitionedJoin::TaskSweeper& s) {
        bool productive = false;
        for (uint32_t d : group_tiles[g]) {
          if (tile_loads[d] > 0) productive = true;
          if (!s.BeginUnit(d * 4, 4)) continue;
          for (const auto& mj : kMiniJoins) {
            s.Sweep(d * 4 + static_cast<size_t>(mj.l),
                    d * 4 + static_cast<size_t>(mj.r));
          }
        }
        return productive;
      });
}

void IndexProbeCharger::ChargeVisits(int64_t visited) {
  int64_t cold = std::min(visited, cold_remaining_);
  cold_remaining_ -= cold;
  if (ctx_.clock != nullptr && cold > 0) {
    ctx_.clock->ChargeDiskRead(cold * storage::kPageSize, cold);
  }
  ctx_.ChargeCpu(static_cast<double>(visited - cold) *
                 sim::cpu_cost::kIndexNodeVisit);
}

StatusOr<TupleVec> IndexSpatialJoin(const TupleVec& outer, size_t outer_col,
                                    const TupleVec& inner, size_t inner_col,
                                    const index::RStarTree& inner_index,
                                    const ExecContext& ctx) {
  TupleVec out;
  if (outer.empty()) return out;

  // Fixed chunk size: the decomposition (and with it every charge
  // boundary) must not depend on how many threads happen to exist.
  constexpr size_t kChunk = 256;
  const size_t num_chunks = (outer.size() + kChunk - 1) / kChunk;

  // Each chunk probes the (read-only) tree independently: probe CPU and
  // exact-test charges land on a task-local clock, while the number of
  // index nodes each probe visited is recorded for later. The stateful
  // cold-page accounting (IndexProbeCharger) cannot run concurrently
  // without making the cold/warm split schedule-dependent, so it is
  // replayed sequentially, in chunk order, at the merge below.
  struct ChunkTask {
    Status status = Status::OK();
    TupleVec out;
    sim::ResourceUsage usage;
    std::vector<int64_t> probe_visits;  // index nodes seen, per outer tuple
  };
  // One SoA snapshot of the (immutable during the join) tree, shared
  // read-only by every chunk: probes scan flat coordinate arrays instead
  // of pointer-chasing Entry records. Same traversal, same visit counts.
  index::RStarTree::FlatView flat_index(inner_index);

  std::vector<ChunkTask> tasks(num_chunks);
  auto probe_chunk = [&](size_t c) {
    ChunkTask& task = tasks[c];
    sim::NodeClock task_clock;
    ExecContext task_ctx = TaskContext(ctx, &task_clock);
    const size_t lo = c * kChunk;
    const size_t hi = std::min(outer.size(), lo + kChunk);
    task.probe_visits.reserve(hi - lo);
    // Per-tuple probe overhead for the whole chunk as one batched charge
    // (both constants are integer-valued, so the total is bit-identical
    // to the per-tuple sequence).
    task_ctx.ChargeCpuOps(
        static_cast<int64_t>(hi - lo),
        sim::cpu_cost::kTupleOverhead + sim::cpu_cost::kIndexProbe);
    index::RStarTree::FlatView::ProbeStack stack;
    std::vector<join_kernel::OrdinalPair> candidates;
    for (size_t i = lo; i < hi; ++i) {
      Box probe = outer[i].at(outer_col).Mbr();
      int64_t nodes = 0;
      flat_index.ForEachOverlap(
          probe,
          [&candidates, i](const Box&, uint64_t row) {
            // Tree ids are row indices into `inner` (< 2^32 rows).
            candidates.push_back({static_cast<uint32_t>(i),
                                  static_cast<uint32_t>(row)});
            return true;
          },
          &nodes, &stack);
      task.probe_visits.push_back(nodes);
    }
    // Batched exact pass over the chunk's candidates, in probe order —
    // the same pair order and charge order the interleaved loop had.
    task.status = join_kernel::ExactJoinBatch(outer, outer_col, inner,
                                              inner_col, candidates.data(),
                                              candidates.size(), task_ctx,
                                              &task.out);
    task.usage = task_clock.EndPhase();
  };
  ForEachTask(ctx.pool, num_chunks, probe_chunk);

  // Deterministic merge in chunk order: fold task charges, replay the
  // cold/warm index charging over the recorded visit counts (identical to
  // the serial probe sequence), concatenate outputs.
  for (size_t c = 0; c < num_chunks; ++c) {
    PARADISE_RETURN_IF_ERROR(std::move(tasks[c].status));
  }
  IndexProbeCharger charger(ctx, inner_index.num_nodes());
  for (size_t c = 0; c < num_chunks; ++c) {
    ChunkTask& task = tasks[c];
    ctx.ChargeUsage(task.usage);
    for (int64_t visited : task.probe_visits) charger.ChargeVisits(visited);
    for (Tuple& t : task.out) out.push_back(std::move(t));
  }
  return out;
}

StatusOr<ClosestMatch> ExpandingCircleClosest(const Point& point,
                                              const TupleVec& targets,
                                              size_t shape_col,
                                              const index::RStarTree& index,
                                              double universe_area,
                                              const ExecContext& ctx) {
  ClosestMatch best;
  if (targets.empty()) return best;

  // Initial circle: one millionth of the universe's area.
  double radius = std::sqrt(universe_area / 1e6 / M_PI);
  double universe_radius = std::sqrt(universe_area);  // generous cover bound
  Value point_value(point);

  while (true) {
    ++best.probes;
    ctx.ChargeCpu(sim::cpu_cost::kIndexProbe);
    int64_t nodes = 0;
    double best_d = std::numeric_limits<double>::infinity();
    size_t best_row = 0;
    index.SearchCircle(
        Circle(point, radius),
        [&](const Box&, uint64_t row) {
          const Tuple& t = targets[row];
          auto d_or = SpatialDistance(point_value, t.at(shape_col), ctx);
          if (d_or.ok() && *d_or < best_d) {
            best_d = *d_or;
            best_row = row;
          }
          return true;
        },
        &nodes);
    // The tree is memory resident (built on the fly from redistributed
    // tuples), so probing costs CPU, not I/O.
    ctx.ChargeCpu(static_cast<double>(nodes) * sim::cpu_cost::kIndexNodeVisit);
    if (best_d <= radius) {
      best.found = true;
      best.row = best_row;
      best.distance = best_d;
      return best;
    }
    if (radius > universe_radius) break;
    radius *= std::sqrt(2.0);  // double the circle's area
  }

  // Fall back to a full scan (the circle escaped the universe).
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < targets.size(); ++i) {
    ctx.ChargeCpu(sim::cpu_cost::kTupleOverhead);
    PARADISE_ASSIGN_OR_RETURN(
        double d, SpatialDistance(point_value, targets[i].at(shape_col), ctx));
    if (d < best_d) {
      best_d = d;
      best.row = i;
      best.found = true;
    }
  }
  best.distance = best_d;
  return best;
}

std::unique_ptr<index::RStarTree> BuildRTreeOnColumn(const TupleVec& tuples,
                                                     size_t shape_col,
                                                     const ExecContext& ctx) {
  ctx.ChargeCpu(static_cast<double>(tuples.size()) *
                (sim::cpu_cost::kTupleOverhead + sim::cpu_cost::kHash));
  std::vector<std::pair<Box, uint64_t>> entries;
  entries.reserve(tuples.size());
  for (uint64_t i = 0; i < tuples.size(); ++i) {
    entries.emplace_back(tuples[i].at(shape_col).Mbr(), i);
  }
  if (ctx.clock != nullptr && !tuples.empty()) {
    double n = static_cast<double>(tuples.size());
    ctx.clock->ChargeCpu(n * std::log2(n + 1) * sim::cpu_cost::kCompare);
  }
  return index::RStarTree::BulkLoadStr(std::move(entries));
}

}  // namespace paradise::exec
