#include "exec/spatial_join.h"

#include <algorithm>
#include <cmath>

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

/// Cells per block side for CellMap::kBlockHash. Small enough that one
/// clustered query region still spans several blocks, large enough that
/// the round-robin inside a block covers many partitions.
constexpr size_t kCellBlock = 4;

/// Cell→partition map. Must be a pure function of (cell, P) — the
/// distribute phase and the reference-point duplicate-elimination rule
/// both evaluate it and must agree.
size_t PartitionOfCell(size_t cell, size_t cells_axis, size_t P,
                       PbsmOptions::CellMap map) {
  if (map == PbsmOptions::CellMap::kModulo) return cell % P;
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

/// Non-uniform grid over tuned cell boundaries (CellMap::kAdaptive).
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

/// One side's partition assignment in CSR form: `rows` holds tuple
/// ordinals grouped by partition (replicas included), `offsets[p] ..
/// offsets[p+1]` delimits partition p. Built by a stable counting sort
/// over a side argsorted by (xlo, ordinal), so each partition's rows are
/// already in sweep order.
struct SideParts {
  std::vector<uint32_t> rows;
  std::vector<size_t> offsets;

  size_t begin(size_t p) const { return offsets[p]; }
  size_t count(size_t p) const { return offsets[p + 1] - offsets[p]; }
};

/// Per-thread sweep buffers, reused across the partitions a worker runs:
/// every field is fully rewritten before use, so reuse affects only
/// allocation traffic, never results or charges. Each sweep task binds
/// `batch` to its own flush callback and flushes it after every sweep, so
/// flush boundaries match a fresh batch per sweep.
struct SweepScratch {
  join_kernel::SweepSide ls, rs;
  std::vector<join_kernel::AosItem> l_items, r_items;
  std::vector<join_kernel::OrdinalPair> survivors;
  join_kernel::CandidateBatch batch{join_kernel::kCandidateBatchSize};
};
thread_local SweepScratch t_sweep_scratch;

/// The grid-parametric join body: everything after universe/grid setup.
/// `GridT` is Grid (uniform) or NonUniformGrid (tuned boundaries); both
/// expose the same CellOf/CellRange contract, so the distribute phase and
/// the reference-point duplicate-elimination rule stay in agreement.
/// `cells_axis_stat` is only reported in stats.
template <typename GridT, typename PartFn>
StatusOr<TupleVec> PbsmJoinBody(const TupleVec& left, size_t left_col,
                                const TupleVec& right, size_t right_col,
                                const ExecContext& ctx,
                                const PbsmOptions& options,
                                const join_kernel::MbrColumns& left_cols,
                                const join_kernel::MbrColumns& right_cols,
                                size_t P, size_t cells_axis_stat,
                                const GridT& grid,
                                const PartFn& partition_of_cell) {
  TupleVec out;
  // Each side's ordinals argsorted by (xlo, ordinal), once, globally. The
  // distribute below walks rows in this order and its counting sort is
  // stable, so every partition's row list comes out already in sweep
  // order — the per-partition sorts the sweep would otherwise run are
  // replaced by two sorts of the whole side. The modeled sort charge is
  // unchanged: it is computed per partition from the partition sizes, not
  // from how the host happens to sort.
  const std::vector<uint32_t> left_order =
      join_kernel::ArgsortByXlo(left_cols);
  const std::vector<uint32_t> right_order =
      join_kernel::ArgsortByXlo(right_cols);

  // Phase 1: replicate each tuple's ordinal into every partition whose
  // cells its MBR overlaps, in CSR form (counting sort — no per-partition
  // vector growth). Runs on the calling thread; the per-tuple overhead is
  // replayed as one batched charge, identical to the per-tuple sequence
  // because kTupleOverhead is integer-valued. The duplicate guard is an
  // epoch-stamped array: bumping the epoch retires every stamp at once,
  // instead of an O(P) refill per tuple — and only runs for the rare MBR
  // spanning more than one cell; a single-cell MBR maps to exactly one
  // partition.
  auto distribute = [&](const join_kernel::MbrColumns& cols,
                        const std::vector<uint32_t>& order,
                        SideParts* parts) {
    const size_t n = cols.size();
    ctx.ChargeCpuOps(static_cast<int64_t>(n), sim::cpu_cost::kTupleOverhead);
    std::vector<uint32_t> entry_part, entry_row;
    entry_part.reserve(n + n / 4);
    entry_row.reserve(n + n / 4);
    std::vector<size_t> counts(P, 0);
    std::vector<uint32_t> seen_epoch(P, 0);
    uint32_t epoch = 0;
    for (size_t r = 0; r < n; ++r) {
      const uint32_t i = order[r];
      size_t cx0, cy0, cx1, cy1;
      grid.CellRange(cols.xlo[i], cols.ylo[i], cols.xhi[i], cols.yhi[i],
                     &cx0, &cy0, &cx1, &cy1);
      if (cx0 == cx1 && cy0 == cy1) {
        size_t p = partition_of_cell(cy0 * grid.cells_x + cx0);
        entry_part.push_back(static_cast<uint32_t>(p));
        entry_row.push_back(i);
        ++counts[p];
        continue;
      }
      ++epoch;
      for (size_t cy = cy0; cy <= cy1; ++cy) {
        for (size_t cx = cx0; cx <= cx1; ++cx) {
          size_t p = partition_of_cell(cy * grid.cells_x + cx);
          if (seen_epoch[p] != epoch) {
            seen_epoch[p] = epoch;
            entry_part.push_back(static_cast<uint32_t>(p));
            entry_row.push_back(i);
            ++counts[p];
          }
        }
      }
    }
    parts->offsets.assign(P + 1, 0);
    for (size_t p = 0; p < P; ++p) {
      parts->offsets[p + 1] = parts->offsets[p] + counts[p];
    }
    parts->rows.resize(entry_row.size());
    std::vector<size_t> cursor(parts->offsets.begin(),
                               parts->offsets.end() - 1);
    for (size_t e = 0; e < entry_row.size(); ++e) {
      parts->rows[cursor[entry_part[e]]++] = entry_row[e];
    }
  };
  SideParts left_parts, right_parts;
  distribute(left_cols, left_order, &left_parts);
  distribute(right_cols, right_order, &right_parts);

  if (ctx.pbsm_stats != nullptr) {
    PbsmJoinStats& st = *ctx.pbsm_stats;
    st.partitions = P;
    st.cells_per_axis = cells_axis_stat;
    st.left_tuples = static_cast<int64_t>(left.size());
    st.right_tuples = static_cast<int64_t>(right.size());
    st.left_items = st.right_items = st.max_partition_items = 0;
    st.mean_partition_items = 0.0;
    st.nonempty_partitions = 0;
    st.parallel_tasks = 0;
    size_t nonempty = 0;
    for (size_t p = 0; p < P; ++p) {
      int64_t l = static_cast<int64_t>(left_parts.count(p));
      int64_t r = static_cast<int64_t>(right_parts.count(p));
      st.left_items += l;
      st.right_items += r;
      st.max_partition_items = std::max(st.max_partition_items, l + r);
      if (l + r > 0) ++nonempty;
    }
    st.nonempty_partitions = static_cast<int64_t>(nonempty);
    if (nonempty > 0) {
      st.mean_partition_items =
          static_cast<double>(st.left_items + st.right_items) /
          static_cast<double>(nonempty);
    }
    st.replicated_entry_bytes =
        (st.left_items - st.left_tuples + st.right_items - st.right_tuples) *
        static_cast<int64_t>(4 * sizeof(double) + sizeof(uint32_t));
  }

  // Phase 2: per partition, forward plane sweep on xmin for candidate
  // pairs — through the SoA kernel by default, the AoS layout for
  // ablation. Partition-to-threads: every partition is one task with its
  // own clock and output vector, merged in partition order after the
  // barrier — so the charge totals and the result order depend only on
  // the partition decomposition, never on which thread ran which
  // partition when. Within a task the charge sequence is: sort, then the
  // exact-test charges batch by batch as candidates flush, then the
  // sweep's pair compares as one batched charge — a fixed sequence whose
  // total equals the old interleaved per-encounter charging (all
  // per-item constants are integer-valued).
  struct PartitionTask {
    Status status = Status::OK();
    TupleVec out;
    sim::ResourceUsage usage;
    int64_t compares = 0;
    int64_t candidates = 0;
    int64_t exact_tests = 0;
    int64_t dedup_dropped = 0;
  };
  std::vector<PartitionTask> tasks(P);
  const bool use_soa =
      options.sweep_kernel == PbsmOptions::SweepKernel::kSoa;
  auto sweep_partition = [&](size_t p) {
    PartitionTask& task = tasks[p];
    const size_t ln = left_parts.count(p);
    const size_t rn = right_parts.count(p);
    if (ln == 0 || rn == 0) return;
    sim::NodeClock task_clock;
    ExecContext task_ctx = TaskContext(ctx, &task_clock);
    const double sort_charge =
        (static_cast<double>(ln) * std::log2(static_cast<double>(ln) + 1) +
         static_cast<double>(rn) * std::log2(static_cast<double>(rn) + 1)) *
        sim::cpu_cost::kCompare;

    // Shared flush: reference-point duplicate elimination over a batch of
    // MBR-overlapping candidates, then the batched exact-geometry pass.
    // The accessors map a sweep position to that side's MBR lower-left
    // corner and source ordinal, so both kernels share one code path.
    SweepScratch& scratch = t_sweep_scratch;
    std::vector<join_kernel::OrdinalPair>& survivors = scratch.survivors;
    join_kernel::CandidateBatch& batch = scratch.batch;
    auto make_flush = [&](auto lxlo_at, auto lylo_at, auto lord_at,
                          auto rxlo_at, auto rylo_at, auto rord_at) {
      return [&, lxlo_at, lylo_at, lord_at, rxlo_at, rylo_at,
              rord_at](const join_kernel::Candidate* cands, size_t n) {
        task.candidates += static_cast<int64_t>(n);
        survivors.clear();
        for (size_t t = 0; t < n; ++t) {
          const uint32_t lp = cands[t].left_pos;
          const uint32_t rp = cands[t].right_pos;
          // Only the partition owning the cell that contains the
          // intersection's lower-left corner reports the pair.
          double rx = std::max(lxlo_at(lp), rxlo_at(rp));
          double ry = std::max(lylo_at(lp), rylo_at(rp));
          if (partition_of_cell(grid.CellOf(rx, ry)) != p) continue;
          survivors.push_back({lord_at(lp), rord_at(rp)});
        }
        task.dedup_dropped +=
            static_cast<int64_t>(n) - static_cast<int64_t>(survivors.size());
        task.exact_tests += static_cast<int64_t>(survivors.size());
        if (!task.status.ok() || survivors.empty()) return;
        task.status = join_kernel::ExactJoinBatch(
            left, left_col, right, right_col, survivors.data(),
            survivors.size(), task_ctx, &task.out);
      };
    };

    if (use_soa) {
      join_kernel::SweepSide& ls = scratch.ls;
      join_kernel::SweepSide& rs = scratch.rs;
      ls.GatherPresorted(left_cols, &left_parts.rows[left_parts.begin(p)],
                         ln);
      rs.GatherPresorted(right_cols, &right_parts.rows[right_parts.begin(p)],
                         rn);
      task_ctx.ChargeCpu(sort_charge);
      batch.set_flush(
          make_flush([&](uint32_t i) { return ls.xlo()[i]; },
                     [&](uint32_t i) { return ls.ylo()[i]; },
                     [&](uint32_t i) { return ls.ordinal(i); },
                     [&](uint32_t i) { return rs.xlo()[i]; },
                     [&](uint32_t i) { return rs.ylo()[i]; },
                     [&](uint32_t i) { return rs.ordinal(i); }));
      task.compares = join_kernel::SweepForCandidates(ls, rs, &batch);
      batch.Flush();
    } else {
      auto gather_aos = [](const join_kernel::MbrColumns& cols,
                           const uint32_t* rows, size_t n,
                           std::vector<join_kernel::AosItem>* items) {
        items->resize(n);
        for (size_t i = 0; i < n; ++i) {
          (*items)[i] = {cols.BoxAt(rows[i]), rows[i]};
        }
        join_kernel::SortAosByXmin(items);
      };
      std::vector<join_kernel::AosItem>& L = scratch.l_items;
      std::vector<join_kernel::AosItem>& R = scratch.r_items;
      gather_aos(left_cols, &left_parts.rows[left_parts.begin(p)], ln, &L);
      gather_aos(right_cols, &right_parts.rows[right_parts.begin(p)], rn, &R);
      task_ctx.ChargeCpu(sort_charge);
      batch.set_flush(
          make_flush([&](uint32_t i) { return L[i].box.xmin; },
                     [&](uint32_t i) { return L[i].box.ymin; },
                     [&](uint32_t i) { return L[i].ordinal; },
                     [&](uint32_t i) { return R[i].box.xmin; },
                     [&](uint32_t i) { return R[i].box.ymin; },
                     [&](uint32_t i) { return R[i].ordinal; }));
      task.compares = join_kernel::SweepForCandidatesAos(L, R, &batch);
      batch.Flush();
    }
    task_ctx.ChargeCpuOps(task.compares, sim::cpu_cost::kCompare);
    task.usage = task_clock.EndPhase();
  };
  const bool pooled = ctx.pool != nullptr && ctx.pool->num_threads() > 1;
  ForEachTask(ctx.pool, P, sweep_partition);

  // Deterministic merge, in partition order: first failure wins, charges
  // fold into the node clock in one fixed sequence, outputs concatenate.
  int64_t ran = 0;
  for (size_t p = 0; p < P; ++p) {
    PARADISE_RETURN_IF_ERROR(std::move(tasks[p].status));
  }
  for (size_t p = 0; p < P; ++p) {
    PartitionTask& task = tasks[p];
    if (left_parts.count(p) > 0 && right_parts.count(p) > 0) ++ran;
    ctx.ChargeUsage(task.usage);
    if (ctx.pbsm_stats != nullptr) {
      ctx.pbsm_stats->sweep_pair_compares += task.compares;
      ctx.pbsm_stats->sweep_candidates += task.candidates;
      ctx.pbsm_stats->exact_tests += task.exact_tests;
      // Every candidate runs the reference-point test in this mode.
      ctx.pbsm_stats->dedup_tests += task.candidates;
      ctx.pbsm_stats->dedup_dropped += task.dedup_dropped;
    }
    for (Tuple& t : task.out) out.push_back(std::move(t));
  }
  if (ctx.pbsm_stats != nullptr) {
    ctx.pbsm_stats->parallel_tasks = pooled ? ran : 0;
  }
  return out;
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

  TupleVec out;
  if (left.empty() || right.empty()) return out;

  // Universe = union of both inputs' extents. The same pass gathers every
  // tuple's MBR into column-major buffers (exec/join_kernel.h), so
  // `Tuple::at(col).Mbr()` runs once per tuple here and never again inside
  // the hot phases.
  join_kernel::MbrColumns left_cols, right_cols;
  Box universe;
  auto gather_mbrs = [&universe](const TupleVec& tuples, size_t col,
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
      universe.ExpandToInclude(b);
    }
  };
  gather_mbrs(left, left_col, &left_cols);
  gather_mbrs(right, right_col, &right_cols);
  if (universe.Width() <= 0 || universe.Height() <= 0) {
    universe = universe.Inflate(1.0);
  }

  const size_t P = std::max<size_t>(1, options.num_partitions);

  if (options.cell_map == PbsmOptions::CellMap::kAdaptive) {
    const AdaptiveCellGrid* tuned = options.adaptive;
    if (tuned == nullptr || !tuned->Valid(P)) {
      return Status::InvalidArgument(
          "PbsmSpatialJoin: CellMap::kAdaptive needs a valid "
          "PbsmOptions::adaptive grid");
    }
    NonUniformGrid grid(*tuned);
    auto partition_of_cell = [tuned](size_t c) -> size_t {
      return tuned->cell_part[c];
    };
    return PbsmJoinBody(left, left_col, right, right_col, ctx, options,
                        left_cols, right_cols, P,
                        std::max(grid.cells_x, grid.cells_y), grid,
                        partition_of_cell);
  }

  size_t cells_axis = options.cells_per_axis;
  if (cells_axis == 0) {
    cells_axis = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(std::sqrt(16.0 * P))));
  }
  Grid grid(universe, cells_axis, cells_axis);
  // Small grids get the cell->partition map precomputed: the distribute
  // loop and the reference-point filter call it per cell visit, and a
  // table lookup beats re-running the block hash every time. Same pure
  // function either way.
  std::vector<uint32_t> cell_part;
  if (cells_axis * cells_axis <= (1u << 16)) {
    cell_part.resize(cells_axis * cells_axis);
    for (size_t c = 0; c < cell_part.size(); ++c) {
      cell_part[c] =
          static_cast<uint32_t>(PartitionOfCell(c, cells_axis, P,
                                                options.cell_map));
    }
  }
  auto partition_of_cell = [&cell_part, cells_axis, P,
                            map = options.cell_map](size_t c) -> size_t {
    if (!cell_part.empty()) return cell_part[c];
    return PartitionOfCell(c, cells_axis, P, map);
  };
  return PbsmJoinBody(left, left_col, right, right_col, ctx, options,
                      left_cols, right_cols, P, cells_axis, grid,
                      partition_of_cell);
}

namespace {

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

}  // namespace

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

  TupleVec out;
  if (left.empty() || right.empty()) return out;

  join_kernel::MbrColumns left_cols, right_cols;
  Box universe = options.universe;
  const bool auto_universe = universe.IsEmpty();
  auto gather_mbrs = [&universe, auto_universe](const TupleVec& tuples,
                                                size_t col,
                                                join_kernel::MbrColumns* cols) {
    const size_t n = tuples.size();
    cols->Resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (i + 8 < n) __builtin_prefetch(tuples[i + 8].values.data());
      Box b = tuples[i].at(col).Mbr();
      cols->Set(i, b);
      if (auto_universe) universe.ExpandToInclude(b);
    }
  };
  gather_mbrs(left, left_col, &left_cols);
  gather_mbrs(right, right_col, &right_cols);
  if (universe.Width() <= 0 || universe.Height() <= 0) {
    universe = universe.Inflate(1.0);
  }
  const TileGrid grid(universe, T);

  // Dense ids for the owned tiles; everything downstream is keyed by
  // dense_tile * 4 + class, so unowned tiles cost nothing.
  std::vector<int32_t> tile_dense(num_tiles, -1);
  size_t num_dense = 0;
  for (size_t t = 0; t < num_tiles; ++t) {
    if (options.owned == nullptr || (*options.owned)[t] != 0) {
      tile_dense[t] = static_cast<int32_t>(num_dense++);
    }
  }
  if (num_dense == 0) return out;
  const size_t K = num_dense * 4;  // (tile, class) buckets

  // Distribute: each side's ordinals, walked in global (xlo, ordinal)
  // order, are counting-sorted into per-(owned tile, class) CSR lists —
  // stable, so every list arrives presorted for the sweeps. Unlike PBSM's
  // cell→partition map there is no duplicate guard: a tile is visited at
  // most once per MBR by construction.
  const std::vector<uint32_t> left_order = join_kernel::ArgsortByXlo(left_cols);
  const std::vector<uint32_t> right_order =
      join_kernel::ArgsortByXlo(right_cols);
  auto distribute = [&](const join_kernel::MbrColumns& cols,
                        const std::vector<uint32_t>& order, SideParts* parts) {
    const size_t n = cols.size();
    ctx.ChargeCpuOps(static_cast<int64_t>(n), sim::cpu_cost::kTupleOverhead);
    std::vector<uint32_t> entry_key, entry_row;
    entry_key.reserve(n + n / 4);
    entry_row.reserve(n + n / 4);
    std::vector<size_t> counts(K, 0);
    for (size_t r = 0; r < n; ++r) {
      const uint32_t i = order[r];
      uint32_t cx0, cy0, cx1, cy1;
      grid.Range(cols.xlo[i], cols.ylo[i], cols.xhi[i], cols.yhi[i], &cx0,
                 &cy0, &cx1, &cy1);
      for (uint32_t cy = cy0; cy <= cy1; ++cy) {
        for (uint32_t cx = cx0; cx <= cx1; ++cx) {
          const int32_t dense = tile_dense[static_cast<size_t>(cy) * T + cx];
          if (dense < 0) continue;
          const uint32_t cls =
              (cx != cx0 ? 1u : 0u) | (cy != cy1 ? 2u : 0u);
          const uint32_t key = static_cast<uint32_t>(dense) * 4 + cls;
          entry_key.push_back(key);
          entry_row.push_back(i);
          ++counts[key];
        }
      }
    }
    parts->offsets.assign(K + 1, 0);
    for (size_t k = 0; k < K; ++k) {
      parts->offsets[k + 1] = parts->offsets[k] + counts[k];
    }
    parts->rows.resize(entry_row.size());
    std::vector<size_t> cursor(parts->offsets.begin(),
                               parts->offsets.end() - 1);
    for (size_t e = 0; e < entry_row.size(); ++e) {
      parts->rows[cursor[entry_key[e]]++] = entry_row[e];
    }
  };
  SideParts left_parts, right_parts;
  distribute(left_cols, left_order, &left_parts);
  distribute(right_cols, right_order, &right_parts);

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
  for (size_t d = 0; d < num_dense; ++d) {
    PARADISE_CHECK(tile_group[d] < G);
    group_tiles[tile_group[d]].push_back(static_cast<uint32_t>(d));
  }

  if (ctx.pbsm_stats != nullptr) {
    PbsmJoinStats& st = *ctx.pbsm_stats;
    st.partitions = G;
    st.cells_per_axis = T;
    st.left_tuples = static_cast<int64_t>(left.size());
    st.right_tuples = static_cast<int64_t>(right.size());
    st.left_items = static_cast<int64_t>(left_parts.rows.size());
    st.right_items = static_cast<int64_t>(right_parts.rows.size());
    int64_t* census[4] = {&st.class_a_items, &st.class_b_items,
                          &st.class_c_items, &st.class_d_items};
    for (size_t d = 0; d < num_dense; ++d) {
      for (size_t c = 0; c < 4; ++c) {
        *census[c] += static_cast<int64_t>(left_parts.count(d * 4 + c)) +
                      static_cast<int64_t>(right_parts.count(d * 4 + c));
      }
    }
    size_t nonempty = 0;
    for (size_t g = 0; g < G; ++g) {
      int64_t items = 0;
      for (uint32_t d : group_tiles[g]) items += tile_loads[d];
      st.max_partition_items = std::max(st.max_partition_items, items);
      if (items > 0) ++nonempty;
    }
    st.nonempty_partitions = static_cast<int64_t>(nonempty);
    if (nonempty > 0) {
      st.mean_partition_items =
          static_cast<double>(total_entries) / static_cast<double>(nonempty);
    }
    st.replicated_entry_bytes =
        (st.left_items - st.left_tuples + st.right_items - st.right_tuples) *
        static_cast<int64_t>(4 * sizeof(double) + sizeof(uint32_t));
    // The whole point of the class plan: these stay zero.
    st.dedup_tests = 0;
    st.dedup_dropped = 0;
  }

  // Sweep phase: per group task, each owned tile runs its nine class-pair
  // mini-joins as separate sweeps over the class-contiguous presorted
  // lists. Every MBR-overlapping candidate goes straight to the exact
  // pass — no reference-point filter, no hit-bit bookkeeping. Charges:
  // one sort charge per non-empty class list of a productive tile, exact
  // tests batch by batch, then the group's pair compares as one batched
  // charge — all on a task-local clock merged in group order.
  struct GroupTask {
    Status status = Status::OK();
    TupleVec out;
    sim::ResourceUsage usage;
    int64_t compares = 0;
    int64_t candidates = 0;
    int64_t exact_tests = 0;
  };
  std::vector<GroupTask> tasks(G);
  auto sweep_group = [&](size_t g) {
    GroupTask& task = tasks[g];
    sim::NodeClock task_clock;
    ExecContext task_ctx = TaskContext(ctx, &task_clock);
    SweepScratch& scratch = t_sweep_scratch;
    std::vector<join_kernel::OrdinalPair>& pairs = scratch.survivors;
    join_kernel::CandidateBatch& batch = scratch.batch;
    join_kernel::SweepSide& ls = scratch.ls;
    join_kernel::SweepSide& rs = scratch.rs;
    batch.set_flush([&](const join_kernel::Candidate* cands, size_t n) {
      task.candidates += static_cast<int64_t>(n);
      task.exact_tests += static_cast<int64_t>(n);
      if (!task.status.ok() || n == 0) return;
      pairs.clear();
      for (size_t t = 0; t < n; ++t) {
        pairs.push_back({ls.ordinal(cands[t].left_pos),
                         rs.ordinal(cands[t].right_pos)});
      }
      task.status = join_kernel::ExactJoinBatch(
          left, left_col, right, right_col, pairs.data(), n, task_ctx,
          &task.out);
    });
    for (uint32_t d : group_tiles[g]) {
      size_t l_total = 0, r_total = 0;
      for (size_t c = 0; c < 4; ++c) {
        l_total += left_parts.count(d * 4 + c);
        r_total += right_parts.count(d * 4 + c);
      }
      if (l_total == 0 || r_total == 0) continue;
      double sort_charge = 0.0;
      for (size_t c = 0; c < 4; ++c) {
        for (const SideParts* side : {&left_parts, &right_parts}) {
          const double n = static_cast<double>(side->count(d * 4 + c));
          if (n > 0) sort_charge += n * std::log2(n + 1);
        }
      }
      task_ctx.ChargeCpu(sort_charge * sim::cpu_cost::kCompare);
      for (const auto& mj : kMiniJoins) {
        const size_t lk = d * 4 + static_cast<size_t>(mj.l);
        const size_t rk = d * 4 + static_cast<size_t>(mj.r);
        const size_t ln = left_parts.count(lk);
        const size_t rn = right_parts.count(rk);
        if (ln == 0 || rn == 0) continue;
        ls.GatherPresorted(left_cols, &left_parts.rows[left_parts.begin(lk)],
                           ln);
        rs.GatherPresorted(right_cols,
                           &right_parts.rows[right_parts.begin(rk)], rn);
        task.compares += join_kernel::SweepForCandidates(ls, rs, &batch);
        batch.Flush();
      }
    }
    task_ctx.ChargeCpuOps(task.compares, sim::cpu_cost::kCompare);
    task.usage = task_clock.EndPhase();
  };
  const bool pooled = ctx.pool != nullptr && ctx.pool->num_threads() > 1;
  ForEachTask(ctx.pool, G, sweep_group);

  int64_t ran = 0;
  for (size_t g = 0; g < G; ++g) {
    PARADISE_RETURN_IF_ERROR(std::move(tasks[g].status));
  }
  for (size_t g = 0; g < G; ++g) {
    GroupTask& task = tasks[g];
    bool productive = false;
    for (uint32_t d : group_tiles[g]) {
      if (tile_loads[d] > 0) productive = true;
    }
    if (productive) ++ran;
    ctx.ChargeUsage(task.usage);
    if (ctx.pbsm_stats != nullptr) {
      ctx.pbsm_stats->sweep_pair_compares += task.compares;
      ctx.pbsm_stats->sweep_candidates += task.candidates;
      ctx.pbsm_stats->exact_tests += task.exact_tests;
    }
    for (Tuple& t : task.out) out.push_back(std::move(t));
  }
  if (ctx.pbsm_stats != nullptr) {
    ctx.pbsm_stats->parallel_tasks = pooled ? ran : 0;
  }
  return out;
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
                                                     const ExecContext& ctx,
                                                     bool bulk_load) {
  ctx.ChargeCpu(static_cast<double>(tuples.size()) *
                (sim::cpu_cost::kTupleOverhead + sim::cpu_cost::kHash));
  if (bulk_load) {
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
  auto tree = std::make_unique<index::RStarTree>();
  for (uint64_t i = 0; i < tuples.size(); ++i) {
    tree->Insert(tuples[i].at(shape_col).Mbr(), i);
  }
  return tree;
}

}  // namespace paradise::exec
