// The benchmark's own tests: every workload, at reduced size, must give
// bit-identical results, modeled seconds and layer counts with one
// cluster pool thread and with one per core, and the same results and
// modeled seconds whether or not its passes are traced.

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "workloads.h"

namespace paradise::perfbench {
namespace {

Sizing Reduced() {
  Sizing s;
  s.fraction = 1.0 / 1024;
  s.dates = 8;
  s.raster_size = 128;
  s.queries_per_stream = 4;
  return s;
}

std::vector<PassResult> RunPasses(Workload w, int threads, int passes,
                                  bool traced = true) {
  auto runner = WorkloadRunner::Create(w, 42, Reduced(), threads, nullptr);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  std::vector<PassResult> out;
  if (!runner.ok()) return out;
  for (int i = 0; i < passes; ++i) out.push_back((*runner)->RunPass(traced));
  return out;
}

void ExpectSameCounts(const LayerCounters& a, const LayerCounters& b) {
  const storage::BufferPool::Stats& p = a.pool;
  const storage::BufferPool::Stats& q = b.pool;
  EXPECT_EQ(p.hits, q.hits);
  EXPECT_EQ(p.misses, q.misses);
  EXPECT_EQ(p.evictions, q.evictions);
  EXPECT_EQ(p.dirty_writebacks, q.dirty_writebacks);
  EXPECT_EQ(p.readahead_batches, q.readahead_batches);
  EXPECT_EQ(p.readahead_pages, q.readahead_pages);
  EXPECT_EQ(p.scan_shared_windows, q.scan_shared_windows);
  EXPECT_EQ(p.scan_shared_pages, q.scan_shared_pages);
  EXPECT_EQ(p.promotions, q.promotions);
  EXPECT_EQ(p.writeback_runs, q.writeback_runs);
  EXPECT_EQ(p.writeback_pages, q.writeback_pages);
  EXPECT_EQ(a.usage.disk_seeks, b.usage.disk_seeks);
  EXPECT_EQ(a.usage.disk_bytes_read, b.usage.disk_bytes_read);
  EXPECT_EQ(a.usage.disk_bytes_written, b.usage.disk_bytes_written);
  EXPECT_EQ(a.usage.net_messages, b.usage.net_messages);
  EXPECT_EQ(a.usage.net_bytes, b.usage.net_bytes);
  EXPECT_EQ(a.usage.cpu_ops, b.usage.cpu_ops);
  EXPECT_EQ(a.usage.idle_seconds, b.usage.idle_seconds);
  EXPECT_EQ(a.sweep_pair_compares, b.sweep_pair_compares);
  EXPECT_EQ(a.sweep_candidates, b.sweep_candidates);
  EXPECT_EQ(a.exact_tests, b.exact_tests);
  EXPECT_EQ(a.dedup_tests, b.dedup_tests);
  EXPECT_EQ(a.join_rows, b.join_rows);
  EXPECT_EQ(a.join_items, b.join_items);
  EXPECT_EQ(a.max_partition_skew, b.max_partition_skew);
  EXPECT_EQ(a.sequential_modeled_s, b.sequential_modeled_s);
  EXPECT_EQ(a.max_phase_skew, b.max_phase_skew);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.scan_attaches, b.scan_attaches);
  EXPECT_EQ(a.admission_waits, b.admission_waits);
}

class DeterminismTest : public ::testing::TestWithParam<Workload> {};

TEST_P(DeterminismTest, OneThreadAndAllCoresAgreeBitForBit) {
  const int cores = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  const std::vector<PassResult> one = RunPasses(GetParam(), 1, 2);
  const std::vector<PassResult> many = RunPasses(GetParam(), cores, 2);
  ASSERT_EQ(one.size(), many.size());
  for (size_t p = 0; p < one.size(); ++p) {
    ASSERT_EQ(one[p].statements.size(), many[p].statements.size());
    double modeled_one = 0.0, modeled_many = 0.0;
    for (size_t i = 0; i < one[p].statements.size(); ++i) {
      const StatementRun& a = one[p].statements[i];
      const StatementRun& b = many[p].statements[i];
      SCOPED_TRACE(a.name + " in pass " + std::to_string(p));
      ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      ASSERT_TRUE(b.status.ok()) << b.status.ToString();
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.digest, b.digest);
      EXPECT_EQ(a.latencies, b.latencies);
      EXPECT_EQ(a.phases, b.phases);
      modeled_one += a.digest.modeled_s;
      modeled_many += b.digest.modeled_s;
    }
    EXPECT_EQ(modeled_one, modeled_many);  // modeled_pass_s
    ExpectSameCounts(one[p].counters, many[p].counters);
  }
}

TEST_P(DeterminismTest, TracedPassesMatchUntracedOnes) {
  const std::vector<PassResult> plain = RunPasses(GetParam(), 1, 2, false);
  const std::vector<PassResult> traced = RunPasses(GetParam(), 1, 2, true);
  ASSERT_EQ(plain.size(), traced.size());
  for (size_t p = 0; p < plain.size(); ++p) {
    ASSERT_EQ(plain[p].statements.size(), traced[p].statements.size());
    for (size_t i = 0; i < plain[p].statements.size(); ++i) {
      const StatementRun& a = plain[p].statements[i];
      const StatementRun& b = traced[p].statements[i];
      SCOPED_TRACE(a.name + " in pass " + std::to_string(p));
      ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      ASSERT_TRUE(b.status.ok()) << b.status.ToString();
      EXPECT_EQ(a.digest, b.digest);
      EXPECT_EQ(a.latencies, b.latencies);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismTest,
                         ::testing::Values(Workload::kRaster, Workload::kVector,
                                           Workload::kStreams),
                         [](const auto& info) {
                           return std::string(WorkloadName(info.param));
                         });

TEST(FingerprintTest, IgnoresRowOrderButNotContent) {
  exec::TupleVec a = {exec::Tuple({exec::Value(int64_t{1})}),
                      exec::Tuple({exec::Value(int64_t{2})})};
  exec::TupleVec b = {a[1], a[0]};
  exec::TupleVec c = {a[0], exec::Tuple({exec::Value(int64_t{3})})};
  EXPECT_EQ(FingerprintRows(a), FingerprintRows(b));
  EXPECT_NE(FingerprintRows(a), FingerprintRows(c));
  EXPECT_NE(FingerprintRows(a), FingerprintRows({a[0]}));
}

}  // namespace
}  // namespace paradise::perfbench
