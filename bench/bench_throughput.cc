// Multi-client throughput benchmark: N concurrent client streams submit a
// mix of benchmark queries (scan-heavy Q2, point-select Q5, region-select
// Q7) through the admission controller and deterministic scheduler of
// core::WorkloadSession. Reports QPS and p50/p99 client-observed modeled
// latency for 1/2/4/8 streams, plus the scan-sharing and result-cache
// counters. All reported times are modeled seconds — bit-identical at any
// PARADISE_THREADS setting — so the table measures the *policies*
// (admission, contention charging, scan sharing, caching), not the host.
//
// Flags: --streams=a,b,c  client counts to sweep (default 1,2,4,8)
//        --queries=N      queries per stream (default 8)
//        --mix=a,b,c      query numbers the streams draw from (default 2,5,7)
//        --think=S        mean client think seconds (default 0.1)
//        --pool-frames=N  buffer-pool frames per node (default 16; small
//                         enough that repeated scans miss, so the sharing
//                         and contention paths are actually exercised)
//        --no-scan-sharing  ablation: disable readahead-window attach
//        --no-cache         ablation: disable the keyed result cache
//        --json <path>    machine-readable report for the CI perf gate
//        plus the usual sizing flags of BenchConfig (--quick etc.)

#include <cstring>
#include <optional>

#include "bench/bench_util.h"
#include "benchmark/workload.h"

namespace {

using paradise::bench::BenchConfig;
using paradise::bench::LoadedDb;
using paradise::bench::QueryPerfSample;
using paradise::benchmark::RunWorkload;
using paradise::benchmark::WorkloadOptions;
using paradise::benchmark::WorkloadReport;

struct ThroughputArgs {
  std::vector<int> streams = {1, 2, 4, 8};
  std::vector<int> mix = {2, 5, 7};
  int queries_per_stream = 8;
  double mean_think_seconds = 0.1;
  size_t pool_frames = 16;
  bool scan_sharing = true;
  bool result_cache = true;

  static ThroughputArgs FromArgs(int argc, char** argv) {
    ThroughputArgs a;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--streams=", 10) == 0) {
        a.streams.clear();
        for (const char* p = arg + 10; *p != '\0';) {
          a.streams.push_back(std::atoi(p));
          while (*p != '\0' && *p != ',') ++p;
          if (*p == ',') ++p;
        }
      } else if (std::strncmp(arg, "--queries=", 10) == 0) {
        a.queries_per_stream = std::atoi(arg + 10);
      } else if (std::strncmp(arg, "--mix=", 6) == 0) {
        a.mix.clear();
        for (const char* p = arg + 6; *p != '\0';) {
          a.mix.push_back(std::atoi(p));
          while (*p != '\0' && *p != ',') ++p;
          if (*p == ',') ++p;
        }
      } else if (std::strncmp(arg, "--think=", 8) == 0) {
        a.mean_think_seconds = std::atof(arg + 8);
      } else if (std::strncmp(arg, "--pool-frames=", 14) == 0) {
        a.pool_frames = static_cast<size_t>(std::atoll(arg + 14));
      } else if (std::strcmp(arg, "--no-scan-sharing") == 0) {
        a.scan_sharing = false;
      } else if (std::strcmp(arg, "--no-cache") == 0) {
        a.result_cache = false;
      }
    }
    return a;
  }
};

/// LoadDb with a custom per-node buffer-pool size. The stock 32 MB pool
/// swallows the whole benchmark raster, so repeated Q2 scans would do no
/// I/O at all — a throughput benchmark wants the steady state where the
/// scan working set exceeds the pool.
paradise::bench::LoadedDb LoadSmallPoolDb(const BenchConfig& cfg,
                                          size_t pool_frames) {
  paradise::bench::LoadedDb out;
  paradise::core::Cluster::Options copts;
  copts.buffer_pool_frames = pool_frames;
  out.cluster = std::make_unique<paradise::core::Cluster>(4, copts);
  paradise::datagen::GlobalDataSet ds =
      paradise::datagen::GenerateGlobalDataSet(cfg.MakeOptions(1));
  paradise::benchmark::LoadOptions lopts;
  lopts.tile_bytes = cfg.tile_bytes;
  auto db = paradise::benchmark::BenchmarkDatabase::Load(out.cluster.get(),
                                                         ds, lopts);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  out.db = std::move(*db);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = paradise::bench::ExtractJsonPathArg(&argc, argv);
  ThroughputArgs targs = ThroughputArgs::FromArgs(argc, argv);
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  // Default to the bench_micro query-section sizing: small enough that the
  // whole sweep runs in seconds, large enough that Q2's scan issues many
  // readahead windows (the scan-sharing substrate).
  cfg.fraction = 1.0 / 512;
  cfg.dates = 16;
  cfg.raster_size = 128;

  std::string mix_str;
  for (size_t i = 0; i < targs.mix.size(); ++i) {
    mix_str += (i > 0 ? "," : "") + std::to_string(targs.mix[i]);
  }
  std::printf(
      "throughput sweep: 4 nodes, %d queries/stream, mix {%s}, "
      "%zu pool frames/node, scan sharing %s, result cache %s\n",
      targs.queries_per_stream, mix_str.c_str(), targs.pool_frames,
      targs.scan_sharing ? "on" : "off", targs.result_cache ? "on" : "off");
  std::printf("%-8s %8s %10s %10s %10s %6s %6s %9s %9s  %s\n", "streams",
              "qps", "p50_s", "p99_s", "makespan", "hits", "miss",
              "ra_batch", "shared_w", "digest");

  // Fresh database per client count: every sweep point starts from the
  // same cold state, so rows/digests are comparable across runs.
  // RunWorkload cold-resets the pools first, so the warm-up and every
  // timed pass must reproduce the same digest.
  const size_t n = targs.streams.size();
  std::vector<LoadedDb> dbs(n);
  std::vector<WorkloadReport> reports(n);
  std::vector<std::optional<uint64_t>> digests(n);
  std::vector<paradise::bench::TimedRow> rows;
  for (size_t i = 0; i < n; ++i) {
    dbs[i] = LoadSmallPoolDb(cfg, targs.pool_frames);
    WorkloadOptions wopts;
    wopts.num_streams = targs.streams[i];
    wopts.mix = targs.mix;
    wopts.queries_per_stream = targs.queries_per_stream;
    wopts.seed = cfg.seed;
    wopts.mean_think_seconds = targs.mean_think_seconds;
    wopts.session.scan_sharing = targs.scan_sharing;
    wopts.session.result_cache = targs.result_cache;
    rows.push_back({"streams_" + std::to_string(targs.streams[i]),
                    [&, i, wopts] {
                      auto report = RunWorkload(dbs[i].db.get(), wopts);
                      if (!report.ok()) {
                        std::fprintf(stderr,
                                     "workload (%d streams) failed: %s\n",
                                     wopts.num_streams,
                                     report.status().ToString().c_str());
                        std::exit(1);
                      }
                      reports[i] = std::move(*report);
                      if (!digests[i]) digests[i] = reports[i].Digest();
                      if (reports[i].Digest() != *digests[i]) {
                        std::fprintf(stderr,
                                     "workload (%d streams) digest moved\n",
                                     wopts.num_streams);
                        std::exit(1);
                      }
                      // The makespan feeds the cost-model drift gate.
                      return reports[i].makespan_seconds;
                    }});
  }
  std::vector<QueryPerfSample> samples = paradise::bench::TimePasses(rows);
  for (size_t i = 0; i < n; ++i) {
    const WorkloadReport& r = reports[i];
    std::printf(
        "%-8d %8.3f %10.4f %10.4f %10.4f %6lld %6lld %9lld %9lld  %016llx\n",
        targs.streams[i], r.qps(), r.LatencyPercentile(0.50),
        r.LatencyPercentile(0.99), r.makespan_seconds,
        static_cast<long long>(r.cache_hits),
        static_cast<long long>(r.cache_misses),
        static_cast<long long>(r.readahead_batches),
        static_cast<long long>(r.scan_shared_windows),
        static_cast<unsigned long long>(*digests[i]));
  }

  if (!json_path.empty()) {
    paradise::bench::WriteBenchJson(json_path, "bench_throughput", samples);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
