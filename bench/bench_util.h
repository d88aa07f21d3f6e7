#ifndef PARADISE_BENCH_BENCH_UTIL_H_
#define PARADISE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <time.h>

#include "benchmark/database.h"
#include "benchmark/queries.h"

namespace paradise::bench {

/// Sizing knobs shared by the table benchmarks. The default data set is
/// ~1/256 of the paper's (Table 3.1) so a full run finishes on one core;
/// pass --fraction= / --dates= / --raster= to rescale, or --quick for a
/// smoke-test run.
struct BenchConfig {
  double fraction = 1.0 / 64;
  int dates = 90;           // x4 channels = 360 rasters (paper: 1440)
  uint32_t raster_size = 256;
  /// Small tiles keep the tile:clip-region ratio comparable to the
  /// paper's 128 KB tiles against 20 MB images.
  size_t tile_bytes = 2048;
  uint64_t seed = 42;

  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig cfg;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--fraction=", 11) == 0) {
        cfg.fraction = std::atof(arg + 11);
      } else if (std::strncmp(arg, "--dates=", 8) == 0) {
        cfg.dates = std::atoi(arg + 8);
      } else if (std::strncmp(arg, "--raster=", 9) == 0) {
        cfg.raster_size = static_cast<uint32_t>(std::atoi(arg + 9));
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        cfg.seed = static_cast<uint64_t>(std::atoll(arg + 7));
      } else if (std::strcmp(arg, "--quick") == 0) {
        cfg.fraction = 1.0 / 1024;
        cfg.dates = 24;
        cfg.raster_size = 128;
      }
    }
    return cfg;
  }

  datagen::DataSetOptions MakeOptions(int scale) const {
    datagen::DataSetOptions o;
    o.seed = seed;
    o.scale = scale;
    o.size_fraction = fraction;
    o.num_dates = dates;
    o.base_raster_size = raster_size;
    return o;
  }
};

struct LoadedDb {
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<benchmark::BenchmarkDatabase> db;
};

inline LoadedDb LoadDbWithOptions(const BenchConfig& cfg, int nodes,
                                  int scale, core::Cluster::Options copts,
                                  bool decluster_rasters = false) {
  LoadedDb out;
  out.cluster = std::make_unique<core::Cluster>(nodes, copts);
  datagen::GlobalDataSet ds =
      datagen::GenerateGlobalDataSet(cfg.MakeOptions(scale));
  benchmark::LoadOptions lopts;
  lopts.decluster_rasters = decluster_rasters;
  lopts.tile_bytes = cfg.tile_bytes;
  auto db = benchmark::BenchmarkDatabase::Load(out.cluster.get(), ds, lopts);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  out.db = std::move(*db);
  return out;
}

inline LoadedDb LoadDb(const BenchConfig& cfg, int nodes, int scale,
                       bool decluster_rasters = false) {
  return LoadDbWithOptions(cfg, nodes, scale, core::Cluster::Options{},
                           decluster_rasters);
}

inline double RunQuerySeconds(benchmark::BenchmarkDatabase* db, int query) {
  auto r = benchmark::RunQueryByNumber(db, query);
  if (!r.ok()) {
    std::fprintf(stderr, "query %d failed: %s\n", query,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r->seconds;
}

/// One benchmarked row for the machine-readable report: host wall-clock
/// samples (what the CI perf-smoke job regresses on) next to the modeled
/// seconds (what the paper's experiments report).
struct QueryPerfSample {
  std::string name;
  std::vector<double> wall_seconds;  // one per timed pass
  double modeled_seconds = 0.0;
  /// Process CPU seconds per timed pass (all threads), where measured:
  /// against wall time it shows how much parallelism the host lent.
  std::vector<double> cpu_seconds = {};

  double min_wall_seconds() const {
    return *std::min_element(wall_seconds.begin(), wall_seconds.end());
  }
};

/// CPU time consumed so far by every thread of this process.
inline double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Timed passes over the gated rows, after one untimed warm-up pass. The
/// gate compares each row's minimum, the statistic a busy host disturbs
/// least.
inline constexpr int kTimedPasses = 10;

/// One gated row: `run` executes it once and returns its modeled seconds.
struct TimedRow {
  std::string name;
  std::function<double()> run;
};

/// Runs every row once to warm up, then kTimedPasses timed passes over all
/// rows in order. Whole passes rather than back-to-back repeats of one
/// row: every run of a row then follows the same predecessor (a query's
/// modeled disk charge depends on where the previous query left the disk
/// head), and a noisy stretch of host time spreads over all rows. Modeled
/// seconds are deterministic: a timed run that disagrees with its row's
/// warm-up exits nonzero.
inline std::vector<QueryPerfSample> TimePasses(
    const std::vector<TimedRow>& rows) {
  std::vector<QueryPerfSample> samples;
  for (const TimedRow& row : rows) {
    samples.push_back({row.name, {}, row.run()});
  }
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = std::chrono::steady_clock::now();
      const double modeled = rows[i].run();
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - t0;
      samples[i].cpu_seconds.push_back(ProcessCpuSeconds() - cpu0);
      samples[i].wall_seconds.push_back(wall.count());
      if (modeled != samples[i].modeled_seconds) {
        std::fprintf(stderr,
                     "%s: modeled seconds moved between passes (%.9f vs "
                     "%.9f)\n",
                     rows[i].name.c_str(), samples[i].modeled_seconds,
                     modeled);
        std::exit(1);
      }
    }
  }
  return samples;
}

/// Pulls `--json <path>` / `--json=<path>` out of argv (compacting it so
/// later parsers never see the flag) and returns the path, or "" if absent.
inline std::string ExtractJsonPathArg(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

/// Writes the samples as a small JSON document:
///   {"bench": "<name>", "queries": [{"name": ..., "reps": N,
///    "wall_min_seconds": ..., "wall_median_seconds": ...,
///    "wall_spread": (max - min) / median, "modeled_seconds": ...,
///    "cpu_min_seconds": ...}, ...]}
/// cpu_min_seconds (rows timed by TimePasses only) is for the reader; the
/// perf gate compares wall_min_seconds.
/// Exits nonzero if the file cannot be written (a silent miss would let
/// the CI perf gate pass vacuously).
inline void WriteBenchJson(const std::string& path,
                           const std::string& bench_name,
                           const std::vector<QueryPerfSample>& samples) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"queries\": [\n",
               bench_name.c_str());
  for (size_t i = 0; i < samples.size(); ++i) {
    std::vector<double> walls = samples[i].wall_seconds;
    std::sort(walls.begin(), walls.end());
    const size_t n = walls.size();
    const double median =
        n == 0 ? 0.0 : (walls[(n - 1) / 2] + walls[n / 2]) / 2;
    const double spread =
        median > 0 ? (walls.back() - walls.front()) / median : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"reps\": %zu, "
                 "\"wall_min_seconds\": %.6f, "
                 "\"wall_median_seconds\": %.6f, \"wall_spread\": %.3f, "
                 "\"modeled_seconds\": %.9f",
                 samples[i].name.c_str(), n, n == 0 ? 0.0 : walls.front(),
                 median, spread, samples[i].modeled_seconds);
    const std::vector<double>& cpu = samples[i].cpu_seconds;
    if (!cpu.empty()) {
      std::fprintf(f, ", \"cpu_min_seconds\": %.6f",
                   *std::min_element(cpu.begin(), cpu.end()));
    }
    std::fprintf(f, "}%s\n", i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace paradise::bench

#endif  // PARADISE_BENCH_BENCH_UTIL_H_
