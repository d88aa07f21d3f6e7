#include "datagen/datagen.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace paradise::datagen {

using exec::Schema;
using exec::Tuple;
using exec::Value;
using exec::ValueType;
using geom::Box;
using geom::Point;
using geom::Polygon;
using geom::Polyline;

namespace {

constexpr double kWorldXMin = -180.0, kWorldXMax = 180.0;
constexpr double kWorldYMin = -90.0, kWorldYMax = 90.0;

/// Skewed placement: most features cluster around population centers
/// (the paper's Madison/Milwaukee vs Rhinelander skew), some are uniform.
struct Centers {
  std::vector<Point> points;
  std::vector<double> spread;

  Point Sample(Rng* rng) const {
    if (rng->NextBool(0.15)) {  // background: uniform over the world
      return Point{rng->NextDouble(kWorldXMin, kWorldXMax),
                   rng->NextDouble(kWorldYMin, kWorldYMax)};
    }
    size_t c = rng->NextUint(points.size());
    // Zipf-ish: low-index centers draw more features.
    while (c > 0 && rng->NextBool(0.35)) c /= 2;
    Point p{points[c].x + rng->NextGaussian() * spread[c],
            points[c].y + rng->NextGaussian() * spread[c]};
    p.x = std::clamp(p.x, kWorldXMin, kWorldXMax);
    p.y = std::clamp(p.y, kWorldYMin, kWorldYMax);
    return p;
  }
};

Centers MakeCenters(int n, Rng* rng) {
  Centers c;
  for (int i = 0; i < n; ++i) {
    // Keep centers off the poles (land bias).
    c.points.push_back(Point{rng->NextDouble(kWorldXMin + 10, kWorldXMax - 10),
                             rng->NextDouble(-55.0, 65.0)});
    c.spread.push_back(rng->NextDouble(2.0, 8.0));
  }
  return c;
}

Polygon RandomPolygon(const Point& center, double radius, int points,
                      Rng* rng) {
  std::vector<Point> ring;
  ring.reserve(points);
  for (int i = 0; i < points; ++i) {
    double angle = 2.0 * M_PI * i / points;
    double r = radius * (0.6 + 0.4 * rng->NextDouble());
    ring.push_back(
        Point{center.x + r * std::cos(angle), center.y + r * std::sin(angle)});
  }
  return Polygon(std::move(ring));
}

Polyline RandomPolyline(const Point& start, double step, int points,
                        Rng* rng) {
  std::vector<Point> pts;
  pts.reserve(points);
  Point cur = start;
  double heading = rng->NextDouble(0, 2.0 * M_PI);
  for (int i = 0; i < points; ++i) {
    pts.push_back(cur);
    heading += rng->NextDouble(-0.6, 0.6);  // meander
    cur.x += step * std::cos(heading);
    cur.y += step * std::sin(heading);
  }
  return Polyline(std::move(pts));
}

}  // namespace

std::vector<Polygon> ScalePolygon(const Polygon& polygon, int s, Rng* rng) {
  std::vector<Polygon> out;
  if (s <= 1) {
    out.push_back(polygon);
    return out;
  }
  size_t n = polygon.num_points();
  size_t extra = n * static_cast<size_t>(s - 1) / static_cast<size_t>(s);

  // Add detail to the original: break `extra` randomly chosen edges.
  std::vector<Point> ring = polygon.ring();
  for (size_t k = 0; k < extra; ++k) {
    size_t e = rng->NextUint(ring.size());
    const Point& a = ring[e];
    const Point& b = ring[(e + 1) % ring.size()];
    Point mid{(a.x + b.x) / 2, (a.y + b.y) / 2};
    // Slight perturbation: higher resolution reveals more detail.
    double jitter = geom::Distance(a, b) * 0.1;
    mid.x += rng->NextDouble(-jitter, jitter);
    mid.y += rng->NextDouble(-jitter, jitter);
    ring.insert(ring.begin() + static_cast<ptrdiff_t>(e) + 1, mid);
  }
  out.push_back(Polygon(std::move(ring)));

  // S-1 satellites: regular polygons inscribed in a bounding box one
  // tenth the size, placed randomly near the original.
  Box mbr = polygon.Mbr();
  double sat_radius = std::max(mbr.Width(), mbr.Height()) / 20.0;
  if (sat_radius <= 0) sat_radius = 1e-3;
  int sat_points = std::max<int>(3, static_cast<int>(extra));
  for (int k = 0; k < s - 1; ++k) {
    Point c{mbr.xmin + rng->NextDouble(-0.5, 1.5) * mbr.Width(),
            mbr.ymin + rng->NextDouble(-0.5, 1.5) * mbr.Height()};
    std::vector<Point> ring2;
    ring2.reserve(static_cast<size_t>(sat_points));
    for (int i = 0; i < sat_points; ++i) {
      double angle = 2.0 * M_PI * i / sat_points;
      ring2.push_back(Point{c.x + sat_radius * std::cos(angle),
                            c.y + sat_radius * std::sin(angle)});
    }
    out.push_back(Polygon(std::move(ring2)));
  }
  return out;
}

std::vector<Polyline> ScalePolyline(const Polyline& line, int s, Rng* rng) {
  std::vector<Polyline> out;
  if (s <= 1) {
    out.push_back(line);
    return out;
  }
  size_t n = line.num_points();
  size_t extra = n * static_cast<size_t>(s - 1) / static_cast<size_t>(s);

  std::vector<Point> pts = line.points();
  for (size_t k = 0; k < extra && pts.size() >= 2; ++k) {
    size_t e = rng->NextUint(pts.size() - 1);
    const Point& a = pts[e];
    const Point& b = pts[e + 1];
    Point mid{(a.x + b.x) / 2, (a.y + b.y) / 2};
    double jitter = geom::Distance(a, b) * 0.1;
    mid.x += rng->NextDouble(-jitter, jitter);
    mid.y += rng->NextDouble(-jitter, jitter);
    pts.insert(pts.begin() + static_cast<ptrdiff_t>(e) + 1, mid);
  }
  out.push_back(Polyline(std::move(pts)));

  // S-1 "tributaries" near the original.
  Box mbr = line.Mbr();
  double step = std::max(mbr.Width(), mbr.Height()) / 20.0;
  if (step <= 0) step = 1e-3;
  int sat_points = std::max<int>(2, static_cast<int>(extra));
  for (int k = 0; k < s - 1; ++k) {
    Point start{mbr.xmin + rng->NextDouble(0, 1) * mbr.Width(),
                mbr.ymin + rng->NextDouble(0, 1) * mbr.Height()};
    out.push_back(RandomPolyline(start, step, sat_points, rng));
  }
  return out;
}

std::vector<Point> ScalePoint(const Point& point, int s, Rng* rng) {
  std::vector<Point> out{point};
  for (int k = 0; k < s - 1; ++k) {
    out.push_back(Point{point.x + rng->NextGaussian() * 0.05,
                        point.y + rng->NextGaussian() * 0.05});
  }
  return out;
}

Schema PlacesSchema() {
  return Schema({{"id", ValueType::kString},
                 {"containing_face", ValueType::kString},
                 {"type", ValueType::kInt},
                 {"location", ValueType::kPoint},
                 {"name", ValueType::kString}});
}
Schema RoadsSchema() {
  return Schema({{"id", ValueType::kString},
                 {"type", ValueType::kInt},
                 {"shape", ValueType::kPolyline}});
}
Schema DrainageSchema() {
  return Schema({{"id", ValueType::kString},
                 {"type", ValueType::kInt},
                 {"shape", ValueType::kPolyline}});
}
Schema LandCoverSchema() {
  return Schema({{"id", ValueType::kString},
                 {"type", ValueType::kInt},
                 {"shape", ValueType::kPolygon}});
}
Schema RasterSchema() {
  return Schema({{"date", ValueType::kDate},
                 {"channel", ValueType::kInt},
                 {"data", ValueType::kRaster}});
}

int64_t GlobalDataSet::VectorBytes() const {
  int64_t n = 0;
  auto add = [&n](const std::vector<Tuple>& rows) {
    for (const Tuple& t : rows) {
      for (const Value& v : t.values) {
        n += static_cast<int64_t>(v.StorageBytes(/*deep=*/true));
      }
    }
  };
  add(populated_places);
  add(roads);
  add(drainage);
  add(land_cover);
  return n;
}

int64_t GlobalDataSet::RasterBytes() const {
  int64_t n = 0;
  for (const RasterSpec& r : rasters) {
    n += static_cast<int64_t>(r.pixels.size()) * 2;
  }
  return n;
}

GlobalDataSet GenerateGlobalDataSet(const DataSetOptions& options) {
  PARADISE_CHECK(options.scale >= 1);
  Rng rng(options.seed);
  GlobalDataSet ds;
  ds.universe = Box(kWorldXMin, kWorldYMin, kWorldXMax, kWorldYMax);
  Centers centers = MakeCenters(options.num_centers, &rng);
  const int s = options.scale;

  auto scaled_count = [&](int64_t base) {
    return static_cast<int64_t>(
        std::llround(static_cast<double>(base) * options.size_fraction));
  };

  // ---- populatedPlaces ----
  int64_t n_places = scaled_count(options.base_places);
  int64_t id = 0;
  for (int64_t i = 0; i < n_places; ++i) {
    Point base = centers.Sample(&rng);
    int64_t type = rng.NextBool(0.02) ? kLargeCityType
                                      : rng.NextInt(0, kNumPlaceTypes - 2);
    std::vector<Point> scaled = ScalePoint(base, s, &rng);
    for (size_t k = 0; k < scaled.size(); ++k) {
      const Point& p = scaled[k];
      std::string name;
      // A few well-known names so Query 5/8 select something. Only the
      // *original* point of each base location is named; resolution
      // scaleup satellites get fresh names, so the selectivity of the
      // name lookups stays constant across scales (as in the paper,
      // where Queries 5 and 8 stay flat under scaleup).
      if (k != 0) {
        name = "place-" + std::to_string(id);
      } else if (i == 17) {
        name = "Phoenix";
      } else if (i % 97 == 41) {
        name = "Louisville";
      } else {
        name = "place-" + std::to_string(id);
      }
      ds.populated_places.push_back(
          Tuple({Value("P" + std::to_string(id)),
                 Value("F" + std::to_string(id / 16)), Value(type), Value(p),
                 Value(std::move(name))}));
      ++id;
    }
  }

  // ---- roads ----
  int64_t n_roads = scaled_count(options.base_roads);
  id = 0;
  for (int64_t i = 0; i < n_roads; ++i) {
    Point start = centers.Sample(&rng);
    int points = static_cast<int>(rng.NextInt(6, 24));
    Polyline base = RandomPolyline(start, rng.NextDouble(0.05, 0.4), points,
                                   &rng);
    int64_t type = rng.NextInt(0, kNumRoadTypes - 1);
    for (Polyline& line : ScalePolyline(base, s, &rng)) {
      ds.roads.push_back(Tuple({Value("R" + std::to_string(id++)), Value(type),
                                Value(std::move(line))}));
    }
  }

  // ---- drainage ----
  int64_t n_drainage = scaled_count(options.base_drainage);
  id = 0;
  for (int64_t i = 0; i < n_drainage; ++i) {
    Point start = centers.Sample(&rng);
    int points = static_cast<int>(rng.NextInt(4, 16));
    Polyline base = RandomPolyline(start, rng.NextDouble(0.03, 0.25), points,
                                   &rng);
    int64_t type = rng.NextInt(0, kNumDrainageTypes - 1);
    for (Polyline& line : ScalePolyline(base, s, &rng)) {
      ds.drainage.push_back(Tuple({Value("D" + std::to_string(id++)),
                                   Value(type), Value(std::move(line))}));
    }
  }

  // ---- landCover ----
  int64_t n_lc = scaled_count(options.base_land_cover);
  id = 0;
  for (int64_t i = 0; i < n_lc; ++i) {
    Point center = centers.Sample(&rng);
    int points = static_cast<int>(rng.NextInt(8, 40));
    Polygon base =
        RandomPolygon(center, rng.NextDouble(0.05, 0.8), points, &rng);
    int64_t type = rng.NextInt(0, kNumLandCoverTypes - 1);
    for (Polygon& poly : ScalePolygon(base, s, &rng)) {
      ds.land_cover.push_back(Tuple({Value("L" + std::to_string(id++)),
                                     Value(type), Value(std::move(poly))}));
    }
  }

  // ---- rasters ----
  // Resolution scaleup multiplies the pixel count by S: columns double
  // first, then rows (exact byte doubling, as in Table 3.1).
  uint32_t h = options.base_raster_size;
  uint32_t w = options.base_raster_size;
  {
    int remaining = s;
    bool widen = true;
    while (remaining > 1) {
      PARADISE_CHECK_MSG(remaining % 2 == 0, "scale must be a power of two");
      if (widen) {
        w *= 2;
      } else {
        h *= 2;
      }
      widen = !widen;
      remaining /= 2;
    }
  }
  Date start_date = Date::FromYmd(1986, 1, 6);
  std::vector<int64_t> channels = {2, 3, 4, 5};
  PARADISE_CHECK(options.num_channels <= static_cast<int>(channels.size()));
  std::vector<double> lon(w), lon_term(w);  // per column, per raster
  for (int d = 0; d < options.num_dates; ++d) {
    Date date = start_date.AddDays(d * 10);  // ~10-day composites, 10 years
    for (int c = 0; c < options.num_channels; ++c) {
      RasterSpec spec;
      spec.date = date;
      spec.channel = channels[static_cast<size_t>(c)];
      spec.height = h;
      spec.width = w;
      spec.geo = ds.universe;
      spec.pixels.resize(static_cast<size_t>(h) * w);
      // Smooth synthetic "climate" field, quantized so LZW compresses
      // realistically (real composites have large near-uniform regions).
      // Resolution scaleup over-samples the base grid; over-sampled
      // pixels are perturbed slightly so compression ratios do not become
      // artificially high (Section 3.1.3).
      uint32_t sx = w / options.base_raster_size;  // oversampling factors
      uint32_t sy = h / options.base_raster_size;
      double phase = 0.25 * d + 11.0 * c;
      // v = 2000 + 1500 cos(3 lat pi) + 700 sin(4 lon pi + phase)
      //     + 400 sin(9 (lat + lon) pi - phase), summed left to right;
      // the per-row and per-column terms are computed once.
      for (uint32_t cc = 0; cc < w; ++cc) {
        lon[cc] = 2.0 * ((cc / sx) + 0.5) / options.base_raster_size - 1.0;
        lon_term[cc] = 700.0 * std::sin(4.0 * lon[cc] * M_PI + phase);
      }
      for (uint32_t r = 0; r < h; ++r) {
        double lat = 1.0 - 2.0 * ((r / sy) + 0.5) / options.base_raster_size;
        double row_base = 2000.0 + 1500.0 * std::cos(3.0 * lat * M_PI);
        for (uint32_t cc = 0; cc < w; ++cc) {
          double v = row_base + lon_term[cc] +
                     400.0 * std::sin(9.0 * (lat + lon[cc]) * M_PI - phase);
          uint16_t q = static_cast<uint16_t>(std::clamp(v, 0.0, 65000.0));
          q &= static_cast<uint16_t>(~0x3f);  // 64-level quantization
          if (r % sy != 0 || cc % sx != 0) {
            q = static_cast<uint16_t>(q + ((rng.Next() & 0x7) << 2));
          }
          spec.pixels[static_cast<size_t>(r) * w + cc] = q;
        }
      }
      ds.rasters.push_back(std::move(spec));
    }
  }
  return ds;
}

namespace {

/// Hotspot anchors for the clustered generators: cluster k gets a
/// deterministic position/extent inside `universe`, and a Zipf-ish weight
/// (low-index clusters draw more features) so even the clustered mass is
/// itself unevenly split.
struct Hotspot {
  Point center;
  double extent = 0.0;   // Gaussian sigma / coastline amplitude
  double heading = 0.0;  // coastline arc direction
};

std::vector<Hotspot> MakeHotspots(const Box& universe, int n, Rng* rng) {
  std::vector<Hotspot> out;
  double span = std::min(universe.Width(), universe.Height());
  for (int i = 0; i < n; ++i) {
    Hotspot h;
    h.center = Point{rng->NextDouble(universe.xmin, universe.xmax),
                     rng->NextDouble(universe.ymin, universe.ymax)};
    // Later clusters are tighter: the first hotspot is a metro sprawl,
    // the tail are pinpoints — the adversarial shape for uniform grids.
    h.extent = span * 0.02 / (1.0 + i);
    h.heading = rng->NextDouble(0, 2.0 * M_PI);
    out.push_back(h);
  }
  return out;
}

size_t PickHotspot(size_t n, Rng* rng) {
  size_t c = rng->NextUint(n);
  while (c > 0 && rng->NextBool(0.5)) c /= 2;  // Zipf-ish preference
  return c;
}

Point ClampTo(const Box& u, Point p) {
  p.x = std::clamp(p.x, u.xmin, u.xmax);
  p.y = std::clamp(p.y, u.ymin, u.ymax);
  return p;
}

}  // namespace

std::vector<Tuple> GenerateCoastlineRoads(const ClusteredDataOptions& options) {
  Rng rng(options.seed);
  const Box& u = options.universe;
  std::vector<Hotspot> coasts =
      MakeHotspots(u, std::max(1, options.num_clusters), &rng);
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(options.count));
  for (int64_t i = 0; i < options.count; ++i) {
    int points = static_cast<int>(rng.NextInt(6, 24));
    Polyline line;
    if (rng.NextBool(options.skew)) {
      // Hug a coastline arc: walk along a gentle circular curve through
      // the hotspot, with lateral jitter a small fraction of the arc
      // amplitude — a dense 1-D filament in 2-D space.
      const Hotspot& c = coasts[PickHotspot(coasts.size(), &rng)];
      double radius = c.extent * 40.0;
      double arc0 = rng.NextDouble(0, 2.0 * M_PI);
      double arc_step = rng.NextDouble(0.002, 0.01);
      std::vector<Point> pts;
      pts.reserve(static_cast<size_t>(points));
      for (int k = 0; k < points; ++k) {
        double a = arc0 + k * arc_step;
        double jitter = c.extent * 0.1;
        pts.push_back(ClampTo(
            u, Point{c.center.x + radius * std::cos(c.heading + a) +
                         rng.NextGaussian() * jitter,
                     c.center.y + radius * std::sin(c.heading + a) +
                         rng.NextGaussian() * jitter}));
      }
      line = Polyline(std::move(pts));
    } else {
      Point start{rng.NextDouble(u.xmin, u.xmax),
                  rng.NextDouble(u.ymin, u.ymax)};
      line = RandomPolyline(start, rng.NextDouble(0.05, 0.4), points, &rng);
    }
    int64_t type = rng.NextInt(0, kNumRoadTypes - 1);
    out.push_back(Tuple({Value("CR" + std::to_string(i)), Value(type),
                         Value(std::move(line))}));
  }
  return out;
}

std::vector<Tuple> GenerateUrbanPoints(const ClusteredDataOptions& options) {
  Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  const Box& u = options.universe;
  std::vector<Hotspot> cities =
      MakeHotspots(u, std::max(1, options.num_clusters), &rng);
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(options.count));
  for (int64_t i = 0; i < options.count; ++i) {
    Point p;
    if (rng.NextBool(options.skew)) {
      const Hotspot& c = cities[PickHotspot(cities.size(), &rng)];
      p = ClampTo(u, Point{c.center.x + rng.NextGaussian() * c.extent,
                           c.center.y + rng.NextGaussian() * c.extent});
    } else {
      p = Point{rng.NextDouble(u.xmin, u.xmax),
                rng.NextDouble(u.ymin, u.ymax)};
    }
    int64_t type = rng.NextBool(0.02) ? kLargeCityType
                                      : rng.NextInt(0, kNumPlaceTypes - 2);
    out.push_back(Tuple({Value("UP" + std::to_string(i)),
                         Value("UF" + std::to_string(i / 16)), Value(type),
                         Value(p), Value("urban-" + std::to_string(i))}));
  }
  return out;
}

}  // namespace paradise::datagen
