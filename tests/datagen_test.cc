#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datagen.h"

namespace paradise::datagen {
namespace {

using geom::Point;
using geom::Polygon;
using geom::Polyline;

DataSetOptions TinyOptions(int scale) {
  DataSetOptions o;
  o.scale = scale;
  o.size_fraction = 1.0 / 2000;
  o.num_dates = 6;
  o.base_raster_size = 64;
  return o;
}

TEST(ScaleupTest, PolygonScaleupCountsMatchPaper) {
  Rng rng(1);
  std::vector<Point> ring;
  for (int i = 0; i < 8; ++i) {
    ring.push_back(Point{std::cos(i * M_PI / 4), std::sin(i * M_PI / 4)});
  }
  Polygon base(ring);
  // S=4, N=8 (the paper's worked example): original gains 6 points, and
  // 3 satellites with 6 points each appear.
  std::vector<Polygon> scaled = ScalePolygon(base, 4, &rng);
  ASSERT_EQ(scaled.size(), 4u);  // tuples x4
  EXPECT_EQ(scaled[0].num_points(), 14u);  // 8 + 8*3/4
  for (size_t i = 1; i < 4; ++i) EXPECT_EQ(scaled[i].num_points(), 6u);
  // Total points quadruple: 8 -> 14 + 3*6 = 32.
  size_t total = 0;
  for (const Polygon& p : scaled) total += p.num_points();
  EXPECT_EQ(total, 32u);
}

TEST(ScaleupTest, PolygonScaleupS2DoublesPoints) {
  Rng rng(2);
  Polygon base({{0, 0}, {4, 0}, {4, 4}, {2, 6}, {0, 4}, {-1, 2}});  // N=6
  std::vector<Polygon> scaled = ScalePolygon(base, 2, &rng);
  ASSERT_EQ(scaled.size(), 2u);
  size_t total = scaled[0].num_points() + scaled[1].num_points();
  EXPECT_EQ(total, 12u);
}

TEST(ScaleupTest, SatelliteBoundingBoxIsTenthScale) {
  Rng rng(3);
  Polygon base({{0, 0}, {100, 0}, {100, 100}, {0, 100}});
  std::vector<Polygon> scaled = ScalePolygon(base, 2, &rng);
  ASSERT_EQ(scaled.size(), 2u);
  geom::Box sat = scaled[1].Mbr();
  EXPECT_LE(sat.Width(), 100.0 / 8);  // ~1/10, regular polygon inscribed
  EXPECT_LE(sat.Height(), 100.0 / 8);
}

TEST(ScaleupTest, PolylineScaleup) {
  Rng rng(4);
  std::vector<Point> pts;
  for (int i = 0; i < 8; ++i) pts.push_back(Point{static_cast<double>(i), 0});
  Polyline base(pts);
  std::vector<Polyline> scaled = ScalePolyline(base, 4, &rng);
  ASSERT_EQ(scaled.size(), 4u);
  EXPECT_EQ(scaled[0].num_points(), 14u);
  size_t total = 0;
  for (const Polyline& l : scaled) total += l.num_points();
  EXPECT_EQ(total, 32u);
}

TEST(ScaleupTest, PointScaleup) {
  Rng rng(5);
  std::vector<Point> scaled = ScalePoint(Point{10, 20}, 4, &rng);
  ASSERT_EQ(scaled.size(), 4u);
  EXPECT_EQ(scaled[0], (Point{10, 20}));
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(scaled[i].x, 10, 1.0);
    EXPECT_NEAR(scaled[i].y, 20, 1.0);
  }
}

TEST(ScaleupTest, ScaleOneIsIdentity) {
  Rng rng(6);
  Polygon base({{0, 0}, {1, 0}, {0, 1}});
  std::vector<Polygon> scaled = ScalePolygon(base, 1, &rng);
  ASSERT_EQ(scaled.size(), 1u);
  EXPECT_EQ(scaled[0], base);
}

TEST(DataGenTest, DeterministicInSeed) {
  GlobalDataSet a = GenerateGlobalDataSet(TinyOptions(1));
  GlobalDataSet b = GenerateGlobalDataSet(TinyOptions(1));
  ASSERT_EQ(a.roads.size(), b.roads.size());
  for (size_t i = 0; i < a.roads.size(); ++i) {
    EXPECT_TRUE(a.roads[i].at(2).Equals(b.roads[i].at(2)));
  }
  ASSERT_EQ(a.rasters.size(), b.rasters.size());
  EXPECT_EQ(a.rasters[0].pixels, b.rasters[0].pixels);
}

TEST(DataGenTest, ScaleDoublesTuplesAndPoints) {
  GlobalDataSet s1 = GenerateGlobalDataSet(TinyOptions(1));
  GlobalDataSet s2 = GenerateGlobalDataSet(TinyOptions(2));
  // Tuple counts roughly double (Table 3.1's pattern).
  EXPECT_NEAR(static_cast<double>(s2.roads.size()) / s1.roads.size(), 2.0,
              0.05);
  EXPECT_NEAR(static_cast<double>(s2.land_cover.size()) / s1.land_cover.size(),
              2.0, 0.05);
  EXPECT_NEAR(
      static_cast<double>(s2.populated_places.size()) / s1.populated_places.size(),
      2.0, 0.05);
  // Raster tuple count stays fixed; bytes double.
  EXPECT_EQ(s2.rasters.size(), s1.rasters.size());
  EXPECT_EQ(s2.RasterBytes(), 2 * s1.RasterBytes());
  // Vector bytes roughly double too.
  EXPECT_NEAR(static_cast<double>(s2.VectorBytes()) / s1.VectorBytes(), 2.0,
              0.3);
}

TEST(DataGenTest, SchemasMatchTuples) {
  GlobalDataSet ds = GenerateGlobalDataSet(TinyOptions(1));
  ASSERT_FALSE(ds.populated_places.empty());
  const exec::Tuple& place = ds.populated_places[0];
  EXPECT_EQ(place.size(), PlacesSchema().num_columns());
  EXPECT_EQ(place.at(col::kPlaceLocation).type(), exec::ValueType::kPoint);
  ASSERT_FALSE(ds.land_cover.empty());
  EXPECT_EQ(ds.land_cover[0].at(col::kLcShape).type(),
            exec::ValueType::kPolygon);
  ASSERT_FALSE(ds.roads.empty());
  EXPECT_EQ(ds.roads[0].at(col::kLineShape).type(),
            exec::ValueType::kPolyline);
}

TEST(DataGenTest, FeaturesInsideUniverse) {
  GlobalDataSet ds = GenerateGlobalDataSet(TinyOptions(2));
  geom::Box wide = ds.universe.Inflate(30);  // scaled features may poke out
  for (const exec::Tuple& t : ds.populated_places) {
    EXPECT_TRUE(ds.universe.Contains(t.at(col::kPlaceLocation).AsPoint()));
  }
  for (const exec::Tuple& t : ds.land_cover) {
    EXPECT_TRUE(wide.Contains(t.at(col::kLcShape).Mbr()));
  }
}

TEST(DataGenTest, QueryTargetsExist) {
  GlobalDataSet ds = GenerateGlobalDataSet(TinyOptions(1));
  int phoenix = 0, louisville = 0, large_cities = 0, oil_fields = 0;
  for (const exec::Tuple& t : ds.populated_places) {
    const std::string& name = t.at(col::kPlaceName).AsString();
    if (name == "Phoenix") ++phoenix;
    if (name == "Louisville") ++louisville;
    if (t.at(col::kPlaceType).AsInt() == kLargeCityType) ++large_cities;
  }
  for (const exec::Tuple& t : ds.land_cover) {
    if (t.at(col::kLcType).AsInt() == kOilFieldType) ++oil_fields;
  }
  EXPECT_EQ(phoenix, 1);
  EXPECT_GE(louisville, 1);
  EXPECT_GE(large_cities, 1);
  EXPECT_GE(oil_fields, 1);
}

TEST(DataGenTest, RastersCoverChannelsAndDates) {
  DataSetOptions o = TinyOptions(1);
  GlobalDataSet ds = GenerateGlobalDataSet(o);
  EXPECT_EQ(ds.rasters.size(),
            static_cast<size_t>(o.num_dates * o.num_channels));
  std::set<int64_t> channels;
  std::set<int32_t> dates;
  for (const RasterSpec& r : ds.rasters) {
    channels.insert(r.channel);
    dates.insert(r.date.days_since_epoch());
    EXPECT_EQ(r.pixels.size(), static_cast<size_t>(r.height) * r.width);
  }
  EXPECT_EQ(channels.size(), 4u);
  EXPECT_TRUE(channels.contains(5));
  EXPECT_EQ(dates.size(), static_cast<size_t>(o.num_dates));
}

TEST(DataGenTest, RasterScaleupKeepsImageSmooth) {
  // Oversampled rasters must still compress decently but not perfectly
  // (pixel perturbation defeats artificially high ratios).
  GlobalDataSet s2 = GenerateGlobalDataSet(TinyOptions(2));
  const RasterSpec& r = s2.rasters[0];
  // Neighboring pixels differ somewhere (noise present).
  bool any_diff = false;
  for (size_t i = 1; i < 1000; ++i) {
    if (r.pixels[i] != r.pixels[i - 1]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DataGenTest, RasterPixelsArePinned) {
  // FNV-1a over every pixel of every raster: any change to the generated
  // field (evaluation order of its terms included) moves the hash, and
  // with it every tile the loader compresses.
  GlobalDataSet ds = GenerateGlobalDataSet(TinyOptions(2));
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const RasterSpec& r : ds.rasters) {
    for (uint16_t p : r.pixels) {
      hash = (hash ^ (p & 0xff)) * 0x100000001b3ull;
      hash = (hash ^ (p >> 8)) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(hash, 0x80d42e5d39ae06cdull);
}

}  // namespace
}  // namespace paradise::datagen
