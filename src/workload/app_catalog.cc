#include "src/workload/app_catalog.h"

#include <algorithm>

#include "src/base/log.h"

namespace ice {

const char* CategoryName(AppCategory category) {
  switch (category) {
    case AppCategory::kSocial:
      return "Social";
    case AppCategory::kMultiMedia:
      return "Multi-Media";
    case AppCategory::kGame:
      return "Game";
    case AppCategory::kECommerce:
      return "E-Commerce";
    case AppCategory::kUtility:
      return "Utility";
  }
  return "?";
}

namespace {

// Footprints in MiB per category: {java, native, file}. Sized so that the
// paper's pressure setup (6 BG apps on Pixel3 / 8 on P20 plus one foreground
// app) fills the respective devices past their watermarks.
struct CategoryShape {
  uint64_t java_mib;
  uint64_t native_mib;
  uint64_t file_mib;
  SimDuration cold_cpu;
};

CategoryShape ShapeFor(AppCategory category) {
  switch (category) {
    case AppCategory::kSocial:
      return {220, 285, 385, Ms(1500)};
    case AppCategory::kMultiMedia:
      return {155, 440, 555, Ms(1700)};
    case AppCategory::kGame:
      return {120, 705, 705, Ms(2600)};
    case AppCategory::kECommerce:
      return {180, 250, 385, Ms(1300)};
    case AppCategory::kUtility:
      return {155, 220, 345, Ms(1100)};
  }
  return {170, 260, 345, Ms(1400)};
}

CatalogApp MakeApp(const std::string& package, AppCategory category, double fs,
                   bool main_thread_active, bool perceptible = false, bool buggy = false) {
  CatalogApp app;
  app.category = category;
  CategoryShape shape = ShapeFor(category);
  app.descriptor.package = package;
  app.descriptor.java_pages = BytesToPages(static_cast<uint64_t>(shape.java_mib * fs) * kMiB);
  app.descriptor.native_pages =
      BytesToPages(static_cast<uint64_t>(shape.native_mib * fs) * kMiB);
  app.descriptor.file_pages = BytesToPages(static_cast<uint64_t>(shape.file_mib * fs) * kMiB);
  app.descriptor.cold_launch_cpu = shape.cold_cpu;
  app.descriptor.perceptible_in_bg = perceptible;

  app.bg.main_thread_active = main_thread_active;
  app.bg.buggy_wakeful = buggy;
  // Category flavor: games GC rarely in BG but hold big native heaps; social
  // apps sync aggressively; media apps prefetch file content.
  switch (category) {
    case AppCategory::kSocial:
      app.bg.sync_period = app.bg.sync_period * 3 / 4;
      app.bg.broad_coverage_per_30s = 0.50;
      break;
    case AppCategory::kMultiMedia:
      app.bg.broad_coverage_per_30s = 0.48;
      app.bg.gc_touch_fraction = 0.55;
      break;
    case AppCategory::kGame:
      app.bg.gc_period = app.bg.gc_period * 2;
      app.bg.broad_coverage_per_30s = 0.34;
      break;
    case AppCategory::kECommerce:
      app.bg.broad_coverage_per_30s = 0.42;
      break;
    case AppCategory::kUtility:
      app.bg.broad_coverage_per_30s = 0.38;
      break;
  }
  return app;
}

}  // namespace

std::vector<CatalogApp> DefaultCatalog(double footprint_scale) {
  std::vector<CatalogApp> catalog;
  // Social (Table 3): Facebook, Skype, Twitter, WeChat, WhatsApp.
  catalog.push_back(MakeApp("Facebook", AppCategory::kSocial, footprint_scale, true, false, true));
  catalog.push_back(MakeApp("Skype", AppCategory::kSocial, footprint_scale, true, true));
  catalog.push_back(MakeApp("Twitter", AppCategory::kSocial, footprint_scale, true));
  catalog.push_back(MakeApp("WeChat", AppCategory::kSocial, footprint_scale, true));
  catalog.push_back(MakeApp("WhatsApp", AppCategory::kSocial, footprint_scale, true, true));
  // Multi-Media: Youtube, Netflix, TikTok.
  catalog.push_back(MakeApp("Youtube", AppCategory::kMultiMedia, footprint_scale, true));
  catalog.push_back(MakeApp("Netflix", AppCategory::kMultiMedia, footprint_scale, false));
  catalog.push_back(MakeApp("TikTok", AppCategory::kMultiMedia, footprint_scale, true));
  // Game: AngryBird, Arena of Valor, PUBG Mobile.
  catalog.push_back(MakeApp("AngryBird", AppCategory::kGame, footprint_scale, false));
  catalog.push_back(MakeApp("ArenaOfValor", AppCategory::kGame, footprint_scale, false));
  catalog.push_back(MakeApp("PUBGMobile", AppCategory::kGame, footprint_scale, true));
  // E-Commerce: Amazon, PayPal, AliPay, eBay, Yelp.
  catalog.push_back(MakeApp("Amazon", AppCategory::kECommerce, footprint_scale, true));
  catalog.push_back(MakeApp("PayPal", AppCategory::kECommerce, footprint_scale, false));
  catalog.push_back(MakeApp("AliPay", AppCategory::kECommerce, footprint_scale, false));
  catalog.push_back(MakeApp("eBay", AppCategory::kECommerce, footprint_scale, true));
  catalog.push_back(MakeApp("Yelp", AppCategory::kECommerce, footprint_scale, false));
  // Utility: Chrome, Camera, Uber, Google Map.
  catalog.push_back(MakeApp("Chrome", AppCategory::kUtility, footprint_scale, true));
  catalog.push_back(MakeApp("Camera", AppCategory::kUtility, footprint_scale, false));
  catalog.push_back(MakeApp("Uber", AppCategory::kUtility, footprint_scale, true));
  catalog.push_back(MakeApp("GoogleMap", AppCategory::kUtility, footprint_scale, true));
  return catalog;
}

std::vector<CatalogApp> ExtendedCatalog(Rng& rng, double footprint_scale) {
  std::vector<CatalogApp> catalog = DefaultCatalog(footprint_scale);
  static const AppCategory kCats[] = {AppCategory::kSocial, AppCategory::kMultiMedia,
                                      AppCategory::kGame, AppCategory::kECommerce,
                                      AppCategory::kUtility};
  for (int i = 0; i < 20; ++i) {
    AppCategory cat = kCats[i % 5];
    bool active = rng.Chance(0.58);
    CatalogApp app = MakeApp("Extra" + std::to_string(i), cat, footprint_scale, active);
    // Jitter footprints +-25 % so the study set is not 5 identical shapes.
    double jitter = 0.75 + 0.5 * rng.NextDouble();
    app.descriptor.java_pages = static_cast<PageCount>(app.descriptor.java_pages * jitter);
    app.descriptor.native_pages = static_cast<PageCount>(app.descriptor.native_pages * jitter);
    app.descriptor.file_pages = static_cast<PageCount>(app.descriptor.file_pages * jitter);
    catalog.push_back(std::move(app));
  }
  return catalog;
}

const CatalogApp* FindInCatalog(const std::vector<CatalogApp>& catalog,
                                const std::string& package) {
  for (const CatalogApp& app : catalog) {
    if (app.descriptor.package == package) {
      return &app;
    }
  }
  return nullptr;
}

}  // namespace ice
