// The application catalog: models of the 20 popular apps used throughout the
// paper's evaluation (Table 3), plus an extended 40-app set for the Fig. 4
// study. Footprints and background-activity parameters are calibrated per
// category to reproduce the paper's measured distributions (§3):
//  * ≈39 % of evicted pages refault, >60 % of refaults from BG processes;
//  * refaulted pages ≈ 48.6 % file-backed / 51.4 % anonymous;
//  * refaulted anon ≈ 56.6 % native heap / 43.4 % Java heap;
//  * 58 % of BG apps keep their main thread running; GC is one but not the
//    only source of BG refaults (77 % remain with idle GC off).
#ifndef SRC_WORKLOAD_APP_CATALOG_H_
#define SRC_WORKLOAD_APP_CATALOG_H_

#include <string>
#include <vector>

#include "src/android/activity_manager.h"
#include "src/base/rng.h"

namespace ice {

enum class AppCategory { kSocial, kMultiMedia, kGame, kECommerce, kUtility };

const char* CategoryName(AppCategory category);

// Background activity model for one app.
struct BgActivityParams {
  // ART GC sweeps over the Java heap. A mark phase walks live objects across
  // the *whole* populated heap — cold pages included — which is why GC is
  // the best-known source of BG refaults (§3.2).
  SimDuration gc_period = Sec(15);
  double gc_touch_fraction = 0.7;  // Of the populated Java heap per sweep.
  SimDuration gc_cpu = Ms(120);

  // Main-thread background work (feed refresh, message sync): touches native
  // heap + file pages. Present only for `main_thread_active` apps (58 %).
  // Coverage is sized from the §3.2 study (Fig. 4): >30 % of an app's pages
  // are re-referenced within 30 seconds of being reclaimed in the BG, so the
  // sync task re-walks `broad_coverage_per_30s` of the native+file prefix
  // every 30 seconds.
  bool main_thread_active = true;
  SimDuration sync_period = Sec(4);
  double broad_coverage_per_30s = 0.45;
  SimDuration sync_cpu = Ms(280);

  // Service-process activity (push, location tracking).
  SimDuration service_period = Ms(2500);
  uint32_t service_touches = 70;
  SimDuration service_cpu = Ms(25);

  // Facebook-style stay-awake bug: extra frequent wakeups.
  bool buggy_wakeful = false;
};

struct CatalogApp {
  AppDescriptor descriptor;
  AppCategory category;
  BgActivityParams bg;
};

// The 20 Table-3 applications. Every footprint is multiplied by
// `footprint_scale` (the device's DeviceProfile::footprint_scale).
std::vector<CatalogApp> DefaultCatalog(double footprint_scale = 1.0);

// 40 popular applications (the §3.2 study set): the default 20 plus 20
// synthesized category-mates with jittered parameters.
std::vector<CatalogApp> ExtendedCatalog(Rng& rng, double footprint_scale = 1.0);

// Looks up a catalog entry by package name; null when absent.
const CatalogApp* FindInCatalog(const std::vector<CatalogApp>& catalog,
                                const std::string& package);

}  // namespace ice

#endif  // SRC_WORKLOAD_APP_CATALOG_H_
