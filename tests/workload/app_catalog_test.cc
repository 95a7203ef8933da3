#include "src/workload/app_catalog.h"

#include <gtest/gtest.h>

#include <set>

namespace ice {
namespace {

TEST(AppCatalog, HasTwentyTable3Apps) {
  auto catalog = DefaultCatalog();
  EXPECT_EQ(catalog.size(), 20u);
  // Spot-check Table 3 membership.
  for (const char* package :
       {"Facebook", "Skype", "Twitter", "WeChat", "WhatsApp", "Youtube", "Netflix",
        "TikTok", "AngryBird", "ArenaOfValor", "PUBGMobile", "Amazon", "PayPal",
        "AliPay", "eBay", "Yelp", "Chrome", "Camera", "Uber", "GoogleMap"}) {
    EXPECT_NE(FindInCatalog(catalog, package), nullptr) << package;
  }
}

TEST(AppCatalog, PackagesUnique) {
  auto catalog = DefaultCatalog();
  std::set<std::string> names;
  for (const auto& app : catalog) {
    EXPECT_TRUE(names.insert(app.descriptor.package).second);
  }
}

TEST(AppCatalog, CategoriesCoverTable3) {
  auto catalog = DefaultCatalog();
  std::set<AppCategory> cats;
  for (const auto& app : catalog) {
    cats.insert(app.category);
  }
  EXPECT_EQ(cats.size(), 5u);
}

TEST(AppCatalog, GamesAreBiggest) {
  auto catalog = DefaultCatalog();
  const CatalogApp* game = FindInCatalog(catalog, "PUBGMobile");
  const CatalogApp* utility = FindInCatalog(catalog, "Camera");
  ASSERT_NE(game, nullptr);
  ASSERT_NE(utility, nullptr);
  auto total = [](const CatalogApp* a) {
    return a->descriptor.java_pages + a->descriptor.native_pages + a->descriptor.file_pages;
  };
  EXPECT_GT(total(game), total(utility));
}

TEST(AppCatalog, FootprintScaleApplies) {
  auto big = DefaultCatalog(2.0);
  auto normal = DefaultCatalog();
  EXPECT_NEAR(static_cast<double>(big[0].descriptor.native_pages),
              2.0 * normal[0].descriptor.native_pages,
              normal[0].descriptor.native_pages * 0.02);
}

TEST(AppCatalog, PerceptibleAppsExist) {
  // Skype and WhatsApp can receive calls: perceptible in BG (whitelisted).
  auto catalog = DefaultCatalog();
  EXPECT_TRUE(FindInCatalog(catalog, "Skype")->descriptor.perceptible_in_bg);
  EXPECT_TRUE(FindInCatalog(catalog, "WhatsApp")->descriptor.perceptible_in_bg);
  EXPECT_FALSE(FindInCatalog(catalog, "Twitter")->descriptor.perceptible_in_bg);
}

TEST(AppCatalog, FacebookHasStayAwakeBug) {
  // §3.2: "Facebook had a buggy release that left the application doing
  // nothing but stay awake and running in the BG."
  auto catalog = DefaultCatalog();
  EXPECT_TRUE(FindInCatalog(catalog, "Facebook")->bg.buggy_wakeful);
}

TEST(AppCatalog, ExtendedCatalogHasFortyApps) {
  Rng rng(1);
  auto catalog = ExtendedCatalog(rng);
  EXPECT_EQ(catalog.size(), 40u);
}

TEST(AppCatalog, ExtendedCatalogRoughly58PercentActive) {
  // §3.2: 58 % of BG apps observed running their main thread.
  Rng rng(1);
  int active = 0;
  int total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto catalog = ExtendedCatalog(rng);
    for (const auto& app : catalog) {
      ++total;
      active += app.bg.main_thread_active ? 1 : 0;
    }
  }
  double fraction = static_cast<double>(active) / total;
  EXPECT_GT(fraction, 0.45);
  EXPECT_LT(fraction, 0.75);
}

TEST(AppCatalog, FindInCatalogMissReturnsNull) {
  auto catalog = DefaultCatalog();
  EXPECT_EQ(FindInCatalog(catalog, "DoesNotExist"), nullptr);
}

TEST(AppCatalog, CategoryNames) {
  EXPECT_STREQ(CategoryName(AppCategory::kSocial), "Social");
  EXPECT_STREQ(CategoryName(AppCategory::kGame), "Game");
}

}  // namespace
}  // namespace ice
