#include "src/storage/block_device.h"

#include <gtest/gtest.h>

#include "src/storage/flash_profiles.h"

namespace ice {
namespace {

TEST(BlockDevice, CompletesARead) {
  Engine engine(1);
  BlockDevice dev(engine, Ufs21Profile());
  bool done = false;
  Bio bio;
  bio.dir = IoDir::kRead;
  bio.pages = 1;
  bio.on_complete = [&] { done = true; };
  dev.Submit(std::move(bio));
  EXPECT_FALSE(done);
  engine.RunFor(Ms(10));
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.stats().Get(stat::kIoReads), 1u);
  EXPECT_EQ(engine.stats().Get(stat::kIoReadBytes), kPageSize);
  EXPECT_EQ(dev.bg_requests(), 1u);
}

TEST(BlockDevice, AccountsBytesInStats) {
  Engine engine(1);
  BlockDevice dev(engine, Ufs21Profile());
  Bio bio;
  bio.dir = IoDir::kWrite;
  bio.pages = 8;
  dev.Submit(std::move(bio));
  engine.RunFor(Ms(10));
  EXPECT_EQ(engine.stats().Get(stat::kIoWrites), 1u);
  EXPECT_EQ(engine.stats().Get(stat::kIoWriteBytes), 8 * kPageSize);
}

TEST(BlockDevice, QueueDepthBoundsInflight) {
  Engine engine(1);
  FlashProfile profile = Emmc51Profile();
  profile.queue_depth = 2;
  BlockDevice dev(engine, profile);
  for (int i = 0; i < 10; ++i) {
    Bio bio;
    bio.dir = IoDir::kRead;
    bio.pages = 4;
    dev.Submit(std::move(bio));
  }
  EXPECT_EQ(dev.inflight(), 2);
  EXPECT_EQ(dev.queued(), 8u);
  engine.RunFor(Sec(1));
  EXPECT_EQ(dev.fg_requests() + dev.bg_requests(), 10u);
  EXPECT_EQ(dev.inflight(), 0);
}

TEST(BlockDevice, LargerRequestsTakeLonger) {
  Engine engine(1);
  BlockDevice dev(engine, Emmc51Profile());
  SimTime small_done = 0, big_done = 0;
  {
    Bio bio;
    bio.dir = IoDir::kRead;
    bio.pages = 1;
    bio.on_complete = [&] { small_done = engine.now(); };
    dev.Submit(std::move(bio));
  }
  engine.RunFor(Sec(1));
  SimTime t1 = engine.now();
  {
    Bio bio;
    bio.dir = IoDir::kRead;
    bio.pages = 256;
    bio.on_complete = [&] { big_done = engine.now(); };
    dev.Submit(std::move(bio));
  }
  engine.RunFor(Sec(1));
  EXPECT_GT(big_done - t1, small_done);
}

TEST(BlockDevice, FifoOrderingUnderLoad) {
  Engine engine(1);
  FlashProfile profile = Ufs21Profile();
  profile.queue_depth = 1;
  profile.jitter_sigma = 0.0;
  BlockDevice dev(engine, profile);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    Bio bio;
    bio.dir = IoDir::kRead;
    bio.pages = 1;
    bio.on_complete = [&order, i] { order.push_back(i); };
    dev.Submit(std::move(bio));
  }
  engine.RunFor(Sec(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BlockDevice, MeanLatencyGrowsWithQueueing) {
  Engine engine(1);
  BlockDevice idle_dev(engine, Emmc51Profile());
  {
    Bio bio;
    bio.dir = IoDir::kRead;
    bio.pages = 1;
    idle_dev.Submit(std::move(bio));
  }
  engine.RunFor(Sec(1));
  double idle_latency = idle_dev.mean_latency_us();

  BlockDevice busy_dev(engine, Emmc51Profile());
  for (int i = 0; i < 200; ++i) {
    Bio bio;
    bio.dir = IoDir::kRead;
    bio.pages = 4;
    busy_dev.Submit(std::move(bio));
  }
  engine.RunFor(Sec(5));
  EXPECT_GT(busy_dev.mean_latency_us(), idle_latency * 2);
}

TEST(BlockDevice, FgBgAccountingSplits) {
  Engine engine(1);
  BlockDevice dev(engine, Ufs21Profile());
  Bio fg;
  fg.dir = IoDir::kRead;
  fg.pages = 1;
  fg.foreground = true;
  dev.Submit(std::move(fg));
  Bio bg;
  bg.dir = IoDir::kRead;
  bg.pages = 1;
  bg.foreground = false;
  dev.Submit(std::move(bg));
  engine.RunFor(Ms(10));
  EXPECT_EQ(dev.fg_requests(), 1u);
  EXPECT_EQ(dev.bg_requests(), 1u);
  EXPECT_GT(dev.fg_mean_latency_us(), 0.0);
  EXPECT_GT(dev.bg_mean_latency_us(), 0.0);
}

TEST(BlockDevice, FgLatencySuffersBehindBgFlood) {
  // The paper's I/O-pressure channel: a foreground fault-in queued behind a
  // burst of background refault reads waits for them.
  Engine engine(1);
  FlashProfile profile = Emmc51Profile();
  profile.queue_depth = 2;
  BlockDevice dev(engine, profile);
  for (int i = 0; i < 50; ++i) {
    Bio bg;
    bg.dir = IoDir::kRead;
    bg.pages = 8;
    bg.foreground = false;
    dev.Submit(std::move(bg));
  }
  Bio fg;
  fg.dir = IoDir::kRead;
  fg.pages = 1;
  fg.foreground = true;
  dev.Submit(std::move(fg));
  engine.RunFor(Sec(2));
  EXPECT_GT(dev.fg_mean_latency_us(), 5000.0);  // Way above its service time.
}

TEST(FlashProfiles, UfsIsFasterThanEmmc) {
  FlashProfile ufs = Ufs21Profile();
  FlashProfile emmc = Emmc51Profile();
  EXPECT_LT(ufs.read_per_page, emmc.read_per_page);
  EXPECT_LT(ufs.write_per_page, emmc.write_per_page);
  EXPECT_GT(ufs.queue_depth, emmc.queue_depth);
}

}  // namespace
}  // namespace ice
