#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "storage/run_file.h"

namespace tango {
namespace storage {
namespace {

Schema TwoColSchema() {
  return Schema({{"", "K", DataType::kInt}, {"", "V", DataType::kString}});
}

TEST(PageTest, AppendUntilFull) {
  Page page(128);
  WireWriter w;
  w.PutTuple({Value(int64_t{1}), Value("0123456789")});
  const auto encoded = w.Take();
  int appended = 0;
  while (page.Append(encoded) >= 0) ++appended;
  EXPECT_GT(appended, 1);
  EXPECT_LE(page.used_bytes(), 128u);
  auto back = page.Read(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie()[1].AsString(), "0123456789");
}

TEST(HeapFileTest, AppendScanGet) {
  HeapFile file(TwoColSchema(), /*page_size=*/256);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 100; ++i) {
    rids.push_back(file.Append(
        {Value(i), Value(std::string("v").append(std::to_string(i)))}));
  }
  EXPECT_EQ(file.num_tuples(), 100u);
  EXPECT_GT(file.num_pages(), 1u);  // tiny pages force multiple
  EXPECT_GT(file.avg_tuple_bytes(), 0.0);

  // Scan returns everything in insertion order.
  auto it = file.Scan();
  Tuple t;
  Rid rid;
  int64_t expect = 0;
  while (it.Next(&t, &rid)) {
    EXPECT_EQ(t[0].AsInt(), expect);
    EXPECT_EQ(rid, rids[static_cast<size_t>(expect)]);
    ++expect;
  }
  EXPECT_EQ(expect, 100);

  // Random access by rid.
  auto got = file.Get(rids[42]);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie()[1].AsString(), "v42");
  EXPECT_FALSE(file.Get(Rid{9999, 0}).ok());
}

TEST(BPlusTreeTest, InsertAndLookup) {
  BPlusTree tree;
  for (int64_t i = 0; i < 1000; ++i) {
    tree.Insert(Value(i * 2), Rid{static_cast<uint32_t>(i), 0});
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 1u);
  auto hits = tree.Lookup(Value(int64_t{500}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].page, 250u);
  EXPECT_TRUE(tree.Lookup(Value(int64_t{501})).empty());
}

TEST(BPlusTreeTest, DuplicateKeysAllFound) {
  BPlusTree tree;
  // 200 entries of the same key interleaved with others, forcing splits
  // around duplicate separators.
  for (int64_t i = 0; i < 200; ++i) {
    tree.Insert(Value(int64_t{7}), Rid{static_cast<uint32_t>(i), 1});
    tree.Insert(Value(i), Rid{static_cast<uint32_t>(i), 2});
  }
  EXPECT_EQ(tree.Lookup(Value(int64_t{7})).size(), 201u);  // 200 dups + i==7
  std::string err;
  EXPECT_TRUE(tree.CheckInvariants(&err)) << err;
}

TEST(BPlusTreeTest, RangeScanGEAndGT) {
  BPlusTree tree;
  for (int64_t i = 0; i < 500; ++i) tree.Insert(Value(i), Rid{0, 0});
  Value k;
  Rid r;
  auto ge = tree.SeekGE(Value(int64_t{100}));
  ASSERT_TRUE(ge.Next(&k, &r));
  EXPECT_EQ(k.AsInt(), 100);
  auto gt = tree.SeekGT(Value(int64_t{100}));
  ASSERT_TRUE(gt.Next(&k, &r));
  EXPECT_EQ(k.AsInt(), 101);
  // Seek beyond the end yields nothing.
  auto end = tree.SeekGT(Value(int64_t{499}));
  EXPECT_FALSE(end.Next(&k, &r));
}

TEST(BPlusTreeTest, SeekGTSkipsAllDuplicates) {
  BPlusTree tree;
  for (int i = 0; i < 300; ++i) tree.Insert(Value(int64_t{5}), Rid{0, 0});
  tree.Insert(Value(int64_t{9}), Rid{1, 1});
  Value k;
  Rid r;
  auto it = tree.SeekGT(Value(int64_t{5}));
  ASSERT_TRUE(it.Next(&k, &r));
  EXPECT_EQ(k.AsInt(), 9);
}

// Property test: random workloads keep the tree's invariants and agree with
// a sorted-vector oracle.
class BTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePropertyTest, MatchesSortedOracle) {
  Rng rng(GetParam());
  BPlusTree tree;
  std::vector<int64_t> oracle;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const int64_t key = rng.Uniform(0, 300);  // plenty of duplicates
    tree.Insert(Value(key), Rid{static_cast<uint32_t>(i), 0});
    oracle.push_back(key);
  }
  std::sort(oracle.begin(), oracle.end());

  std::string err;
  ASSERT_TRUE(tree.CheckInvariants(&err)) << err;

  // Full scan equals the sorted oracle.
  auto it = tree.Begin();
  Value k;
  Rid r;
  size_t i = 0;
  while (it.Next(&k, &r)) {
    ASSERT_LT(i, oracle.size());
    EXPECT_EQ(k.AsInt(), oracle[i]) << "position " << i;
    ++i;
  }
  EXPECT_EQ(i, oracle.size());

  // Random point lookups match oracle counts.
  for (int probe = 0; probe < 50; ++probe) {
    const int64_t key = rng.Uniform(0, 300);
    const auto hits = tree.Lookup(Value(key));
    const auto lo = std::lower_bound(oracle.begin(), oracle.end(), key);
    const auto hi = std::upper_bound(oracle.begin(), oracle.end(), key);
    EXPECT_EQ(hits.size(), static_cast<size_t>(hi - lo)) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(1, 2, 3, 7, 11, 42, 1337));

TEST(RunFileTest, WriteRewindRead) {
  RunFile run;
  ASSERT_TRUE(run.Open().ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(run.Append({Value(i),
                            Value(std::string("r").append(std::to_string(i)))})
                    .ok());
  }
  EXPECT_EQ(run.count(), 50u);
  ASSERT_TRUE(run.Rewind().ok());
  Tuple t;
  int64_t i = 0;
  while (true) {
    auto more = run.Next(&t);
    ASSERT_TRUE(more.ok());
    if (!more.ValueOrDie()) break;
    EXPECT_EQ(t[0].AsInt(), i);
    ++i;
  }
  EXPECT_EQ(i, 50);
}

TEST(RunFileTest, MoveTransfersOwnership) {
  RunFile a;
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(a.Append({Value(int64_t{1})}).ok());
  RunFile b = std::move(a);
  ASSERT_TRUE(b.Rewind().ok());
  Tuple t;
  auto more = b.Next(&t);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(more.ValueOrDie());
  EXPECT_EQ(t[0].AsInt(), 1);
}

}  // namespace
}  // namespace storage
}  // namespace tango
