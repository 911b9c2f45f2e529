#include "util/intrusive_list.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace toma::util {
namespace {

struct Item {
  explicit Item(int v = 0) : value(v) {}
  int value;
  ListNode node;
};

using List = IntrusiveList<Item, &Item::node>;

TEST(IntrusiveList, EmptyInvariants) {
  List l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.size(), 0u);
  EXPECT_EQ(l.front(), nullptr);
  EXPECT_EQ(l.back(), nullptr);
  EXPECT_EQ(l.pop_front(), nullptr);
}

TEST(IntrusiveList, PushFrontOrder) {
  List l;
  Item a{1}, b{2}, c{3};
  l.push_front(&a);
  l.push_front(&b);
  l.push_front(&c);
  EXPECT_EQ(l.front()->value, 3);
  EXPECT_EQ(l.back()->value, 1);
  EXPECT_EQ(l.size(), 3u);
}

TEST(IntrusiveList, PushBackOrder) {
  List l;
  Item a{1}, b{2}, c{3};
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  std::vector<int> vals;
  for (Item& it : l) vals.push_back(it.value);
  EXPECT_EQ(vals, (std::vector<int>{1, 2, 3}));
}

TEST(IntrusiveList, EraseMiddle) {
  List l;
  Item a{1}, b{2}, c{3};
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  l.erase(&b);
  EXPECT_FALSE(b.node.linked());
  std::vector<int> vals;
  for (Item& it : l) vals.push_back(it.value);
  EXPECT_EQ(vals, (std::vector<int>{1, 3}));
}

TEST(IntrusiveList, EraseEnds) {
  List l;
  Item a{1}, b{2}, c{3};
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  l.erase(&a);
  l.erase(&c);
  EXPECT_EQ(l.size(), 1u);
  EXPECT_EQ(l.front(), &b);
  EXPECT_EQ(l.back(), &b);
  l.erase(&b);
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, PopFrontDrains) {
  List l;
  Item items[5];
  for (int i = 0; i < 5; ++i) {
    items[i].value = i;
    l.push_back(&items[i]);
  }
  for (int i = 0; i < 5; ++i) {
    Item* it = l.pop_front();
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(it->value, i);
  }
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, RelinkAfterErase) {
  List l;
  Item a{7};
  l.push_back(&a);
  l.erase(&a);
  l.push_front(&a);
  EXPECT_EQ(l.front(), &a);
  EXPECT_EQ(l.size(), 1u);
}

TEST(IntrusiveList, ObjectOfRoundTrip) {
  Item a{42};
  EXPECT_EQ(List::object_of(List::node_of(&a)), &a);
}

}  // namespace
}  // namespace toma::util
