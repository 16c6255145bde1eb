// A string-keyed map whose copies share structure: a persistent AVL tree of
// shared_ptr-held entries, used for XenStore's directory children.
//
// Entries follow XsStore::Detach's copy-on-write rule one level down:
// copying a map is an O(1) pointer copy, and a mutation copies only the
// entries on its search path (plus the O(1) entries each rotation moves)
// that another copy still holds, mutating unshared ones in place. A
// mutation on a map no other copy shares copies nothing. Guests choose
// XenStore names, so the balance is AVL's worst-case bound (height below
// 1.45 log2 n) whatever order keys arrive in. Keys compare as std::string
// does: in-order iteration is std::map<std::string, V> order.
//
// Every call adds its work to the CowWork it is handed: the entries it
// visited on its search path, and the entries it copied.
#ifndef XOAR_SRC_XS_COW_MAP_H_
#define XOAR_SRC_XS_COW_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace xoar {

// Work done by the CowMap calls handed this record, summed.
struct CowWork {
  std::uint64_t visits = 0;  // entries a lookup or descent stepped on
  std::uint64_t copies = 0;  // shared entries copied
};

template <typename V>
class CowMap {
 public:
  std::size_t size() const { return size_; }
  int height() const { return Height(root_); }

  const V* Find(std::string_view key, CowWork* work) const {
    for (const Entry* e = root_.get(); e != nullptr;) {
      ++work->visits;
      const int c = key.compare(e->key);
      if (c == 0) {
        return &e->value;
      }
      e = e->child[c > 0].get();
    }
    return nullptr;
  }

  // `key`'s value, exclusive to this map; nullptr if absent. A miss still
  // copies the shared entries on the search path, as the Insert that
  // follows one must.
  V* FindMutable(std::string_view key, CowWork* work) {
    for (EntryPtr* slot = &root_; *slot != nullptr;) {
      ++work->visits;
      Entry* e = Detach(*slot, work);
      const int c = key.compare(e->key);
      if (c == 0) {
        return &e->value;
      }
      slot = &e->child[c > 0];
    }
    return nullptr;
  }

  // Inserts `key`, which must be absent, and returns its value.
  V& Insert(std::string_view key, V value, CowWork* work) {
    ++size_;
    return InsertAt(root_, key, std::move(value), work);
  }

  // Erases `key`; false if it is absent. Like FindMutable's, a miss still
  // copies the shared entries on the search path.
  bool Erase(std::string_view key, CowWork* work) {
    if (!EraseAt(root_, key, work)) {
      return false;
    }
    --size_;
    return true;
  }

  // Calls f(key, value) for every entry, in key order.
  template <typename F>
  void ForEach(F&& f) const {
    ForEachIn(root_.get(), f);
  }

 private:
  struct Entry;
  using EntryPtr = std::shared_ptr<Entry>;
  struct Entry {
    std::string key;
    V value;
    EntryPtr child[2];  // [0] holds smaller keys, [1] larger ones
    int height = 1;
  };

  static int Height(const EntryPtr& e) { return e ? e->height : 0; }

  static Entry* Detach(EntryPtr& slot, CowWork* work) {
    if (slot.use_count() > 1) {
      slot = std::make_shared<Entry>(*slot);
      ++work->copies;
    }
    return slot.get();
  }

  // Makes slot's child on side `d` the root of the subtree.
  static void Rotate(EntryPtr& slot, int d, CowWork* work) {
    Entry* top = Detach(slot, work);
    EntryPtr pivot = std::move(top->child[d]);
    Entry* p = Detach(pivot, work);
    top->child[d] = std::move(p->child[1 - d]);
    top->height = 1 + std::max(Height(top->child[0]), Height(top->child[1]));
    p->child[1 - d] = std::move(slot);
    p->height = 1 + std::max(Height(p->child[0]), Height(p->child[1]));
    slot = std::move(pivot);
  }

  // Restores the AVL invariant at `slot`, whose entry is already exclusive
  // and whose subtrees are balanced.
  static void Rebalance(EntryPtr& slot, CowWork* work) {
    Entry* e = slot.get();
    const int lean = Height(e->child[0]) - Height(e->child[1]);
    if (lean < -1 || lean > 1) {
      const int d = lean > 1 ? 0 : 1;  // the taller side
      const Entry* tall = e->child[d].get();
      if (Height(tall->child[1 - d]) > Height(tall->child[d])) {
        Rotate(e->child[d], 1 - d, work);
      }
      Rotate(slot, d, work);
    } else {
      e->height = 1 + std::max(Height(e->child[0]), Height(e->child[1]));
    }
  }

  // The new entry is never shared, so no rotation copies it and the
  // returned reference stays valid.
  static V& InsertAt(EntryPtr& slot, std::string_view key, V&& value,
                     CowWork* work) {
    if (slot == nullptr) {
      slot = std::make_shared<Entry>();
      slot->key = key;
      slot->value = std::move(value);
      return slot->value;
    }
    ++work->visits;
    Entry* e = Detach(slot, work);
    V& inserted = InsertAt(e->child[key.compare(e->key) > 0], key,
                           std::move(value), work);
    Rebalance(slot, work);
    return inserted;
  }

  static bool EraseAt(EntryPtr& slot, std::string_view key, CowWork* work) {
    if (slot == nullptr) {
      return false;
    }
    ++work->visits;
    const int c = key.compare(slot->key);
    if (c == 0 && (slot->child[0] == nullptr || slot->child[1] == nullptr)) {
      // Its one subtree (another copy may share it) takes its place.
      EntryPtr only = slot->child[slot->child[0] == nullptr];
      slot = std::move(only);
      return true;
    }
    Entry* e = Detach(slot, work);
    if (c != 0) {
      if (!EraseAt(e->child[c > 0], key, work)) {
        return false;  // nothing moved, so no height changed
      }
    } else {
      // Two children: the smallest larger entry takes this one's place.
      EntryPtr next = TakeMin(e->child[1], work);
      e->key = std::move(next->key);
      e->value = std::move(next->value);
    }
    Rebalance(slot, work);
    return true;
  }

  // Unlinks the smallest entry below `slot` and returns it, exclusive.
  static EntryPtr TakeMin(EntryPtr& slot, CowWork* work) {
    ++work->visits;
    Entry* e = Detach(slot, work);
    if (e->child[0] == nullptr) {
      EntryPtr min = std::move(slot);
      slot = std::move(min->child[1]);
      return min;
    }
    EntryPtr min = TakeMin(e->child[0], work);
    Rebalance(slot, work);
    return min;
  }

  template <typename F>
  static void ForEachIn(const Entry* e, F& f) {
    for (; e != nullptr; e = e->child[1].get()) {
      ForEachIn(e->child[0].get(), f);
      f(std::as_const(e->key), std::as_const(e->value));
    }
  }

  EntryPtr root_;
  std::size_t size_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_COW_MAP_H_
