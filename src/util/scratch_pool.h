// Free list of reusable scratch buffers shared by concurrent workers.
//
// lease() hands out a buffer no other live lease holds: the most recently
// returned one, or a new T(args...) when the list is empty. The lease gives
// it back when it goes out of scope. Buffers are never freed before the
// pool, so a worker loop leases without allocating once the pool is warm.
// Which buffer a lease gets depends on scheduling; callers keep their
// results independent of it (each lease resets or epoch-stamps its buffer).
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace lcrb {

template <class T>
class ScratchPool {
 public:
  /// RAII hold of one buffer; returns it to the pool on destruction.
  class Lease {
   public:
    Lease(ScratchPool& pool, std::unique_ptr<T> item)
        : pool_(pool), item_(std::move(item)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      std::lock_guard<std::mutex> lock(pool_.mu_);
      pool_.free_.push_back(std::move(item_));
    }
    T& operator*() const { return *item_; }
    T* operator->() const { return item_.get(); }

   private:
    ScratchPool& pool_;
    std::unique_ptr<T> item_;
  };

  /// A free buffer, or a new T(args...) when none is free.
  template <class... Args>
  Lease lease(Args&&... args) {
    std::unique_ptr<T> item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        item = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (item == nullptr) {
      item = std::make_unique<T>(std::forward<Args>(args)...);
    }
    return Lease(*this, std::move(item));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace lcrb
