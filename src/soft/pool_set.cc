#include "soft/pool_set.h"

#include <utility>

namespace softres::soft {

void ResizablePoolSet::add(Pool& pool, PoolRole role, std::size_t floor,
                           std::size_t ceiling) {
  Entry e;
  e.pool = &pool;
  e.role = role;
  e.floor = floor;
  e.ceiling = ceiling;
  entries_.push_back(e);
}

const ResizablePoolSet::Entry* ResizablePoolSet::find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.pool->name() == name) return &e;
  }
  return nullptr;
}

void ResizablePoolSet::add_post_resize_hook(Hook hook) {
  hooks_.push_back(std::move(hook));
}

void ResizablePoolSet::run_hooks() {
  for (Hook& h : hooks_) h();
}

}  // namespace softres::soft
