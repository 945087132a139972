#include "core/hhh_types.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace hhh {

std::vector<PrefixKey> HhhSet::prefixes() const {
  std::vector<PrefixKey> out;
  out.reserve(items_.size());
  for (const auto& item : items_) out.push_back(item.prefix);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool HhhSet::contains(PrefixKey p) const noexcept {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const HhhItem& item) { return item.prefix == p; });
}

std::vector<HhhItem> HhhSet::at_length(unsigned len) const {
  std::vector<HhhItem> out;
  for (const auto& item : items_) {
    if (item.prefix.length() == len) out.push_back(item);
  }
  return out;
}

std::string HhhSet::to_string() const {
  std::string out = str_format("HhhSet{%zu items, total=%s, T=%s}", items_.size(),
                               with_thousands(total_bytes).c_str(),
                               with_thousands(threshold_bytes).c_str());
  for (const auto& item : items_) {
    out += str_format("\n  %-18s total=%-12s cond=%s", item.prefix.to_string().c_str(),
                      with_thousands(item.total_bytes).c_str(),
                      with_thousands(item.conditioned_bytes).c_str());
  }
  return out;
}

void ConditionedSelection::report(PrefixKey prefix, double full, double conditioned) {
  out_.add(HhhItem{prefix, static_cast<std::uint64_t>(full),
                   static_cast<std::uint64_t>(conditioned)});
  std::erase_if(tops_, [&](const Top& top) { return prefix.is_ancestor_of(top.prefix); });
  tops_.push_back(Top{prefix, full});
}

void PrefixUnion::add(const std::vector<PrefixKey>& prefixes) {
  values_.insert(values_.end(), prefixes.begin(), prefixes.end());
  dirty_ = true;
}

void PrefixUnion::add(PrefixKey p) {
  values_.push_back(p);
  dirty_ = true;
}

void PrefixUnion::normalize() const {
  if (!dirty_) return;
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  dirty_ = false;
}

std::size_t PrefixUnion::size() const {
  normalize();
  return values_.size();
}

const std::vector<PrefixKey>& PrefixUnion::values() const {
  normalize();
  return values_;
}

bool PrefixUnion::contains(PrefixKey p) const {
  normalize();
  return std::binary_search(values_.begin(), values_.end(), p);
}

std::vector<PrefixKey> prefix_difference(const std::vector<PrefixKey>& a,
                                          const std::vector<PrefixKey>& b) {
  std::vector<PrefixKey> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace hhh
