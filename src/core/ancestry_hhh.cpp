#include "core/ancestry_hhh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/key_domain.hpp"
#include "wire/codec.hpp"

namespace hhh {

AncestryHhhEngine::AncestryHhhEngine(const Params& params) : params_(params) {
  if (params.eps <= 0.0 || params.eps >= 1.0) {
    throw std::invalid_argument("AncestryHhhEngine: eps outside (0,1)");
  }
  if (params.hierarchy.family() != AddressFamily::kIpv4) {
    throw std::invalid_argument("AncestryHhhEngine: IPv4 hierarchies only");
  }
  levels_.reserve(params_.hierarchy.levels());
  for (std::size_t i = 0; i < params_.hierarchy.levels(); ++i) levels_.emplace_back(256);
  compress_stride_ = static_cast<std::uint64_t>(std::ceil(1.0 / params.eps));
  next_compress_at_ = compress_stride_;
}

void AncestryHhhEngine::add_batch(std::span<const PacketRecord> packets) {
  // The running total stays in a register: the member store per packet
  // cannot be elided, as node writes may alias it as far as the compiler
  // knows. compress() reads the member, so it is written back first.
  auto& leaf = levels_[0];
  const unsigned leaf_len = params_.hierarchy.leaf_length();
  const double eps = params_.eps;
  std::uint64_t total = total_bytes_;
  std::uint64_t compress_at = next_compress_at_;
  for (const auto& p : packets) {
    if (p.family() != AddressFamily::kIpv4) continue;
    total += p.ip_len;
    // key_halves reads the raw record words directly (same value as
    // key(p.src(), len), minus the IpAddress round trip).
    auto [node, inserted] =
        leaf.try_emplace(V4Domain::key_halves(p.src_hi(), p.src_lo(), leaf_len));
    // Undercount bound for a new entry is eps*N.
    if (inserted) {
      node->delta = static_cast<std::uint64_t>(eps * static_cast<double>(total));
    }
    node->f += p.ip_len;
    if (total >= compress_at) {
      total_bytes_ = total;
      compress();
      // Amortized cadence: recompress after the stream grows by another
      // eps*N (at least one bucket width). A fixed 1/eps-byte stride would
      // run compress() on nearly every packet once N is large.
      const auto growth = std::max<std::uint64_t>(
          compress_stride_, static_cast<std::uint64_t>(eps * static_cast<double>(total)));
      compress_at = total + growth;
    }
  }
  total_bytes_ = total;
  next_compress_at_ = compress_at;
}

void AncestryHhhEngine::compress() {
  const auto limit =
      static_cast<std::uint64_t>(params_.eps * static_cast<double>(total_bytes_));
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const unsigned parent_len = params_.hierarchy.length_at(level + 1);
    auto& parents = levels_[level + 1];
    levels_[level].erase_if([&](std::uint64_t key, Node& node) {
      if (node.f + node.delta > limit) return false;
      // Roll the counted mass into the parent. A parent created here takes
      // delta = max(child delta, eps*N): the child's delta alone can be
      // stale (created long ago), and a stale small delta lets escaped
      // mass compound past eps*N across incarnations — eps*N at creation
      // always dominates every escape that happened before now.
      const std::uint64_t parent_key = V4Domain::truncate(key, parent_len);
      auto [parent, inserted] = parents.try_emplace(parent_key);
      if (inserted) parent->delta = std::max(node.delta, limit);
      parent->f += node.f;
      return true;
    });
  }
}

HhhSet AncestryHhhEngine::extract(double phi) const {
  HhhSet result;
  result.total_bytes = total_bytes_;
  result.threshold_bytes = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(total_bytes_))));
  const double threshold = static_cast<double>(result.threshold_bytes);

  struct Selected {
    PrefixKey prefix;
    double full_estimate;
  };
  std::vector<Selected> selected;

  // The trie state is *fragmented*: a prefix's counted mass is spread over
  // the live entries in its subtree (compression only ever moves mass from
  // a child entry to its parent entry, i.e. within every ancestor's
  // subtree). Mass escapes a prefix p's subtree only when the entry at p
  // itself is compressed away, which the deletion rule bounds by eps*N.
  // Upper estimate: sum of f over p's subtree + eps*N. Summing deltas of
  // descendants would double-count uncertainty thousands of times over.
  const double eps_n = params_.eps * static_cast<double>(total_bytes_);
  std::vector<std::vector<std::pair<PrefixKey, double>>> upper(levels_.size());
  FlatHashMap<std::uint64_t, double> carry(256);  // subtree f-mass flowing upward
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    FlatHashMap<std::uint64_t, double> f_sum(256);
    levels_[level].for_each([&](std::uint64_t key, const Node& node) {
      f_sum[key] += static_cast<double>(node.f);
    });
    carry.for_each([&](std::uint64_t key, double& mass) { f_sum[key] += mass; });
    carry.clear();

    const bool has_parent = level + 1 < levels_.size();
    const unsigned parent_len = has_parent ? params_.hierarchy.length_at(level + 1) : 0;
    f_sum.for_each([&](std::uint64_t key, double& mass) {
      const PrefixKey prefix = V4Domain::prefix(key);
      upper[level].emplace_back(prefix, mass + eps_n);
      if (has_parent) carry[V4Domain::truncate(key, parent_len)] += mass;
    });
  }

  for (std::size_t level = 0; level < levels_.size(); ++level) {
    for (const auto& [prefix, full] : upper[level]) {
      double conditioned = full;
      for (const auto& d : selected) {
        if (!prefix.is_ancestor_of(d.prefix)) continue;
        const bool closest = std::none_of(
            selected.begin(), selected.end(), [&](const Selected& between) {
              return between.prefix.length() > prefix.length() &&
                     between.prefix.length() < d.prefix.length() &&
                     between.prefix.is_ancestor_of(d.prefix);
            });
        if (closest) conditioned -= d.full_estimate;
      }
      if (conditioned >= threshold) {
        result.add(HhhItem{prefix, static_cast<std::uint64_t>(full),
                           static_cast<std::uint64_t>(std::max(0.0, conditioned))});
        selected.push_back(Selected{prefix, full});
      }
    }
  }
  return result;
}

void AncestryHhhEngine::reset() {
  for (auto& level : levels_) level.clear();
  total_bytes_ = 0;
  next_compress_at_ = compress_stride_;
}

void AncestryHhhEngine::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, params_.hierarchy);
  w.f64(params_.eps);
  w.u64(total_bytes_);
  w.u64(next_compress_at_);
  for (const auto& level : levels_) {
    w.u64(level.size());
    level.for_each([&](std::uint64_t key, const Node& node) {
      w.u64(key);
      w.u64(node.f);
      w.u64(node.delta);
    });
  }
}

AncestryHhhEngine::Params AncestryHhhEngine::read_params(wire::Reader& r) {
  Params p;
  p.hierarchy = wire::read_hierarchy(r);
  p.eps = r.f64();
  wire::check(p.eps > 0.0 && p.eps < 1.0, wire::WireError::kBadValue,
              "AncestryHhhEngine eps outside (0,1)");
  return p;
}

void AncestryHhhEngine::read_state(wire::Reader& r) {
  total_bytes_ = r.u64();
  next_compress_at_ = r.u64();
  for (auto& level : levels_) {
    const std::uint64_t n = r.count(24);
    level = FlatHashMap<std::uint64_t, Node>(std::max<std::size_t>(n * 2, 256));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t key = r.u64();
      auto [node, inserted] = level.try_emplace(key);
      wire::check(inserted, wire::WireError::kBadValue, "AncestryHhhEngine duplicate key");
      node->f = r.u64();
      node->delta = r.u64();
    }
  }
}

void AncestryHhhEngine::load_state(wire::Reader& r) {
  const Params p = read_params(r);
  wire::check(p.hierarchy == params_.hierarchy && p.eps == params_.eps,
              wire::WireError::kParamsMismatch, "AncestryHhhEngine params mismatch");
  read_state(r);
}

std::unique_ptr<AncestryHhhEngine> AncestryHhhEngine::deserialize(wire::Reader& r) {
  auto engine = std::make_unique<AncestryHhhEngine>(read_params(r));
  engine->read_state(r);
  return engine;
}

std::size_t AncestryHhhEngine::memory_bytes() const {
  std::size_t sum = 0;
  for (const auto& level : levels_) sum += level.memory_bytes();
  return sum;
}

double AncestryHhhEngine::estimate(PrefixKey prefix) const {
  double mass = 0.0;
  const std::size_t query_level = params_.hierarchy.level_of(prefix);
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    // Entries above the query level cannot lie inside the prefix.
    if (query_level != Hierarchy::npos && level > query_level) break;
    levels_[level].for_each([&](std::uint64_t key, const Node& node) {
      if (prefix.contains(V4Domain::prefix(key))) mass += static_cast<double>(node.f);
    });
  }
  return mass + params_.eps * static_cast<double>(total_bytes_);
}

std::size_t AncestryHhhEngine::entry_count() const {
  std::size_t sum = 0;
  for (const auto& level : levels_) sum += level.size();
  return sum;
}

}  // namespace hhh
