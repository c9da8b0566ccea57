#include "group/group_config.hpp"

#include <algorithm>
#include <set>

namespace abcast::group {

GroupConfig GroupConfig::uniform(std::uint32_t n_nodes,
                                 std::uint32_t n_groups) {
  ABCAST_CHECK(n_nodes > 0 && n_groups > 0);
  GroupConfig c;
  c.n_nodes = n_nodes;
  c.members.resize(n_groups);
  for (auto& row : c.members) {
    row.resize(n_nodes);
    for (ProcessId p = 0; p < n_nodes; ++p) row[p] = p;
  }
  return c;
}

std::optional<ProcessId> GroupConfig::member_index(std::uint32_t g,
                                                  ProcessId node) const {
  if (g >= members.size()) return std::nullopt;
  const auto& row = members[g];
  const auto it = std::find(row.begin(), row.end(), node);
  if (it == row.end()) return std::nullopt;
  return static_cast<ProcessId>(it - row.begin());
}

std::vector<std::uint32_t> GroupConfig::groups_of(ProcessId node) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t g = 0; g < members.size(); ++g) {
    if (serves(node, g)) out.push_back(g);
  }
  return out;
}

bool GroupConfig::valid() const {
  if (n_nodes == 0 || members.empty()) return false;
  for (const auto& row : members) {
    if (row.empty()) return false;
    std::set<ProcessId> seen;
    for (const ProcessId p : row) {
      if (p >= n_nodes) return false;
      if (!seen.insert(p).second) return false;
    }
  }
  return true;
}

std::uint64_t GroupRouter::key_hash(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace abcast::group
